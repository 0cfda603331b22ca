#include "fleet.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace e2e {

using namespace dcs::service;

namespace {

constexpr std::uint64_t kFirstLeafId = 1001;  // outside the site-id range
constexpr int kDrainMs = 10'000;

}  // namespace

Fleet::Fleet(bool federated, std::uint64_t epoch_updates) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();

  CollectorConfig root_config;
  root_config.federation_root = federated;
  root_ = std::make_unique<Collector>(root_config);
  root_->start();

  if (federated) {
    std::vector<LeafEndpoint> endpoints;
    for (std::uint64_t leaf_id = kFirstLeafId; leaf_id < kFirstLeafId + 2;
         ++leaf_id) {
      LeafCollectorConfig leaf_config;
      leaf_config.collector.leaf_id = leaf_id;
      leaf_config.root_port = root_->port();
      leaves_.push_back(std::make_unique<LeafCollector>(leaf_config));
      leaves_.back()->start();
      endpoints.push_back(
          {leaf_id, "127.0.0.1", leaves_.back()->collector().port()});
    }
    map_ = ShardMap::build(1, endpoints);
    for (auto& leaf : leaves_) leaf->set_shard_map(map_);
  }

  for (std::size_t site = 0; site < kSites; ++site) {
    SiteAgentConfig agent_config;
    agent_config.site_id = site_id(site);
    agent_config.epoch_updates = epoch_updates;
    if (federated) {
      agent_config.collector_port = leaves_.front()->collector().port();
      agent_config.shard_map = map_;
    } else {
      agent_config.collector_port = root_->port();
    }
    agents_[site] = std::make_unique<SiteAgent>(agent_config);
    agents_[site]->start();
  }

  const Clock::time_point deadline = begin + std::chrono::seconds(10);
  for (;;) {
    bool all = true;
    for (const auto& agent : agents_) all = all && agent->stats().connected;
    if (all) break;
    if (Clock::now() > deadline)
      throw std::runtime_error("fleet: agents did not connect within 10 s");
    // Set-up takes well under a millisecond: a sleeping poll would
    // quantize it, so spin.
    std::this_thread::yield();
  }
  setup_seconds_ =
      std::chrono::duration<double>(Clock::now() - begin).count();
}

Fleet::~Fleet() {
  for (auto& agent : agents_)
    if (agent) agent->stop(kDrainMs);
  // Each Collector::stop waits out one accept poll (io_timeout_ms), so the
  // collectors stop side by side; with the agents drained nothing is left
  // in flight between the tiers.
  std::vector<std::thread> stopping;
  for (auto& leaf : leaves_)
    stopping.emplace_back([&leaf] { leaf->stop(kDrainMs); });
  if (root_) stopping.emplace_back([this] { root_->stop(); });
  for (auto& thread : stopping) thread.join();
}

Collector& Fleet::first_hop(std::size_t site) noexcept {
  if (leaves_.empty()) return *root_;
  const std::uint64_t leaf_id = map_.leaf_for(site_id(site));
  return leaves_[leaf_id - kFirstLeafId]->collector();
}

std::vector<Collector*> Fleet::first_hops() {
  std::vector<Collector*> hops;
  if (leaves_.empty()) hops.push_back(root_.get());
  for (auto& leaf : leaves_) hops.push_back(&leaf->collector());
  return hops;
}

}  // namespace e2e

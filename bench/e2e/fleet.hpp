// The deployment under test, built only from public APIs: SiteAgent x4 ->
// LeafCollector x2 (Maglev ShardMap) -> federation-root Collector, or
// SiteAgent x4 -> one Collector, all over loopback TCP.
//
// Only deployment settings are chosen here — ports, leaf ids, the shard map
// and epoch_updates. Every other CollectorConfig / SiteAgentConfig field
// keeps its default, including detection at leaves and root, so the
// benchmark measures the system as the tools ship it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "service/agent.hpp"
#include "service/collector.hpp"
#include "service/federation/leaf.hpp"
#include "workload.hpp"

namespace e2e {

class Fleet {
 public:
  /// Builds and starts the whole deployment and blocks until every agent
  /// reports connected. Throws std::runtime_error if that takes > 10 s.
  Fleet(bool federated, std::uint64_t epoch_updates);
  /// Graceful: agents drain and say Bye, then the collectors stop.
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Seconds from the first collector constructor to every agent connected.
  double setup_seconds() const noexcept { return setup_seconds_; }

  bool federated() const noexcept { return !leaves_.empty(); }
  /// The federation root, or the only collector.
  dcs::service::Collector& root() noexcept { return *root_; }
  dcs::service::SiteAgent& agent(std::size_t site) noexcept {
    return *agents_[site];
  }
  /// The collector an agent ships to (its leaf, or the root).
  dcs::service::Collector& first_hop(std::size_t site) noexcept;
  std::vector<dcs::service::Collector*> first_hops();
  const std::vector<std::unique_ptr<dcs::service::LeafCollector>>& leaves()
      const noexcept {
    return leaves_;
  }

  /// Wire site id of site index `site`.
  static std::uint64_t site_id(std::size_t site) noexcept { return site + 1; }

 private:
  std::unique_ptr<dcs::service::Collector> root_;
  std::vector<std::unique_ptr<dcs::service::LeafCollector>> leaves_;
  dcs::service::ShardMap map_;
  std::array<std::unique_ptr<dcs::service::SiteAgent>, kSites> agents_;
  double setup_seconds_ = 0.0;
};

}  // namespace e2e

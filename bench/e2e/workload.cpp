#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "net/scenarios.hpp"
#include "stream/generator.hpp"

namespace e2e {

namespace {

std::uint64_t seconds_to_us(double s) {
  return static_cast<std::uint64_t>(std::llround(s * 1e6));
}

std::uint8_t ingress_site(Addr client) {
  return static_cast<std::uint8_t>(dcs::mix64(client) % kSites);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  // Why each workload exists is recorded in README.md and BENCHMARK.json.
  static const std::vector<WorkloadSpec> specs = {
      {"fleet_steady", true, true, false, false, 2048},
      {"paper_bulk", false, false, false, false, 131072},
      {"flood_detect", true, true, true, false, 2048},
      {"dashboard_reads", true, true, false, true, 2048},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads())
    if (name == spec.name) return &spec;
  return nullptr;
}

PacketTraffic make_packet_traffic(const WorkloadSpec& spec,
                                  const RunShape& shape) {
  if (!spec.open_loop)
    throw std::invalid_argument("make_packet_traffic: closed-loop workload");
  const double total_s = shape.warmup_s + shape.window_s;
  std::vector<std::pair<Packet, std::uint8_t>> tagged;

  // Background sessions reach each site at a fixed rate, 94/98/102/106% of
  // an even share, laid down in 10 ms slots. The sites' epoch boundaries
  // then slide past each other the same way on every seed, sweeping all
  // relative phases several times per window. With independently drawn
  // rates the boundaries drift into seed-dependent alignments instead, and
  // the verdict tail measures the seed more than the system.
  dcs::BackgroundTrafficConfig background;
  background.num_clients = 200'000;
  background.duration_ticks = 10'000;
  const std::uint64_t total_us = seconds_to_us(total_s);
  for (std::size_t site = 0; site < kSites; ++site) {
    const double share = 1.0 + (static_cast<double>(site) - 1.5) * 0.04;
    background.sessions = static_cast<std::uint64_t>(
        std::llround(kSessionsPerSecond * 0.01 / kSites * share));
    dcs::Timeline timeline(dcs::mix64(shape.seed ^ (0x7a11ULL + site)));
    for (background.start_tick = 0; background.start_tick < total_us;
         background.start_tick += background.duration_ticks)
      dcs::add_background_traffic(timeline, background);
    for (const Packet& packet : timeline.finalize())
      tagged.push_back({packet, static_cast<std::uint8_t>(site)});
  }

  PacketTraffic traffic;
  if (spec.floods) {
    dcs::Timeline timeline(dcs::mix64(shape.seed ^ 0xa77acULL));
    // As many 2 s floods, 2.5 s apart, as fit in the measured window; each
    // victim is a fresh address outside the background server block.
    const auto victim_salt =
        static_cast<Addr>(dcs::mix64(shape.seed ^ 0xf100dULL) & 0xfffu);
    for (double start = shape.warmup_s + 0.5;
         start + kFloodSeconds <= total_s; start += kFloodEverySeconds) {
      dcs::SynFloodConfig flood;
      flood.victim = 0x0b000000u + static_cast<Addr>(traffic.floods.size()) *
                                       0x1000u +
                     victim_salt;
      flood.spoofed_sources = static_cast<std::uint64_t>(
          std::llround(kFloodSynPerSecond * kFloodSeconds));
      flood.start_tick = seconds_to_us(start);
      flood.duration_ticks = seconds_to_us(kFloodSeconds);
      flood.spoof_seed = dcs::mix64(shape.seed + traffic.floods.size());
      dcs::add_syn_flood(timeline, flood);
      traffic.floods.push_back({flood.victim, flood.start_tick});
    }
    // A flash crowd on a popular legitimate server, overlapping the floods:
    // many distinct sources, but every handshake completes.
    dcs::FlashCrowdConfig flash;
    flash.target = background.server_base + 1;
    flash.clients = kFlashClients;
    flash.start_tick = seconds_to_us(
        shape.warmup_s + std::max(0.0, shape.window_s / 2.0 - 1.0));
    flash.duration_ticks = seconds_to_us(kFloodSeconds);
    dcs::add_flash_crowd(timeline, flash);
    // Spoofed sources spread over every site; a flash-crowd client's
    // packets all reach one site, so its handshakes complete there.
    for (const Packet& packet : timeline.finalize())
      tagged.push_back({packet, ingress_site(packet.source)});
  }

  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.timestamp < b.first.timestamp;
                   });
  traffic.packets.reserve(tagged.size());
  traffic.site.reserve(tagged.size());
  for (const auto& [packet, site] : tagged) {
    traffic.packets.push_back(packet);
    traffic.site.push_back(site);
  }
  return traffic;
}

dcs::FlowUpdateExporter make_exporter() {
  return dcs::FlowUpdateExporter(/*interval_ticks=*/100'000,
                                 kHalfOpenTimeoutUs);
}

ZipfPool::ZipfPool(std::uint64_t seed) : seed_(seed) {
  dcs::ZipfWorkloadConfig config;
  config.u_pairs = kPoolUpdates;
  config.num_destinations = 50'000;
  config.skew = 1.5;
  config.seed = seed;
  updates_ = dcs::ZipfWorkload(config).updates();
}

void ZipfPool::fill(std::size_t site, std::uint64_t index, std::size_t count,
                    std::vector<FlowUpdate>& out) const {
  out.resize(count);
  const std::uint64_t n = updates_.size();
  std::uint64_t position = index + site * (n / kSites);
  std::uint64_t cycle = position / n;
  std::uint64_t at = position % n;
  const auto salt_of = [&](std::uint64_t c) {
    return static_cast<std::uint32_t>(
        dcs::mix64(seed_ ^ (static_cast<std::uint64_t>(site) << 40) ^ c));
  };
  std::uint32_t salt = salt_of(cycle);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = updates_[at];
    out[i].source = dcs::bijective32(out[i].source ^ salt);
    if (++at == n) {
      at = 0;
      salt = salt_of(++cycle);
    }
  }
}

SiteStream::SiteStream(const PacketTraffic& traffic, std::size_t site)
    : traffic_(&traffic),
      site_(site),
      exporter_(std::make_unique<dcs::FlowUpdateExporter>(make_exporter())) {}

SiteStream::SiteStream(const ZipfPool& pool, std::size_t site)
    : pool_(&pool), site_(site) {}

std::size_t SiteStream::next(std::vector<FlowUpdate>& out, std::size_t max) {
  if (pool_) {
    pool_->fill(site_, index_, max, out);
    index_ += max;
    return max;
  }
  out.clear();
  const auto sink = [this](const FlowUpdate& update) {
    pending_.push_back(update);
  };
  while (out.size() < max) {
    if (pending_pos_ == pending_.size()) {
      pending_.clear();
      pending_pos_ = 0;
      while (pending_.empty() && packet_ < traffic_->packets.size()) {
        if (traffic_->site[packet_] == site_)
          exporter_->observe(traffic_->packets[packet_], sink);
        ++packet_;
      }
      if (pending_.empty()) break;
    }
    out.push_back(pending_[pending_pos_++]);
  }
  return out.size();
}

}  // namespace e2e

// Seeded inputs for the fleet benchmark's four workloads.
//
// The benchmark owns its traffic: the deployment under test only ever sees
// packets (through a per-site FlowUpdateExporter) or flow updates, offered
// by the one generator thread. Everything here is a pure function of the
// workload, the seed and the run length, so a site's offered update stream
// can be regenerated after the run — that is what the single-sketch oracle
// and the traced replay are built from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/exporter.hpp"
#include "net/packet.hpp"
#include "stream/flow_update.hpp"

namespace e2e {

using dcs::Addr;
using dcs::FlowUpdate;
using dcs::Packet;

/// Site agents in every topology.
constexpr std::size_t kSites = 4;

struct WorkloadSpec {
  const char* name;
  /// 4 agents -> 2 leaves (Maglev shard map) -> federation root; otherwise
  /// 4 agents -> 1 collector.
  bool federated;
  /// Packets offered on a schedule (open loop); otherwise §6.1 Zipf updates
  /// offered as fast as the agents' spools allow (closed loop).
  bool open_loop;
  /// Sequential distributed SYN floods plus one flash crowd.
  bool floods;
  /// A dashboard reader thread publishing, refreshing and querying.
  bool reader;
  std::uint64_t epoch_updates;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(std::string_view name);

/// Run shape shared by the generator, the oracle and the replay.
struct RunShape {
  std::uint64_t seed = 1;
  double warmup_s = 3.0;
  double window_s = 10.0;
};

// --- open loop: packets -----------------------------------------------------

/// Background sessions complete their handshake, so the traffic nets to
/// ~0 half-open pairs; these rates give 128k packets/s ≈ 64k updates/s.
constexpr double kSessionsPerSecond = 32'000.0;
constexpr double kFloodSynPerSecond = 8'000.0;
constexpr double kFloodSeconds = 2.0;
constexpr double kFloodEverySeconds = 2.5;
constexpr std::uint64_t kFlashClients = 20'000;
/// SYN-RECEIVED timer of the simulated probes: a flood's spoofed half-open
/// pairs expire a second after their SYN, so each victim falls back out of
/// the root's top-k and the next flood has to earn its own alert.
constexpr std::uint64_t kHalfOpenTimeoutUs = 1'000'000;

struct Flood {
  Addr victim = 0;
  std::uint64_t start_us = 0;  ///< First SYN's due time, from run start.
};

/// One packet timeline for all sites. Packet timestamps are microseconds
/// from the start of warm-up; `site[i]` is the ingress router of packet i
/// (every packet of a session reaches the same site's exporter).
struct PacketTraffic {
  std::vector<Packet> packets;
  std::vector<std::uint8_t> site;
  std::vector<Flood> floods;
};

PacketTraffic make_packet_traffic(const WorkloadSpec& spec,
                                  const RunShape& shape);

/// The exporter every site runs (and the oracle re-runs).
dcs::FlowUpdateExporter make_exporter();

// --- closed loop: the paper's §6.1 Zipf updates ------------------------------

/// One §6.1 pool (z = 1.5, d = 50k, insert-only, shuffled), shared by all
/// sites. Site s starts a quarter pool apart from its neighbours and every
/// pass over the pool re-keys the sources, so each cycle adds new distinct
/// pairs and the merged state keeps growing.
class ZipfPool {
 public:
  static constexpr std::uint64_t kPoolUpdates = 4'000'000;

  explicit ZipfPool(std::uint64_t seed);

  /// Replace `out` with updates [index, index + count) of `site`'s stream.
  void fill(std::size_t site, std::uint64_t index, std::size_t count,
            std::vector<FlowUpdate>& out) const;

 private:
  std::vector<FlowUpdate> updates_;
  std::uint64_t seed_;
};

// --- per-site regeneration ----------------------------------------------------

/// Replays, in offer order, the flow updates one site was offered.
class SiteStream {
 public:
  SiteStream(const PacketTraffic& traffic, std::size_t site);
  SiteStream(const ZipfPool& pool, std::size_t site);

  /// Fill `out` with up to `max` next updates; returns how many.
  std::size_t next(std::vector<FlowUpdate>& out, std::size_t max);

 private:
  const PacketTraffic* traffic_ = nullptr;
  const ZipfPool* pool_ = nullptr;
  std::size_t site_;
  std::size_t packet_ = 0;
  std::uint64_t index_ = 0;
  std::unique_ptr<dcs::FlowUpdateExporter> exporter_;
  std::vector<FlowUpdate> pending_;
  std::size_t pending_pos_ = 0;
};

}  // namespace e2e

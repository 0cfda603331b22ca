// Leaf tier of the two-tier collector federation (docs/FEDERATION.md).
//
// A *leaf* is a full Collector — durability, admission, tracing, the works
// — that owns one shard of the site population and additionally relays
// every delta it accepts to the federation root over a single multiplexed
// uplink connection (Hello role = kLeaf). Sketch linearity makes the
// root's merge of relayed deltas exact, so the root's top-k is
// bit-identical to a single collector that saw every site directly.
//
// Exactly-once composition across the tiers (the full argument lives in
// docs/FEDERATION.md):
//
//   agent --(ack-gated spool)--> leaf --(ack-gated uplink spool)--> root
//
//   * The leaf taps each delta into the uplink spool BEFORE journaling /
//     merging / acking it; if the spool is full the agent gets an honest
//     kRetryLater instead — backpressure propagates to the edge, relays
//     are never dropped.
//   * A relayed delta leaves the uplink spool only on the root's ack, so
//     an uplink drop retransmits and the root's per-(origin site, epoch)
//     dedup absorbs the duplicate.
//   * "Acked at the leaf" implies "in the leaf's fsync'd journal", and the
//     leaf's checkpoint gate refuses to fold the journal into a checkpoint
//     until the uplink has drained — so even if the leaf is SIGKILLed with
//     relays in flight, restarting it replays the journal and re-offers
//     every record to the uplink (recovery drain). The root dedups what it
//     already merged and gap-fills what it never saw.
#pragma once

#include <cstdint>
#include <string>

#include "service/collector.hpp"
#include "service/sender.hpp"

namespace dcs::service {

struct LeafUplinkConfig {
  /// Leaf id announced in the uplink Hello. The root accounts leaf and
  /// site ids in one per-site namespace and rejects a Hello whose id is
  /// already booked under the other role.
  std::uint64_t leaf_id = 0;
  std::string root_host = "127.0.0.1";
  std::uint16_t root_port = 0;
  /// Must match the root's params (fingerprint-checked at Hello).
  DcsParams params;
  /// Soft bound on spooled relays: offer() without force refuses past it
  /// (the collector then NACKs the agent kRetryLater). Recovery re-offers
  /// bypass the bound — shedding a journal replay would turn recovery into
  /// loss.
  std::size_t spool_deltas = 4096;
  std::uint64_t heartbeat_interval_ms = 500;
};

/// The leaf's sender half: a DeltaSender (service/sender.hpp) that ships
/// relayed deltas to the root over one role=kLeaf connection. Each entry
/// keeps its origin site id, epoch and origin seal/spool stamps, so the
/// root dedups per (site, epoch) and measures freshness for relayed epochs
/// too. Backoff uses the sender's defaults, jittered per leaf id.
/// Destruction is abrupt: no Bye, no drain; spooled relays die with the
/// process image, and crash recovery re-creates them from the leaf journal.
class LeafUplink {
 public:
  /// The sender's shared counters: acked and duplicates are the root's
  /// kOk and kDuplicate acks of relays.
  struct Stats : DeltaSender::Stats {
    std::uint64_t relayed = 0;  ///< Deltas enqueued for relay.
    std::size_t spool_depth = 0;
  };

  explicit LeafUplink(LeafUplinkConfig config);

  void start() { sender_.start(); }
  /// Graceful: drain the spool (bounded by drain_timeout_ms), Bye, join.
  void stop(int drain_timeout_ms = 2000) { sender_.stop(drain_timeout_ms); }

  /// Enqueue one delta for relay, with its origin site id, epoch and
  /// seal/spool stamps (ship_unix_ns is stamped per send). Returns false —
  /// without enqueueing — when the spool is at capacity and `force` is
  /// false; the caller (the collector's delta tap) turns that into a
  /// kRetryLater NACK upstream and counts it
  /// (Collector::Stats::tap_shed_deltas). `force` is for recovery replay,
  /// which must never shed. The blob is copied once, into the spool.
  bool offer(const SnapshotDeltaView& delta, bool force);

  /// Block until the spool drains (every relay root-acked) or timeout.
  bool flush(int timeout_ms) { return sender_.flush(timeout_ms); }
  /// True when nothing is spooled awaiting a root ack — the leaf
  /// collector's checkpoint gate (safe to fold the journal away).
  bool drained() const { return sender_.drained(); }

  Stats stats() const;
  const LeafUplinkConfig& config() const noexcept { return config_; }

 private:
  /// The scrape-time source: stats() as series labelled by leaf id.
  void export_stats(obs::SampleWriter& out) const;

  const LeafUplinkConfig config_;
  std::uint64_t relayed_ = 0;  ///< Guarded by the sender's spool lock.
  DeltaSender sender_;

  /// Declared last so a scrape in progress finishes before any member it
  /// reads is destroyed.
  obs::SourceHandle metrics_source_;
};

struct LeafCollectorConfig {
  /// The embedded collector's config. leaf_id + shard_map select this
  /// leaf's shard; delta_tap and checkpoint_gate are overwritten here to
  /// wire the uplink in.
  CollectorConfig collector;
  std::string root_host = "127.0.0.1";
  std::uint16_t root_port = 0;
  /// Uplink spool bound (see LeafUplinkConfig::spool_deltas).
  std::size_t uplink_spool = 4096;
  std::uint64_t uplink_heartbeat_interval_ms = 500;
};

/// One leaf: a Collector wired to a LeafUplink. Construction order is the
/// contract — the uplink exists before the collector so that the
/// collector's crash recovery can re-offer replayed journal records to it
/// (drain mode), and the checkpoint gate can consult it from the first
/// merge.
class LeafCollector {
 public:
  explicit LeafCollector(LeafCollectorConfig config);

  LeafCollector(const LeafCollector&) = delete;
  LeafCollector& operator=(const LeafCollector&) = delete;

  /// Start the uplink sender, then the collector's listener.
  void start();
  /// Graceful: stop ingesting, drain the uplink, then fold the (now
  /// fully-relayed) journal into a final checkpoint.
  void stop(int drain_timeout_ms = 2000);

  /// Install a newer shard map (forwards to Collector::set_shard_map).
  void set_shard_map(const ShardMap& map) { collector_.set_shard_map(map); }

  Collector& collector() noexcept { return collector_; }
  const Collector& collector() const noexcept { return collector_; }
  LeafUplink& uplink() noexcept { return uplink_; }
  const LeafUplink& uplink() const noexcept { return uplink_; }

 private:
  LeafUplink uplink_;
  Collector collector_;
};

}  // namespace dcs::service

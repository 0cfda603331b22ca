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

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/random.hpp"
#include "service/collector.hpp"

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
  std::uint64_t backoff_initial_ms = 50;
  std::uint64_t backoff_max_ms = 2000;
  double backoff_jitter = 0.2;
  std::uint64_t heartbeat_interval_ms = 500;
  int io_timeout_ms = 2000;
  std::uint64_t jitter_seed = 0x1eafULL;
};

/// The leaf's sender half: an ack-gated FIFO of relayed deltas shipped to
/// the root over one role=kLeaf connection. Mirrors SiteAgent's spool
/// discipline (pop only on ack, reconnect with jittered backoff, Bye on
/// graceful stop) but carries *other* sites' deltas, preserving each origin
/// site id and epoch so the root can dedup per (site, epoch).
class LeafUplink {
 public:
  struct Stats {
    std::uint64_t relayed = 0;          ///< Deltas enqueued for relay.
    std::uint64_t root_acks = 0;        ///< kOk acks from the root.
    std::uint64_t root_duplicates = 0;  ///< kDuplicate acks (re-forwarded
                                        ///< records the root already had).
    std::uint64_t nacks = 0;            ///< kRetryLater from the root.
    std::uint64_t reconnects = 0;
    std::uint64_t io_errors = 0;
    std::size_t spool_depth = 0;
    bool connected = false;
    /// Root rejected our Hello (parameter mismatch) — permanent.
    bool rejected = false;
  };

  explicit LeafUplink(LeafUplinkConfig config);
  /// Abrupt teardown: no Bye, no drain; spooled relays die with the
  /// process image. Crash recovery re-creates them from the leaf journal.
  ~LeafUplink();

  LeafUplink(const LeafUplink&) = delete;
  LeafUplink& operator=(const LeafUplink&) = delete;

  void start();
  /// Graceful: drain the spool (bounded by drain_timeout_ms), Bye, join.
  void stop(int drain_timeout_ms = 2000);

  /// Enqueue one delta for relay. Returns false — without enqueueing —
  /// when the spool is at capacity and `force` is false; the caller (the
  /// collector's delta tap) turns that into a kRetryLater NACK upstream and
  /// counts it (Collector::Stats::tap_shed_deltas).
  /// `force` is for recovery replay, which must never shed. The blob is
  /// copied once, into the spool.
  bool offer(std::uint64_t site_id, std::uint64_t epoch, std::uint64_t updates,
             std::string_view sketch_blob, bool force);

  /// Block until the spool drains (every relay root-acked) or timeout.
  bool flush(int timeout_ms);
  /// True when nothing is spooled awaiting a root ack — the leaf
  /// collector's checkpoint gate (safe to fold the journal away).
  bool drained() const;

  Stats stats() const;
  const LeafUplinkConfig& config() const noexcept { return config_; }

 private:
  struct Relayed {
    std::uint64_t site_id = 0;
    std::uint64_t epoch = 0;
    std::uint64_t updates = 0;
    /// Shared and never mutated, like SiteAgent's spool: peeking the head
    /// copies a pointer, not the blob.
    std::shared_ptr<const std::string> blob;
  };

  void sender_loop();
  bool run_connection();
  std::uint64_t next_backoff_ms();
  /// The scrape-time source: stats() as series labelled by leaf id.
  void export_stats(obs::SampleWriter& out) const;

  LeafUplinkConfig config_;

  std::thread sender_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;  ///< Guards spool_ and stats_.
  mutable std::condition_variable cv_;
  std::deque<Relayed> spool_;
  Stats stats_;

  Xoshiro256 jitter_;
  std::uint64_t backoff_ms_ = 0;

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
  std::uint64_t uplink_io_timeout_ms = 2000;
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

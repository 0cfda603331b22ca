// DeltaSender: the client half of the ack-gated shipping contract, shared
// by both tiers that ship sketch deltas (docs/FEDERATION.md):
//
//   SiteAgent  --(its own epochs)-->   collector or leaf
//   LeafUplink --(relayed deltas)-->   federation root
//
// The owner fills the spool; one sender thread, started by start(), ships
// the head entry, waits for its Ack, and pops it only when the ack matches
// its (site_id, epoch), so a connection drop mid-flight retransmits and
// the collector's per-(site, epoch) dedup turns at-least-once delivery into
// exactly-once merging. A kRetryLater NACK keeps the entry and waits out
// the collector's hint; a dead connection is retried with jittered
// exponential backoff, so a fleet does not reconnect in lockstep; an idle
// connection carries Heartbeats; stop() drains within a timeout and says
// Bye.
//
// What differs between the owners is data, not branches: the seed
// endpoint plus an optional shard map (an uplink's is empty, so it always
// dials the root), the Hello and Heartbeat the owner builds, and optional
// trace hooks. The Hello-ack resume prune drops only head entries whose
// site_id is the Hello id, so an uplink's relays, which carry origin site
// ids, are always re-shipped and deduped at the root.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/random.hpp"
#include "obs/metrics.hpp"
#include "service/federation/shard_map.hpp"
#include "service/wire.hpp"

namespace dcs::service {

class DeltaSender {
 public:
  /// One spooled delta.
  struct Entry {
    std::uint64_t site_id = 0;  ///< Origin site: the agent's, or a relayed one.
    std::uint64_t epoch = 0;
    std::uint64_t updates = 0;
    // Origin stamps carried on the wire so the collector can compute
    // end-to-end freshness for this epoch (0 = none).
    std::uint64_t seal_unix_ns = 0;
    std::uint64_t seal_steady_ns = 0;
    std::uint64_t spool_unix_ns = 0;
    /// Serialized sketch delta, shared and never mutated: peeking the spool
    /// head copies a pointer, not the blob. Null while the owner is still
    /// sealing the entry; the sender waits for it (entries seal in order,
    /// so nothing behind it is shippable either).
    std::shared_ptr<const std::string> blob;
  };
  using Spool = std::deque<Entry>;

  /// Where and how to connect. Every value comes from the owner's config.
  struct Link {
    /// Hello, Heartbeat and Bye id, and the key the shard map homes.
    std::uint64_t id = 0;
    /// Seed endpoint: dialled when the map is empty, or after
    /// kSeedFallbackAfter failed connects to the mapped leaf (any leaf
    /// answers a mis-homed Hello with kWrongShard plus the current map).
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Adopted and replaced by newer maps from Hello and kWrongShard acks.
    ShardMap shard_map = {};
    std::uint64_t backoff_initial_ms = 50;
    /// Also the ceiling on a kRetryLater wait.
    std::uint64_t backoff_max_ms = 2000;
    /// Uniform jitter fraction applied to each backoff delay (0..1).
    double backoff_jitter = 0.2;
    /// Send a Heartbeat after this long with nothing to ship.
    std::uint64_t heartbeat_interval_ms = 500;
    int io_timeout_ms = 2000;
    std::uint64_t jitter_seed = 0;
  };

  /// What the owner says on the connection. hello and heartbeat run on the
  /// sender thread with the spool lock held, so owner fields that lock
  /// guards read consistently with the spool.
  struct Hooks {
    /// Required. The sender sets site_id and map_version.
    std::function<Hello(const Spool&)> hello = nullptr;
    /// Optional. The sender sets site_id.
    std::function<Heartbeat()> heartbeat = nullptr;
    /// Optional: before each send attempt, and after the delta's ack.
    std::function<void(const SnapshotDeltaView&)> on_send = nullptr;
    std::function<void(const SnapshotDeltaView&)> on_ack = nullptr;
  };

  /// Counters both owners share. spool_depth is the owner's to report.
  struct Stats {
    std::uint64_t acked = 0;       ///< kOk acks.
    std::uint64_t duplicates = 0;  ///< kDuplicate acks.
    /// Head entries pruned without re-shipping because the Hello-ack
    /// watermark showed them already durably merged.
    std::uint64_t resume_skips = 0;
    /// kRetryLater NACKs: the entry stayed spooled and the next ship waited
    /// for the collector's retry_after_ms hint.
    std::uint64_t nacks = 0;
    std::uint64_t reconnects = 0;  ///< Connection attempts after the 1st.
    std::uint64_t io_errors = 0;
    /// Endpoint switches after a newer shard map (kWrongShard ack, or a map
    /// push that moved our shard).
    std::uint64_t rehomes = 0;
    std::uint32_t map_version = 0;  ///< Newest adopted map (0 = none).
    bool connected = false;
    /// The collector rejected our Hello (parameter mismatch) — permanent.
    bool rejected = false;
  };

  DeltaSender(Link link, Hooks hooks);
  /// Abrupt: no Bye, no drain — the collector sees a vanished peer, exactly
  /// like a crashed process.
  ~DeltaSender();

  DeltaSender(const DeltaSender&) = delete;
  DeltaSender& operator=(const DeltaSender&) = delete;

  /// Start the sender thread. Idempotent until stop().
  void start();
  /// Graceful: drain the spool within `drain_timeout_ms`, send Bye if
  /// connected, join the sender thread.
  void stop(int drain_timeout_ms);
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Block until the spool drains (every entry acked) or timeout.
  bool flush(int timeout_ms);
  /// True when nothing is spooled awaiting an ack.
  bool drained() const;

  /// Change the spool under its lock; `fn(Spool&)` returns whether the
  /// sender may now have something new to ship (a pushed or filled entry),
  /// and only then is the sender woken. Returns what `fn` returned.
  template <typename Fn>
  bool update(Fn&& fn) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      wake = fn(spool_);
    }
    if (wake) cv_.notify_all();
    return wake;
  }
  /// Read the spool and the shared counters under the spool lock.
  template <typename Fn>
  void inspect(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    fn(std::as_const(spool_), std::as_const(stats_));
  }

  /// Heartbeat send to Ack receipt round trips (collectors ack heartbeats;
  /// a free network-health probe).
  const obs::Histogram& heartbeat_rtt() const noexcept { return heartbeat_rtt_; }

 private:
  void sender_loop();
  /// One connection lifetime: connect, Hello, ship/heartbeat until error or
  /// shutdown. Returns false if the collector rejected us (permanent).
  bool run_connection();
  std::uint64_t next_backoff_ms();
  /// Where the next connection goes: the mapped leaf, or the seed endpoint
  /// when unsharded / falling back after repeated connect failures.
  void pick_target(std::string& host, std::uint16_t& port);
  /// Adopt the map carried in `ack` if it is strictly newer than ours.
  void adopt_map(const Ack& ack);
  /// Adopt the map of a kWrongShard ack and count the re-home.
  void rehome(const Ack& ack);

  const Link link_;
  const Hooks hooks_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  ///< Graceful stop requested.

  mutable std::mutex mutex_;  ///< Guards spool_ and stats_.
  std::condition_variable cv_;
  Spool spool_;
  Stats stats_;

  // Touched only by the sender thread (stats_.map_version mirrors the
  // adopted version for readers).
  Xoshiro256 jitter_;
  std::uint64_t backoff_ms_ = 0;
  ShardMap shard_map_;
  /// Consecutive failed connects to the *mapped* leaf; at
  /// kSeedFallbackAfter the next connect tries the seed instead, which
  /// re-bootstraps the map via kWrongShard if the shard moved.
  static constexpr std::uint32_t kSeedFallbackAfter = 2;
  std::uint32_t connect_failures_ = 0;

  obs::Histogram heartbeat_rtt_;
  /// Declared after every member the sender thread uses.
  std::thread thread_;
};

}  // namespace dcs::service

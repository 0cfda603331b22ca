// SiteAgent: the per-router half of the sketch-shipping deployment.
//
// Three threads share the work of one agent:
//
//  * The caller's thread (ingest, seal_epoch, flush: one producer) checks
//    each key against the params, so a too-wide key throws at once and is
//    not kept, and appends (key, delta) to a handoff block of
//    kHandoffUpdates updates. A full block, or the close of an epoch, is
//    handed to the sketch thread. At most kHandoffDepth blocks are in
//    flight; past that the caller waits, and Stats::ingest_stalls counts
//    each wait. Closing an epoch also spools its entry at once, with no
//    blob yet, so every Stats count and the Hello's first epoch mean the
//    same as if the seal had run inline.
//  * The sketch thread, started at the first handoff, is the only one to
//    touch the EpochSketch (int16 epoch counters, sketch/epoch_sketch.hpp).
//    It applies the blocks in order, and at each epoch close seals the
//    sketch into an immutable per-epoch delta (the CRC-footered blob
//    DistinctCountSketch::serialize would write for the epoch) and fills
//    in that epoch's spool entry, or discards the blob if the entry was
//    dropped meanwhile. stop() lets it finish every queued block; the
//    destructor discards what is queued.
//  * The sender thread, started by start(), ships spooled deltas to the
//    collector in order, waiting while the head entry is still sealing,
//    and only pops one after the collector's Ack, so a connection drop
//    mid-flight retransmits, and the collector's epoch dedup makes the
//    retransmit harmless.
//
// Collector outages: the agent keeps ingesting and sealing; the spool
// absorbs up to `spool_epochs` deltas, after which the *oldest* is dropped
// (newest data is most valuable for detection) and counted. Reconnection
// uses exponential backoff with jitter so a fleet of agents does not
// reconnect in lockstep. All degraded-mode accounting (sealed / shipped /
// dropped / reconnects / spool depth) lives in Stats, is exported to obs
// labelled by site id, and is carried in Hello/Heartbeat messages so the
// collector sees it too.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/random.hpp"
#include "obs/trace.hpp"
#include "service/federation/shard_map.hpp"
#include "sketch/epoch_sketch.hpp"
#include "stream/flow_update.hpp"

namespace dcs::service {

struct Ack;  // wire.hpp

struct SiteAgentConfig {
  std::uint64_t site_id = 1;
  /// Collector endpoint. Under federation (shard_map non-empty) this is the
  /// *seed*: a bootstrap leaf the agent falls back to when the mapped leaf
  /// stays unreachable — any leaf answers a mis-homed Hello with
  /// kWrongShard plus the current map, which is exactly the re-bootstrap
  /// an agent holding a dead map needs.
  std::string collector_host = "127.0.0.1";
  std::uint16_t collector_port = 0;
  /// Optional federation shard map (docs/FEDERATION.md). When non-empty the
  /// agent homes to `shard_map.endpoint_for(site_id)` instead of the seed,
  /// and re-homes whenever a leaf hands it a newer map (a kWrongShard ack
  /// or a map push on the Hello ack). The spool survives re-homing — the
  /// root's per-site dedup absorbs any cross-leaf re-ship.
  ShardMap shard_map;
  /// Must match the collector's params (fingerprint-checked at Hello).
  DcsParams params;
  /// Flow updates per epoch before the sketch is sealed and shipped.
  std::uint64_t epoch_updates = 4096;
  /// Epoch numbering starts here (set > 1 to resume after a restart; the
  /// collector counts the gap as dropped epochs).
  std::uint64_t first_epoch = 1;
  /// Max sealed-but-unacked deltas held; beyond this the oldest is dropped.
  std::size_t spool_epochs = 64;
  std::uint64_t backoff_initial_ms = 50;
  std::uint64_t backoff_max_ms = 2000;
  /// Uniform jitter fraction applied to each backoff delay (0..1).
  double backoff_jitter = 0.2;
  /// Send a Heartbeat after this long with nothing to ship.
  std::uint64_t heartbeat_interval_ms = 500;
  int io_timeout_ms = 2000;
  /// Seed for backoff jitter (deterministic tests).
  std::uint64_t jitter_seed = 0x5eedULL;
  /// Epoch traces retained for the ops plane's /traces endpoint.
  std::size_t trace_capacity = 256;
};

class SiteAgent {
 public:
  struct Stats {
    std::uint64_t epochs_sealed = 0;    ///< Epochs closed and spooled.
    std::uint64_t epochs_shipped = 0;   ///< Acked (kOk or kDuplicate) or
                                        ///< skipped via resume watermark.
    std::uint64_t epochs_dropped = 0;   ///< Evicted from a full spool.
    /// Spooled epochs dropped without re-shipping because the collector's
    /// Hello-ack watermark showed them already durably merged (collector
    /// restarted from its checkpoint). Subset of epochs_shipped.
    std::uint64_t resume_skips = 0;
    /// kRetryLater NACKs received from the collector's admission control.
    /// Each one kept its epoch spooled and delayed the next ship attempt by
    /// the collector's retry_after_ms hint — overload costs latency here,
    /// never data.
    std::uint64_t nacks = 0;
    std::uint64_t reconnects = 0;       ///< Connection attempts after the 1st.
    std::uint64_t io_errors = 0;
    /// Times the agent switched leaves after learning a newer shard map
    /// (kWrongShard ack, or a map push that moved our shard).
    std::uint64_t rehomes = 0;
    /// Times ingest waited because kHandoffDepth blocks were already
    /// queued for the sketch thread.
    std::uint64_t ingest_stalls = 0;
    /// Version of the newest shard map adopted (0 = none / unsharded).
    std::uint32_t map_version = 0;
    std::size_t spool_depth = 0;
    std::uint64_t current_epoch = 0;    ///< Epoch now accumulating.
    bool connected = false;
    /// Collector rejected our Hello (parameter mismatch) — permanent.
    bool rejected = false;
  };

  explicit SiteAgent(SiteAgentConfig config);
  /// Abrupt teardown: no Bye, no flush — indistinguishable from a crash on
  /// the collector side. Call stop() first for a graceful exit.
  ~SiteAgent();

  SiteAgent(const SiteAgent&) = delete;
  SiteAgent& operator=(const SiteAgent&) = delete;

  /// Start the sender thread. Idempotent until stop().
  void start();
  /// Graceful stop: seals the open epoch, attempts to drain the spool
  /// within `drain_timeout_ms`, sends Bye if connected, joins the sender,
  /// then lets the sketch thread apply and seal every block handed to it
  /// and joins it.
  void stop(int drain_timeout_ms = 2000);

  // --- ingest (single producer) --------------------------------------------
  /// Add one flow update to the current epoch; closes the epoch
  /// automatically every `epoch_updates` updates. A key that does not fit
  /// params.key_bits throws std::invalid_argument and is not counted.
  void ingest(const FlowUpdate& update) {
    ingest(update.dest, update.source, update.delta);
  }
  void ingest(Addr dest, Addr source, int delta) {
    const PairKey key = pack_pair(dest, source);
    if (!config_.params.key_fits(key)) reject_key();
    if (fill_ == nullptr) [[unlikely]] first_block();
    fill_->keys[fill_->size] = key;
    fill_->deltas[fill_->size] = delta;
    ++fill_->size;
    if (++current_updates_ >= config_.epoch_updates)
      seal_epoch();
    else if (fill_->size == kHandoffUpdates)
      hand_off(0);
  }

  /// Close the current epoch now even if under-full (no-op if empty): its
  /// spool entry is counted at once and the sketch thread seals it.
  void seal_epoch();

  /// Seal, then block until the spool drains (all acked) or timeout.
  /// Returns true if fully drained.
  bool flush(int timeout_ms);

  Stats stats() const;
  const SiteAgentConfig& config() const noexcept { return config_; }

  /// Agent-side epoch traces (sealed/spooled/shipped stages), newest last.
  std::vector<obs::EpochTrace> traces() const { return trace_ring_.snapshot(); }

 private:
  struct SpooledEpoch {
    std::uint64_t epoch = 0;
    std::uint64_t updates = 0;
    // Origin stamps carried on the wire so the collector can compute
    // end-to-end freshness for this epoch.
    std::uint64_t seal_unix_ns = 0;
    std::uint64_t seal_steady_ns = 0;
    std::uint64_t spool_unix_ns = 0;
    /// Serialized sketch delta, shared and never mutated: peeking the
    /// spool head copies a pointer, not the blob. Null while the sketch
    /// thread is still sealing the epoch (the stamps above are unset too).
    std::shared_ptr<const std::string> blob;
  };

  /// Updates per handoff block, and blocks in flight to the sketch thread
  /// before ingest waits.
  static constexpr std::size_t kHandoffUpdates = 4096;
  static constexpr std::size_t kHandoffDepth = 4;
  /// The ring holds the blocks in flight plus the one being filled.
  static constexpr std::size_t kHandoffRing = kHandoffDepth + 1;
  struct HandoffBlock {
    std::array<PairKey, kHandoffUpdates> keys;
    std::array<int, kHandoffUpdates> deltas;
    std::size_t size = 0;
    /// Epoch the sketch thread seals after applying the block; 0 = none.
    std::uint64_t seals = 0;
  };

  [[noreturn]] static void reject_key();
  /// Allocate the ring and take its first block to fill.
  void first_block();
  /// Hand the block being filled to the sketch thread (starting it on the
  /// first call), with `seals` as its epoch to seal, and take the next
  /// ring slot, waiting while kHandoffDepth blocks are in flight. Rethrows
  /// what ended the sketch thread, if anything did.
  void hand_off(std::uint64_t seals);
  /// The sketch thread: apply handed-off blocks in order until stopped.
  void sketch_loop();
  /// On the sketch thread: seal the EpochSketch and fill `epoch`'s spool
  /// entry, or discard the blob if the entry was dropped.
  void seal_sketch(std::uint64_t epoch);
  /// Join the sketch thread, after it applies every queued block (drain)
  /// or once it finishes the block in hand (discard).
  void stop_sketch(bool drain);

  void sender_loop();
  /// One connection lifetime: connect, Hello, ship/heartbeat until error or
  /// shutdown. Returns false if the collector rejected us (permanent).
  bool run_connection();
  std::uint64_t next_backoff_ms();
  /// Where the next connection goes: the mapped leaf, or the seed endpoint
  /// when unsharded / falling back after repeated connect failures.
  void pick_target(std::string& host, std::uint16_t& port);
  /// Adopt the map carried in `ack` if it is strictly newer than ours.
  /// Returns true when adoption moved our shard to a different endpoint.
  bool adopt_map(const Ack& ack);
  /// The scrape-time source: stats() and the heartbeat RTT histogram as
  /// series labelled by site id.
  void export_stats(obs::SampleWriter& out) const;

  SiteAgentConfig config_;

  // Ingest state — touched only by the ingesting thread.
  std::uint64_t current_updates_ = 0;
  std::uint64_t current_epoch_;
  HandoffBlock* fill_ = nullptr;  ///< Ring slot being filled.

  // Handoff to the sketch thread. A ring slot belongs to the caller until
  // handed off, then to the sketch thread until counted in applied_.
  std::unique_ptr<HandoffBlock[]> ring_;
  std::mutex handoff_mutex_;  ///< Guards handed_, applied_ and the flags.
  std::condition_variable work_cv_;   ///< Sketch thread: a block arrived.
  std::condition_variable space_cv_;  ///< Caller: a block was applied.
  std::uint64_t handed_ = 0;
  std::uint64_t applied_ = 0;
  bool sketch_drain_ = false;
  bool sketch_discard_ = false;
  /// What ended the sketch thread early; rethrown by the next handoff.
  std::exception_ptr sketch_error_;
  std::atomic<std::uint64_t> ingest_stalls_{0};
  /// Touched only by the sketch thread while it runs.
  EpochSketch current_;
  std::thread sketch_;

  std::thread sender_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  ///< Graceful stop requested.

  mutable std::mutex mutex_;           ///< Guards spool_ and stats_.
  std::condition_variable cv_;
  std::deque<SpooledEpoch> spool_;
  Stats stats_;

  Xoshiro256 jitter_;
  std::uint64_t backoff_ms_ = 0;

  // Federation state — touched only by the sender thread (stats_.map_version
  // mirrors the adopted version for stats() readers).
  ShardMap shard_map_;
  /// Consecutive failed connects to the *mapped* leaf; at
  /// kSeedFallbackAfter the agent tries the seed endpoint instead, which
  /// re-bootstraps the map via kWrongShard if the shard moved.
  static constexpr std::uint32_t kSeedFallbackAfter = 2;
  std::uint32_t connect_failures_ = 0;

  obs::TraceRing trace_ring_;
  /// Exported by export_stats (gated on obs::recording()).
  obs::Histogram heartbeat_rtt_ns_;
  /// Declared last so a scrape in progress finishes before any member it
  /// reads is destroyed.
  obs::SourceHandle metrics_source_;
};

}  // namespace dcs::service

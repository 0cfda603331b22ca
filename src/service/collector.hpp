// Collector daemon: the central detector of the paper's distributed
// deployment. Accepts any number of site-agent connections, merges their
// per-epoch DistinctCountSketch deltas into one global TrackingDcs (sketch
// linearity makes the merge order irrelevant), and runs the EWMA baseline
// detector over the merged top-k after every merge.
//
// Fault model:
//   * Site churn never blocks queries — connections live on the epoll
//     reactor's workers (reactor.hpp) and the merged state behind its own
//     lock; a site dying mid-frame just drops that connection.
//   * At-least-once delta delivery: a site retransmits un-acked epochs
//     after reconnecting; the collector dedups by per-site last-merged
//     epoch, so every epoch is merged exactly once.
//   * Degraded-mode visibility: epoch-sequence gaps (spool overflow at the
//     site, agent restart) are counted per site and exported via obs.
//   * A malformed or malicious frame (bad magic/CRC/length, garbage sketch
//     blob) tears down only its own connection; the merged view is
//     untouched because validation happens before any merge.
//   * Crash safety (state_dir set): every merged delta is journaled and
//     fsync'd *before* it is acked, and the full merged state (sketch +
//     per-site watermarks + detector baselines) is checkpointed atomically
//     every checkpoint_every merges. A restarted collector loads the newest
//     valid checkpoint (falling back a generation on corruption), replays
//     the journal, and resumes acking — the recovered counters are
//     bit-identical to an uninterrupted run's by sketch linearity. See
//     checkpoint.hpp / epoch_journal.hpp.
//   * Overload protection (see admission.hpp): per-connection frame
//     deadlines kill slow-loris peers that dribble a frame forever, an idle
//     timeout reaps silent connections (live agents heartbeat well inside
//     it), a receive-side frame cap bounds what one peer can make us
//     buffer, and an admission controller bounds total in-flight delta
//     bytes + per-site delta rate. Sheds are honest: the site gets
//     Ack{kRetryLater, retry_after_ms} and re-ships from its spool later,
//     so overload degrades latency, never exactly-once delivery.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "detection/baseline_detector.hpp"
#include "obs/trace.hpp"
#include "service/admission.hpp"
#include "service/checkpoint.hpp"
#include "service/epoch_journal.hpp"
#include "service/federation/shard_map.hpp"
#include "service/reactor.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/tracking_dcs.hpp"

namespace dcs::service {

/// One internally consistent view of everything the query tier publishes:
/// the durable checkpoint container (sketch + watermarks + detector blob)
/// plus the detection outputs and precomputed answers that only exist in
/// memory. Captured under a single state-lock acquisition so every field
/// describes the same merged moment.
struct QueryPublishState {
  /// generation is left 0 — the publisher numbers its own generations.
  CheckpointState checkpoint;
  std::vector<Alert> alerts;
  std::size_t active_alarms = 0;
  /// Top-k at the requested k, computed from the same merged state.
  TopKResult top_k;
  std::uint64_t distinct_pairs = 0;
  /// Highest epoch merged across all sites — the snapshot's watermark.
  std::uint64_t epoch_watermark = 0;
  std::uint64_t deltas_merged = 0;
};

struct CollectorConfig {
  /// Sketch parameters every site must match (fingerprint-checked at Hello).
  DcsParams params;
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Collector::port().
  std::uint16_t port = 0;
  /// Run detection over the merged top-k after each delta merge.
  bool run_detection = true;
  BaselineDetectorConfig detection;
  std::size_t detection_top_k = 10;
  /// Poll/IO granularity; bounds stop() latency, not protocol timing.
  int io_timeout_ms = 250;

  // --- durability (see checkpoint.hpp) --------------------------------------
  /// Directory for checkpoints + the epoch journal. Empty disables
  /// durability: a crash then loses all merged state (the pre-PR-4
  /// behaviour).
  std::string state_dir;
  /// Write a checkpoint after this many delta merges since the last one.
  std::uint64_t checkpoint_every = 64;
  /// Checkpoint generations (plus journals) retained on disk; the default
  /// keeps the newest two so corruption fallback always has a complete
  /// previous generation. Must be >= 1.
  std::uint64_t checkpoint_retain = 2;
  /// fsync the journal on every append, making "acked" imply "durable".
  /// Turning this off trades the crash guarantee for merge latency: a crash
  /// may lose the journal tail, and the sites that were acked for those
  /// epochs will not retransmit them.
  bool journal_fsync = true;

  // --- overload protection (see admission.hpp) ------------------------------
  /// In-flight byte budget + per-site rate limits. Defaults disable both
  /// (the pre-overload behaviour); tools enable them via flags.
  AdmissionConfig admission;
  /// A connection holding a partial frame older than this is dropped: the
  /// slow-loris defense. The clock starts when the first byte of a frame
  /// arrives and is NOT reset by later bytes, so dribbling one byte per
  /// poll cannot extend the deadline. 0 disables.
  int frame_deadline_ms = 5000;
  /// A connection with no traffic at all for this long is reaped. Healthy
  /// agents heartbeat every ~500 ms even when idle, so anything quiet this
  /// long is dead or hostile. 0 disables.
  int idle_timeout_ms = 15000;
  /// Receive-side per-frame payload cap, clamped to kMaxPayloadBytes;
  /// 0 keeps the protocol-wide cap. Bounds per-connection buffering under
  /// oversized-frame abuse (an announced length above the cap kills the
  /// connection before the payload is buffered).
  std::uint32_t max_frame_bytes = 0;

  // --- tracing (see obs/trace.hpp) ------------------------------------------
  /// Epoch traces retained for the ops plane's /traces endpoint.
  std::size_t trace_capacity = 256;

  // --- federation (see federation/shard_map.hpp, docs/FEDERATION.md) --------
  /// Non-zero makes this collector a *leaf* with that id: with a shard map
  /// set, Hellos and deltas for sites the map assigns to another leaf are
  /// answered kWrongShard (with the map attached) so the agent re-homes,
  /// and hello acks push the map to peers holding a stale version. At the
  /// root leaf ids and site ids share the per-site accounting namespace: a
  /// Hello for an id already booked under the other role is rejected.
  std::uint64_t leaf_id = 0;
  /// Shard map served and enforced at start (empty = unsharded). Reshards
  /// arrive later via Collector::set_shard_map.
  ShardMap shard_map;
  /// Root mode: accept role=kLeaf connections whose deltas carry *origin*
  /// site ids, and dedup per (origin site, epoch) with gap filling — after
  /// a leaf kill + reshard, one site's epochs arrive out of order across
  /// the old leaf's drained journal and the new leaf's live relay, and
  /// each must merge exactly once regardless of arrival order.
  bool federation_root = false;
  /// Leaf uplink tap: called under the state lock with every accepted
  /// delta *before* it is journaled/merged (and with replay=true for each
  /// journal record re-merged during recovery). Returning false sheds the
  /// delta with an honest kRetryLater NACK — uplink backpressure
  /// propagates to the agent's spool instead of dropping relays.
  std::function<bool(std::uint64_t site_id, std::uint64_t epoch,
                     std::uint64_t updates, std::string_view sketch_blob,
                     bool replay)>
      delta_tap;
  /// retry_after_ms hint on a tap shed (uplink spool full).
  std::uint32_t tap_retry_after_ms = 50;
  /// Checkpoint gate: when set and returning false, checkpoint rotation is
  /// skipped and the journal keeps growing. A leaf points this at "uplink
  /// spool drained" — the journal is the uplink's crash-replay source, so
  /// folding it into a checkpoint before every record is root-acked would
  /// orphan un-relayed deltas.
  std::function<bool()> checkpoint_gate;

  // --- ingest (see reactor.hpp) ---------------------------------------------
  /// Epoll workers serving connections (worker 0 also accepts). Must be
  /// >= 1.
  int reactor_workers = 2;
};

class Collector : private FrameHandler {
 public:
  /// Root mode: pending gap epochs tracked per site. A jump past the bound
  /// books its oldest epochs as dropped (Stats::gap_overflow_epochs).
  static constexpr std::uint64_t kMaxTrackedGapEpochs = 4096;

  /// Per-site accounting, exposed for tests and operators.
  struct SiteStats {
    std::uint64_t site_id = 0;
    std::uint64_t last_epoch = 0;      ///< Highest epoch merged.
    std::uint64_t epochs_merged = 0;
    std::uint64_t updates_merged = 0;  ///< Flow updates the deltas summarize.
    /// Epochs missing from the sequence (site spool overflow or restart)
    /// plus drops the site itself reported — the degraded-mode ledger.
    std::uint64_t dropped_epochs = 0;
    std::uint64_t duplicate_deltas = 0;
    /// Deltas NACKed kRetryLater for this site (admission sheds).
    std::uint64_t shed_deltas = 0;
    /// Seal stamp of the newest merged delta (0 = sender had none) and
    /// its end-to-end freshness at detector evaluation — the per-site view
    /// of the detection-freshness SLO, served on /sites.
    std::uint64_t last_seal_unix_ns = 0;
    std::uint64_t last_freshness_ns = 0;
    bool connected = false;
  };

  struct Stats {
    std::uint64_t frames = 0;
    std::uint64_t frame_errors = 0;
    std::uint64_t deltas_merged = 0;
    std::uint64_t duplicate_deltas = 0;
    std::uint64_t dropped_epochs = 0;
    std::uint64_t rejected_hellos = 0;
    std::uint64_t byes = 0;
    std::size_t connected_sites = 0;
    // --- durability/recovery ledger (all zero when state_dir is empty) ------
    std::uint64_t journal_records = 0;     ///< Appends this process lifetime.
    std::uint64_t checkpoints_written = 0;
    std::uint64_t checkpoint_bytes_written = 0;
    std::uint64_t recoveries = 0;          ///< 1 if this start restored state.
    std::uint64_t corrupt_generations_skipped = 0;
    std::uint64_t replayed_epochs = 0;     ///< Journal records re-merged.
    std::uint64_t replay_deduped = 0;      ///< Journal records below watermark.
    /// Re-shipped pre-crash epochs acked-but-not-merged after recovery: the
    /// double-merge oracle — recovery is exactly-once iff the merged sketch
    /// equals the reference while this only ever counts dedups.
    std::uint64_t post_recovery_duplicates = 0;
    // --- overload ledger ------------------------------------------------------
    /// Deltas NACKed kRetryLater by admission control (not merged, not lost:
    /// the site re-ships them).
    std::uint64_t shed_deltas = 0;
    std::uint64_t shed_bytes = 0;
    /// Connections dropped for holding a partial frame past frame_deadline_ms.
    std::uint64_t deadline_drops = 0;
    /// Connections reaped after idle_timeout_ms of silence.
    std::uint64_t idle_reaped = 0;
    // --- federation ledger (see docs/FEDERATION.md) --------------------------
    /// Hellos/deltas answered kWrongShard (re-home churn under reshard).
    std::uint64_t wrong_shard_acks = 0;
    /// set_shard_map calls accepted (map-version bumps observed).
    std::uint64_t reshards = 0;
    /// Root mode: out-of-order epochs merged into a previously recorded
    /// gap — each one is an epoch that would have been lost (or double
    /// merged) without gap-filling dedup.
    std::uint64_t gap_fills = 0;
    /// Root mode: epochs below a site's watermark still awaited (sum over
    /// sites; drains to 0 once every leaf journal is re-forwarded).
    std::uint64_t pending_gap_epochs = 0;
    /// Root mode: epochs of a jump beyond the per-site gap-ledger bound,
    /// never awaited and booked as dropped (also in dropped_epochs).
    std::uint64_t gap_overflow_epochs = 0;
    /// Deltas accepted from role=kLeaf uplink connections.
    std::uint64_t relayed_deltas = 0;
    /// Deltas NACKed kRetryLater because the leaf uplink spool was full
    /// (backpressure, not loss: the agent re-ships).
    std::uint64_t tap_shed_deltas = 0;
  };

  explicit Collector(CollectorConfig config);
  ~Collector() override;

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Bind + start the reactor. Throws std::runtime_error if the bind
  /// fails. Idempotent until stop().
  void start();
  /// Stop accepting, close all connections, join the reactor. Merged state
  /// remains queryable after stop().
  void stop();

  bool running() const;
  std::uint16_t port() const;

  // --- queries over the merged view (safe during site churn) ---------------
  TopKResult top_k(std::size_t k) const;
  std::uint64_t estimate_frequency(Addr group) const;
  /// Copy of the merged basic sketch (for equality checks against a
  /// reference sketch in tests).
  DistinctCountSketch merged_sketch() const;
  std::vector<Alert> alerts() const;
  std::size_t active_alarm_count() const;

  Stats stats() const;
  std::vector<SiteStats> site_stats() const;

  /// Everything a query-tier snapshot needs, captured atomically under one
  /// lock acquisition (see QueryPublishState). `top_k` sizes the
  /// precomputed ranking baked into the snapshot.
  QueryPublishState query_publish_state(std::size_t top_k) const;

  /// Collector-side epoch traces (full lifecycle for site agents), newest
  /// last. Reads the lock-free ring — safe during ingest.
  std::vector<obs::EpochTrace> traces() const { return trace_ring_.snapshot(); }

  /// Live connections on the reactor. Overload tests assert this shrinks
  /// after deadline/idle drops.
  std::size_t connection_count() const;
  /// Delta bytes admitted but not yet merged+released — the shipping-path
  /// RSS proxy the chaos harness asserts stays under the admission budget.
  std::uint64_t inflight_bytes() const;

  // --- federation ------------------------------------------------------------
  /// Install a newer shard map (a reshard). Throws std::invalid_argument
  /// on an empty map or a version at or below the current one — a delayed
  /// push can never roll the collector back onto a stale topology. The new
  /// map takes effect on the next Hello/delta: sites that moved away get
  /// kWrongShard (+ the map) and re-home. Thread-safe.
  void set_shard_map(const ShardMap& map);
  /// Copy of the map currently served/enforced (empty when unsharded).
  ShardMap shard_map() const;

  // --- durability ------------------------------------------------------------
  /// Force a checkpoint now (instead of waiting for checkpoint_every).
  /// Returns false when durability is disabled. Thread-safe.
  bool checkpoint_now();
  /// Generation of the newest durable checkpoint (0 = none yet).
  std::uint64_t checkpoint_generation() const;

  // --- test/tool synchronization -------------------------------------------
  /// Block until `count` deltas have been merged (or timeout). Returns the
  /// condition's truth at exit.
  bool wait_for_deltas(std::uint64_t count, int timeout_ms) const;
  /// Block until `count` Bye messages have arrived (or timeout).
  bool wait_for_byes(std::uint64_t count, int timeout_ms) const;

 private:
  // FrameHandler: the reactor's callbacks. Transport events bump relaxed
  // atomics, never state_mutex_.
  /// Handle one decoded frame; returns the ack to send (empty = none).
  std::string on_frame(PeerState& peer, MsgType type,
                       std::string_view payload) override;
  /// Mark the peer's site disconnected.
  void on_disconnect(PeerState& peer) override;
  void on_frame_error() override;
  void on_deadline_drop() override;
  void on_idle_reap() override;

  std::string handle_delta(PeerState& peer, std::string_view payload);

  /// True when (site, epoch) was already merged. Caller holds state_mutex_.
  /// Root mode consults the pending-gap set: an epoch below the watermark
  /// that fills a recorded gap is NEW, not a duplicate.
  bool already_merged_locked(const SiteStats& site, std::uint64_t epoch) const;
  /// Build a kWrongShard ack carrying the current map. Caller holds
  /// state_mutex_.
  std::string wrong_shard_ack_locked(std::uint64_t epoch);
  /// Merge one validated delta blob into the global state (its live
  /// buckets straight into merged_) and run detection. Caller holds
  /// state_mutex_. Shared by the live path and journal replay; `trace`
  /// (nullable — replay passes nullptr) receives the merged /
  /// detector-evaluated stamps and the freshness measurement.
  void merge_delta_locked(std::uint64_t site_id, std::uint64_t epoch,
                          std::uint64_t updates, const SketchBlob& blob,
                          obs::EpochTrace* trace);
  /// Load newest valid checkpoint + replay journals; called from the ctor
  /// when state_dir is configured. Ends by writing a fresh checkpoint so
  /// the recovered state is itself durable and the journal starts clean.
  void recover();
  /// Write checkpoint generation_+1, rotate the journal, prune old
  /// generations. Caller holds state_mutex_.
  void write_checkpoint_locked();
  /// Snapshot the merged state into a CheckpointState (generation unset).
  /// Caller holds state_mutex_. Shared by the durable checkpoint path and
  /// the query-tier publisher.
  CheckpointState build_checkpoint_state_locked() const;
  /// The scrape-time source: stats(), inflight_bytes() and the latency
  /// histograms as series labelled by this collector's bound address.
  void export_stats(obs::SampleWriter& out) const;

  CollectorConfig config_;
  AdmissionController admission_;

  TcpListener listener_;
  std::atomic<bool> running_{false};
  /// Live between start() and stop().
  std::unique_ptr<Reactor> reactor_;

  /// Transport events, copied into Stats by stats(): counted off the state
  /// lock, so a heartbeat or a frame error never contends with a merge.
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> deadline_drops_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};

  /// Everything below is the merged/detection state, guarded by one mutex:
  /// merges are rare (per epoch per site) and queries are cheap, so a
  /// single lock keeps the invariant "detector observed every merge"
  /// trivially true.
  mutable std::mutex state_mutex_;
  mutable std::condition_variable state_cv_;
  TrackingDcs merged_;
  BaselineDetector detector_;
  std::map<std::uint64_t, SiteStats> sites_;
  /// The role each id of sites_ was booked under: by its first accepted
  /// Hello, or as a site by its first merged epoch (live, relayed or
  /// replayed). A Hello under the other role is rejected.
  std::map<std::uint64_t, PeerRole> peer_roles_;
  Stats totals_;

  /// Current shard map (empty = unsharded); replaced only by a strictly
  /// newer version via set_shard_map. Guarded by state_mutex_.
  ShardMap shard_map_;
  /// Root mode: per origin site, epochs below the watermark not merged yet
  /// (recorded when a newer epoch arrives first, erased on gap fill).
  /// Guarded by state_mutex_. Deliberately NOT checkpointed: a root
  /// restart forgets pending gaps and dedups late fills as duplicates, so
  /// operators drain leaves before restarting a root (docs/FEDERATION.md).
  std::map<std::uint64_t, std::set<std::uint64_t>> gap_epochs_;

  /// Durability state, guarded by state_mutex_ (journal appends and
  /// checkpoint writes happen inside the merge critical section — the fsync
  /// cost is the price of "acked implies durable").
  std::unique_ptr<CheckpointStore> store_;
  EpochJournal journal_;
  std::uint64_t generation_ = 0;            ///< Newest durable checkpoint.
  std::uint64_t deltas_since_checkpoint_ = 0;
  /// Per-site watermark at recovery time: duplicates at or below it are
  /// re-shipped pre-crash epochs (counted as post_recovery_duplicates).
  std::map<std::uint64_t, std::uint64_t> recovered_watermarks_;

  /// Last N merged-epoch traces; written by reactor workers (wait-free),
  /// read by the ops plane without touching state_mutex_.
  obs::TraceRing trace_ring_;

  /// Latencies exported by export_stats (gated on obs::recording()).
  obs::Histogram merge_ns_;
  obs::Histogram checkpoint_write_ns_;
  obs::Histogram fsync_ns_;
  /// Registered by start() once the address is bound; declared last so a
  /// scrape in progress finishes before any member it reads is destroyed.
  obs::SourceHandle metrics_source_;
};

}  // namespace dcs::service

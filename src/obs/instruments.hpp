// Pre-registered metric bundles for the library's instrumented hot paths.
//
// Each subsystem gets one lazily-constructed bundle of references into the
// global Registry (construct-on-first-use keeps static-init order safe).
// Hot paths fetch the bundle once per call under `if (obs::recording())`,
// so switched-off telemetry costs one relaxed bool load and nothing else.
//
// These bundles are for process-wide paths with no instance ledger of their
// own. The service daemons (collector, leaf uplink, site agent) keep their
// counters in their own Stats and export them per instance from a
// scrape-time source (Registry::add_source) instead.
//
// The full catalog — name, type, labels, and which paper quantity each
// metric tracks — is documented in docs/OBSERVABILITY.md; keep the two in
// sync when adding metrics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"

namespace dcs::obs {

/// DistinctCountSketch (paper §3-§4): update fan-out and query-side bucket
/// classification.
struct SketchMetrics {
  Counter& updates;             // dcs_sketch_updates_total
  Counter& deletes;             // dcs_sketch_deletes_total
  Counter& level_allocations;   // dcs_sketch_level_allocations_total
  Counter& query_empty;         // dcs_sketch_query_buckets_total{class=empty}
  Counter& query_singleton;     // ...{class=singleton}
  Counter& query_collision;     // ...{class=collision}
  Counter& recovery_failures;   // dcs_sketch_recovery_failures_total
  Histogram& query_ns;          // dcs_sketch_query_latency_ns

  /// First-level geometric hash hits, labeled by level; levels beyond
  /// kMaxLevelLabel fold into the final "32+" series.
  static constexpr int kMaxLevelLabel = 32;
  Counter& level_hits(int level) noexcept {
    return *level_hits_[static_cast<std::size_t>(
        level > kMaxLevelLabel ? kMaxLevelLabel : level)];
  }

  static SketchMetrics& get();

  std::array<Counter*, kMaxLevelLabel + 1> level_hits_;
};

/// SketchMetrics update tallies kept with plain increments on the ingest
/// thread and flushed to the registry every kFlushInterval updates, and
/// wherever the owner flushes explicitly (queries, epoch seal). This keeps
/// per-update telemetry inside the obs_overhead budget; counts may lag the
/// registry by one batch between flushes. `counts` packs the update tally
/// (low 32 bits) and the delete tally (high 32 bits) so the hot path pays
/// one branchless add; `level_hits` has one slot per sketch level
/// (max_level <= 63), folded into the "32+" label at flush time.
struct SketchUpdateTally {
  static constexpr std::uint32_t kFlushInterval = 1024;
  std::uint64_t counts = 0;
  std::array<std::uint32_t, 64> level_hits{};

  /// Count `updates` updates, `deletes` of them deletions; flush when due.
  void add(std::uint32_t updates, std::uint32_t deletes) {
    counts += updates + (static_cast<std::uint64_t>(deletes) << 32);
    if ((counts & 0xffffffffULL) >= kFlushInterval) flush();
  }
  /// Count one update of weight `delta` landing in `level`.
  void record(int level, int delta) {
    ++level_hits[static_cast<std::size_t>(level)];
    add(1, delta < 0 ? 1 : 0);
  }
  /// Push the pending tallies to SketchMetrics and reset them.
  void flush();
};

/// TrackingDcs (paper §5): Fig. 6 singleton-set churn and heap maintenance.
struct TrackingMetrics {
  Counter& updates;             // dcs_tracking_updates_total
  Counter& singletons_gained;   // dcs_tracking_singletons_gained_total
  Counter& singletons_lost;     // dcs_tracking_singletons_lost_total
  Counter& heap_ops;            // dcs_tracking_heap_ops_total
  Histogram& query_ns;          // dcs_tracking_query_latency_ns

  static TrackingMetrics& get();
};

/// FlowUpdateExporter: handshake state machine and SYN-backlog reaping.
struct ExporterMetrics {
  Counter& packets;             // dcs_exporter_packets_total
  Counter& opens;               // dcs_exporter_opens_total (+1 emissions)
  Counter& closes;              // dcs_exporter_closes_total (-1, ACK/RST)
  Counter& timeout_reaps;       // dcs_exporter_timeout_reaps_total (-1, timer)
  Gauge& half_open;             // dcs_exporter_half_open_pairs

  static ExporterMetrics& get();
};

/// DdosMonitor: per-epoch checks and the alert state machine.
struct MonitorMetrics {
  Counter& checks;              // dcs_monitor_checks_total
  Counter& alerts_raised;       // dcs_monitor_alerts_raised_total
  Counter& alerts_cleared;      // dcs_monitor_alerts_cleared_total
  Gauge& active_alarms;         // dcs_monitor_active_alarms
  Histogram& check_ns;          // dcs_monitor_check_latency_ns

  static MonitorMetrics& get();
};

/// src/service epoll ingest reactor: event-loop health, process-wide across
/// every collector's reactor. Frame/merge/shed accounting is each
/// collector's own (Collector::Stats, exported per instance); these cover
/// the event loop itself — wakeups, the accept drain, and reply-path
/// partial writes.
struct ReactorMetrics {
  Counter& wakeups;             // dcs_reactor_wakeups_total
  Counter& accepts;             // dcs_reactor_accepts_total
  Counter& partial_writes;      // dcs_reactor_partial_writes_total
  Counter& out_buffer_drops;    // dcs_reactor_out_buffer_drops_total
  Gauge& connections;           // dcs_reactor_connections
  Histogram& frames_per_wakeup; // dcs_reactor_frames_per_wakeup

  static ReactorMetrics& get();
};

/// Query tier (src/query): the collector-side snapshot publisher and the
/// dcs_query_server read path (generation watcher, response cache).
struct QueryMetrics {
  Counter& published_generations;  // dcs_query_published_generations_total
  Counter& publish_errors;         // dcs_query_publish_errors_total
  Counter& published_bytes;        // dcs_query_published_bytes_total
  Counter& reloads;                // dcs_query_reloads_total
  Counter& reload_errors;          // dcs_query_reload_errors_total
  Counter& requests;               // dcs_query_requests_total
  Counter& cache_hits;             // dcs_query_cache_hits_total
  Counter& cache_misses;           // dcs_query_cache_misses_total
  Gauge& loaded_generations;       // dcs_query_loaded_generations
  Gauge& stale_generation;         // dcs_query_stale_generation
  Histogram& load_ns;              // dcs_query_snapshot_load_ns

  static QueryMetrics& get();
};

}  // namespace dcs::obs

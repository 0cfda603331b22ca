#include "obs/instruments.hpp"

#include <string>

namespace dcs::obs {

namespace {

std::string index_label(std::size_t index, std::size_t max_label) {
  return index >= max_label ? std::to_string(max_label) + "+"
                            : std::to_string(index);
}

std::array<Counter*, SketchMetrics::kMaxLevelLabel + 1> make_level_hits() {
  std::array<Counter*, SketchMetrics::kMaxLevelLabel + 1> counters{};
  auto& registry = Registry::global();
  for (int l = 0; l <= SketchMetrics::kMaxLevelLabel; ++l)
    counters[static_cast<std::size_t>(l)] = &registry.counter(
        "dcs_sketch_level_updates_total",
        "Updates landing in each first-level geometric-hash bucket "
        "(expected n/2^(level+1))",
        {{"level", index_label(static_cast<std::size_t>(l),
                               SketchMetrics::kMaxLevelLabel)}});
  return counters;
}

}  // namespace

SketchMetrics& SketchMetrics::get() {
  static SketchMetrics instance{
      Registry::global().counter(
          "dcs_sketch_updates_total",
          "Flow updates applied to basic distinct-count sketches"),
      Registry::global().counter(
          "dcs_sketch_deletes_total",
          "Deletion (delta < 0) updates applied to basic sketches"),
      Registry::global().counter(
          "dcs_sketch_level_allocations_total",
          "First-level buckets allocated lazily on first touch"),
      Registry::global().counter(
          "dcs_sketch_query_buckets_total",
          "Second-level buckets classified during distinct-sample collection",
          {{"class", "empty"}}),
      Registry::global().counter(
          "dcs_sketch_query_buckets_total",
          "Second-level buckets classified during distinct-sample collection",
          {{"class", "singleton"}}),
      Registry::global().counter(
          "dcs_sketch_query_buckets_total",
          "Second-level buckets classified during distinct-sample collection",
          {{"class", "collision"}}),
      Registry::global().counter(
          "dcs_sketch_recovery_failures_total",
          "Singleton recoveries rejected by the defensive re-hash check"),
      Registry::global().histogram(
          "dcs_sketch_query_latency_ns",
          "BaseTopk query latency (full sample reconstruction), ns"),
      make_level_hits()};
  return instance;
}

void SketchUpdateTally::flush() {
  if (counts == 0) return;
  auto& metrics = SketchMetrics::get();
  metrics.updates.inc(counts & 0xffffffffULL);
  const std::uint64_t deletes = counts >> 32;
  if (deletes > 0) metrics.deletes.inc(deletes);
  for (std::size_t l = 0; l < level_hits.size(); ++l) {
    // level_hits(l) folds l > kMaxLevelLabel into the "32+" series.
    if (level_hits[l] != 0)
      metrics.level_hits(static_cast<int>(l)).inc(level_hits[l]);
  }
  *this = {};
}

TrackingMetrics& TrackingMetrics::get() {
  static TrackingMetrics instance{
      Registry::global().counter(
          "dcs_tracking_updates_total",
          "Flow updates applied to tracking distinct-count sketches"),
      Registry::global().counter(
          "dcs_tracking_singletons_gained_total",
          "Keys entering the maintained distinct sample (Fig. 6 transitions)"),
      Registry::global().counter(
          "dcs_tracking_singletons_lost_total",
          "Keys leaving the maintained distinct sample (Fig. 6 transitions)"),
      Registry::global().counter(
          "dcs_tracking_heap_ops_total",
          "Priority updates applied to the per-level top-destination heaps"),
      Registry::global().histogram(
          "dcs_tracking_query_latency_ns",
          "TrackTopk query latency (O(k log k) heap read), ns")};
  return instance;
}

ExporterMetrics& ExporterMetrics::get() {
  static ExporterMetrics instance{
      Registry::global().counter("dcs_exporter_packets_total",
                                 "Packets observed by the flow exporter"),
      Registry::global().counter(
          "dcs_exporter_opens_total",
          "+1 flow updates emitted (new half-open handshakes)"),
      Registry::global().counter(
          "dcs_exporter_closes_total",
          "-1 flow updates emitted by handshake completion or RST abort"),
      Registry::global().counter(
          "dcs_exporter_timeout_reaps_total",
          "-1 flow updates emitted by SYN-backlog timeout reaping"),
      Registry::global().gauge(
          "dcs_exporter_half_open_pairs",
          "(client, server) pairs currently in the half-open state")};
  return instance;
}

MonitorMetrics& MonitorMetrics::get() {
  static MonitorMetrics instance{
      Registry::global().counter("dcs_monitor_checks_total",
                                 "Periodic top-k checks run by DDoS monitors"),
      Registry::global().counter("dcs_monitor_alerts_raised_total",
                                 "Alerts raised by DDoS monitors"),
      Registry::global().counter("dcs_monitor_alerts_cleared_total",
                                 "Alerts cleared by DDoS monitors"),
      Registry::global().gauge("dcs_monitor_active_alarms",
                               "Subjects currently in the alarmed state"),
      Registry::global().histogram(
          "dcs_monitor_check_latency_ns",
          "Per-epoch monitor check latency (top-k query + baselines), ns")};
  return instance;
}

ReactorMetrics& ReactorMetrics::get() {
  static ReactorMetrics instance{
      Registry::global().counter(
          "dcs_reactor_wakeups_total",
          "Epoll wakeups across all reactor workers (timeouts included)"),
      Registry::global().counter(
          "dcs_reactor_accepts_total",
          "Connections accepted by the reactor's non-blocking acceptor"),
      Registry::global().counter(
          "dcs_reactor_partial_writes_total",
          "Reply flushes that left bytes queued (peer not draining; "
          "EPOLLOUT armed to resume)"),
      Registry::global().counter(
          "dcs_reactor_out_buffer_drops_total",
          "Connections dropped for exceeding the reply out-buffer cap "
          "(peer sent frames but never read its acks)"),
      Registry::global().gauge(
          "dcs_reactor_connections",
          "Connections currently owned by reactor workers"),
      Registry::global().histogram(
          "dcs_reactor_frames_per_wakeup",
          "Complete frames decoded per read wakeup (batching efficiency "
          "of the event loop)")};
  return instance;
}

QueryMetrics& QueryMetrics::get() {
  static QueryMetrics instance{
      Registry::global().counter(
          "dcs_query_published_generations_total",
          "Query snapshots published atomically by the collector-side "
          "publisher"),
      Registry::global().counter(
          "dcs_query_publish_errors_total",
          "Snapshot publish attempts that failed (I/O error; the previous "
          "generation keeps serving)"),
      Registry::global().counter(
          "dcs_query_published_bytes_total",
          "Bytes of query snapshots published"),
      Registry::global().counter(
          "dcs_query_reloads_total",
          "Snapshot generations loaded (mapped) by the query server's "
          "generation watcher"),
      Registry::global().counter(
          "dcs_query_reload_errors_total",
          "Snapshot generations that failed to load (CRC or decode "
          "failure; the watcher fell back to the previous generation)"),
      Registry::global().counter(
          "dcs_query_requests_total",
          "Query-tier requests answered (all routes, cache hits included)"),
      Registry::global().counter(
          "dcs_query_cache_hits_total",
          "Query answers served from the response cache"),
      Registry::global().counter(
          "dcs_query_cache_misses_total",
          "Query answers computed from the snapshot (then cached)"),
      Registry::global().gauge(
          "dcs_query_loaded_generations",
          "Snapshot generations currently mapped in memory"),
      Registry::global().gauge(
          "dcs_query_stale_generation",
          "Milliseconds since the newest loaded snapshot was published — "
          "bounded by the publish interval plus one watch poll when the "
          "tier is healthy"),
      Registry::global().histogram(
          "dcs_query_snapshot_load_ns",
          "Snapshot decode + TrackingDcs construction latency, ns")};
  return instance;
}

}  // namespace dcs::obs

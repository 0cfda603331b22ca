// Epoch lifecycle tracing (src/obs).
//
// The paper's claim is *real-time* detection; this module measures it. An
// epoch's life is a fixed pipeline of stages:
//
//   sealed -> spooled -> shipped            (site agent)
//       -> received -> admitted -> journaled -> merged
//       -> detector_evaluated               (collector)
//
// Each sealed epoch is stamped with its origin time (SnapshotDelta carries
// the stamps on the wire), every later stage stamps a wall-clock time as
// the epoch passes through, and three artifacts fall out:
//
//   * per-stage latency histograms, dcs_trace_stage_ns{stage=...} — the
//     time spent reaching each stage from the one before it;
//   * dcs_detection_freshness_ns — seal time to detector verdict, the
//     end-to-end staleness of an alert when it fires (the SLO);
//   * a bounded lock-free ring of the last N complete EpochTraces,
//     dumpable as JSON from the ops plane (/traces).
//
// The ring is written on the ingest path, so it must never block and must
// not introduce data races under concurrent scrape. Each slot is a seqlock
// (sequence odd while a writer is in the slot) over an array of relaxed
// atomics; a reader that observes a torn or in-progress slot simply skips
// it. Writers claim slots with one fetch_add — wait-free for writers,
// lock-free for readers, and clean under TSan because every shared word is
// atomic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace dcs::obs {

enum class TraceStage : std::uint8_t {
  kSealed = 0,
  kSpooled,
  kShipped,
  kReceived,
  kAdmitted,
  kJournaled,
  kMerged,
  kDetectorEvaluated,
};
inline constexpr std::size_t kTraceStageCount = 8;

/// Stable label value for the `stage` label ("sealed", "spooled", ...).
std::string_view trace_stage_name(TraceStage stage);

/// One epoch's journey through the pipeline. Stage timestamps are Unix
/// nanoseconds (CLOCK_REALTIME, comparable across processes); 0 means the
/// stage was not reached / not known (e.g. agent-side stages of a relay).
struct EpochTrace {
  std::uint64_t site_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t updates = 0;
  std::uint64_t bytes = 0;  ///< serialized sketch-delta bytes
  std::array<std::uint64_t, kTraceStageCount> stage_unix_ns{};
  std::uint64_t freshness_ns = 0;  ///< seal -> detector verdict (0 = n/a)
  std::uint64_t alerts_raised = 0;  ///< alerts raised by this epoch's merge

  std::uint64_t& stamp(TraceStage stage) {
    return stage_unix_ns[static_cast<std::size_t>(stage)];
  }
  std::uint64_t stamp(TraceStage stage) const {
    return stage_unix_ns[static_cast<std::size_t>(stage)];
  }
  /// True when every stage timestamp is set and non-decreasing in pipeline
  /// order — the acceptance shape for a trace dumped from a live collector.
  bool complete() const;
};

/// Bounded lock-free MPMC ring of the last `capacity` traces. push() is
/// wait-free (one fetch_add + relaxed stores); snapshot() copies only
/// consistently-published slots and never blocks a writer.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 256);

  void push(const EpochTrace& trace) noexcept;
  /// Consistent copies of live slots, oldest first.
  std::vector<EpochTrace> snapshot() const;
  std::size_t capacity() const noexcept { return slots_.size(); }
  std::uint64_t pushed() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  // EpochTrace flattened to words so every shared byte is atomic.
  static constexpr std::size_t kWords = 6 + kTraceStageCount;
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // odd = write in progress
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
};

/// Render traces as a JSON array (stage map keyed by stage name; zero
/// stamps omitted), for the ops plane's /traces endpoint.
std::string traces_to_json(const std::vector<EpochTrace>& traces);

/// CLOCK_REALTIME now, in nanoseconds — the cross-process stamp clock.
std::uint64_t unix_now_ns();
/// Steady (monotonic) now, in nanoseconds — for within-process durations.
std::uint64_t steady_now_ns();

/// Histogram bundle for the tracing layer. All eight stage histograms are
/// registered eagerly at first use so a scrape of a freshly started
/// collector already lists every pipeline stage family (at count 0).
struct TraceMetrics {
  std::array<Histogram*, kTraceStageCount> stage_ns;
  Histogram& detection_freshness_ns;

  Histogram& stage(TraceStage s) {
    return *stage_ns[static_cast<std::size_t>(s)];
  }
  /// Observe the latency of reaching `stage` given the previous stage's
  /// stamp; no-ops when either stamp is 0 (unknown). Wall clocks on
  /// different hosts can disagree — a negative span clamps to 0 rather
  /// than wrapping to ~2^64.
  void observe_span(TraceStage stage, std::uint64_t prev_unix_ns,
                    std::uint64_t stage_unix_ns);

  static TraceMetrics& get();
};

}  // namespace dcs::obs

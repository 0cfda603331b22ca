// Runtime telemetry primitives for the streaming hot paths.
//
// The agents and collectors this library runs need to be observable while
// they run, not just benchmarkable offline. This header provides the three
// classic metric kinds —
//   * Counter   — monotonic u64 (events since process start),
//   * Gauge     — instantaneous i64 (current table sizes, active alarms),
//   * Histogram — fixed-bucket log2-scale distribution (latencies in ns),
// all built on relaxed std::atomic operations so agent, collector and
// reactor threads can record without locks, plus a Registry that
// owns named instances and produces consistent point-in-time snapshots for
// the Prometheus/JSON exporters (see obs/export.hpp).
//
// Instances that already keep their own counters (a collector's Stats, an
// agent's) do not copy them into registry instruments: they register a
// scrape-time source that appends their samples, labelled by instance, to
// every snapshot.
//
// Cost model. Every mutating call first checks `recording()`:
//   * off (set_enabled(false)) — one relaxed bool load + branch;
//   * on                       — the load plus 1-3 relaxed RMWs.
// bench/obs_overhead.cpp verifies the enabled update path stays within its
// budget (a few ns absolute, 12% of the vectorized update; see the bench
// header) and the disabled path within noise.
//
// Histogram::record() is the deliberate exception: it bypasses the switch so
// the type doubles as a plain lock-free histogram for harness code
// (bench_util) that wants percentiles regardless of telemetry state.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dcs::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Flip the global runtime switch. Thread-safe; affects all metrics at once.
void set_enabled(bool on) noexcept;

/// Current state of the runtime switch.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// The hot-path gate: false when telemetry is switched off.
inline bool recording() noexcept { return enabled(); }

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (recording()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (recording()) value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (recording()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Read-only copy of one histogram's state plus derived quantiles.
struct HistogramSnapshot {
  static constexpr int kBuckets = 44;  // upper bounds 2^i - 1, i = 0..42, +Inf

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Inclusive upper bound of bucket i (the Prometheus `le` value);
  /// the last bucket is unbounded.
  static std::uint64_t upper_bound(int bucket) noexcept {
    return bucket >= kBuckets - 1 ? UINT64_MAX
                                  : (std::uint64_t{1} << bucket) - 1;
  }

  /// Approximate q-quantile (q in [0,1]) by linear interpolation inside the
  /// bucket containing the target rank. Returns 0 on an empty histogram.
  double quantile(double q) const noexcept;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket log2-scale histogram: value v lands in bucket bit_width(v),
/// i.e. bucket i covers [2^(i-1), 2^i - 1] (bucket 0 holds exactly 0).
/// 44 buckets span 0 .. ~4.4e12 — an hour and a quarter in nanoseconds —
/// with everything larger collapsing into the overflow bucket.
class Histogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  /// Instrumented observation: gated on the global telemetry switch.
  void observe(std::uint64_t v) noexcept {
    if (recording()) record(v);
  }

  /// Unconditional observation: for harness code using Histogram as a plain
  /// data structure (not gated, always records).
  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const noexcept;
  void reset() noexcept;

  static int bucket_of(std::uint64_t v) noexcept {
    const int b = std::bit_width(v);
    return b >= kBuckets ? kBuckets - 1 : b;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Times a scope and records the elapsed nanoseconds into a histogram.
/// Reads the clock only when telemetry is actually recording.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) noexcept
      : histogram_(histogram), active_(recording()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!active_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};

using Labels = std::vector<std::pair<std::string, std::string>>;

/// Identity of one registered metric (family name + fixed label set).
struct MetricId {
  std::string name;
  std::string help;
  Labels labels;
};

struct CounterSample {
  MetricId id;
  std::uint64_t value = 0;
};

struct GaugeSample {
  MetricId id;
  std::int64_t value = 0;
};

struct HistogramSample {
  MetricId id;
  HistogramSnapshot hist;
};

/// Point-in-time copy of every registered metric, ordered by (name, labels).
/// Mutations after the snapshot is taken are not reflected in it.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Appends one instance's samples to a snapshot; every sample carries the
/// instance's identity labels. Handed to scrape-time sources.
class SampleWriter {
 public:
  SampleWriter(Snapshot& out, const Labels& labels)
      : out_(out), labels_(labels) {}

  void counter(const char* name, const char* help, std::uint64_t value) {
    out_.counters.push_back({{name, help, labels_}, value});
  }
  void gauge(const char* name, const char* help, std::int64_t value) {
    out_.gauges.push_back({{name, help, labels_}, value});
  }
  void histogram(const char* name, const char* help,
                 const Histogram& histogram) {
    out_.histograms.push_back({{name, help, labels_}, histogram.snapshot()});
  }

 private:
  Snapshot& out_;
  const Labels& labels_;
};

class Registry;

/// Keeps one scrape-time source registered. Destruction unregisters it and
/// waits for a scrape that is calling it, so the source may capture the
/// object owning the handle.
class SourceHandle {
 public:
  SourceHandle() = default;
  SourceHandle(SourceHandle&& other) noexcept
      : registry_(std::exchange(other.registry_, nullptr)), id_(other.id_) {}
  SourceHandle& operator=(SourceHandle&& other) noexcept {
    if (this != &other) {
      reset();
      registry_ = std::exchange(other.registry_, nullptr);
      id_ = other.id_;
    }
    return *this;
  }
  ~SourceHandle() { reset(); }

  void reset() noexcept;

 private:
  friend class Registry;
  SourceHandle(Registry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}

  Registry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Owns metrics by (name, labels). Registration (find-or-create) takes a
/// mutex and is meant for setup paths; the returned references are stable
/// for the registry's lifetime and are what hot paths write through.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry all built-in instrumentation writes to.
  static Registry& global();

  /// Find or create. Throws std::invalid_argument if `name`+`labels` is
  /// already registered as a different metric type.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       Labels labels = {});

  /// Register `source`, called by every snapshot() with a writer that
  /// labels its samples `labels`. Sources are called without the
  /// registration mutex held, so a source may take locks under which
  /// counter()/gauge()/histogram() are reached; a source must not call
  /// snapshot() or add/remove a source.
  [[nodiscard]] SourceHandle add_source(
      Labels labels, std::function<void(SampleWriter&)> source);

  /// Registered instruments plus every live source's samples.
  Snapshot snapshot() const;

  /// Zero every registered metric (benchmarks and tests; instruments stay
  /// registered and their references stay valid).
  void reset_values();

  std::size_t size() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    MetricId id;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct SourceEntry {
    std::uint64_t id;
    Labels labels;
    std::function<void(SampleWriter&)> source;
  };

  friend class SourceHandle;
  void remove_source(std::uint64_t id) noexcept;

  Entry& find_or_create(const std::string& name, const std::string& help,
                        Labels labels, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
  /// Held across every source call of a scrape, so removing a source waits
  /// for a scrape that is calling it. Never taken with mutex_ held.
  mutable std::mutex sources_mutex_;
  std::vector<SourceEntry> sources_;
  std::uint64_t next_source_id_ = 1;
};

}  // namespace dcs::obs

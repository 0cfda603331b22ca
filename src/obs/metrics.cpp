#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dcs::obs {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate linearly inside [lower, upper]. The overflow bucket has
      // no finite upper edge; report its lower edge.
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (i - 1));
      if (i >= kBuckets - 1) return lower;
      const double upper = static_cast<double>(upper_bound(i));
      const double into_bucket =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::clamp(into_bucket, 0.0, 1.0);
    }
    cumulative = next;
  }
  return 0.0;
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  for (int i = 0; i < kBuckets; ++i)
    snap.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry::Entry& Registry::find_or_create(const std::string& name,
                                          const std::string& help,
                                          Labels labels, Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : entries_) {
    if (entry->id.name != name || entry->id.labels != labels) continue;
    if (entry->kind != kind)
      throw std::invalid_argument("obs::Registry: '" + name +
                                  "' already registered as a different type");
    return *entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->id = MetricId{name, help, std::move(labels)};
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter: entry->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Labels labels) {
  return *find_or_create(name, help, std::move(labels), Kind::kCounter)
              .counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       Labels labels) {
  return *find_or_create(name, help, std::move(labels), Kind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help, Labels labels) {
  return *find_or_create(name, help, std::move(labels), Kind::kHistogram)
              .histogram;
}

namespace {

bool id_less(const MetricId& a, const MetricId& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.labels < b.labels;
}

}  // namespace

SourceHandle Registry::add_source(Labels labels,
                                  std::function<void(SampleWriter&)> source) {
  std::lock_guard<std::mutex> lock(sources_mutex_);
  const std::uint64_t id = next_source_id_++;
  sources_.push_back({id, std::move(labels), std::move(source)});
  return SourceHandle(this, id);
}

void Registry::remove_source(std::uint64_t id) noexcept {
  std::lock_guard<std::mutex> lock(sources_mutex_);
  std::erase_if(sources_,
                [id](const SourceEntry& entry) { return entry.id == id; });
}

void SourceHandle::reset() noexcept {
  if (Registry* registry = std::exchange(registry_, nullptr))
    registry->remove_source(id_);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : entries_) {
      switch (entry->kind) {
        case Kind::kCounter:
          snap.counters.push_back({entry->id, entry->counter->value()});
          break;
        case Kind::kGauge:
          snap.gauges.push_back({entry->id, entry->gauge->value()});
          break;
        case Kind::kHistogram:
          snap.histograms.push_back({entry->id, entry->histogram->snapshot()});
          break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(sources_mutex_);
    for (const SourceEntry& entry : sources_) {
      SampleWriter writer(snap, entry.labels);
      entry.source(writer);
    }
  }
  const auto by_id = [](const auto& a, const auto& b) {
    return id_less(a.id, b.id);
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_id);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_id);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_id);
  return snap;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter: entry->counter->reset(); break;
      case Kind::kGauge: entry->gauge->reset(); break;
      case Kind::kHistogram: entry->histogram->reset(); break;
    }
  }
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace dcs::obs

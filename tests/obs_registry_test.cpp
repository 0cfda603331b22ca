// Semantics of the telemetry primitives (obs/metrics.hpp): counters, gauges,
// log2 histograms, the runtime enable switch, Registry find-or-create and
// scrape-time sources — single-threaded contracts plus multi-threaded
// hammers over the lock-free mutation paths and source removal.
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.hpp"

namespace dcs::obs {
namespace {

/// Every test runs with recording on and restores the prior switch state,
/// so ordering between tests (and other suites) doesn't leak.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
  }
  void TearDown() override { set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = true;
};

using ObsRegistryTest = ObsTest;

TEST_F(ObsTest, CounterIncrementsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST_F(ObsTest, RuntimeSwitchGatesMutations) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  set_enabled(false);
  EXPECT_FALSE(recording());
  counter.inc(5);
  gauge.set(5);
  histogram.observe(5);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(histogram.snapshot().count, 0u);
  // record() deliberately bypasses the switch (harness use).
  histogram.record(5);
  EXPECT_EQ(histogram.snapshot().count, 1u);
  set_enabled(true);
  counter.inc(5);
  EXPECT_EQ(counter.value(), 5u);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  // Bucket i covers [2^(i-1), 2^i - 1]; bucket 0 holds exactly 0.
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), Histogram::kBuckets - 1);

  EXPECT_EQ(HistogramSnapshot::upper_bound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::upper_bound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::upper_bound(2), 3u);
  EXPECT_EQ(HistogramSnapshot::upper_bound(10), 1023u);
  EXPECT_EQ(HistogramSnapshot::upper_bound(HistogramSnapshot::kBuckets - 1),
            UINT64_MAX);
  // Every finite value maps into the bucket whose bound covers it.
  for (const std::uint64_t v : {0ull, 1ull, 7ull, 100ull, 65536ull}) {
    const int b = Histogram::bucket_of(v);
    EXPECT_LE(v, HistogramSnapshot::upper_bound(b)) << v;
    if (b > 0) EXPECT_GT(v, HistogramSnapshot::upper_bound(b - 1)) << v;
  }
}

TEST_F(ObsTest, HistogramSnapshotAndQuantiles) {
  Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.snapshot().quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) histogram.observe(100);
  histogram.observe(100'000);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 101u);
  EXPECT_EQ(snap.sum, 100u * 100u + 100'000u);
  EXPECT_NEAR(snap.mean(), (10'000.0 + 100'000.0) / 101.0, 1e-9);
  // p50 stays inside the bucket holding 100 ([64, 127]); p99+ may reach the
  // outlier's bucket. Quantiles are monotone in q.
  const double p50 = snap.quantile(0.50);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 127.0);
  EXPECT_LE(snap.quantile(0.50), snap.quantile(0.90));
  EXPECT_LE(snap.quantile(0.90), snap.quantile(0.99));
  EXPECT_LE(snap.quantile(0.99), snap.quantile(1.0));
  histogram.reset();
  EXPECT_EQ(histogram.snapshot().count, 0u);
}

TEST_F(ObsRegistryTest, FindOrCreateReturnsStableReferences) {
  Registry registry;
  Counter& a = registry.counter("events_total", "Events");
  Counter& b = registry.counter("events_total", "Events");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
  // A different label set is a different metric.
  Counter& labeled =
      registry.counter("events_total", "Events", {{"class", "x"}});
  EXPECT_NE(&a, &labeled);
  EXPECT_EQ(registry.size(), 2u);
  registry.gauge("depth", "Depth");
  registry.histogram("latency_ns", "Latency");
  EXPECT_EQ(registry.size(), 4u);
}

TEST_F(ObsRegistryTest, TypeMismatchThrows) {
  Registry registry;
  registry.counter("metric", "A metric");
  EXPECT_THROW(registry.gauge("metric", "A metric"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("metric", "A metric"),
               std::invalid_argument);
}

TEST_F(ObsRegistryTest, SnapshotIsSortedAndPointInTime) {
  Registry registry;
  Counter& zeta = registry.counter("zeta_total", "Z");
  Counter& alpha = registry.counter("alpha_total", "A");
  Counter& beta_b = registry.counter("beta_total", "B", {{"k", "b"}});
  Counter& beta_a = registry.counter("beta_total", "B", {{"k", "a"}});
  zeta.inc(1);
  alpha.inc(2);
  beta_b.inc(3);
  beta_a.inc(4);

  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 4u);
  EXPECT_EQ(snap.counters[0].id.name, "alpha_total");
  EXPECT_EQ(snap.counters[1].id.name, "beta_total");
  EXPECT_EQ(snap.counters[1].id.labels, (Labels{{"k", "a"}}));
  EXPECT_EQ(snap.counters[2].id.labels, (Labels{{"k", "b"}}));
  EXPECT_EQ(snap.counters[3].id.name, "zeta_total");
  EXPECT_EQ(snap.counters[3].value, 1u);

  // Later mutations don't show up in an already-taken snapshot.
  alpha.inc(100);
  EXPECT_EQ(snap.counters[0].value, 2u);
}

TEST_F(ObsRegistryTest, SourcesAreSampledAtScrapeAndSortedWithInstruments) {
  Registry registry;
  registry.counter("b_total", "B").inc(1);
  std::uint64_t events = 5;
  Histogram latency;
  latency.observe(3);
  SourceHandle handle = registry.add_source(
      {{"instance", "x"}}, [&](SampleWriter& out) {
        out.counter("a_total", "A", events);
        out.counter("c_total", "C", events * 2);
        out.gauge("depth", "Depth", -2);
        out.histogram("latency_ns", "Latency", latency);
      });

  Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].id.name, "a_total");
  EXPECT_EQ(snap.counters[0].id.labels, (Labels{{"instance", "x"}}));
  EXPECT_EQ(snap.counters[0].value, 5u);
  EXPECT_EQ(snap.counters[1].id.name, "b_total");
  EXPECT_EQ(snap.counters[2].value, 10u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -2);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);

  // Read at scrape time, whatever the runtime switch says.
  events = 7;
  set_enabled(false);
  EXPECT_EQ(registry.snapshot().counters[0].value, 7u);
  set_enabled(true);

  // A moved handle keeps the source; resetting it removes the source.
  SourceHandle moved = std::move(handle);
  EXPECT_EQ(registry.snapshot().counters.size(), 3u);
  moved.reset();
  snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].id.name, "b_total");
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_EQ(registry.size(), 1u);
}

TEST_F(ObsRegistryTest, SourceRemovalWaitsForTheScrapeCallingIt) {
  Registry registry;
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) (void)registry.snapshot();
  });
  for (int i = 0; i < 2000; ++i) {
    // The source reads an object that dies right after its handle: the
    // handle's destruction must not return while a scrape still calls it.
    auto value = std::make_unique<std::uint64_t>(i);
    SourceHandle handle = registry.add_source(
        {{"round", "r"}}, [&value](SampleWriter& out) {
          out.counter("round_total", "Round", *value);
        });
    handle.reset();
    value.reset();
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_TRUE(registry.snapshot().counters.empty());
}

TEST_F(ObsRegistryTest, ResetValuesKeepsReferencesValid) {
  Registry registry;
  Counter& counter = registry.counter("events_total", "Events");
  Histogram& histogram = registry.histogram("latency_ns", "Latency");
  counter.inc(9);
  histogram.observe(9);
  registry.reset_values();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.snapshot().count, 0u);
  counter.inc();
  EXPECT_EQ(counter.value(), 1u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST_F(ObsRegistryTest, MultithreadedHammerCountsExactly) {
  Registry registry;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Mixed registration + mutation: find-or-create must be safe to race
      // and always hand every thread the same instances.
      Counter& counter = registry.counter("hammer_total", "Hammer");
      Gauge& gauge = registry.gauge("hammer_depth", "Depth");
      Histogram& histogram = registry.histogram("hammer_ns", "Latency");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.inc();
        gauge.add(1);
        histogram.observe(i & 0xFFF);
        if ((i & 0x3FF) == 0) (void)registry.snapshot();
      }
      (void)t;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(registry.counter("hammer_total", "Hammer").value(),
            kThreads * kPerThread);
  EXPECT_EQ(registry.gauge("hammer_depth", "Depth").value(),
            static_cast<std::int64_t>(kThreads * kPerThread));
  const HistogramSnapshot hist =
      registry.histogram("hammer_ns", "Latency").snapshot();
  EXPECT_EQ(hist.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : hist.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist.count);
  EXPECT_EQ(registry.size(), 3u);
}

}  // namespace
}  // namespace dcs::obs

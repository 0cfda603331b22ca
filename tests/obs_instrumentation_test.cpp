// The built-in instrumentation actually counts: stream real workloads
// through the sketches / exporter / monitor and assert metric deltas on the
// global registry, plus the structured alert-event log.
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "detection/alert_log.hpp"
#include "detection/ddos_monitor.hpp"
#include "net/exporter.hpp"
#include "net/scenarios.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "common/serialize.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/sketch_blob.hpp"
#include "sketch/tracking_dcs.hpp"

namespace dcs {
namespace {

class ObsInstrumentationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
  }
  void TearDown() override { obs::set_enabled(was_enabled_); }

  static DcsParams small_params() {
    DcsParams params;
    params.num_tables = 2;
    params.buckets_per_table = 64;
    params.seed = 5;
    return params;
  }

 private:
  bool was_enabled_ = true;
};

TEST_F(ObsInstrumentationTest, SketchCountsUpdatesAndQueries) {
  obs::SketchMetrics& m = obs::SketchMetrics::get();
  const std::uint64_t updates0 = m.updates.value();
  const std::uint64_t deletes0 = m.deletes.value();
  const std::uint64_t queries0 = m.query_ns.snapshot().count;
  const std::uint64_t classified0 = m.query_empty.value() +
                                    m.query_singleton.value() +
                                    m.query_collision.value();

  DistinctCountSketch sketch(small_params());
  for (std::uint32_t i = 0; i < 500; ++i) sketch.update(1, i, +1);
  for (std::uint32_t i = 0; i < 100; ++i) sketch.update(1, i, -1);
  (void)sketch.top_k(5);

  EXPECT_EQ(m.updates.value() - updates0, 600u);
  EXPECT_EQ(m.deletes.value() - deletes0, 100u);
  EXPECT_EQ(m.query_ns.snapshot().count - queries0, 1u);
  // A query classifies at least one second-level bucket.
  EXPECT_GT(m.query_empty.value() + m.query_singleton.value() +
                m.query_collision.value(),
            classified0);
}

TEST_F(ObsInstrumentationTest, SketchLevelHitsFoldPastMaxLabel) {
  obs::SketchMetrics& m = obs::SketchMetrics::get();
  // Level 0 absorbs ~half of all geometric hash draws, so any stream of a
  // few hundred updates must hit it.
  const std::uint64_t level0_before = m.level_hits(0).value();
  DistinctCountSketch sketch(small_params());
  for (std::uint32_t i = 0; i < 400; ++i) sketch.update(7, i, +1);
  // Update-path tallies are batched; a query flushes them.
  (void)sketch.top_k(1);
  EXPECT_GT(m.level_hits(0).value(), level0_before);
  // Out-of-range levels fold into the shared "32+" counter series.
  EXPECT_EQ(&m.level_hits(obs::SketchMetrics::kMaxLevelLabel),
            &m.level_hits(obs::SketchMetrics::kMaxLevelLabel + 40));
}

TEST_F(ObsInstrumentationTest, TrackingCountsChurnAndHeapOps) {
  obs::TrackingMetrics& m = obs::TrackingMetrics::get();
  const std::uint64_t updates0 = m.updates.value();
  const std::uint64_t gained0 = m.singletons_gained.value();
  const std::uint64_t heap0 = m.heap_ops.value();
  const std::uint64_t queries0 = m.query_ns.snapshot().count;

  TrackingDcs sketch(small_params());
  for (std::uint32_t i = 0; i < 300; ++i) sketch.update(9, i, +1);
  (void)sketch.top_k(3);

  EXPECT_EQ(m.updates.value() - updates0, 300u);
  EXPECT_GT(m.singletons_gained.value(), gained0);
  EXPECT_GT(m.heap_ops.value(), heap0);
  EXPECT_EQ(m.query_ns.snapshot().count - queries0, 1u);
}

TEST_F(ObsInstrumentationTest, TrackingMergesCountTheirTransitions) {
  obs::TrackingMetrics& m = obs::TrackingMetrics::get();
  DistinctCountSketch inserts(small_params());
  DistinctCountSketch deletes(small_params());
  for (std::uint32_t i = 0; i < 300; ++i) {
    inserts.update(9 + i % 4, i, +1);
    deletes.update(9 + i % 4, i, -1);
  }
  const std::uint64_t updates0 = m.updates.value();
  const std::uint64_t gained0 = m.singletons_gained.value();
  const std::uint64_t lost0 = m.singletons_lost.value();
  const std::uint64_t heap0 = m.heap_ops.value();

  // Construction over a sketch is no stream transition.
  const TrackingDcs built(inserts);
  EXPECT_EQ(m.singletons_gained.value(), gained0);
  EXPECT_EQ(m.heap_ops.value(), heap0);

  // A merge into an empty tracker gains each sampled key once, and adjusts
  // the heaps of its level and every level below.
  TrackingDcs merged(small_params());
  std::string blob;
  BinaryWriter writer(blob);
  inserts.serialize(writer);
  merged.merge_sketch(SketchBlob::parse(blob));
  std::uint64_t sampled = 0;
  std::uint64_t heap_ops = 0;
  for (int l = 0; l <= merged.params().max_level; ++l) {
    sampled += merged.num_singletons(l);
    heap_ops += merged.num_singletons(l) * static_cast<std::uint64_t>(l + 1);
  }
  ASSERT_GT(sampled, 0u);
  EXPECT_EQ(m.singletons_gained.value() - gained0, sampled);
  EXPECT_EQ(m.heap_ops.value() - heap0, heap_ops);

  // Deleting every pair loses each of them again; no merge is an update.
  merged.merge_sketch(deletes);
  EXPECT_EQ(m.singletons_lost.value() - lost0, sampled);
  EXPECT_EQ(m.heap_ops.value() - heap0, 2 * heap_ops);
  EXPECT_EQ(m.updates.value(), updates0);
  EXPECT_TRUE(merged.top_k(3).entries.empty());
}

TEST_F(ObsInstrumentationTest, ExporterCountsHandshakesAndGauge) {
  obs::ExporterMetrics& m = obs::ExporterMetrics::get();
  const std::uint64_t packets0 = m.packets.value();
  const std::uint64_t opens0 = m.opens.value();

  Timeline timeline(321);
  BackgroundTrafficConfig background;
  background.sessions = 500;
  add_background_traffic(timeline, background);
  FlowUpdateExporter exporter;
  const auto updates = exporter.run(timeline.finalize());

  EXPECT_GT(m.packets.value(), packets0);
  EXPECT_GT(m.opens.value(), opens0);
  EXPECT_GE(updates.size(), 500u);
  // The half-open gauge tracks the live table size.
  EXPECT_EQ(m.half_open.value(),
            static_cast<std::int64_t>(exporter.half_open_pairs()));
}

TEST_F(ObsInstrumentationTest, MonitorCountsChecksAndRecordsAlertContext) {
  obs::MonitorMetrics& m = obs::MonitorMetrics::get();
  const std::uint64_t checks0 = m.checks.value();
  const std::uint64_t raised0 = m.alerts_raised.value();

  DdosMonitorConfig config;
  config.sketch = small_params();
  config.check_interval = 512;
  config.min_absolute = 100;
  DdosMonitor monitor(config);
  std::uint64_t callbacks = 0;
  monitor.set_check_callback([&callbacks](const DdosMonitor&) { ++callbacks; });

  // One victim destination accumulating distinct half-open sources.
  constexpr Addr kVictim = 0xabcd1234;
  std::vector<FlowUpdate> updates;
  for (std::uint32_t i = 0; i < 2000; ++i)
    updates.push_back({0x10000 + i, kVictim, +1});
  monitor.ingest(updates);
  monitor.check_now();

  EXPECT_EQ(m.checks.value() - checks0, monitor.checks_run());
  EXPECT_EQ(callbacks, monitor.checks_run());
  EXPECT_GE(m.alerts_raised.value() - raised0, 1u);
  ASSERT_FALSE(monitor.alerts().empty());
  const Alert& alert = monitor.alerts().front();
  EXPECT_EQ(alert.kind, Alert::Kind::kRaised);
  EXPECT_EQ(alert.subject, kVictim);
  EXPECT_GT(alert.epoch, 0u);
  EXPECT_GE(alert.threshold, static_cast<double>(config.min_absolute));
  EXPECT_GT(alert.stream_position, 0u);
}

TEST_F(ObsInstrumentationTest, AlertLogFormatsAndSerializes) {
  Alert alert;
  alert.kind = Alert::Kind::kRaised;
  alert.subject = 0xdeadbeef;
  alert.estimated_frequency = 4096;
  alert.baseline = 12.5;
  alert.stream_position = 81920;
  alert.epoch = 40;
  alert.threshold = 1000.0;

  const std::string line = format_alert(alert);
  EXPECT_NE(line.find("RAISED"), std::string::npos) << line;
  EXPECT_NE(line.find("dest=deadbeef"), std::string::npos) << line;
  EXPECT_NE(line.find("epoch=40"), std::string::npos) << line;

  const std::string json = alert_to_json(alert);
  EXPECT_NE(json.find("\"kind\":\"raised\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dest\":\"deadbeef\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"estimate\":4096"), std::string::npos) << json;
  EXPECT_NE(json.find("\"epoch\":40"), std::string::npos) << json;

  // Role string renames the subject key for source-ranked monitors.
  EXPECT_NE(alert_to_json(alert, "source").find("\"source\":\"deadbeef\""),
            std::string::npos);

  const std::string array = alerts_to_json({alert, alert});
  EXPECT_EQ(array.front(), '[');
  EXPECT_EQ(array.substr(array.size() - 2), "]\n");
}

TEST_F(ObsInstrumentationTest, DisabledRecordingCountsNothing) {
  obs::SketchMetrics& m = obs::SketchMetrics::get();
  obs::set_enabled(false);
  const std::uint64_t updates0 = m.updates.value();
  DistinctCountSketch sketch(small_params());
  for (std::uint32_t i = 0; i < 200; ++i) sketch.update(3, i, +1);
  (void)sketch.top_k(2);
  EXPECT_EQ(m.updates.value(), updates0);
  obs::set_enabled(true);
}

}  // namespace
}  // namespace dcs

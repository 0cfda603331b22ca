// Golden-file tests for the Prometheus text-exposition and JSON snapshot
// renderers (obs/export.hpp), plus label escaping and format parsing.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "gtest/gtest.h"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace dcs::obs {
namespace {

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
  }
  void TearDown() override { set_enabled(was_enabled_); }

  /// One of each metric kind, with a labeled counter variant — the fixture
  /// behind both golden strings. (Registry is non-movable, so the caller
  /// owns it and we fill it in place.)
  static void populate(Registry& registry) {
    registry.counter("t_events_total", "Events").inc(5);
    registry.counter("t_events_total", "Events", {{"class", "a"}}).inc(2);
    registry.gauge("t_queue_depth", "Queue depth").set(-3);
    Histogram& latency = registry.histogram("t_latency_ns", "Latency");
    latency.observe(0);    // bucket 0 (le 0)
    latency.observe(1);    // bucket 1 (le 1)
    latency.observe(1);
    latency.observe(100);  // bucket 7 (le 127)
  }

 private:
  bool was_enabled_ = true;
};

TEST_F(ObsExportTest, ParseFormat) {
  EXPECT_EQ(parse_format("prom"), ExportFormat::kPrometheus);
  EXPECT_EQ(parse_format("prometheus"), ExportFormat::kPrometheus);
  EXPECT_EQ(parse_format("json"), ExportFormat::kJson);
  EXPECT_THROW(parse_format("xml"), std::invalid_argument);
}

TEST_F(ObsExportTest, PrometheusGolden) {
  Registry registry;
  populate(registry);
  const std::string expected =
      "# HELP t_events_total Events\n"
      "# TYPE t_events_total counter\n"
      "t_events_total 5\n"
      "t_events_total{class=\"a\"} 2\n"
      "# HELP t_queue_depth Queue depth\n"
      "# TYPE t_queue_depth gauge\n"
      "t_queue_depth -3\n"
      "# HELP t_latency_ns Latency\n"
      "# TYPE t_latency_ns histogram\n"
      "t_latency_ns_bucket{le=\"0\"} 1\n"
      "t_latency_ns_bucket{le=\"1\"} 3\n"
      "t_latency_ns_bucket{le=\"127\"} 4\n"
      "t_latency_ns_bucket{le=\"+Inf\"} 4\n"
      "t_latency_ns_sum 102\n"
      "t_latency_ns_count 4\n";
  EXPECT_EQ(to_prometheus(registry.snapshot()), expected);
  EXPECT_EQ(render(registry.snapshot(), ExportFormat::kPrometheus), expected);
}

TEST_F(ObsExportTest, JsonGolden) {
  Registry registry;
  populate(registry);
  // Quantiles of {0, 1, 1, 100}: p50 lands exactly on 1; p90/p99
  // interpolate inside the [64, 127] bucket.
  const std::string expected =
      "{\n"
      "  \"counters\": [\n"
      "    {\"name\":\"t_events_total\",\"labels\":{},\"value\":5},\n"
      "    {\"name\":\"t_events_total\",\"labels\":{\"class\":\"a\"},"
      "\"value\":2}\n"
      "  ],\n"
      "  \"gauges\": [\n"
      "    {\"name\":\"t_queue_depth\",\"labels\":{},\"value\":-3}\n"
      "  ],\n"
      "  \"histograms\": [\n"
      "    {\"name\":\"t_latency_ns\",\"labels\":{},\"count\":4,\"sum\":102,"
      "\"p50\":1.0,\"p90\":101.8,\"p99\":124.5,\"buckets\":["
      "{\"le\":0,\"count\":1},{\"le\":1,\"count\":2},"
      "{\"le\":127,\"count\":1}]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(to_json(registry.snapshot()), expected);
}

TEST_F(ObsExportTest, EmptySnapshotRenders) {
  const Registry registry;
  EXPECT_EQ(to_prometheus(registry.snapshot()), "");
  EXPECT_EQ(to_json(registry.snapshot()),
            "{\n  \"counters\": [],\n  \"gauges\": [],\n"
            "  \"histograms\": []\n}\n");
}

TEST_F(ObsExportTest, LabelEscaping) {
  Registry registry;
  registry
      .counter("esc_total", "Escapes", {{"path", "a\\b\"c\nd"}})
      .inc(1);
  const std::string prom = to_prometheus(registry.snapshot());
  EXPECT_NE(prom.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << prom;
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"path\":\"a\\\\b\\\"c\\nd\""), std::string::npos)
      << json;
}

TEST_F(ObsExportTest, JsonEscapeControlCharacters) {
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\x01") + "x"), "nul\\u0001x");
  EXPECT_EQ(json_escape("plain"), "plain");
}

TEST_F(ObsExportTest, WriteSnapshotFileRoundTrips) {
  Registry registry;
  populate(registry);
  const std::string path =
      ::testing::TempDir() + "/obs_export_test_metrics.prom";
  write_snapshot_file(path, ExportFormat::kPrometheus, registry.snapshot());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), to_prometheus(registry.snapshot()));
  // Re-writing truncates rather than appends.
  write_snapshot_file(path, ExportFormat::kPrometheus, registry.snapshot());
  std::ifstream again(path);
  std::stringstream second;
  second << again.rdbuf();
  EXPECT_EQ(second.str(), contents.str());
  std::remove(path.c_str());

  EXPECT_THROW(write_snapshot_file("/nonexistent-dir/x/y.prom",
                                   ExportFormat::kPrometheus,
                                   registry.snapshot()),
               std::runtime_error);
}

}  // namespace
}  // namespace dcs::obs

// Integration tests: the full pipeline — scenarios -> exporter -> sketches /
// monitor / baselines — and cross-module consistency checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/exact_tracker.hpp"
#include "baselines/syn_fin_cusum.hpp"
#include "common/hash.hpp"
#include "detection/ddos_monitor.hpp"
#include "metrics/accuracy.hpp"
#include "net/exporter.hpp"
#include "net/scenarios.hpp"
#include "sim/agents.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sketch/epoch_sketch.hpp"
#include "sketch/sketch_blob.hpp"
#include "sketch/tracking_dcs.hpp"
#include "stream/generator.hpp"
#include "stream/trace_io.hpp"

namespace dcs {
namespace {

/// One EpochSketch per router, all with the same params.
std::vector<EpochSketch> make_routers(const DcsParams& params,
                                      std::size_t count) {
  std::vector<EpochSketch> routers;
  routers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) routers.emplace_back(params);
  return routers;
}

/// The collector's view: every router seals its epoch into a blob, which is
/// parsed and merged, as a site agent and a collector do.
DistinctCountSketch collect(std::vector<EpochSketch>& routers) {
  DistinctCountSketch merged(routers.front().params());
  for (EpochSketch& router : routers) {
    const std::string blob = router.seal();
    merged.merge(SketchBlob::parse(blob));
  }
  return merged;
}

TEST(Integration, SketchTracksExactThroughAttackPipeline) {
  Timeline timeline(11);
  BackgroundTrafficConfig background;
  background.sessions = 5000;
  add_background_traffic(timeline, background);
  SynFloodConfig flood;
  flood.spoofed_sources = 8000;
  add_syn_flood(timeline, flood);
  SynFloodConfig flood2;
  flood2.victim = 0x0a0000aa;
  flood2.spoofed_sources = 3000;
  flood2.spoof_seed = 123;
  add_syn_flood(timeline, flood2);

  FlowUpdateExporter exporter;
  const auto updates = exporter.run(timeline.finalize());

  DcsParams params;
  params.seed = 31;
  TrackingDcs tracker(params);
  ExactTracker exact;
  for (const FlowUpdate& u : updates) {
    tracker.update(u.dest, u.source, u.delta);
    exact.update(u.dest, u.source, u.delta);
  }

  // The two flood victims dominate and must be the estimated top-2.
  const auto approx = tracker.top_k(2).entries;
  ASSERT_EQ(approx.size(), 2u);
  EXPECT_EQ(approx[0].group, flood.victim);
  EXPECT_EQ(approx[1].group, flood2.victim);

  // Estimates within a generous band of the exact frequencies.
  EXPECT_NEAR(static_cast<double>(approx[0].estimate),
              static_cast<double>(exact.frequency(flood.victim)),
              0.6 * static_cast<double>(exact.frequency(flood.victim)));
}

TEST(Integration, CusumAndSketchAgreeOnFlood) {
  // The local SYN-FIN detector sees "an attack is happening"; the sketch
  // names the victim. Both must fire on the same composed stream.
  Timeline timeline(12);
  BackgroundTrafficConfig background;
  background.sessions = 4000;
  background.duration_ticks = 40'000;
  add_background_traffic(timeline, background);
  SynFloodConfig flood;
  flood.spoofed_sources = 20'000;
  flood.start_tick = 45'000;
  flood.duration_ticks = 20'000;
  add_syn_flood(timeline, flood);

  FlowUpdateExporter exporter(5000);
  ExactTracker exact;
  for (const Packet& packet : timeline.finalize())
    exporter.observe(packet, [&exact](const FlowUpdate& u) {
      exact.update(u.dest, u.source, u.delta);
    });
  exporter.finish_interval();

  SynFinCusum cusum(0.5, 3.0);
  bool alarmed = false;
  for (const IntervalCounts& interval : exporter.intervals())
    alarmed = cusum.observe(interval.syn, interval.fin) || alarmed;
  EXPECT_TRUE(alarmed);

  const auto top = exact.top_k(1).entries;
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].group, flood.victim);
}

TEST(Integration, TraceFileReplayReproducesSketch) {
  // Write a workload to a trace file, re-read it, rebuild the sketch: must be
  // bit-identical (persistence + replay path).
  ZipfWorkloadConfig config;
  config.u_pairs = 10'000;
  config.num_destinations = 100;
  config.churn = 1;
  const ZipfWorkload workload(config);

  std::stringstream file;
  write_trace(file, workload.updates());
  const auto replayed = read_trace(file);

  DcsParams params;
  params.seed = 17;
  DistinctCountSketch original(params), rebuilt(params);
  for (const FlowUpdate& u : workload.updates())
    original.update(u.dest, u.source, u.delta);
  for (const FlowUpdate& u : replayed) rebuilt.update(u.dest, u.source, u.delta);
  EXPECT_TRUE(original == rebuilt);
}

TEST(Integration, DistributedMonitorDetectsAttackAtCollector) {
  // Eight routers each see a slice of the traffic; only the merged view can
  // name the victim.
  Timeline timeline(13);
  SynFloodConfig flood;
  flood.spoofed_sources = 6000;
  add_syn_flood(timeline, flood);
  BackgroundTrafficConfig background;
  background.sessions = 4000;
  add_background_traffic(timeline, background);

  FlowUpdateExporter exporter;
  const auto updates = exporter.run(timeline.finalize());

  DcsParams params;
  params.seed = 3;
  // Egress monitoring pins a (source, dest) pair to one router.
  auto routers = make_routers(params, 8);
  for (const FlowUpdate& u : updates)
    routers[mix64(pack_pair(u.dest, u.source)) % routers.size()].update(
        u.dest, u.source, u.delta);

  const TrackingDcs collected(collect(routers));
  const auto top = collected.top_k(1).entries;
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].group, flood.victim);
}

TEST(Integration, AccuracyImprovesWithSketchWidth) {
  // Ablation invariant: quadrupling s should not worsen top-10 recall.
  ZipfWorkloadConfig config;
  config.u_pairs = 100'000;
  config.num_destinations = 2000;
  config.skew = 1.2;
  config.seed = 5;
  const ZipfWorkload workload(config);

  const auto run_with_s = [&](std::uint32_t s) {
    double recall = 0.0;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      DcsParams params;
      params.buckets_per_table = s;
      params.seed = seed;
      DistinctCountSketch sketch(params);
      for (const FlowUpdate& u : workload.updates())
        sketch.update(u.dest, u.source, u.delta);
      recall += evaluate_top_k(sketch.top_k(10).entries,
                               workload.true_frequencies(), 10)
                    .recall;
    }
    return recall / 3.0;
  };

  const double narrow = run_with_s(32);
  const double wide = run_with_s(512);
  EXPECT_GE(wide + 0.10, narrow);  // allow small noise, expect improvement
  EXPECT_GE(wide, 0.5);
}

TEST(Integration, SimulatedNetworkFeedsDistributedMonitor) {
  // End to end through the event-driven simulator: emergent flood dynamics,
  // per-edge ingress exporters, per-router sealed epochs, collector query.
  sim::Topology topology;
  const auto edges = sim::make_isp_topology(topology, 4);
  constexpr Addr kVictim = 0x0a0000fe;
  topology.attach_host(kVictim, edges[0]);
  std::vector<Addr> clients;
  for (Addr i = 0; i < 500; ++i) {
    clients.push_back(0xc0a80000 + i);
    topology.attach_host(clients.back(), edges[1 + (i % 3)]);
  }
  sim::Simulator simulator(std::move(topology));
  auto server = std::make_unique<sim::ServerBehavior>(
      sim::ServerBehavior::Config{.address = kVictim});
  auto* server_ptr = server.get();
  simulator.set_behavior(kVictim, std::move(server));
  for (const Addr client : clients)
    simulator.set_behavior(client,
                           std::make_unique<sim::ClientBehavior>(
                               sim::ClientBehavior::Config{.address = client}));

  DcsParams params;
  params.seed = 12;
  auto routers = make_routers(params, edges.size());
  DistinctCountSketch single(params);
  std::vector<std::unique_ptr<FlowUpdateExporter>> exporters;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    exporters.push_back(std::make_unique<FlowUpdateExporter>());
    FlowUpdateExporter* exporter = exporters.back().get();
    simulator.add_ingress_tap(
        edges[i],
        [exporter, &routers, &single, i](sim::RouterId, std::uint64_t,
                                         const Packet& packet) {
          exporter->observe(packet, [&](const FlowUpdate& update) {
            routers[i].update(update.dest, update.source, update.delta);
            single.update(update.dest, update.source, update.delta);
          });
        });
  }

  Xoshiro256 rng(3);
  // Legitimate sessions (they complete -> deleted from the sketches)...
  for (const Addr client : clients)
    sim::launch_session(simulator, rng.bounded(10'000), client, kVictim);
  // ...plus a spoofed flood that never completes.
  sim::launch_spoofed_flood(simulator, edges[2], kVictim, 5000, 5000, 2000,
                            77, rng);
  simulator.run();

  // Ground truth from the server itself.
  EXPECT_EQ(server_ptr->half_open(), 2000u);
  EXPECT_EQ(server_ptr->established(), 500u);

  // Collector view == single-monitor view, and it names the victim with the
  // flood's (not the legitimate clients') magnitude.
  const DistinctCountSketch collected = collect(routers);
  EXPECT_TRUE(collected == single);
  const auto top = TrackingDcs(collected).top_k(1).entries;
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].group, kVictim);
  EXPECT_NEAR(static_cast<double>(top[0].estimate), 2000.0, 800.0);
}

TEST(Integration, MonitorSurvivesMillionUpdateStream) {
  // Soak: one full ZipfWorkload through the monitor with periodic checks;
  // invariants must hold at the end.
  ZipfWorkloadConfig config;
  config.u_pairs = 200'000;
  config.num_destinations = 5000;
  config.skew = 1.5;
  config.churn = 2;  // 1M updates total
  const ZipfWorkload workload(config);

  DdosMonitorConfig monitor_config;
  monitor_config.sketch.seed = 19;
  monitor_config.check_interval = 4096;
  DdosMonitor monitor(monitor_config);
  monitor.ingest(workload.updates());
  EXPECT_EQ(monitor.updates_ingested(), workload.updates().size());
  EXPECT_TRUE(monitor.tracker().check_invariants());
}

}  // namespace
}  // namespace dcs

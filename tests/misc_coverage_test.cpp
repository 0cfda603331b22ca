// Coverage for smaller API surfaces not exercised elsewhere: partial
// simulator runs, topology introspection, volume heavy-hitter eviction and
// sample collection internals.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/count_min.hpp"
#include "common/random.hpp"
#include "sim/agents.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/tracking_dcs.hpp"

namespace dcs {
namespace {

TEST(SimulatorRunUntil, StopsAtTheDeadlineAndResumes) {
  sim::Topology topology;
  const auto edges = sim::make_isp_topology(topology, 3);
  constexpr Addr kServer = 900;
  topology.attach_host(kServer, edges[1]);
  sim::Simulator simulator(std::move(topology));

  auto server = std::make_unique<sim::ServerBehavior>(
      sim::ServerBehavior::Config{.address = kServer});
  auto* server_ptr = server.get();
  simulator.set_behavior(kServer, std::move(server));

  Xoshiro256 rng(5);
  sim::launch_spoofed_flood(simulator, edges[0], kServer, /*start=*/0,
                            /*duration=*/1000, /*count=*/100, 7, rng);
  sim::launch_spoofed_flood(simulator, edges[0], kServer, /*start=*/5000,
                            /*duration=*/1000, /*count=*/100, 8, rng);

  simulator.run(/*until=*/3000);
  const std::size_t after_first = server_ptr->half_open();
  EXPECT_EQ(after_first, 100u);  // only the first wave has landed
  EXPECT_LE(simulator.now(), 3000u);

  simulator.run();  // drain
  EXPECT_EQ(server_ptr->half_open(), 200u);
}

TEST(TopologyIntrospection, NamesAndLatencies) {
  sim::Topology topology;
  const auto a = topology.add_router("alpha");
  const auto b = topology.add_router("beta");
  topology.add_link(a, b, 7);
  topology.build_routes();
  EXPECT_EQ(topology.router_name(a), "alpha");
  EXPECT_EQ(topology.link_latency(a, b), 7u);
  EXPECT_THROW(topology.link_latency(a, a), std::invalid_argument);
  EXPECT_THROW(topology.add_router("late"), std::logic_error);
  EXPECT_THROW(topology.add_link(a, b, 2), std::logic_error);
}

TEST(VolumeHeavyHitters, EvictionKeepsTheHeavyGroups) {
  // Exceed the internal candidate budget (4096) with light groups; a heavy
  // group must survive the pruning.
  VolumeHeavyHitters volume(4, 1 << 15, 9);
  for (int i = 0; i < 20'000; ++i) volume.update(42, 1, +1);  // heavy
  for (Addr g = 1000; g < 7000; ++g) volume.update(g, 1, +1);  // 6000 lights
  const auto top = volume.top_k(1);
  ASSERT_FALSE(top.entries.empty());
  EXPECT_EQ(top.entries[0].group, 42u);
  // The candidate set was pruned to stay bounded.
  EXPECT_LE(volume.top_k(100'000).entries.size(), 4096u);
}

TEST(CollectSample, ReportsInferenceLevelAndKeys) {
  DcsParams params;
  params.seed = 4;
  DistinctCountSketch sketch(params);
  Xoshiro256 rng(6);
  for (int i = 0; i < 50'000; ++i)
    sketch.update(static_cast<Addr>(rng.bounded(100)), static_cast<Addr>(rng()),
                  +1);
  const auto sample = sketch.collect_sample();
  EXPECT_GE(sample.keys.size(), params.sample_target());
  EXPECT_GT(sample.inference_level, 0);
  // Every sampled key must genuinely live at a level >= the inference level.
  for (const PairKey key : sample.keys)
    EXPECT_GE(sketch.level_of(key), sample.inference_level);
}

TEST(Quickstart, ReadmeSnippetCompilesAndRuns) {
  // The README's minimal usage block, kept honest by compilation.
  DcsParams params;
  params.seed = 42;
  TrackingDcs tracker(params);
  const Addr dest = 1, source = 2;
  tracker.update(dest, source, +1);
  tracker.update(dest, source, -1);
  EXPECT_TRUE(tracker.top_k(10).entries.empty());
}

}  // namespace
}  // namespace dcs

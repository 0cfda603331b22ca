// Operational costs of the distributed deployment: per-router sketch wire
// size, serialize/deserialize time, and collector merge + rebuild time as a
// function of the number of routers. These are the numbers an ISP deployment
// plans around (how often can the collector refresh its network-wide view?).
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "distributed/sharded_monitor.hpp"
#include "sketch/tracking_dcs.hpp"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::bench;

  const Options options(argc, argv);
  const Scale scale = Scale::resolve(options);

  DcsParams params;
  params.seed = 5;

  ZipfWorkloadConfig config;
  config.u_pairs = scale.u_pairs;
  config.num_destinations = scale.num_destinations;
  config.skew = 1.5;
  config.seed = 9;
  const ZipfWorkload workload(config);

  std::printf("# Distributed deployment costs (U=%llu total, split across routers)\n",
              static_cast<unsigned long long>(scale.u_pairs));
  print_row({"routers", "wire_KiB/router", "ser_ms", "deser_ms", "merge_ms",
             "rebuild_ms"},
            16);

  JsonReport report = make_report("distributed_costs", options);
  report.meta("u_pairs", static_cast<double>(scale.u_pairs));
  for (const std::size_t routers : {2u, 4u, 8u, 16u}) {
    ShardedMonitor monitor(params, routers);
    for (const FlowUpdate& u : workload.updates())
      monitor.update(u.dest, u.source, u.delta);

    // Wire size + serialize/deserialize cost of one router's sketch.
    // Written and read the way the delta path does: into a string sized
    // up front, and back out of it with no stream in between.
    std::string wire;
    Stopwatch ser_watch;
    {
      BinaryWriter writer(wire);
      monitor.shard(0).serialize(writer);
    }
    const double ser_ms = ser_watch.elapsed_ms();
    const double wire_kib = static_cast<double>(wire.size()) / 1024.0;
    Stopwatch deser_watch;
    BinaryReader reader(wire);
    const DistinctCountSketch restored =
        DistinctCountSketch::deserialize(reader);
    const double deser_ms = deser_watch.elapsed_ms();
    if (!(restored == monitor.shard(0))) std::printf("# WIRE CORRUPTION\n");

    // Collector: merge all routers, then build tracking state.
    Stopwatch merge_watch;
    DistinctCountSketch merged = monitor.collect();
    const double merge_ms = merge_watch.elapsed_ms();
    Stopwatch rebuild_watch;
    const TrackingDcs tracking(merged);
    const double rebuild_ms = rebuild_watch.elapsed_ms();
    if (tracking.top_k(1).entries.empty()) std::printf("# EMPTY RESULT\n");

    print_row({std::to_string(routers), format_double(wire_kib, 1),
               format_double(ser_ms, 2), format_double(deser_ms, 2),
               format_double(merge_ms, 2), format_double(rebuild_ms, 2)},
              16);

    const std::string section = "routers_" + std::to_string(routers);
    // Wire size is a function of the seeded workload alone — deterministic
    // and gated on every machine. The timings are single-shot and host
    // dependent; the runner applies its default timing noise.
    MetricValue wire_metric;
    wire_metric.value = wire_kib;
    wire_metric.dir = Direction::kLowerIsBetter;
    wire_metric.noise_pct = 0.0;
    wire_metric.deterministic = true;
    report.metric(section, "wire_kib_per_router", wire_metric);
    report.metric(section, "serialize_ms", ser_ms, Direction::kLowerIsBetter);
    report.metric(section, "deserialize_ms", deser_ms,
                  Direction::kLowerIsBetter);
    report.metric(section, "merge_ms", merge_ms, Direction::kLowerIsBetter);
    report.metric(section, "rebuild_ms", rebuild_ms,
                  Direction::kLowerIsBetter);
  }
  write_report(report, options);
  return 0;
}

// Operational costs of the distributed deployment as a function of the
// number of routers, measured on the path a site agent and a collector run:
// each router updates an EpochSketch, seals it into the sketch blob, and
// the collector parses every blob and adds it into one DistinctCountSketch,
// then builds the TrackingDcs it queries. These are the numbers an ISP
// deployment plans around (how often can the collector refresh its
// network-wide view?).
//
//   serialize_ms    seal of router 0's epoch into its blob
//   deserialize_ms  SketchBlob::parse of that blob
//   merge_ms        the blob adds of every router into an empty sketch
//   rebuild_ms      one TrackingDcs build over the merged sketch
//
// Routing pins a (source, dest) pair to one router by a seeded hash of the
// pair, so each router's blob — and wire_kib_per_router — depends on the
// seeded workload alone.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/stopwatch.hpp"
#include "sketch/epoch_sketch.hpp"
#include "sketch/sketch_blob.hpp"
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

  // The single-sketch reference every merged view must equal.
  DistinctCountSketch reference(params);
  for (const FlowUpdate& u : workload.updates())
    reference.update(u.dest, u.source, u.delta);

  std::printf("# Distributed deployment costs (U=%llu total, split across routers)\n",
              static_cast<unsigned long long>(scale.u_pairs));
  print_row({"routers", "wire_KiB/router", "ser_ms", "deser_ms", "merge_ms",
             "rebuild_ms"},
            16);

  JsonReport report = make_report("distributed_costs", options);
  report.meta("u_pairs", static_cast<double>(scale.u_pairs));
  const SeededHash route(mix64(params.seed ^ 0x705e77e2ULL));
  for (const std::size_t routers : {2u, 4u, 8u, 16u}) {
    std::vector<std::vector<PairKey>> keys(routers);
    std::vector<std::vector<int>> deltas(routers);
    for (const FlowUpdate& u : workload.updates()) {
      const PairKey key = pack_pair(u.dest, u.source);
      const auto router = static_cast<std::size_t>(
          reduce_range(route(key), static_cast<std::uint32_t>(routers)));
      keys[router].push_back(key);
      deltas[router].push_back(u.delta);
    }
    std::vector<std::string> blobs(routers);
    double ser_ms = 0.0;
    for (std::size_t i = 0; i < routers; ++i) {
      EpochSketch sketch(params);
      sketch.update_batch(keys[i], deltas[i]);
      Stopwatch ser_watch;
      blobs[i] = sketch.seal();
      if (i == 0) ser_ms = ser_watch.elapsed_ms();
    }
    const double wire_kib = static_cast<double>(blobs[0].size()) / 1024.0;
    Stopwatch deser_watch;
    std::vector<SketchBlob> parsed{SketchBlob::parse(blobs[0])};
    const double deser_ms = deser_watch.elapsed_ms();

    // Collector: add every router's blob, then build tracking state.
    for (std::size_t i = 1; i < routers; ++i)
      parsed.push_back(SketchBlob::parse(blobs[i]));
    Stopwatch merge_watch;
    DistinctCountSketch merged(params);
    for (const SketchBlob& blob : parsed) merged.merge(blob);
    const double merge_ms = merge_watch.elapsed_ms();
    if (!(merged == reference)) {
      std::fprintf(stderr, "distributed_costs: merged sketch differs from "
                           "the single-sketch reference at %zu routers\n",
                   routers);
      return 1;
    }
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

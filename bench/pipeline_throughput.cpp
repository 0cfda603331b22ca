// End-to-end pipeline throughput: packets/second through each stage of the
// monitoring chain, measured separately and composed —
//   packet -> FlowUpdateExporter -> update -> TrackingDcs -> (periodic) top-k
// This is the number that decides whether the monitor keeps up with a given
// link: the paper's premise is that all stages are cheap enough for ISP-edge
// deployment.
//
// Each ingest stage is measured two ways:
//   sequential — one call per element (update()/observe());
//   batched    — caller-side blocks through the update_batch() fast path
//                (hash precompute + prefetch + amortized telemetry).
//
// Methodology for the sketch-ingest stages: one untimed warm-up pass
// populates every sketch level and faults in the backing pages, then the
// fastest of three timed passes over the same long-lived structure is
// reported. A continuous monitor spends its life in that steady state;
// single-shot cold runs mostly measure page faults, and best-of-N damps the
// +/-10-20% timing jitter of a shared virtualized host.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "net/exporter.hpp"
#include "net/scenarios.hpp"
#include "sketch/tracking_dcs.hpp"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::bench;
  const Options options(argc, argv);
  const Scale scale = Scale::resolve(options);
  const std::size_t block = 1024;   // caller-side batch (NIC-burst sized)

  // Build a realistic packet mix: background sessions + a flood + a crowd.
  Timeline timeline(3);
  BackgroundTrafficConfig background;
  background.sessions = scale.full ? 200'000 : 40'000;
  add_background_traffic(timeline, background);
  SynFloodConfig flood;
  flood.spoofed_sources = scale.full ? 100'000 : 20'000;
  add_syn_flood(timeline, flood);
  FlashCrowdConfig crowd;
  crowd.clients = scale.full ? 100'000 : 20'000;
  add_flash_crowd(timeline, crowd);
  const auto packets = timeline.finalize();

  std::printf("# Pipeline throughput (%zu packets)\n", packets.size());

  // Stage 1: exporter alone, element sink vs batch sink.
  double exporter_mpps, exporter_batched_mpps;
  std::vector<FlowUpdate> updates;
  {
    FlowUpdateExporter exporter;
    updates.reserve(packets.size());
    Stopwatch watch;
    for (const Packet& packet : packets)
      exporter.observe(packet,
                       [&updates](const FlowUpdate& u) { updates.push_back(u); });
    exporter.finish_interval();
    exporter_mpps =
        static_cast<double>(packets.size()) / watch.elapsed_s() / 1e6;
  }
  {
    FlowUpdateExporter exporter;
    std::size_t emitted = 0;
    Stopwatch watch;
    exporter.run_batched(
        packets,
        [&emitted](std::span<const FlowUpdate> ready) { emitted += ready.size(); },
        block);
    exporter_batched_mpps =
        static_cast<double>(packets.size()) / watch.elapsed_s() / 1e6;
    if (emitted != updates.size())
      std::printf("# WARNING: batch sink emitted %zu != %zu updates\n", emitted,
                  updates.size());
  }

  DcsParams params;
  params.seed = 5;

  // Warm-up + best-of-3 runner (see methodology note at the top). Repeated
  // passes over the same linear sketch only grow its counts; per-update cost
  // is unchanged, so re-ingesting the stream is a valid steady-state probe.
  // Alongside the best-of-3 pick, the spread between the fastest and
  // slowest timed rep is recorded as this stage's run-to-run noise — the
  // BENCH JSON carries it so the regression gate can scale its threshold
  // to what this host actually jitters by.
  struct Steady {
    double best = 0.0;       // M updates/s, fastest rep
    double spread_pct = 0.0; // (best - worst) / best * 100
  };
  const auto steady_mups = [&updates](auto&& pass) {
    pass();  // untimed: allocate levels, fault in pages
    Steady steady;
    double worst = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch watch;
      pass();
      const double mups =
          static_cast<double>(updates.size()) / watch.elapsed_s() / 1e6;
      if (mups > steady.best) steady.best = mups;
      if (worst == 0.0 || mups < worst) worst = mups;
    }
    if (steady.best > 0.0)
      steady.spread_pct = (steady.best - worst) / steady.best * 100.0;
    return steady;
  };
  const std::span<const FlowUpdate> all(updates);

  // Stage 2: tracking sketch alone (on the produced updates).
  Steady sketch_mups, sketch_batched_mups;
  {
    TrackingDcs tracker(params);
    sketch_mups = steady_mups([&] {
      for (const FlowUpdate& u : updates)
        tracker.update(u.dest, u.source, u.delta);
    });
  }
  {
    TrackingDcs tracker(params);
    sketch_batched_mups = steady_mups([&] {
      for (std::size_t i = 0; i < all.size(); i += block)
        tracker.update_batch(all.subspan(i, std::min(block, all.size() - i)));
    });
  }

  // Composed: packets in, alerts-capable state out, query every 4096 updates.
  double composed_mpps, composed_batched_mpps;
  std::uint64_t checksum = 0;
  {
    FlowUpdateExporter exporter;
    TrackingDcs tracker(params);
    std::uint64_t since_query = 0;
    Stopwatch watch;
    for (const Packet& packet : packets) {
      exporter.observe(packet, [&](const FlowUpdate& u) {
        tracker.update(u.dest, u.source, u.delta);
        if (++since_query >= 4096) {
          since_query = 0;
          const auto top = tracker.top_k(5);
          if (!top.entries.empty()) checksum ^= top.entries[0].group;
        }
      });
    }
    exporter.finish_interval();  // keep the last partial SYN/FIN interval
    checksum ^= exporter.intervals().size();
    composed_mpps =
        static_cast<double>(packets.size()) / watch.elapsed_s() / 1e6;
  }
  // Composed, batched: exporter batch sink feeding the batched tracker path,
  // query once per delivered block.
  {
    FlowUpdateExporter exporter;
    TrackingDcs tracker(params);
    std::uint64_t since_query = 0;
    Stopwatch watch;
    exporter.run_batched(
        packets,
        [&](std::span<const FlowUpdate> ready) {
          tracker.update_batch(ready);
          since_query += ready.size();
          if (since_query >= 4096) {
            since_query = 0;
            const auto top = tracker.top_k(5);
            if (!top.entries.empty()) checksum ^= top.entries[0].group;
          }
        },
        block);
    checksum ^= exporter.intervals().size();
    composed_batched_mpps =
        static_cast<double>(packets.size()) / watch.elapsed_s() / 1e6;
  }
  if (checksum == 0xdeadbeef) std::printf("#\n");

  print_row({"stage", "M ops/s"}, 38);
  print_row({"exporter (packets)", format_double(exporter_mpps, 2)}, 38);
  print_row({"exporter batched (packets)",
             format_double(exporter_batched_mpps, 2)}, 38);
  print_row({"tracking sketch (updates)", format_double(sketch_mups.best, 2)},
            38);
  print_row({"tracking sketch batched (updates)",
             format_double(sketch_batched_mups.best, 2)}, 38);
  print_row({"composed pipeline (packets)", format_double(composed_mpps, 2)},
            38);
  print_row({"composed batched (packets)",
             format_double(composed_batched_mpps, 2)}, 38);
  std::printf("\n%zu packets produced %zu flow updates (%.2f updates/packet)\n",
              packets.size(), updates.size(),
              static_cast<double>(updates.size()) /
                  static_cast<double>(packets.size()));

  // BENCH JSON: every stage's throughput, best-of-3 with recorded spread
  // for the warmed stages (higher is better), single-shot exporter stages
  // with noise left to the runner's default.
  JsonReport report = make_report("pipeline_throughput", options);
  report.meta("packets", static_cast<double>(packets.size()));
  report.meta("updates", static_cast<double>(updates.size()));
  const auto steady = [&report](const std::string& key, const Steady& s) {
    MetricValue v;
    v.value = s.best;
    v.dir = Direction::kHigherIsBetter;
    v.noise_pct = s.spread_pct;
    v.count = 3;
    report.metric("throughput", key, v);
  };
  report.metric("throughput", "exporter_mpps", exporter_mpps,
                Direction::kHigherIsBetter);
  report.metric("throughput", "exporter_batched_mpps", exporter_batched_mpps,
                Direction::kHigherIsBetter);
  steady("sketch_mups", sketch_mups);
  steady("sketch_batched_mups", sketch_batched_mups);
  report.metric("throughput", "composed_mpps", composed_mpps,
                Direction::kHigherIsBetter);
  report.metric("throughput", "composed_batched_mpps", composed_batched_mpps,
                Direction::kHigherIsBetter);
  write_report(report, options);
  return 0;
}

// dcs_cli — command-line front end for the Distinct-Count Sketch library.
//
// Subcommands:
//   generate  --out trace.bin [--u N] [--d N] [--z SKEW] [--churn N]
//             [--noise N] [--seed N] [--csv]
//       Write a synthetic Zipf flow-update trace (binary, or CSV with --csv).
//
//   info      --trace trace.bin
//       Print update/insert/delete counts and exact distinct statistics.
//
//   topk      --trace trace.bin [--k N] [--r N] [--s N] [--seed N] [--exact]
//             [--batch [--block N]] [--threads N]
//       Stream the trace through a Tracking Distinct-Count Sketch (or the
//       exact tracker with --exact) and print the top-k destinations by
//       distinct-source frequency. --batch ingests through the batched
//       fast path in blocks of --block (default 1024) updates; --threads N
//       splits the trace over N threads, each updating its own EpochSketch
//       (the site agent's edge form) and sealing it into a sketch blob, then
//       answers from the merge of the N blobs — the collector's own codec
//       and merge.
//
//   sketch    --trace trace.bin --out sketch.dcs [--r N] [--s N] [--seed N]
//       Build a basic sketch from a trace and persist it.
//
//   merge     --out merged.dcs sketch1.dcs sketch2.dcs ...
//       Merge persisted sketches (same params/seed) into one.
//
//   query     --sketch sketch.dcs [--k N] [--tau N]
//       Load a persisted sketch and answer a top-k (or threshold) query.
//
//   diff      --base old.dcs --sketch new.dcs [--k N]
//       Subtract an earlier snapshot and report the destinations with the
//       most NEW distinct sources since it was taken (heavy-change query).
//
//   monitor   --trace trace.bin [--interval N] [--min-absolute N]
//             [--factor F] [--by-source] [--alerts-out alerts.json]
//       Replay the trace through the DDoS monitor and print alerts.
//       --alerts-out writes the structured alert event log as JSON.
//
//   Telemetry: `topk` and `monitor` accept
//       --metrics-out <file> [--metrics-format prom|json]
//   to dump a runtime-metrics snapshot (update/query counters, bucket
//   classifications, latency histograms — see docs/OBSERVABILITY.md).
//   `monitor` rewrites the file after every check epoch, so a scraper
//   watching it sees the run progress live.
//
//   convert   --in packets.txt --out trace.bin [--timeout N]
//       Import a text packet log ("timestamp source dest flag" per line;
//       addresses as dotted quads or integers; flag one of S/A/R/F/D) and
//       run it through the handshake-tracking exporter to produce a flow-
//       update trace. --timeout enables SYN-backlog reaping (ticks).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sstream>

#include "baselines/exact_tracker.hpp"
#include "common/options.hpp"
#include "detection/alert_log.hpp"
#include "detection/ddos_monitor.hpp"
#include "net/exporter.hpp"
#include "obs/export.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/epoch_sketch.hpp"
#include "sketch/sketch_blob.hpp"
#include "sketch/tracking_dcs.hpp"
#include "stream/generator.hpp"
#include "stream/trace_io.hpp"

namespace {

using namespace dcs;

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: dcs_cli <command> [options]\n"
      "\n"
      "commands: generate convert info topk sketch merge query diff monitor\n"
      "\n"
      "sketch shaping (topk, sketch, merge, query, diff, monitor):\n"
      "  --r N               second-level tables (default 3)\n"
      "  --s N               buckets per table (default 128)\n"
      "  --seed N            hash seed (default 0); sketches only merge/diff\n"
      "                      when built with identical --r/--s/--seed\n"
      "telemetry (topk, monitor):\n"
      "  --metrics-out FILE  write a runtime-metrics snapshot\n"
      "  --metrics-format F  prom|json (default prom)\n"
      "\n"
      "generate --out trace.bin  synthetic Zipf flow-update workload\n"
      "  --u N               distinct (source, dest) pairs (default 1000000)\n"
      "  --d N               distinct destinations (default 50000)\n"
      "  --z F               Zipf skew (default 1.5)\n"
      "  --churn N           extra insert+delete rounds per pair (default 0)\n"
      "  --noise N           net-zero noise pairs (default 0)\n"
      "  --csv               write CSV text instead of the binary format\n"
      "convert --in packets.txt --out trace.bin  import a text packet log\n"
      "  --timeout N         reap half-open entries older than N ticks\n"
      "info --trace trace.bin    trace statistics\n"
      "topk --trace trace.bin    approximate (or --exact) top-k\n"
      "  --k N               entries to print (default 10)\n"
      "  --exact             use the exact tracker instead of the sketch\n"
      "sketch --trace trace.bin --out router0.dcs   persist a sketch\n"
      "merge --out all.dcs a.dcs b.dcs ...          add sketches counter-wise\n"
      "query --sketch all.dcs    query a persisted sketch\n"
      "  --tau N             threshold query instead of top-k\n"
      "diff --base old.dcs --sketch new.dcs   rank by new distinct sources\n"
      "monitor --trace trace.bin  alert replay through the DDoS monitor\n"
      "  --interval N        updates per check epoch (default 2048)\n"
      "  --min-absolute N    detection floor, distinct sources (default 512)\n"
      "  --factor F          alarm factor over baseline (default 8.0)\n"
      "  --by-source         rank sources by distinct destinations\n"
      "  --alerts-out FILE   write the typed alert event log as JSON\n"
      "  --help              print this help\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

/// --metrics-out <file> / --metrics-format {prom,json} (default prom).
/// Inactive (dump() is a no-op) when --metrics-out is absent.
struct MetricsSink {
  std::string path;
  obs::ExportFormat format = obs::ExportFormat::kPrometheus;

  static MetricsSink from(const Options& options) {
    MetricsSink sink;
    sink.path = options.str("metrics-out", "");
    sink.format = obs::parse_format(options.str("metrics-format", "prom"));
    return sink;
  }

  bool active() const { return !path.empty(); }

  void dump() const {
    if (active())
      obs::write_snapshot_file(path, format,
                               obs::Registry::global().snapshot());
  }
};

DcsParams params_from(const Options& options) {
  DcsParams params;
  params.num_tables = static_cast<int>(options.integer("r", 3));
  params.buckets_per_table = static_cast<std::uint32_t>(options.integer("s", 128));
  params.seed = static_cast<std::uint64_t>(options.integer("seed", 0));
  params.validate();
  return params;
}

void print_entries(const std::vector<TopKEntry>& entries) {
  for (std::size_t i = 0; i < entries.size(); ++i)
    std::printf("%2zu  dest=%08x  frequency~%llu\n", i + 1, entries[i].group,
                static_cast<unsigned long long>(entries[i].estimate));
}

int cmd_generate(const Options& options) {
  const std::string out = options.str("out", "");
  if (out.empty()) return usage();
  ZipfWorkloadConfig config;
  config.u_pairs = static_cast<std::uint64_t>(options.integer("u", 1'000'000));
  config.num_destinations =
      static_cast<std::uint32_t>(options.integer("d", 50'000));
  config.skew = options.real("z", 1.5);
  config.churn = static_cast<std::uint32_t>(options.integer("churn", 0));
  config.noise_pairs = static_cast<std::uint64_t>(options.integer("noise", 0));
  config.seed = static_cast<std::uint64_t>(options.integer("seed", 1));
  const ZipfWorkload workload(config);
  if (options.flag("csv")) {
    std::ofstream file(out);
    if (!file) throw SerializeError("cannot open " + out);
    write_trace_csv(file, workload.updates());
  } else {
    write_trace_file(out, workload.updates());
  }
  std::printf("wrote %zu updates (%llu distinct pairs, %u destinations, z=%.2f) to %s\n",
              workload.updates().size(),
              static_cast<unsigned long long>(workload.u_pairs()),
              config.num_destinations, config.skew, out.c_str());
  return 0;
}

int cmd_info(const Options& options) {
  const std::string trace = options.str("trace", "");
  if (trace.empty()) return usage();
  const auto updates = read_trace_file(trace);
  std::uint64_t inserts = 0, deletes = 0;
  ExactTracker exact;
  for (const FlowUpdate& u : updates) {
    (u.delta > 0 ? inserts : deletes)++;
    exact.update(u.dest, u.source, u.delta);
  }
  std::printf("updates: %zu (%llu inserts, %llu deletes)\n", updates.size(),
              static_cast<unsigned long long>(inserts),
              static_cast<unsigned long long>(deletes));
  std::printf("net distinct (source,dest) pairs: %llu\n",
              static_cast<unsigned long long>(exact.distinct_pairs()));
  const auto top = exact.top_k(5).entries;
  std::printf("exact top-%zu destinations:\n", top.size());
  print_entries(top);
  return 0;
}

int cmd_topk(const Options& options) {
  const std::string trace = options.str("trace", "");
  if (trace.empty()) return usage();
  const MetricsSink metrics = MetricsSink::from(options);
  const auto updates = read_trace_file(trace);
  const auto k = static_cast<std::size_t>(options.integer("k", 10));
  if (options.flag("exact")) {
    ExactTracker exact;
    for (const FlowUpdate& u : updates) exact.update(u.dest, u.source, u.delta);
    print_entries(exact.top_k(k).entries);
    metrics.dump();
    return 0;
  }
  if (const auto threads = static_cast<std::size_t>(options.integer("threads", 0));
      threads > 0) {
    // Multi-threaded ingest: each thread takes a contiguous slice of the
    // trace into its own EpochSketch and seals it; by linearity the merge
    // of the sealed blobs is the sketch of the whole trace.
    const DcsParams params = params_from(options);
    const std::span<const FlowUpdate> all(updates);
    std::vector<std::string> blobs(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const std::size_t chunk = (all.size() + threads - 1) / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t begin = std::min(t * chunk, all.size());
      const std::size_t end = std::min(begin + chunk, all.size());
      workers.emplace_back([&params, &blob = blobs[t],
                            slice = all.subspan(begin, end - begin)] {
        EpochSketch sketch(params);
        for (const FlowUpdate& u : slice)
          sketch.update(u.dest, u.source, u.delta);
        blob = sketch.seal();
      });
    }
    for (std::thread& worker : workers) worker.join();
    DistinctCountSketch merged(params);
    for (const std::string& blob : blobs) merged.merge(SketchBlob::parse(blob));
    std::printf("# threads=%zu sketch=%.1f KiB (merged from sealed blobs)\n",
                threads, static_cast<double>(merged.memory_bytes()) / 1024.0);
    print_entries(merged.top_k(k).entries);
    metrics.dump();
    return 0;
  }
  TrackingDcs tracker(params_from(options));
  if (options.flag("batch")) {
    const auto block =
        static_cast<std::size_t>(options.integer("block", 1024));
    if (block == 0) throw std::invalid_argument("--block must be >= 1");
    const std::span<const FlowUpdate> all(updates);
    for (std::size_t i = 0; i < all.size(); i += block)
      tracker.update_batch(all.subspan(i, std::min(block, all.size() - i)));
  } else {
    for (const FlowUpdate& u : updates)
      tracker.update(u.dest, u.source, u.delta);
  }
  const TopKResult result = tracker.top_k(k);
  std::printf("# sample=%llu inference_level=%d sketch=%.1f KiB\n",
              static_cast<unsigned long long>(result.sample_size),
              result.inference_level,
              static_cast<double>(tracker.memory_bytes()) / 1024.0);
  print_entries(result.entries);
  metrics.dump();
  return 0;
}

int cmd_sketch(const Options& options) {
  const std::string trace = options.str("trace", "");
  const std::string out = options.str("out", "");
  if (trace.empty() || out.empty()) return usage();
  const auto updates = read_trace_file(trace);
  DistinctCountSketch sketch(params_from(options));
  for (const FlowUpdate& u : updates) sketch.update(u.dest, u.source, u.delta);
  std::ofstream file(out, std::ios::binary);
  if (!file) throw SerializeError("cannot open " + out);
  BinaryWriter writer(file);
  sketch.serialize(writer);
  std::printf("sketched %zu updates into %s (%.1f KiB)\n", updates.size(),
              out.c_str(), static_cast<double>(sketch.memory_bytes()) / 1024.0);
  return 0;
}

DistinctCountSketch load_sketch(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw SerializeError("cannot open " + path);
  BinaryReader reader(file);
  return DistinctCountSketch::deserialize(reader);
}

int cmd_merge(const Options& options, const std::vector<std::string>& inputs) {
  const std::string out = options.str("out", "");
  if (out.empty() || inputs.empty()) return usage();
  DistinctCountSketch merged = load_sketch(inputs.front());
  for (std::size_t i = 1; i < inputs.size(); ++i)
    merged.merge(load_sketch(inputs[i]));
  std::ofstream file(out, std::ios::binary);
  if (!file) throw SerializeError("cannot open " + out);
  BinaryWriter writer(file);
  merged.serialize(writer);
  std::printf("merged %zu sketches into %s\n", inputs.size(), out.c_str());
  return 0;
}

int cmd_query(const Options& options) {
  const std::string path = options.str("sketch", "");
  if (path.empty()) return usage();
  const DistinctCountSketch sketch = load_sketch(path);
  if (const auto tau = options.raw("tau")) {
    const auto entries = sketch.groups_above(std::stoull(*tau));
    std::printf("# %zu destinations with frequency >= %s\n", entries.size(),
                tau->c_str());
    print_entries(entries);
    return 0;
  }
  const auto k = static_cast<std::size_t>(options.integer("k", 10));
  print_entries(sketch.top_k(k).entries);
  return 0;
}

int cmd_diff(const Options& options) {
  const std::string base_path = options.str("base", "");
  const std::string sketch_path = options.str("sketch", "");
  if (base_path.empty() || sketch_path.empty()) return usage();
  DistinctCountSketch current = load_sketch(sketch_path);
  current.subtract(load_sketch(base_path));
  const auto k = static_cast<std::size_t>(options.integer("k", 10));
  std::printf("# destinations by NEW distinct sources since the base snapshot\n");
  print_entries(current.top_k(k).entries);
  return 0;
}

Addr parse_address(const std::string& token) {
  if (token.find('.') == std::string::npos)
    return static_cast<Addr>(std::stoul(token));
  // Dotted quad.
  Addr value = 0;
  std::size_t start = 0;
  for (int octet = 0; octet < 4; ++octet) {
    const std::size_t dot = token.find('.', start);
    const std::string part = token.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    const unsigned long parsed = std::stoul(part);
    if (parsed > 255) throw std::invalid_argument("bad octet: " + token);
    value = (value << 8) | static_cast<Addr>(parsed);
    if (dot == std::string::npos) {
      if (octet != 3) throw std::invalid_argument("bad address: " + token);
      break;
    }
    start = dot + 1;
  }
  return value;
}

int cmd_convert(const Options& options) {
  const std::string in_path = options.str("in", "");
  const std::string out_path = options.str("out", "");
  if (in_path.empty() || out_path.empty()) return usage();
  std::ifstream in(in_path);
  if (!in) throw SerializeError("cannot open " + in_path);

  const auto timeout = static_cast<std::uint64_t>(options.integer("timeout", 0));
  FlowUpdateExporter exporter(1000, timeout);
  std::vector<FlowUpdate> updates;
  std::string line;
  std::uint64_t line_number = 0, packets = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::uint64_t timestamp;
    std::string source, dest, flag;
    if (!(row >> timestamp >> source >> dest >> flag))
      throw std::invalid_argument("line " + std::to_string(line_number) +
                                  ": expected 'timestamp source dest flag'");
    Packet packet;
    packet.timestamp = timestamp;
    packet.source = parse_address(source);
    packet.dest = parse_address(dest);
    switch (flag.empty() ? '?' : flag[0]) {
      case 'S': packet.type = PacketType::kSyn; break;
      case 'A': packet.type = PacketType::kAck; break;
      case 'R': packet.type = PacketType::kRst; break;
      case 'F': packet.type = PacketType::kFin; break;
      case 'D': packet.type = PacketType::kData; break;
      default:
        throw std::invalid_argument("line " + std::to_string(line_number) +
                                    ": unknown flag '" + flag + "'");
    }
    ++packets;
    exporter.observe(packet,
                     [&updates](const FlowUpdate& u) { updates.push_back(u); });
  }
  // Close the trailing partial SYN/FIN interval so its counts are not lost
  // (observe() only rolls intervals when a later-interval packet arrives).
  exporter.finish_interval();
  write_trace_file(out_path, updates);
  std::printf("converted %llu packets into %zu flow updates -> %s\n",
              static_cast<unsigned long long>(packets), updates.size(),
              out_path.c_str());
  return 0;
}

int cmd_monitor(const Options& options) {
  const std::string trace = options.str("trace", "");
  if (trace.empty()) return usage();
  const MetricsSink metrics = MetricsSink::from(options);
  const std::string alerts_out = options.str("alerts-out", "");
  const std::string role = options.flag("by-source") ? "source" : "dest";
  const auto updates = read_trace_file(trace);
  DdosMonitorConfig config;
  config.sketch = params_from(options);
  config.check_interval =
      static_cast<std::uint64_t>(options.integer("interval", 2048));
  config.min_absolute =
      static_cast<std::uint64_t>(options.integer("min-absolute", 512));
  config.alarm_factor = options.real("factor", 8.0);
  if (options.flag("by-source"))
    config.rank_by = DdosMonitorConfig::RankBy::kSource;
  DdosMonitor monitor(config);
  // Refresh the snapshot file at every check epoch: a collector watching the
  // file sees counters and latency histograms advance while the replay runs.
  if (metrics.active())
    monitor.set_check_callback(
        [&metrics](const DdosMonitor&) { metrics.dump(); });
  monitor.ingest(updates);
  monitor.check_now();
  for (const Alert& alert : monitor.alerts())
    std::printf("%s\n", format_alert(alert, role).c_str());
  std::printf("%zu alerts, %zu active alarms after %zu updates (%llu checks)\n",
              monitor.alerts().size(), monitor.active_alarms().size(),
              updates.size(),
              static_cast<unsigned long long>(monitor.checks_run()));
  if (!alerts_out.empty()) write_alerts_json(alerts_out, monitor.alerts(), role);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help") {
    print_usage(stdout);
    return 0;
  }
  const dcs::Options options(argc - 1, argv + 1);
  // Positional arguments (for merge): everything not starting with "--" and
  // not a flag value.
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      // Skip the flag's value if it has one.
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc &&
          std::strncmp(argv[i + 1], "--", 2) != 0)
        ++i;
      continue;
    }
    positional.emplace_back(argv[i]);
  }

  try {
    if (command == "generate") return cmd_generate(options);
    if (command == "info") return cmd_info(options);
    if (command == "topk") return cmd_topk(options);
    if (command == "sketch") return cmd_sketch(options);
    if (command == "merge") return cmd_merge(options, positional);
    if (command == "query") return cmd_query(options);
    if (command == "diff") return cmd_diff(options);
    if (command == "monitor") return cmd_monitor(options);
    if (command == "convert") return cmd_convert(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dcs_cli %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  return usage();
}

// dcs_root — federation root collector (docs/FEDERATION.md).
//
// The top tier of the two-tier sharded deployment: binds a TCP port and
// accepts *leaf* collectors (dcs_collector --leaf-id ... --root ...), each
// relaying the per-site, per-epoch sketch deltas of its shard over one
// multiplexed wire-v4 uplink. Sketch linearity makes the merge exact — the
// root's merged sketch and top-k are bit-identical to a single collector
// that saw every site directly — and the root's per-(origin site, epoch)
// gap-filling dedup makes the relay exactly-once even when a killed leaf's
// journal is drained out of order with the re-homed agents' live streams.
//
//   dcs_root [--port N] [--bind ADDR] [--port-file FILE] [--leaves N]
//            [--timeout-ms N] [--k N] [--r N] [--s N] [--seed N]
//            [--min-absolute N] [--factor F] [--no-detection]
//            [--state-dir DIR] [--checkpoint-every N] [--checkpoint-retain N]
//            [--publish-dir DIR] [--publish-every-ms N] [--publish-retain N]
//            [--publish-k N] [--metrics-out FILE]
//            [--metrics-format prom|json] [--metrics-every SEC]
//            [--ops-port N] [--ops-port-file FILE]
//
// --leaves is the Bye quorum: the root exits after that many peers said
// Bye (each leaf sends one on graceful shutdown) or --timeout-ms elapses.
// Detection, durability, the query-tier publisher and the ops plane are
// the same subsystems dcs_collector runs — a root IS a collector, it just
// admits leaf-role Hellos and keeps a per-origin-site gap ledger.
//
// Operational note (docs/RUNBOOK.md): the pending-gap ledger is NOT
// checkpointed. Drain every leaf (watch dcs_leaf_uplink_spool_depth reach
// zero) before restarting a root, or re-drain the leaves afterwards.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "common/options.hpp"
#include "obs/export.hpp"
#include "obs/http_export.hpp"
#include "obs/trace.hpp"
#include "query/publisher.hpp"
#include "service/collector.hpp"

namespace {

using namespace dcs;

void print_usage() {
  std::printf(
      "usage: dcs_root [options]\n"
      "  --port N              TCP port to bind (0 = ephemeral; default 0)\n"
      "  --bind ADDR           bind address (default 127.0.0.1)\n"
      "  --port-file FILE      atomically publish the bound port to FILE\n"
      "  --leaves N            exit after N peers said Bye (default 1)\n"
      "  --timeout-ms N        max wait for the Byes (default 30000)\n"
      "  --k N                 detection top-k (default 5)\n"
      "  --r N                 sketch tables (must match leaves; default 3)\n"
      "  --s N                 buckets per table (must match; default 128)\n"
      "  --seed N              sketch hash seed (must match; default 0)\n"
      "  --min-absolute N      detection floor, distinct sources (default 512)\n"
      "  --factor F            detection alarm factor over baseline (default 8)\n"
      "  --no-detection        disable the EWMA baseline detector\n"
      "  --state-dir DIR       enable crash-safe checkpointing in DIR\n"
      "  --checkpoint-every N  merges between checkpoints (default 64)\n"
      "  --checkpoint-retain N checkpoint generations kept (default 2)\n"
      "  --publish-dir DIR     publish query snapshots into DIR\n"
      "  --publish-every-ms N  ms between query snapshots (default 1000)\n"
      "  --publish-retain N    query generations kept (default 8)\n"
      "  --publish-k N         top-k depth per query snapshot (default 10)\n"
      "  --metrics-out FILE    write a metrics snapshot on exit\n"
      "  --metrics-format F    prom|json (default prom)\n"
      "  --metrics-every SEC   rewrite --metrics-out every SEC seconds\n"
      "  --ops-port N          serve the HTTP ops plane on this port\n"
      "                        (0 = ephemeral; omit = disabled)\n"
      "  --ops-port-file FILE  atomically publish the bound ops port\n"
      "  --help                print this help\n");
}

void publish_port(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << port << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

/// Root liveness JSON for GET /healthz: collector basics plus the
/// federation ledger the reshard runbook watches.
std::string root_healthz_json(const service::Collector& collector) {
  const auto stats = collector.stats();
  std::string out = "{\n  \"status\": \"ok\",\n";
  out += std::string("  \"running\": ") +
         (collector.running() ? "true" : "false") + ",\n";
  const auto field = [&out](const char* key, unsigned long long value,
                            bool last = false) {
    out += "  \"" + std::string(key) + "\": " + std::to_string(value) +
           (last ? "\n" : ",\n");
  };
  field("connected_peers", stats.connected_sites);
  field("deltas_merged", stats.deltas_merged);
  field("relayed_deltas", stats.relayed_deltas);
  field("duplicate_deltas", stats.duplicate_deltas);
  field("gap_fills", stats.gap_fills);
  field("pending_gap_epochs", stats.pending_gap_epochs);
  field("gap_overflow_epochs", stats.gap_overflow_epochs);
  field("dropped_epochs", stats.dropped_epochs);
  field("wrong_shard_acks", stats.wrong_shard_acks);
  field("frame_errors", stats.frame_errors);
  field("active_alarms", collector.active_alarm_count(), /*last=*/true);
  out += "}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options options(argc, argv);
  if (options.flag("help")) {
    print_usage();
    return 0;
  }

  service::CollectorConfig config;
  config.federation_root = true;
  config.params.num_tables = static_cast<int>(options.integer("r", 3));
  config.params.buckets_per_table =
      static_cast<std::uint32_t>(options.integer("s", 128));
  config.params.seed = static_cast<std::uint64_t>(options.integer("seed", 0));
  config.bind_address = options.str("bind", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(options.integer("port", 0));
  config.run_detection = !options.flag("no-detection");
  config.detection.min_absolute =
      static_cast<std::uint64_t>(options.integer("min-absolute", 512));
  config.detection.alarm_factor = options.real("factor", 8.0);
  config.detection_top_k = static_cast<std::size_t>(options.integer("k", 5));
  config.state_dir = options.str("state-dir", "");
  config.checkpoint_every =
      static_cast<std::uint64_t>(options.integer("checkpoint-every", 64));
  config.checkpoint_retain =
      static_cast<std::uint64_t>(options.integer("checkpoint-retain", 2));

  const auto leaves = static_cast<std::uint64_t>(options.integer("leaves", 1));
  const int timeout_ms = static_cast<int>(options.integer("timeout-ms", 30000));

  try {
    config.params.validate();
    service::Collector collector(config);
    collector.start();
    std::printf("root listening on %s:%u\n", config.bind_address.c_str(),
                collector.port());
    std::fflush(stdout);
    const std::string port_file = options.str("port-file", "");
    if (!port_file.empty()) publish_port(port_file, collector.port());

    std::unique_ptr<obs::HttpServer> ops_server;
    const std::int64_t ops_port = options.integer("ops-port", -1);
    if (ops_port >= 0) {
      obs::HttpServerConfig ops_config;
      ops_config.bind_address = config.bind_address;
      ops_config.port = static_cast<std::uint16_t>(ops_port);
      ops_server = std::make_unique<obs::HttpServer>(ops_config);
      ops_server->route("/metrics", [] {
        obs::HttpResponse response;
        response.body = obs::to_prometheus(obs::Registry::global().snapshot());
        return response;
      });
      ops_server->route("/metrics.json", [] {
        obs::HttpResponse response;
        response.content_type = "application/json";
        response.body = obs::to_json(obs::Registry::global().snapshot());
        return response;
      });
      ops_server->route("/healthz", [&collector] {
        obs::HttpResponse response;
        response.content_type = "application/json";
        response.body = root_healthz_json(collector);
        return response;
      });
      ops_server->start();
      std::printf("ops plane on %s:%u\n", config.bind_address.c_str(),
                  ops_server->port());
      std::fflush(stdout);
      const std::string ops_port_file = options.str("ops-port-file", "");
      if (!ops_port_file.empty())
        publish_port(ops_port_file, ops_server->port());
    }

    std::unique_ptr<query::SnapshotPublisher> publisher;
    const std::string publish_dir = options.str("publish-dir", "");
    if (!publish_dir.empty()) {
      query::SnapshotPublisherConfig publish_config;
      publish_config.publish_dir = publish_dir;
      publish_config.publish_every_ms =
          static_cast<int>(options.integer("publish-every-ms", 1000));
      publish_config.retain =
          static_cast<std::uint64_t>(options.integer("publish-retain", 8));
      publish_config.top_k =
          static_cast<std::size_t>(options.integer("publish-k", 10));
      publisher = std::make_unique<query::SnapshotPublisher>(
          publish_config, [&collector](std::size_t top_k) {
            return collector.query_publish_state(top_k);
          });
      publisher->start();
    }

    const std::string metrics_out_path = options.str("metrics-out", "");
    const obs::ExportFormat metrics_format =
        obs::parse_format(options.str("metrics-format", "prom"));
    obs::PeriodicSnapshotWriter metrics_flusher;
    metrics_flusher.start(metrics_out_path, metrics_format,
                          static_cast<int>(options.integer("metrics-every",
                                                           0)));

    const bool all_done = collector.wait_for_byes(leaves, timeout_ms);
    if (publisher) {
      publisher->publish_now();
      publisher->stop();
    }
    metrics_flusher.stop();
    if (ops_server) ops_server->stop();
    collector.stop();

    const auto stats = collector.stats();
    std::printf(
        "byes=%llu deltas=%llu relayed=%llu duplicates=%llu gap_fills=%llu "
        "pending_gaps=%llu dropped=%llu wrong_shard=%llu frame_errors=%llu\n",
        static_cast<unsigned long long>(stats.byes),
        static_cast<unsigned long long>(stats.deltas_merged),
        static_cast<unsigned long long>(stats.relayed_deltas),
        static_cast<unsigned long long>(stats.duplicate_deltas),
        static_cast<unsigned long long>(stats.gap_fills),
        static_cast<unsigned long long>(stats.pending_gap_epochs),
        static_cast<unsigned long long>(stats.dropped_epochs),
        static_cast<unsigned long long>(stats.wrong_shard_acks),
        static_cast<unsigned long long>(stats.frame_errors));
    for (const auto& site : collector.site_stats())
      std::printf("site=%llu epochs=%llu updates=%llu dropped=%llu "
                  "last_epoch=%llu\n",
                  static_cast<unsigned long long>(site.site_id),
                  static_cast<unsigned long long>(site.epochs_merged),
                  static_cast<unsigned long long>(site.updates_merged),
                  static_cast<unsigned long long>(site.dropped_epochs),
                  static_cast<unsigned long long>(site.last_epoch));
    const auto result = collector.top_k(config.detection_top_k);
    for (std::size_t i = 0; i < result.entries.size(); ++i)
      std::printf("%2zu  dest=%08x  frequency~%llu\n", i + 1,
                  result.entries[i].group,
                  static_cast<unsigned long long>(result.entries[i].estimate));
    std::printf("alerts=%zu active_alarms=%zu\n", collector.alerts().size(),
                collector.active_alarm_count());

    if (!metrics_out_path.empty())
      obs::write_snapshot_file(metrics_out_path, metrics_format,
                               obs::Registry::global().snapshot());

    if (stats.pending_gap_epochs != 0)
      std::fprintf(stderr,
                   "dcs_root: WARNING: %llu pending gap epochs — a leaf "
                   "journal was not fully drained\n",
                   static_cast<unsigned long long>(stats.pending_gap_epochs));
    if (!all_done) {
      std::fprintf(stderr, "dcs_root: timed out waiting for %llu leaves\n",
                   static_cast<unsigned long long>(leaves));
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dcs_root: %s\n", error.what());
    return 1;
  }
}

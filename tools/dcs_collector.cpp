// dcs_collector — central detector for the sketch-shipping deployment.
//
// Binds a TCP port (0 = ephemeral), accepts site-agent connections
// (dcs_agent), merges their per-epoch sketch deltas into one global
// tracking sketch, runs EWMA-baseline detection over the merged top-k, and
// exits after every expected site said Bye (or on timeout).
//
//   dcs_collector [--port N] [--bind ADDR] [--port-file FILE] [--sites N]
//                 [--leaf-id N] [--root HOST:PORT] [--shard-map FILE]
//                 [--uplink-spool N] [--leaves N]
//                 [--timeout-ms N] [--k N] [--r N] [--s N] [--seed N]
//                 [--min-absolute N] [--factor F] [--no-detection]
//                 [--state-dir DIR] [--checkpoint-every N]
//                 [--checkpoint-retain N] [--crash-after-deltas N]
//                 [--publish-dir DIR] [--publish-every-ms N]
//                 [--publish-retain N] [--publish-k N]
//                 [--max-inflight-bytes N] [--site-rate R] [--site-burst N]
//                 [--frame-deadline-ms N] [--idle-timeout-ms N]
//                 [--max-frame-bytes N] [--reactor-workers N]
//                 [--metrics-out FILE] [--metrics-format prom|json]
//                 [--metrics-every SEC] [--ops-port N] [--ops-port-file FILE]
//
// --port-file atomically publishes the bound port (written under a temp
// name, then renamed) so agents started concurrently can discover it.
//
// --ops-port embeds the HTTP ops server (obs/http_export.hpp): /metrics
// (Prometheus text), /metrics.json, /healthz, /sites and /traces, all
// served live from immutable snapshots. 0 picks an ephemeral port,
// published via --ops-port-file. --metrics-every atomically rewrites
// --metrics-out every SEC seconds as a scrape-less fallback, so even a
// SIGKILLed collector leaves recent metrics behind.
//
// --publish-dir enables the query tier (see src/query/): a background
// publisher periodically snapshots the merged state — sketch, detector,
// alert log, top-k, site census, epoch watermark — into an immutable
// CRC-footered generation file in DIR (atomic rename). dcs_query_server
// pointed at the same DIR serves dashboard reads from those snapshots
// without ever touching the collector. --publish-retain bounds how many
// generations stay on disk (time-travel depth).
//
// --state-dir enables crash-safe checkpointing (see src/service/
// checkpoint.hpp): restart with the same directory and the collector
// resumes from its last checkpoint + journal instead of an empty sketch.
// --crash-after-deltas is fault injection for the recovery smoke test: once
// that many deltas have merged the process raises SIGKILL against itself —
// no destructors, no flush, the real crash the durability layer exists for.
//
// The overload knobs (see src/service/admission.hpp and docs/RUNBOOK.md)
// bound what misbehaving or overloaded sites can cost the collector:
// --max-inflight-bytes caps admitted-but-unmerged delta bytes globally,
// --site-rate/--site-burst rate-limit each site's deltas (token bucket),
// --frame-deadline-ms drops slow-loris connections, --idle-timeout-ms reaps
// silent ones, and --max-frame-bytes lowers the receive-side frame cap.
//
// --leaf-id turns the collector into a *leaf* of a two-tier federation
// (docs/FEDERATION.md): it owns the shard of sites the --shard-map file
// assigns to that leaf id (agents homed elsewhere are bounced with
// kWrongShard plus the current map) and relays every accepted delta to the
// --root collector over one uplink connection. The uplink is ack-gated and
// sits in front of the journal fold — with --state-dir a SIGKILLed leaf
// replays its journal into the uplink on restart, so the root converges
// bit-for-bit regardless (the exactly-once argument lives in
// docs/FEDERATION.md).
//
// --leaves N makes the collector the federation *root*: it also admits
// leaf uplinks, keeps the per-(origin site, epoch) gap ledger that makes a
// drained leaf journal merge exactly once, and exits after N leaves said
// Bye (it replaces --sites as the quorum). The gap ledger is NOT
// checkpointed: drain every leaf (dcs_leaf_uplink_spool_depth at zero)
// before restarting a root, or re-drain the leaves afterwards
// (docs/RUNBOOK.md). A root still pending gap epochs at exit says so on
// stderr.
//
// Connections are served by the epoll reactor (src/service/reactor.hpp):
// one small worker pool (--reactor-workers) carries every agent, instead
// of one OS thread each.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "common/options.hpp"
#include "obs/export.hpp"
#include "obs/http_export.hpp"
#include "obs/trace.hpp"
#include "query/publisher.hpp"
#include "service/collector.hpp"
#include "service/federation/leaf.hpp"

namespace {

using namespace dcs;

void print_usage() {
  std::printf(
      "usage: dcs_collector [options]\n"
      "  --port N              TCP port to bind (0 = ephemeral; default 0)\n"
      "  --bind ADDR           bind address (default 127.0.0.1)\n"
      "  --port-file FILE      atomically publish the bound port to FILE\n"
      "  --sites N             exit after N sites said Bye (default 1)\n"
      "  --leaves N            run as the federation root: admit leaf\n"
      "                        uplinks and exit after N leaves said Bye\n"
      "                        (not with --sites or --leaf-id)\n"
      "  --timeout-ms N        max wait for the Byes (default 30000)\n"
      "  --k N                 detection top-k (default 5)\n"
      "  --r N                 sketch tables (default 3)\n"
      "  --s N                 buckets per table (default 128)\n"
      "  --seed N              sketch hash seed (default 0)\n"
      "  --min-absolute N      detection floor, distinct sources (default 512)\n"
      "  --factor F            detection alarm factor over baseline (default 8)\n"
      "  --no-detection        disable the EWMA baseline detector\n"
      "  --state-dir DIR       enable crash-safe checkpointing in DIR\n"
      "  --checkpoint-every N  merges between checkpoints (default 64)\n"
      "  --checkpoint-retain N checkpoint generations kept on disk\n"
      "                        (default 2; must be >= 1)\n"
      "  --publish-dir DIR     publish query snapshots into DIR for\n"
      "                        dcs_query_server (omit = disabled)\n"
      "  --publish-every-ms N  ms between query snapshots (default 1000)\n"
      "  --publish-retain N    query generations kept in --publish-dir\n"
      "                        (default 8; must be >= 1)\n"
      "  --publish-k N         top-k depth precomputed into each query\n"
      "                        snapshot (default 10)\n"
      "  --crash-after-deltas N  fault injection: SIGKILL self after N merges\n"
      "  --max-inflight-bytes N  global budget for admitted-but-unmerged\n"
      "                          delta bytes (0 = unlimited; default 0)\n"
      "  --site-rate R         per-site delta admissions/sec (0 = off)\n"
      "  --site-burst N        per-site token-bucket burst depth (default 8)\n"
      "  --frame-deadline-ms N   drop a connection holding a partial frame\n"
      "                          this long (slow-loris; 0 = off; default 5000)\n"
      "  --idle-timeout-ms N   reap a silent connection after N ms\n"
      "                        (0 = off; default 15000)\n"
      "  --max-frame-bytes N   receive-side frame payload cap (0 = protocol\n"
      "                        64 MiB cap; default 0)\n"
      "  --leaf-id N           run as federation leaf N (non-zero; requires\n"
      "                        --root; see docs/FEDERATION.md)\n"
      "  --root HOST:PORT      federation root (dcs_collector --leaves) the\n"
      "                        leaf relays every accepted delta to\n"
      "  --shard-map FILE      shard map (dcs_shardmap gen) assigning sites\n"
      "                        to leaves; mis-homed agents are bounced with\n"
      "                        kWrongShard + this map\n"
      "  --uplink-spool N      relays held awaiting root acks before the\n"
      "                        leaf NACKs agents kRetryLater (default 4096)\n"
      "  --reactor-workers N   epoll workers serving connections (default\n"
      "                        2; worker 0 also accepts)\n"
      "  --metrics-out FILE    write a metrics snapshot on exit\n"
      "  --metrics-format F    prom|json (default prom)\n"
      "  --metrics-every SEC   also rewrite --metrics-out atomically every\n"
      "                        SEC seconds (0 = only on exit; default 0)\n"
      "  --ops-port N          serve the HTTP ops plane (/metrics,\n"
      "                        /metrics.json, /healthz, /sites, /traces) on\n"
      "                        this port (0 = ephemeral; omit = disabled)\n"
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

std::string healthz_json(const service::Collector& collector,
                         bool durability) {
  const auto stats = collector.stats();
  std::string out = "{\n";
  const auto field = [&out](const char* key, unsigned long long value,
                            bool last = false) {
    out += "  \"" + std::string(key) + "\": " + std::to_string(value) +
           (last ? "\n" : ",\n");
  };
  out += "  \"status\": \"ok\",\n";
  out += std::string("  \"running\": ") +
         (collector.running() ? "true" : "false") + ",\n";
  out += std::string("  \"durability\": ") +
         (durability ? "true" : "false") + ",\n";
  field("connected_sites", stats.connected_sites);
  field("deltas_merged", stats.deltas_merged);
  field("duplicate_deltas", stats.duplicate_deltas);
  field("dropped_epochs", stats.dropped_epochs);
  field("relayed_deltas", stats.relayed_deltas);
  field("gap_fills", stats.gap_fills);
  field("pending_gap_epochs", stats.pending_gap_epochs);
  field("gap_overflow_epochs", stats.gap_overflow_epochs);
  field("wrong_shard_acks", stats.wrong_shard_acks);
  field("frames", stats.frames);
  field("frame_errors", stats.frame_errors);
  field("shed_deltas", stats.shed_deltas);
  field("inflight_bytes", collector.inflight_bytes());
  field("active_alarms", collector.active_alarm_count());
  field("recoveries", stats.recoveries);
  field("replayed_epochs", stats.replayed_epochs);
  field("corrupt_generations_skipped", stats.corrupt_generations_skipped);
  field("journal_records", stats.journal_records);
  field("checkpoints_written", stats.checkpoints_written);
  field("checkpoint_generation", collector.checkpoint_generation(),
        /*last=*/true);
  out += "}\n";
  return out;
}

std::string sites_json(const service::Collector& collector) {
  std::string out = "[";
  bool first = true;
  for (const auto& site : collector.site_stats()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"site_id\": " + std::to_string(site.site_id) +
           ", \"connected\": " + (site.connected ? "true" : "false") +
           ", \"last_epoch\": " + std::to_string(site.last_epoch) +
           ", \"epochs_merged\": " + std::to_string(site.epochs_merged) +
           ", \"updates_merged\": " + std::to_string(site.updates_merged) +
           ", \"dropped_epochs\": " + std::to_string(site.dropped_epochs) +
           ", \"duplicate_deltas\": " + std::to_string(site.duplicate_deltas) +
           ", \"shed_deltas\": " + std::to_string(site.shed_deltas) +
           ", \"last_seal_unix_ns\": " + std::to_string(site.last_seal_unix_ns) +
           ", \"last_freshness_ns\": " + std::to_string(site.last_freshness_ns) +
           "}";
  }
  out += first ? "]\n" : "\n]\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Daemon hygiene: a peer vanishing mid-write must surface as an error on
  // the socket (or stdout), not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  Options options(argc, argv);
  if (options.flag("help")) {
    print_usage();
    return 0;
  }

  service::CollectorConfig config;
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
  config.detection_top_k =
      static_cast<std::size_t>(options.integer("k", 5));
  config.state_dir = options.str("state-dir", "");
  config.checkpoint_every =
      static_cast<std::uint64_t>(options.integer("checkpoint-every", 64));
  config.checkpoint_retain =
      static_cast<std::uint64_t>(options.integer("checkpoint-retain", 2));
  config.admission.max_inflight_bytes =
      static_cast<std::uint64_t>(options.integer("max-inflight-bytes", 0));
  config.admission.site_rate_per_sec = options.real("site-rate", 0.0);
  config.admission.site_burst = options.real("site-burst", 8.0);
  config.frame_deadline_ms =
      static_cast<int>(options.integer("frame-deadline-ms", 5000));
  config.idle_timeout_ms =
      static_cast<int>(options.integer("idle-timeout-ms", 15000));
  config.max_frame_bytes =
      static_cast<std::uint32_t>(options.integer("max-frame-bytes", 0));
  config.reactor_workers =
      static_cast<int>(options.integer("reactor-workers", 2));

  // A root's quorum is its leaves' Byes; a collector or leaf's, its sites'.
  const auto leaves = static_cast<std::uint64_t>(options.integer("leaves", 0));
  config.federation_root = leaves > 0;
  const std::uint64_t quorum =
      config.federation_root
          ? leaves
          : static_cast<std::uint64_t>(options.integer("sites", 1));
  const int timeout_ms = static_cast<int>(options.integer("timeout-ms", 30000));
  const auto crash_after =
      static_cast<std::uint64_t>(options.integer("crash-after-deltas", 0));

  try {
    config.params.validate();

    // Federation leaf mode: same collector, wrapped with the root uplink
    // and shard enforcement. Exactly one of `leaf` / `standalone` exists;
    // everything below runs against the shared Collector reference.
    config.leaf_id =
        static_cast<std::uint64_t>(options.integer("leaf-id", 0));
    if (config.federation_root &&
        (config.leaf_id != 0 || options.raw("sites"))) {
      std::fprintf(stderr, "dcs_collector: --leaves runs a root; it takes "
                           "neither --leaf-id nor --sites\n");
      return 2;
    }
    const std::string shard_map_path = options.str("shard-map", "");
    if (!shard_map_path.empty())
      config.shard_map = service::ShardMap::load_file(shard_map_path);
    std::unique_ptr<service::LeafCollector> leaf;
    std::unique_ptr<service::Collector> standalone;
    if (config.leaf_id != 0) {
      const std::string root_spec = options.str("root", "");
      const auto colon = root_spec.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr,
                     "dcs_collector: --leaf-id requires --root HOST:PORT\n");
        return 2;
      }
      service::LeafCollectorConfig leaf_config;
      leaf_config.collector = config;
      leaf_config.root_host = root_spec.substr(0, colon);
      leaf_config.root_port =
          static_cast<std::uint16_t>(std::stoul(root_spec.substr(colon + 1)));
      leaf_config.uplink_spool =
          static_cast<std::size_t>(options.integer("uplink-spool", 4096));
      leaf = std::make_unique<service::LeafCollector>(std::move(leaf_config));
    } else {
      standalone = std::make_unique<service::Collector>(config);
    }
    service::Collector& collector =
        leaf ? leaf->collector() : *standalone;
    {
      const auto stats = collector.stats();
      if (stats.recoveries > 0)
        std::printf("recovered generation=%llu replayed=%llu "
                    "replay_deduped=%llu corrupt_skipped=%llu "
                    "deltas_restored=%llu\n",
                    static_cast<unsigned long long>(
                        collector.checkpoint_generation()),
                    static_cast<unsigned long long>(stats.replayed_epochs),
                    static_cast<unsigned long long>(stats.replay_deduped),
                    static_cast<unsigned long long>(
                        stats.corrupt_generations_skipped),
                    static_cast<unsigned long long>(stats.deltas_merged));
    }
    if (leaf)
      leaf->start();
    else
      collector.start();
    std::printf("listening on %s:%u (%d reactor workers%s)\n",
                config.bind_address.c_str(), collector.port(),
                config.reactor_workers,
                leaf                     ? ", federation leaf"
                : config.federation_root ? ", federation root"
                                         : "");
    std::fflush(stdout);
    const std::string port_file = options.str("port-file", "");
    if (!port_file.empty()) publish_port(port_file, collector.port());

    // Live ops plane: every handler reads an immutable snapshot, so a
    // scrape never contends with ingest.
    std::unique_ptr<obs::HttpServer> ops_server;
    const std::int64_t ops_port = options.integer("ops-port", -1);
    const bool durability = !config.state_dir.empty();
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
      ops_server->route("/healthz", [&collector, durability] {
        obs::HttpResponse response;
        response.content_type = "application/json";
        response.body = healthz_json(collector, durability);
        return response;
      });
      ops_server->route("/sites", [&collector] {
        obs::HttpResponse response;
        response.content_type = "application/json";
        response.body = sites_json(collector);
        return response;
      });
      ops_server->route("/traces", [&collector] {
        obs::HttpResponse response;
        response.content_type = "application/json";
        response.body = obs::traces_to_json(collector.traces());
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

    // Query-tier publisher: periodically freezes the merged state into an
    // immutable generation file. The provider is a bound method — the
    // collector never learns the query tier exists.
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
      std::printf("publishing query snapshots to %s every %d ms\n",
                  publish_dir.c_str(), publish_config.publish_every_ms);
      std::fflush(stdout);
    }

    const std::string metrics_out_path = options.str("metrics-out", "");
    const obs::ExportFormat metrics_format =
        obs::parse_format(options.str("metrics-format", "prom"));
    obs::PeriodicSnapshotWriter metrics_flusher;
    metrics_flusher.start(metrics_out_path, metrics_format,
                          static_cast<int>(options.integer("metrics-every",
                                                           0)));

    // Fault injection for the recovery smoke test: SIGKILL ourselves once
    // enough deltas merged. A watcher thread (not a hook in the merge path)
    // keeps the library clean; overshooting by an in-flight delta is fine —
    // the test only needs the crash to land between checkpoints.
    std::thread crash_watcher;
    if (crash_after > 0)
      crash_watcher = std::thread([&collector, crash_after] {
        while (collector.stats().deltas_merged < crash_after)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::raise(SIGKILL);
      });

    const bool all_done = collector.wait_for_byes(quorum, timeout_ms);
    if (publisher) {
      // One final generation so dashboards see the post-Bye totals.
      publisher->publish_now();
      publisher->stop();
    }
    metrics_flusher.stop();
    if (ops_server) ops_server->stop();
    if (leaf)
      leaf->stop();  // drains the uplink, then folds the journal
    else
      collector.stop();
    if (crash_watcher.joinable()) crash_watcher.detach();

    const auto stats = collector.stats();
    std::printf(
        "byes=%llu deltas=%llu duplicates=%llu dropped=%llu "
        "frame_errors=%llu rejected=%llu\n",
        static_cast<unsigned long long>(stats.byes),
        static_cast<unsigned long long>(stats.deltas_merged),
        static_cast<unsigned long long>(stats.duplicate_deltas),
        static_cast<unsigned long long>(stats.dropped_epochs),
        static_cast<unsigned long long>(stats.frame_errors),
        static_cast<unsigned long long>(stats.rejected_hellos));
    std::printf("relayed=%llu gap_fills=%llu pending_gaps=%llu "
                "gap_overflow=%llu wrong_shard=%llu\n",
                static_cast<unsigned long long>(stats.relayed_deltas),
                static_cast<unsigned long long>(stats.gap_fills),
                static_cast<unsigned long long>(stats.pending_gap_epochs),
                static_cast<unsigned long long>(stats.gap_overflow_epochs),
                static_cast<unsigned long long>(stats.wrong_shard_acks));
    std::printf("shed=%llu shed_bytes=%llu deadline_drops=%llu "
                "idle_reaped=%llu\n",
                static_cast<unsigned long long>(stats.shed_deltas),
                static_cast<unsigned long long>(stats.shed_bytes),
                static_cast<unsigned long long>(stats.deadline_drops),
                static_cast<unsigned long long>(stats.idle_reaped));
    if (!config.state_dir.empty())
      std::printf("checkpoints=%llu generation=%llu journal_records=%llu "
                  "post_recovery_duplicates=%llu\n",
                  static_cast<unsigned long long>(stats.checkpoints_written),
                  static_cast<unsigned long long>(
                      collector.checkpoint_generation()),
                  static_cast<unsigned long long>(stats.journal_records),
                  static_cast<unsigned long long>(
                      stats.post_recovery_duplicates));
    for (const auto& site : collector.site_stats())
      std::printf("site=%llu epochs=%llu updates=%llu dropped=%llu "
                  "last_epoch=%llu\n",
                  static_cast<unsigned long long>(site.site_id),
                  static_cast<unsigned long long>(site.epochs_merged),
                  static_cast<unsigned long long>(site.updates_merged),
                  static_cast<unsigned long long>(site.dropped_epochs),
                  static_cast<unsigned long long>(site.last_epoch));
    if (leaf) {
      const auto uplink = leaf->uplink().stats();
      std::printf("uplink relayed=%llu root_acks=%llu root_duplicates=%llu "
                  "nacks=%llu shed=%llu reconnects=%llu spool=%zu "
                  "rejected=%d\n",
                  static_cast<unsigned long long>(uplink.relayed),
                  static_cast<unsigned long long>(uplink.root_acks),
                  static_cast<unsigned long long>(uplink.root_duplicates),
                  static_cast<unsigned long long>(uplink.nacks),
                  static_cast<unsigned long long>(stats.tap_shed_deltas),
                  static_cast<unsigned long long>(uplink.reconnects),
                  uplink.spool_depth, uplink.rejected ? 1 : 0);
      if (!leaf->uplink().drained()) {
        std::fprintf(stderr,
                     "dcs_collector: uplink not drained — the journal was "
                     "kept for the next start to replay\n");
        return 1;
      }
    }
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
                   "dcs_collector: WARNING: %llu pending gap epochs — a leaf "
                   "journal was not fully drained\n",
                   static_cast<unsigned long long>(stats.pending_gap_epochs));
    if (!all_done) {
      std::fprintf(stderr, "dcs_collector: timed out waiting for %llu %s\n",
                   static_cast<unsigned long long>(quorum),
                   config.federation_root ? "leaves" : "sites");
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dcs_collector: %s\n", error.what());
    return 1;
  }
}

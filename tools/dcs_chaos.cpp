// dcs_chaos — deterministic overload/fault soak driver for the collector.
//
// Runs one in-process Collector with tight overload limits, N real
// SiteAgents shipping seeded Zipf workloads over real loopback sockets,
// and a set of hostile raw connections exercising the fault profiles the
// overload layer exists for:
//
//   slow-loris   dribbles one byte of a frame per interval forever —
//                must hit the frame deadline and be dropped
//   stall        connects and never sends — must be idle-reaped
//   oversized    announces a frame payload above the receive cap — must be
//                rejected at the header, before any payload is buffered
//   burst        the agents themselves: shipping faster than the per-site
//                token bucket admits, so deltas are shed (NACKed) and
//                re-shipped — honest backpressure under overload
//
// The run is an asserting harness, not a demo: it samples the in-flight
// bytes gauge and the state-lock wait the whole time, and after the faults
// clear it checks the merged sketch is *bit-for-bit* equal to a reference
// built by ingesting every site's workload into one local sketch — sketch
// linearity means overload may delay epochs but must never lose, duplicate,
// or reorder-corrupt them. Exit 0 iff every assertion holds.
//
//   dcs_chaos [--sites N] [--u N] [--epoch-updates N] [--seed N]
//             [--budget N] [--site-rate R] [--site-burst N]
//             [--frame-deadline-ms N] [--idle-timeout-ms N]
//             [--loris N] [--stall N] [--oversize N] [--drain-ms N]
//             [--reactor-workers N] [--verbose] [--help]
//
// A third mode, --federation, runs the two-tier federation soak that is
// the acceptance oracle for docs/FEDERATION.md: one root, --leaves leaf
// collectors (each a full Collector with a journal and a root uplink), a
// Maglev shard map distributed through the wire, and --sites agents homed
// by that map. Mid-stream the soak SIGKILL-equivalently destroys the leaf
// owning site 1 — a leaf whose uplink was deliberately black-holed, so its
// journal holds epochs the root has never seen — reshards the survivors to
// a v2 map, lets the agents re-home themselves through the seed leaf, then
// restarts the killed leaf against the real root to drain its journal.
// Asserts: the root's merged sketch and top-k are bit-identical to a
// single-sketch reference over every site's full workload, the root's
// pending-gap ledger is empty, at least one gap was filled by the drain, at
// least one agent re-homed, and no epoch was lost or double-merged
// anywhere.
//
// A second mode, --churn-peers P, skips the fault soak and instead runs a
// concurrency/churn check: P simultaneously-connected raw peers each ship
// an epoch, vanish abruptly (no Bye), reconnect, and ship a second epoch.
// Asserts all P peers were connected at once, every epoch merged exactly
// once across the churn, and the merged sketch equals a local reference
// bit-for-bit.
//
// Everything is seeded and bounded, so the chaos_smoke ctest runs it as-is;
// raise --sites/--u (or --churn-peers) for a longer soak.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/bench_report.hpp"
#include "common/options.hpp"
#include "obs/trace.hpp"
#include "service/agent.hpp"
#include "service/collector.hpp"
#include "service/federation/leaf.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "stream/generator.hpp"

namespace {

using namespace dcs;
using namespace dcs::service;
using Clock = std::chrono::steady_clock;

void print_usage() {
  std::printf(
      "usage: dcs_chaos [options]\n"
      "  --sites N            real site agents (default 4)\n"
      "  --u N                workload update pairs per site (default 20000)\n"
      "  --epoch-updates N    updates per sealed epoch (default 500)\n"
      "  --seed N             base seed; site i uses seed+i (default 42)\n"
      "  --budget N           admission in-flight byte budget (default 16 MiB)\n"
      "  --site-rate R        per-site admissions/sec (default 15)\n"
      "  --site-burst N       per-site burst depth (default 4)\n"
      "  --frame-deadline-ms N  slow-loris deadline (default 250)\n"
      "  --idle-timeout-ms N  idle reap timeout (default 600)\n"
      "  --loris N            slow-loris connections (default 2)\n"
      "  --stall N            stalled connections (default 2)\n"
      "  --oversize N         oversized-frame connections (default 2)\n"
      "  --drain-ms N         post-fault drain budget (default 60000)\n"
      "  --reactor-workers N  collector reactor worker threads (default 2)\n"
      "  --churn-peers P      run the connect/churn check with P concurrent\n"
      "                       peers instead of the fault soak (default 0 =\n"
      "                       off)\n"
      "  --federation         run the two-tier federation soak instead of\n"
      "                       the fault soak: leaf kill + reshard + journal\n"
      "                       drain, asserting bit-for-bit root convergence\n"
      "  --leaves N           federation leaf collectors (default 3, min 3)\n"
      "  --fed-dir DIR        leaf state directories for the federation\n"
      "                       soak (default: a fresh dir under /tmp)\n"
      "  --json-dir DIR       also write a BENCH json report into DIR\n"
      "  --run-id ID          run id for the json report (default: DCS_RUN_ID\n"
      "                       env, else today's date)\n"
      "  --verbose            print per-phase progress\n"
      "  --help               print this help\n");
}

DcsParams chaos_params(std::uint64_t seed) {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = seed;
  return params;
}

std::vector<FlowUpdate> site_workload(std::uint64_t site, std::uint64_t u,
                                      std::uint64_t base_seed) {
  ZipfWorkloadConfig config;
  config.u_pairs = u;
  config.num_destinations = 40;
  config.skew = 1.3;
  config.seed = base_seed + site;
  return ZipfWorkload(config).updates();
}

std::string serialize_sketch(const DistinctCountSketch& sketch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "dcs_chaos: FAIL %s\n", what);
}

/// Dribble a frame one byte at a time so the deadline — not the byte
/// count — is what kills us. A well-formed Hello frame is used so only
/// pacing, never content, triggers the drop.
void run_slow_loris(std::uint16_t port, std::atomic<bool>& active) {
  auto socket = tcp_connect("127.0.0.1", port, 1000);
  if (!socket) return;
  socket->set_timeouts(200, 200);
  Hello hello;
  hello.site_id = 900;
  const std::string frame = encode_frame(MsgType::kHello, hello.encode());
  for (std::size_t i = 0; i < frame.size() && active.load(); ++i) {
    if (!socket->send_all(frame.data() + i, 1)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // Detect the collector dropping us: a FIN turns recv into closed.
    char c;
    const RecvResult got = socket->recv_some(&c, 1);
    if (got.closed || got.error) return;
  }
}

/// Connect and never speak; the idle reaper must shed us.
void run_stall(std::uint16_t port, std::atomic<bool>& active) {
  auto socket = tcp_connect("127.0.0.1", port, 1000);
  if (!socket) return;
  socket->set_timeouts(200, 200);
  while (active.load()) {
    char c;
    const RecvResult got = socket->recv_some(&c, 1);
    if (got.closed || got.error) return;
  }
}

/// Announce a payload above the collector's receive cap (but inside the
/// protocol-wide 64 MiB cap, so only the per-collector limit rejects it).
/// The collector must kill the connection at the header — long before the
/// announced bytes could be buffered.
void run_oversize(std::uint16_t port, std::uint32_t announce) {
  auto socket = tcp_connect("127.0.0.1", port, 1000);
  if (!socket) return;
  socket->set_timeouts(1000, 1000);
  std::string header;
  const auto put_u32 = [&header](std::uint32_t v) {
    header.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put_u32(kWireMagic);
  header.push_back(static_cast<char>(kWireVersion));
  header.push_back(static_cast<char>(MsgType::kSnapshotDelta));
  put_u32(announce);
  socket->send_all(header);
  char c;
  while (true) {
    const RecvResult got = socket->recv_some(&c, 1);
    if (got.closed || got.error) return;  // dropped, as required
    if (got.timed_out) return;
  }
}

// --- churn differential ------------------------------------------------------

/// One raw protocol peer for the churn mode: a socket plus the decoder
/// needed to read acks back. Destroying it without a Bye is the "abrupt
/// disconnect" half of the churn.
struct ChurnPeer {
  std::optional<TcpSocket> socket;
  FrameDecoder decoder;
  char buffer[2048];

  bool connect_and_hello(std::uint16_t port, const DcsParams& params,
                         std::uint64_t site, std::uint64_t first_epoch) {
    socket = tcp_connect("127.0.0.1", port, 5000);
    if (!socket) return false;
    socket->set_timeouts(10000, 10000);
    Hello hello;
    hello.site_id = site;
    hello.params_fingerprint = params.fingerprint();
    hello.first_epoch = first_epoch;
    if (!socket->send_all(encode_frame(MsgType::kHello, hello.encode())))
      return false;
    const auto ack = read_ack();
    return ack.has_value() && ack->status == AckStatus::kOk;
  }

  std::optional<Ack> read_ack() {
    for (;;) {
      if (auto frame = decoder.next()) {
        if (frame->type != MsgType::kAck) return std::nullopt;
        return Ack::decode(frame->payload);
      }
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  }
};

/// The deterministic single-update epoch every churn peer ships; the local
/// reference replays the identical updates, so the merged sketch must match
/// bit-for-bit if — and only if — each epoch merged exactly once.
void churn_update(std::uint64_t site, std::uint64_t epoch, Addr& dest,
                  Addr& source) {
  dest = static_cast<Addr>(site % 131);
  source = static_cast<Addr>(site * 1000 + epoch);
}

std::string churn_delta_frame(const DcsParams& params, std::uint64_t site,
                              std::uint64_t epoch) {
  DistinctCountSketch sketch(params);
  Addr dest = 0, source = 0;
  churn_update(site, epoch, dest, source);
  sketch.update(dest, source, +1);
  SnapshotDelta delta;
  delta.site_id = site;
  delta.epoch = epoch;
  delta.updates = 1;
  delta.sketch_blob = serialize_sketch(sketch);
  return encode_frame(MsgType::kSnapshotDelta, delta.encode());
}

/// The --churn-peers entry point. Drive one collector through the full
/// churn: connect P peers at once, ship epoch 1, vanish without Bye,
/// reconnect, ship epoch 2, part cleanly — then assert every exactly-once
/// and accounting invariant against a local reference.
int run_churn(std::size_t peers, int reactor_workers, std::uint64_t seed,
              int drain_ms, bool verbose) {
  const DcsParams params = chaos_params(seed);
  CollectorConfig config;
  config.params = params;
  config.io_timeout_ms = 25;
  config.run_detection = false;  // pure ingest/connection stress
  config.idle_timeout_ms = drain_ms;  // peers idle while the tail connects
  config.frame_deadline_ms = drain_ms;
  config.reactor_workers = reactor_workers;
  Collector collector(config);
  collector.start();
  const std::uint16_t port = collector.port();

  // Phase 1: every peer connected and helloed simultaneously.
  const auto connect_start = Clock::now();
  std::vector<std::unique_ptr<ChurnPeer>> population;
  population.reserve(peers);
  for (std::uint64_t site = 1; site <= peers; ++site) {
    auto peer = std::make_unique<ChurnPeer>();
    if (!peer->connect_and_hello(port, params, site, 1)) {
      std::fprintf(stderr, "dcs_chaos: peer %llu failed to hello\n",
                   static_cast<unsigned long long>(site));
      return 1;
    }
    population.push_back(std::move(peer));
  }
  const double connect_ms =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - connect_start)
                              .count()) /
      1e6;
  const std::size_t peak_connections = collector.connection_count();
  expect(peak_connections == peers,
         "every churn peer was connected simultaneously");
  if (verbose)
    std::printf("%zu peers connected in %.1f ms (live=%zu)\n", peers,
                connect_ms, peak_connections);

  // Phase 2: each peer ships its first epoch and sees it acked.
  for (std::uint64_t site = 1; site <= peers; ++site) {
    ChurnPeer& peer = *population[site - 1];
    if (!peer.socket->send_all(churn_delta_frame(params, site, 1))) {
      expect(false, "epoch-1 delta send");
      break;
    }
    const auto ack = peer.read_ack();
    if (!ack || ack->status != AckStatus::kOk || ack->epoch != 1) {
      expect(false, "epoch-1 delta acked kOk");
      break;
    }
  }

  // Phase 3: the whole population vanishes abruptly — no Bye, just FIN.
  population.clear();
  const auto gone_deadline = Clock::now() + std::chrono::milliseconds(drain_ms);
  while (collector.connection_count() > 0 && Clock::now() < gone_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  expect(collector.connection_count() == 0,
         "abruptly-disconnected peers were all reaped");

  // Phase 4: everyone reconnects where they left off and ships epoch 2,
  // this time parting with a clean Bye.
  for (std::uint64_t site = 1; site <= peers; ++site) {
    ChurnPeer peer;
    if (!peer.connect_and_hello(port, params, site, /*first_epoch=*/2)) {
      expect(false, "reconnect hello acked kOk");
      break;
    }
    if (!peer.socket->send_all(churn_delta_frame(params, site, 2))) {
      expect(false, "epoch-2 delta send");
      break;
    }
    const auto ack = peer.read_ack();
    if (!ack || ack->status != AckStatus::kOk || ack->epoch != 2) {
      expect(false, "epoch-2 delta acked kOk");
      break;
    }
    Bye bye;
    bye.site_id = site;
    peer.socket->send_all(encode_frame(MsgType::kBye, bye.encode()));
  }

  // Exactly-once across the churn: 2 epochs per peer, nothing dropped,
  // nothing double-merged, and the sketch equals the local replay.
  expect(collector.wait_for_deltas(2 * peers, drain_ms),
         "both churn epochs merged for every peer");
  const auto stats = collector.stats();
  const auto merged = collector.merged_sketch();
  collector.stop();

  expect(stats.deltas_merged == 2 * peers,
         "deltas_merged == 2 * peers exactly");
  expect(stats.duplicate_deltas == 0, "churn produced no duplicate merges");
  expect(stats.dropped_epochs == 0, "churn produced no gap epochs");

  DistinctCountSketch reference(params);
  for (std::uint64_t site = 1; site <= peers; ++site)
    for (std::uint64_t epoch = 1; epoch <= 2; ++epoch) {
      Addr dest = 0, source = 0;
      churn_update(site, epoch, dest, source);
      reference.update(dest, source, +1);
    }
  expect(serialize_sketch(merged) == serialize_sketch(reference),
         "churn-merged sketch equals the local reference bit-for-bit");

  std::printf("churn: peers=%zu peak=%zu connect_ms=%.1f\n", peers,
              peak_connections, connect_ms);
  if (failures == 0) {
    std::printf("dcs_chaos: OK\n");
    return 0;
  }
  std::fprintf(stderr, "dcs_chaos: %d assertion(s) failed\n", failures);
  return 1;
}

// --- federation soak ---------------------------------------------------------

/// The --federation entry point: the two-tier leaf-kill/reshard/drain soak
/// documented in docs/FEDERATION.md. Deterministic by construction — the
/// victim leaf's uplink is black-holed from the start, so the set of epochs
/// only its journal holds (and therefore the gaps the root must fill) is
/// decided by the shard map, not by thread timing.
int run_federation(std::uint64_t sites, std::uint64_t u,
                   std::uint64_t epoch_updates, std::uint64_t seed,
                   std::size_t leaf_count, std::string fed_dir, int drain_ms,
                   bool verbose) {
  const DcsParams params = chaos_params(seed);
  if (leaf_count < 3) leaf_count = 3;  // need >=2 survivors for the re-home
  if (sites < 2) sites = 2;

  const bool default_dir = fed_dir.empty();
  if (default_dir)
    fed_dir = (std::filesystem::temp_directory_path() /
               ("dcs_fed_soak." + std::to_string(::getpid())))
                  .string();
  std::filesystem::create_directories(fed_dir);

  // Leaf ids live at 1000+N so the root's single (site | leaf) accounting
  // namespace can be filtered back to real sites in the assertions below.
  std::vector<std::uint64_t> leaf_ids;
  for (std::size_t i = 0; i < leaf_count; ++i)
    leaf_ids.push_back(1001 + i);

  // leaf_for() is a pure function of the leaf-id set and table size — the
  // endpoints never enter the hash — so the victim (the leaf owning site 1)
  // is known before any socket exists. Its uplink is pointed at a dead port,
  // so every epoch it acks in phase 1 exists only in its journal: the
  // deterministic source of the root-side gaps this soak exists to fill.
  std::vector<LeafEndpoint> prov;
  for (const std::uint64_t id : leaf_ids)
    prov.push_back(LeafEndpoint{id, "127.0.0.1", 1});
  const std::uint64_t victim_id = ShardMap::build(1, prov).leaf_for(1);

  // The seed leaf (the agents' --host/--port bootstrap fallback) is chosen
  // to NOT own site 1 under the post-reshard v2 map, so site 1's re-home
  // deterministically crosses a kWrongShard bounce: dead v1 owner -> seed
  // -> kWrongShard + v2 map -> the real v2 owner.
  std::vector<LeafEndpoint> prov2;
  for (const std::uint64_t id : leaf_ids)
    if (id != victim_id) prov2.push_back(LeafEndpoint{id, "127.0.0.1", 1});
  const std::uint64_t v2_owner_of_site1 = ShardMap::build(2, prov2).leaf_for(1);
  std::uint64_t seed_leaf_id = 0;
  for (const std::uint64_t id : leaf_ids)
    if (id != victim_id && id != v2_owner_of_site1) {
      seed_leaf_id = id;
      break;
    }

  try {
    CollectorConfig root_config;
    root_config.params = params;
    root_config.federation_root = true;
    root_config.run_detection = false;
    root_config.io_timeout_ms = 25;
    Collector root(root_config);
    root.start();
    const std::uint16_t root_port = root.port();
    if (verbose)
      std::printf("[fed] root on 127.0.0.1:%u, victim leaf %llu, seed leaf "
                  "%llu\n",
                  root_port, static_cast<unsigned long long>(victim_id),
                  static_cast<unsigned long long>(seed_leaf_id));

    const auto leaf_config = [&](std::uint64_t id, bool black_hole) {
      LeafCollectorConfig lc;
      lc.collector.params = params;
      lc.collector.io_timeout_ms = 25;
      lc.collector.run_detection = false;
      lc.collector.leaf_id = id;
      lc.collector.state_dir = fed_dir + "/leaf_" + std::to_string(id);
      lc.collector.checkpoint_every = 8;  // exercise the checkpoint gate
      lc.root_host = "127.0.0.1";
      // Port 1 never listens: the victim's relays connect-refuse forever
      // while its agents are acked normally off the fsync'd journal.
      lc.root_port = black_hole ? 1 : root_port;
      return lc;
    };

    std::vector<std::unique_ptr<LeafCollector>> leaves;
    std::vector<LeafEndpoint> endpoints;
    std::size_t victim_index = 0;
    for (std::size_t i = 0; i < leaf_count; ++i) {
      const std::uint64_t id = leaf_ids[i];
      leaves.push_back(std::make_unique<LeafCollector>(
          leaf_config(id, /*black_hole=*/id == victim_id)));
      leaves.back()->start();
      endpoints.push_back(
          LeafEndpoint{id, "127.0.0.1", leaves.back()->collector().port()});
      if (id == victim_id) victim_index = i;
    }
    const ShardMap map_v1 = ShardMap::build(1, endpoints);
    for (auto& leaf : leaves) leaf->set_shard_map(map_v1);
    std::uint16_t seed_port = 0;
    for (const LeafEndpoint& endpoint : endpoints)
      if (endpoint.leaf_id == seed_leaf_id) seed_port = endpoint.port;

    std::vector<std::vector<FlowUpdate>> workloads;
    for (std::uint64_t site = 1; site <= sites; ++site)
      workloads.push_back(site_workload(site, u, seed));

    std::vector<std::unique_ptr<SiteAgent>> agents;
    for (std::uint64_t site = 1; site <= sites; ++site) {
      SiteAgentConfig agent_config;
      agent_config.site_id = site;
      agent_config.collector_host = "127.0.0.1";
      agent_config.collector_port = seed_port;
      agent_config.params = params;
      agent_config.epoch_updates = epoch_updates;
      agent_config.spool_epochs = 1 << 14;
      agent_config.backoff_initial_ms = 10;
      agent_config.backoff_max_ms = 100;
      agent_config.heartbeat_interval_ms = 100;
      agent_config.io_timeout_ms = 2000;
      agent_config.jitter_seed = seed + site;
      agent_config.shard_map = map_v1;
      agents.push_back(std::make_unique<SiteAgent>(agent_config));
      agents.back()->start();
    }

    // Phase 1: first half of every workload, acked by the v1 owners.
    for (std::uint64_t site = 1; site <= sites; ++site) {
      const auto& workload = workloads[site - 1];
      for (std::size_t j = 0; j < workload.size() / 2; ++j)
        agents[site - 1]->ingest(workload[j]);
    }
    bool phase1_drained = true;
    for (auto& agent : agents) phase1_drained &= agent->flush(drain_ms);
    expect(phase1_drained, "phase-1 spools drained against the v1 owners");
    expect(leaves[victim_index]->collector().stats().deltas_merged > 0,
           "the victim leaf owned and merged phase-1 epochs");
    expect(leaves[victim_index]->uplink().stats().spool_depth > 0,
           "the black-holed uplink is holding the victim's relays");
    if (verbose)
      std::printf("[fed] phase 1 done; victim holds %zu journaled-only "
                  "deltas\n",
                  leaves[victim_index]->uplink().stats().spool_depth);

    // Kill: destroy the victim outright — connections die mid-stream, no
    // Bye, no uplink drain. The checkpoint gate saw an undrained spool, so
    // the journal survives intact for the drain-restart below.
    leaves[victim_index].reset();

    // Reshard: v2 over the survivors only.
    std::vector<LeafEndpoint> survivors;
    for (const LeafEndpoint& endpoint : endpoints)
      if (endpoint.leaf_id != victim_id) survivors.push_back(endpoint);
    const ShardMap map_v2 = ShardMap::build(2, survivors);
    for (auto& leaf : leaves)
      if (leaf) leaf->set_shard_map(map_v2);
    if (verbose)
      std::printf("[fed] victim killed; survivors resharded to v2\n");

    // Phase 2: the rest of every workload. Orphaned agents re-home through
    // the seed leaf on their own (dead connects -> seed fallback ->
    // kWrongShard carrying the v2 map -> the new owner), keeping their
    // spools across every bounce.
    for (std::uint64_t site = 1; site <= sites; ++site) {
      const auto& workload = workloads[site - 1];
      for (std::size_t j = workload.size() / 2; j < workload.size(); ++j)
        agents[site - 1]->ingest(workload[j]);
    }
    bool phase2_drained = true;
    for (auto& agent : agents) phase2_drained &= agent->flush(drain_ms);
    expect(phase2_drained, "phase-2 spools drained after the re-home");

    // Push the survivors' relays through, then probe the gap ledger: the
    // re-homed sites' phase-2 epochs arrived above a watermark the root
    // never advanced, so their phase-1 epochs must be recorded as pending
    // gaps — awaited, not dropped.
    for (auto& leaf : leaves)
      if (leaf)
        expect(leaf->uplink().flush(drain_ms),
               "survivor uplinks drained to the root");
    expect(root.stats().pending_gap_epochs > 0,
           "root recorded the victim's journaled epochs as pending gaps");
    if (verbose)
      std::printf("[fed] root awaiting %llu gap epochs; restarting victim "
                  "against the real root\n",
                  static_cast<unsigned long long>(
                      root.stats().pending_gap_epochs));

    // Drain-restart: same state_dir, real root port this time. Recovery
    // replays the journal through the delta tap, the uplink re-offers every
    // record, and the root fills its gaps exactly once.
    leaves[victim_index] = std::make_unique<LeafCollector>(
        leaf_config(victim_id, /*black_hole=*/false));
    leaves[victim_index]->set_shard_map(map_v2);
    leaves[victim_index]->start();
    expect(leaves[victim_index]->uplink().flush(drain_ms),
           "restarted victim drained its journal to the root");
    expect(leaves[victim_index]->uplink().stats().root_acks > 0,
           "the journal drain actually shipped records");

    // Final accounting.
    std::uint64_t total_sealed = 0;
    std::uint64_t total_rehomes = 0;
    std::vector<std::uint64_t> sealed_by_site(sites, 0);
    for (std::uint64_t site = 1; site <= sites; ++site) {
      agents[site - 1]->stop(drain_ms);
      const auto agent_stats = agents[site - 1]->stats();
      total_sealed += agent_stats.epochs_sealed;
      total_rehomes += agent_stats.rehomes;
      sealed_by_site[site - 1] = agent_stats.epochs_sealed;
      expect(agent_stats.epochs_dropped == 0, "no agent spilled its spool");
      expect(!agent_stats.rejected, "no agent was permanently rejected");
    }
    expect(total_rehomes >= 1,
           "at least one agent re-homed across the reshard");
    expect(agents[0]->stats().map_version == 2,
           "site 1's agent adopted the v2 map through the wire");
    for (auto& leaf : leaves)
      if (leaf) leaf->stop(drain_ms);

    expect(root.wait_for_deltas(total_sealed, drain_ms),
           "every sealed epoch reached the root");
    const auto root_stats = root.stats();
    const auto merged = root.merged_sketch();
    const auto topk = root.top_k(10);
    const auto site_rows = root.site_stats();
    root.stop();

    std::printf(
        "federation: leaves=%zu sites=%llu sealed=%llu merged=%llu "
        "relayed=%llu duplicates=%llu gap_fills=%llu pending_gaps=%llu "
        "dropped=%llu rehomes=%llu wrong_shard=%llu\n",
        leaf_count, static_cast<unsigned long long>(sites),
        static_cast<unsigned long long>(total_sealed),
        static_cast<unsigned long long>(root_stats.deltas_merged),
        static_cast<unsigned long long>(root_stats.relayed_deltas),
        static_cast<unsigned long long>(root_stats.duplicate_deltas),
        static_cast<unsigned long long>(root_stats.gap_fills),
        static_cast<unsigned long long>(root_stats.pending_gap_epochs),
        static_cast<unsigned long long>(root_stats.dropped_epochs),
        static_cast<unsigned long long>(total_rehomes),
        static_cast<unsigned long long>(root_stats.wrong_shard_acks));

    // --- exactly-once composition across the tiers --------------------------
    expect(root_stats.deltas_merged == total_sealed,
           "root merged every sealed epoch exactly once");
    expect(root_stats.relayed_deltas == root_stats.deltas_merged,
           "every root merge arrived via a leaf relay");
    expect(root_stats.dropped_epochs == 0,
           "zero epochs dropped at the root across kill + reshard");
    expect(root_stats.pending_gap_epochs == 0,
           "the gap ledger drained to empty after the journal drain");
    expect(root_stats.gap_fills >= 1,
           "the victim's journal drain filled real recorded gaps");
    std::size_t real_site_rows = 0;
    for (const auto& row : site_rows) {
      if (row.site_id >= 1000) continue;  // leaf-uplink accounting rows
      ++real_site_rows;
      expect(row.dropped_epochs == 0, "per-site: no epoch lost at the root");
      expect(row.site_id >= 1 && row.site_id <= sites &&
                 row.epochs_merged == sealed_by_site[row.site_id - 1],
             "per-site: root merges equal the agent's seals");
    }
    expect(real_site_rows == sites, "every site is accounted at the root");

    // --- exact convergence: linearity makes the two-tier merge invisible ----
    DistinctCountSketch reference(params);
    for (std::uint64_t site = 1; site <= sites; ++site)
      for (const FlowUpdate& update : workloads[site - 1])
        reference.update(update.dest, update.source, update.delta);
    expect(serialize_sketch(merged) == serialize_sketch(reference),
           "root sketch equals the single-collector reference bit-for-bit");
    expect(merged.estimate_distinct_pairs() ==
               reference.estimate_distinct_pairs(),
           "distinct-pairs estimate matches the reference exactly");
    const auto ref_topk = TrackingDcs(reference).top_k(10);
    expect(topk.entries.size() == ref_topk.entries.size(),
           "root top-k size matches the reference");
    for (std::size_t i = 0;
         i < std::min(topk.entries.size(), ref_topk.entries.size()); ++i)
      expect(topk.entries[i].group == ref_topk.entries[i].group &&
                 topk.entries[i].estimate == ref_topk.entries[i].estimate,
             "root top-k entry matches the reference");

    if (failures == 0) {
      if (default_dir) {
        std::error_code ec;
        std::filesystem::remove_all(fed_dir, ec);
      }
      std::printf("dcs_chaos: OK\n");
      return 0;
    }
    std::fprintf(stderr, "dcs_chaos: %d assertion(s) failed (state kept in "
                         "%s)\n",
                 failures, fed_dir.c_str());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dcs_chaos: federation: %s\n", error.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options options(argc, argv);
  if (options.flag("help")) {
    print_usage();
    return 0;
  }

  const auto sites = static_cast<std::uint64_t>(options.integer("sites", 4));
  const auto u = static_cast<std::uint64_t>(options.integer("u", 20000));
  const auto epoch_updates =
      static_cast<std::uint64_t>(options.integer("epoch-updates", 500));
  const auto seed = static_cast<std::uint64_t>(options.integer("seed", 42));
  const auto budget = static_cast<std::uint64_t>(
      options.integer("budget", 16ll << 20));
  // Low enough that draining a spooled burst genuinely exceeds it even on
  // a loaded single-core runner, where merge cost alone throttles sites.
  const double site_rate = options.real("site-rate", 15.0);
  const double site_burst = options.real("site-burst", 4.0);
  const int frame_deadline_ms =
      static_cast<int>(options.integer("frame-deadline-ms", 250));
  const int idle_timeout_ms =
      static_cast<int>(options.integer("idle-timeout-ms", 600));
  const auto loris = static_cast<std::size_t>(options.integer("loris", 2));
  const auto stall = static_cast<std::size_t>(options.integer("stall", 2));
  const auto oversize =
      static_cast<std::size_t>(options.integer("oversize", 2));
  const int drain_ms = static_cast<int>(options.integer("drain-ms", 60000));
  const int reactor_workers =
      static_cast<int>(options.integer("reactor-workers", 2));
  const auto churn_peers =
      static_cast<std::size_t>(options.integer("churn-peers", 0));
  const bool verbose = options.flag("verbose");

  if (options.flag("federation")) {
    const auto leaf_count =
        static_cast<std::size_t>(options.integer("leaves", 3));
    return run_federation(sites, u, epoch_updates, seed, leaf_count,
                          options.str("fed-dir", ""), drain_ms, verbose);
  }

  if (churn_peers > 0) {
    try {
      return run_churn(churn_peers, reactor_workers, seed, drain_ms, verbose);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "dcs_chaos: %s\n", error.what());
      return 1;
    }
  }

  const DcsParams params = chaos_params(seed);

  CollectorConfig config;
  config.params = params;
  config.io_timeout_ms = 25;
  config.frame_deadline_ms = frame_deadline_ms;
  config.idle_timeout_ms = idle_timeout_ms;
  config.max_frame_bytes = 8u << 20;
  config.admission.max_inflight_bytes = budget;
  config.admission.site_rate_per_sec = site_rate;
  config.admission.site_burst = site_burst;
  // Keep shed-retry hints well under the idle timeout: an agent waiting
  // out a NACK sends nothing, and must not be reaped for honoring the
  // hint we gave it.
  config.admission.max_retry_after_ms = static_cast<std::uint32_t>(
      std::max(idle_timeout_ms / 3, 10));
  config.reactor_workers = reactor_workers;

  try {
    Collector collector(config);
    collector.start();
    const std::uint16_t port = collector.port();
    if (verbose) std::printf("collector on 127.0.0.1:%u\n", port);

    // Detection-freshness watch: the tracing layer must measure every merge
    // even while the overload defenses are firing, and the measured
    // seal-to-verdict latency must stay bounded by the episode itself —
    // faults may delay epochs, never let them go stale unnoticed.
    const std::uint64_t freshness_before =
        obs::TraceMetrics::get().detection_freshness_ns.snapshot().count;
    const auto episode_start = Clock::now();

    // Sampler: the run-long watchdogs. max_inflight proves the admission
    // budget actually bounds shipping-path memory; max_stall_ns proves no
    // collector thread holds the state lock (the resource every query and
    // merge shares) anywhere near the frame deadline even mid-fault.
    std::atomic<bool> sampling{true};
    std::atomic<std::uint64_t> max_inflight{0};
    std::atomic<std::uint64_t> max_stall_ns{0};
    std::thread sampler([&] {
      while (sampling.load(std::memory_order_acquire)) {
        const std::uint64_t inflight = collector.inflight_bytes();
        std::uint64_t seen = max_inflight.load(std::memory_order_relaxed);
        while (inflight > seen &&
               !max_inflight.compare_exchange_weak(seen, inflight)) {
        }
        const auto before = Clock::now();
        (void)collector.stats();  // acquires the state lock
        const auto waited = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - before)
                .count());
        std::uint64_t seen_ns = max_stall_ns.load(std::memory_order_relaxed);
        while (waited > seen_ns &&
               !max_stall_ns.compare_exchange_weak(seen_ns, waited)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    // Fault connections, concurrent with the honest agents.
    std::atomic<bool> faults_active{true};
    std::vector<std::thread> fault_threads;
    for (std::size_t i = 0; i < loris; ++i)
      fault_threads.emplace_back(
          [&, port] { run_slow_loris(port, faults_active); });
    for (std::size_t i = 0; i < stall; ++i)
      fault_threads.emplace_back([&, port] { run_stall(port, faults_active); });
    for (std::size_t i = 0; i < oversize; ++i)
      fault_threads.emplace_back([port] { run_oversize(port, 32u << 20); });

    // Honest agents: seeded workloads, spool sized so shedding can only
    // delay epochs, never evict them — the exactly-once assertion below
    // depends on zero spool drops.
    std::vector<std::unique_ptr<SiteAgent>> agents;
    for (std::uint64_t site = 1; site <= sites; ++site) {
      SiteAgentConfig agent_config;
      agent_config.site_id = site;
      agent_config.collector_port = port;
      agent_config.params = params;
      agent_config.epoch_updates = epoch_updates;
      agent_config.spool_epochs = 1 << 14;
      agent_config.backoff_initial_ms = 10;
      agent_config.backoff_max_ms = 200;
      agent_config.heartbeat_interval_ms = 100;
      agent_config.io_timeout_ms = 2000;
      agent_config.jitter_seed = seed + site;
      agents.push_back(std::make_unique<SiteAgent>(agent_config));
      agents.back()->start();
    }
    for (std::uint64_t site = 1; site <= sites; ++site)
      for (const FlowUpdate& update : site_workload(site, u, seed))
        agents[site - 1]->ingest(update);

    // Wait until every fault profile has been observed shedding.
    const auto fault_deadline =
        Clock::now() + std::chrono::milliseconds(drain_ms);
    for (;;) {
      const auto stats = collector.stats();
      if (stats.deadline_drops >= loris && stats.idle_reaped >= stall &&
          stats.frame_errors >= oversize)
        break;
      if (Clock::now() >= fault_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    faults_active.store(false);
    for (auto& thread : fault_threads) thread.join();
    if (verbose) std::printf("faults cleared\n");

    // Faults over: the agents must now converge. flush() returns true only
    // when every sealed epoch has been acked. The faults-cleared → drained
    // interval is the convergence probe the perf trajectory tracks: how
    // long the system takes to work off an overload episode.
    const auto faults_cleared = Clock::now();
    bool all_drained = true;
    for (auto& agent : agents) all_drained &= agent->flush(drain_ms);
    const double convergence_ms =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - faults_cleared)
                                .count()) /
        1e6;
    for (auto& agent : agents) agent->stop(drain_ms);

    // Quiesce: every live connection gone before the final accounting.
    const auto quiesce_deadline =
        Clock::now() + std::chrono::milliseconds(drain_ms);
    while (collector.connection_count() > 0 &&
           Clock::now() < quiesce_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));

    sampling.store(false, std::memory_order_release);
    sampler.join();

    const auto stats = collector.stats();
    const auto merged = collector.merged_sketch();
    const auto topk = collector.top_k(10);
    collector.stop();

    // Reference: one local sketch over every site's exact workload. By
    // linearity the merged collector sketch must equal it bit-for-bit no
    // matter how overload delayed or reordered delivery.
    DistinctCountSketch reference(params);
    for (std::uint64_t site = 1; site <= sites; ++site)
      for (const FlowUpdate& update : site_workload(site, u, seed))
        reference.update(update.dest, update.source, update.delta);
    const auto ref_topk = TrackingDcs(reference).top_k(10);

    std::uint64_t total_nacks = 0;
    std::uint64_t total_dropped = 0;
    for (auto& agent : agents) {
      const auto agent_stats = agent->stats();
      total_nacks += agent_stats.nacks;
      total_dropped += agent_stats.epochs_dropped;
    }

    std::printf(
        "deltas=%llu shed=%llu shed_bytes=%llu deadline_drops=%llu "
        "idle_reaped=%llu frame_errors=%llu duplicates=%llu dropped=%llu "
        "nacks=%llu max_inflight=%llu max_stall_ms=%.2f\n",
        static_cast<unsigned long long>(stats.deltas_merged),
        static_cast<unsigned long long>(stats.shed_deltas),
        static_cast<unsigned long long>(stats.shed_bytes),
        static_cast<unsigned long long>(stats.deadline_drops),
        static_cast<unsigned long long>(stats.idle_reaped),
        static_cast<unsigned long long>(stats.frame_errors),
        static_cast<unsigned long long>(stats.duplicate_deltas),
        static_cast<unsigned long long>(stats.dropped_epochs),
        static_cast<unsigned long long>(total_nacks),
        static_cast<unsigned long long>(max_inflight.load()),
        static_cast<double>(max_stall_ns.load()) / 1e6);

    // --- liveness and bounded memory ---------------------------------------
    expect(all_drained, "every agent drained its spool after faults cleared");
    expect(max_inflight.load() <= budget,
           "in-flight bytes stayed under the admission budget");
    expect(max_stall_ns.load() <=
               static_cast<std::uint64_t>(frame_deadline_ms) * 1'000'000ull,
           "state lock never blocked a thread past the frame deadline");
    // --- each fault profile was detected and shed --------------------------
    expect(stats.deadline_drops >= loris,
           "slow-loris connections hit the frame deadline");
    expect(stats.idle_reaped >= stall, "stalled connections were idle-reaped");
    expect(stats.frame_errors >= oversize,
           "oversized frames were rejected at the header");
    expect(site_rate <= 0.0 || stats.shed_deltas > 0,
           "burst shipping was shed by the token bucket");
    expect(site_rate <= 0.0 || total_nacks > 0,
           "agents observed kRetryLater NACKs");
    // --- overload cost latency, never data ---------------------------------
    expect(total_dropped == 0, "no agent spilled its spool");
    expect(stats.dropped_epochs == 0, "zero gap epochs across the episode");
    expect(stats.post_recovery_duplicates == 0,
           "no post-recovery duplicate merges");
    // --- the freshness SLO stayed measured and bounded under faults --------
    const auto freshness =
        obs::TraceMetrics::get().detection_freshness_ns.snapshot();
    const auto episode_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - episode_start)
            .count());
    expect(freshness.count >= freshness_before + stats.deltas_merged,
           "every merged delta produced a detection-freshness observation");
    // quantile(1.0) reports the top occupied bucket's range, which can
    // overshoot the true maximum by up to 2x; 4x the episode length leaves
    // room for that plus wall-vs-steady clock slop.
    expect(freshness.quantile(1.0) <= 4.0 * static_cast<double>(episode_ns),
           "worst-case detection freshness bounded by the episode length");
    // --- exact convergence: the whole point --------------------------------
    expect(serialize_sketch(merged) == serialize_sketch(reference),
           "merged sketch equals the uninterrupted reference bit-for-bit");
    expect(topk.entries.size() == ref_topk.entries.size(),
           "top-k size matches the reference");
    for (std::size_t i = 0;
         i < std::min(topk.entries.size(), ref_topk.entries.size()); ++i) {
      expect(topk.entries[i].group == ref_topk.entries[i].group &&
                 topk.entries[i].estimate == ref_topk.entries[i].estimate,
             "top-k entry matches the reference");
    }

    std::printf("convergence_ms=%.1f\n", convergence_ms);

    // Optional BENCH report so the perf runner can track convergence time
    // alongside the real benchmarks. Timing on a soak under deliberate
    // faults is inherently noisy; record a generous explicit figure.
    const std::string json_dir = options.str("json-dir", "");
    if (!json_dir.empty()) {
      bench::JsonReport report("chaos_convergence");
      const std::string run_id = options.str("run-id", "");
      if (!run_id.empty()) report.set_run_id(run_id);
      report.meta("sites", static_cast<double>(sites));
      report.meta("u_per_site", static_cast<double>(u));
      report.meta("faults", static_cast<double>(loris + stall + oversize));
      report.metric("drain", "convergence_ms", convergence_ms,
                    bench::Direction::kLowerIsBetter, 50.0);
      report.value("drain", "deltas_merged",
                   static_cast<double>(stats.deltas_merged));
      report.value("drain", "shed_deltas",
                   static_cast<double>(stats.shed_deltas));
      report.value("drain", "max_stall_ms",
                   static_cast<double>(max_stall_ns.load()) / 1e6);
      try {
        std::printf("json: %s\n", report.write(json_dir).c_str());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "dcs_chaos: json write failed: %s\n",
                     error.what());
      }
    }

    if (failures == 0) {
      std::printf("dcs_chaos: OK\n");
      return 0;
    }
    std::fprintf(stderr, "dcs_chaos: %d assertion(s) failed\n", failures);
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dcs_chaos: %s\n", error.what());
    return 1;
  }
}

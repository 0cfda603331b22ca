// Federation root merge scaling: how root ingest throughput behaves as the
// same relay workload fans in over 1, 2, 4, 8 leaf uplinks
// (docs/FEDERATION.md).
//
//   build/bench/federation_merge [--sites 32] [--epochs 6] [--updates 1000]
//                                [--max-leaves 8]
//
// The total work is held constant — `sites` origin sites, `epochs` deltas
// each — and only the fan-in changes: L raw role=kLeaf uplink peers each
// relay sites/L of the population, stop-and-wait, concurrently. Merges
// serialize on the root's state lock, so throughput should be roughly flat
// in L; what the gate watches is that multiplexing the same deltas over
// more uplinks does not tax the merge path (per-connection overhead,
// gap-ledger bookkeeping) superlinearly.
//
// Every delta is acked and the harness asserts sites * epochs merges with
// zero gaps before reporting — a throughput figure produced while losing
// relays would be meaningless.
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/options.hpp"
#include "common/stopwatch.hpp"
#include "service/collector.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/distinct_count_sketch.hpp"

namespace {

using namespace dcs;
using namespace dcs::service;

DcsParams bench_params() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 29;
  return params;
}

/// One raw leaf uplink: Hello role=kLeaf, then origin-site deltas.
struct UplinkPeer {
  std::optional<TcpSocket> socket;
  FrameDecoder decoder;
  char buffer[1 << 14];

  std::optional<Ack> read_ack() {
    for (;;) {
      if (auto frame = decoder.next())
        return Ack::decode(frame->payload);
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  }
};

struct LeafCountResult {
  double relayed_per_sec = 0.0;
  bool ok = false;
};

LeafCountResult run_leaf_count(std::size_t leaves, std::uint64_t sites,
                               std::uint64_t epochs, const std::string& blob) {
  LeafCountResult result;
  const DcsParams params = bench_params();

  CollectorConfig config;
  config.params = params;
  config.federation_root = true;
  config.run_detection = false;  // isolate the relay + merge path
  config.io_timeout_ms = 25;
  Collector root(config);
  root.start();
  const std::uint16_t port = root.port();

  // Connect + Hello every uplink before the clock starts.
  std::vector<std::unique_ptr<UplinkPeer>> uplinks;
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    auto peer = std::make_unique<UplinkPeer>();
    peer->socket = tcp_connect("127.0.0.1", port, 5000);
    if (!peer->socket) {
      std::fprintf(stderr, "federation_merge: connect failed\n");
      root.stop();
      return result;
    }
    peer->socket->set_timeouts(30000, 30000);
    Hello hello;
    hello.site_id = 1001 + leaf;
    hello.role = PeerRole::kLeaf;
    hello.params_fingerprint = params.fingerprint();
    if (!peer->socket->send_all(
            encode_frame(MsgType::kHello, hello.encode())) ||
        !peer->read_ack()) {
      std::fprintf(stderr, "federation_merge: uplink hello failed\n");
      root.stop();
      return result;
    }
    uplinks.push_back(std::move(peer));
  }

  // Each uplink relays its shard's slice of the origin sites, stop-and-wait.
  std::atomic<bool> failed{false};
  Stopwatch watch;
  std::vector<std::thread> relays;
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    relays.emplace_back([&, leaf] {
      UplinkPeer& peer = *uplinks[leaf];
      for (std::uint64_t site = 1 + leaf; site <= sites; site += leaves) {
        for (std::uint64_t epoch = 1; epoch <= epochs; ++epoch) {
          SnapshotDelta delta;
          delta.site_id = site;  // origin site, not the uplink's leaf id
          delta.epoch = epoch;
          delta.updates = 1;
          delta.sketch_blob = blob;
          if (!peer.socket->send_all(
                  encode_frame(MsgType::kSnapshotDelta, delta.encode()))) {
            failed.store(true);
            return;
          }
          const auto ack = peer.read_ack();
          if (!ack || ack->status != AckStatus::kOk) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& relay : relays) relay.join();
  const double elapsed_s = watch.elapsed_ns() / 1e9;

  const std::uint64_t expected = sites * epochs;
  const bool merged_all = root.wait_for_deltas(expected, 60000);
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    Bye bye;
    bye.site_id = 1001 + leaf;
    uplinks[leaf]->socket->send_all(encode_frame(MsgType::kBye, bye.encode()));
  }
  uplinks.clear();
  const auto stats = root.stats();
  root.stop();

  if (failed.load() || !merged_all || stats.deltas_merged != expected ||
      stats.relayed_deltas != expected || stats.dropped_epochs != 0 ||
      stats.pending_gap_epochs != 0) {
    std::fprintf(stderr,
                 "federation_merge: accounting broken at %zu leaves "
                 "(merged=%llu expected=%llu)\n",
                 leaves, static_cast<unsigned long long>(stats.deltas_merged),
                 static_cast<unsigned long long>(expected));
    return result;
  }
  result.relayed_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(expected) / elapsed_s : 0.0;
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options(argc, argv);
  const auto sites = static_cast<std::uint64_t>(options.integer("sites", 32));
  const auto epochs = static_cast<std::uint64_t>(options.integer("epochs", 6));
  const auto updates =
      static_cast<std::uint64_t>(options.integer("updates", 1000));
  const auto max_leaves =
      static_cast<std::size_t>(options.integer("max-leaves", 8));

  bench::JsonReport report = bench::make_report("federation_merge", options);
  report.meta("sites", static_cast<double>(sites));
  report.meta("epochs", static_cast<double>(epochs));
  report.meta("updates_per_blob", static_cast<double>(updates));

  // One realistic shared blob so each relayed merge costs what a real
  // epoch's merge costs (several allocated sketch levels).
  DistinctCountSketch sketch(bench_params());
  for (std::uint64_t i = 0; i < updates; ++i)
    sketch.update(static_cast<Addr>(i % 16), static_cast<Addr>(i), +1);
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  const std::string blob = std::move(out).str();

  try {
    std::printf("== federation root merge (sites=%llu epochs=%llu) ==\n",
                static_cast<unsigned long long>(sites),
                static_cast<unsigned long long>(epochs));
    bench::print_row({"leaves", "relayed deltas/s"});
    double single_leaf = 0.0;
    for (std::size_t leaves = 1; leaves <= max_leaves; leaves *= 2) {
      const LeafCountResult run =
          run_leaf_count(leaves, sites, epochs, blob);
      if (!run.ok) return 1;
      bench::print_row({std::to_string(leaves),
                        bench::format_double(run.relayed_per_sec)});
      if (leaves == 1) single_leaf = run.relayed_per_sec;
      // Loopback round-trips on a shared runner are noisy; generous noise
      // keeps the gate meaningful without tripping on scheduler weather.
      report.metric("leaves_" + std::to_string(leaves), "relayed_per_sec",
                    run.relayed_per_sec, bench::Direction::kHigherIsBetter,
                    40.0);
      if (leaves > 1 && single_leaf > 0.0)
        report.value("leaves_" + std::to_string(leaves), "vs_single_leaf",
                     run.relayed_per_sec / single_leaf);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "federation_merge: %s\n", error.what());
    return 1;
  }
  bench::write_report(report, options);
  return 0;
}

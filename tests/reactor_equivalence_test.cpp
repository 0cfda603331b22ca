// Differential equivalence: the collector's epoll reactor ingest vs the
// single-sketch reference.
//
// Sketch linearity makes merge order irrelevant, so every sketch-derived
// answer — the merged sketch bytes, top-k, per-group frequencies, the
// distinct-pairs estimate — and every per-site epoch watermark must be
// BIT-IDENTICAL to one local sketch over the concatenated stream, however
// the deltas interleaved on the wire and however many reactor workers
// carried them. An N-agent scenario grid is compared answer by answer; a
// second battery drives the reactor with raw sockets to pin the protocol
// behaviours (dedup acks, gap accounting, protocol-order errors) that the
// grid can't observe from outside.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/agent.hpp"
#include "service/collector.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/tracking_dcs.hpp"
#include "stream/generator.hpp"

namespace dcs::service {
namespace {

DcsParams small_params() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 17;
  return params;
}

CollectorConfig collector_config(int workers = 2) {
  CollectorConfig config;
  config.params = small_params();
  config.io_timeout_ms = 50;  // keep stop() fast in tests
  config.reactor_workers = workers;
  return config;
}

SiteAgentConfig agent_config(std::uint64_t site_id, std::uint16_t port) {
  SiteAgentConfig config;
  config.site_id = site_id;
  config.collector_port = port;
  config.params = small_params();
  config.epoch_updates = 500;
  config.backoff_initial_ms = 10;
  config.backoff_max_ms = 100;
  config.io_timeout_ms = 1000;
  config.jitter_seed = site_id;
  return config;
}

std::vector<FlowUpdate> zipf_updates(std::uint64_t pairs, std::uint64_t seed) {
  ZipfWorkloadConfig config;
  config.u_pairs = pairs;
  config.num_destinations = 40;
  config.skew = 1.3;
  config.seed = seed;
  return ZipfWorkload(config).updates();
}

std::string sketch_bytes(const DistinctCountSketch& sketch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

/// Everything an ingest path answers, captured after all deltas merged.
struct IngestOutcome {
  std::string sketch;  ///< serialized merged sketch — the bit-identity probe
  std::vector<std::pair<Addr, std::uint64_t>> top_k;
  std::vector<std::uint64_t> frequencies;  ///< per scenario destination
  std::uint64_t distinct_pairs = 0;
  std::map<std::uint64_t, std::uint64_t> watermarks;  ///< site -> last epoch
  std::uint64_t deltas_merged = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t dropped_epochs = 0;
};

/// Ship `all` split across `sites` agents through one collector config and
/// collect its answers. Agents run concurrently, so the wire interleaving
/// differs run to run — exactly what the equivalence claim must survive.
IngestOutcome run_scenario(const CollectorConfig& collector_config,
                           int sites, const std::vector<FlowUpdate>& all) {
  Collector collector(collector_config);
  collector.start();

  const std::size_t share = all.size() / static_cast<std::size_t>(sites);
  std::uint64_t total_epochs = 0;
  std::vector<std::thread> threads;
  for (int site = 0; site < sites; ++site) {
    const std::size_t begin = static_cast<std::size_t>(site) * share;
    const std::size_t end =
        site == sites - 1 ? all.size() : begin + share;
    threads.emplace_back([&collector, &all, begin, end, site] {
      SiteAgent agent(agent_config(static_cast<std::uint64_t>(site + 1),
                                   collector.port()));
      agent.start();
      for (std::size_t i = begin; i < end; ++i) agent.ingest(all[i]);
      EXPECT_TRUE(agent.flush(15000));
      agent.stop();
    });
    total_epochs += (end - begin + 499) / 500;
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(collector.wait_for_deltas(total_epochs, 15000));

  IngestOutcome outcome;
  outcome.sketch = sketch_bytes(collector.merged_sketch());
  for (const auto& entry : collector.top_k(10).entries)
    outcome.top_k.emplace_back(entry.group, entry.estimate);
  for (Addr dest = 0; dest < 40; ++dest)
    outcome.frequencies.push_back(collector.estimate_frequency(dest));
  const QueryPublishState published = collector.query_publish_state(10);
  outcome.distinct_pairs = published.distinct_pairs;
  for (const auto& site : collector.site_stats())
    outcome.watermarks[site.site_id] = site.last_epoch;
  const auto stats = collector.stats();
  outcome.deltas_merged = stats.deltas_merged;
  outcome.frame_errors = stats.frame_errors;
  outcome.dropped_epochs = stats.dropped_epochs;
  collector.stop();
  return outcome;
}

/// Reference answers from one local sketch over the concatenated stream.
IngestOutcome reference_outcome(const std::vector<FlowUpdate>& all, int sites,
                                std::size_t epoch_updates = 500) {
  DistinctCountSketch reference(small_params());
  for (const auto& update : all)
    reference.update(update.dest, update.source, update.delta);
  IngestOutcome outcome;
  outcome.sketch = sketch_bytes(reference);
  const TrackingDcs tracking(reference);
  for (const auto& entry : tracking.top_k(10).entries)
    outcome.top_k.emplace_back(entry.group, entry.estimate);
  for (Addr dest = 0; dest < 40; ++dest)
    outcome.frequencies.push_back(tracking.estimate_frequency(dest));
  outcome.distinct_pairs = tracking.estimate_distinct_pairs();
  const std::size_t share = all.size() / static_cast<std::size_t>(sites);
  std::uint64_t total_epochs = 0;
  for (int site = 0; site < sites; ++site) {
    const std::size_t begin = static_cast<std::size_t>(site) * share;
    const std::size_t end = site == sites - 1 ? all.size() : begin + share;
    const std::uint64_t epochs =
        (end - begin + epoch_updates - 1) / epoch_updates;
    outcome.watermarks[static_cast<std::uint64_t>(site + 1)] = epochs;
    total_epochs += epochs;
  }
  outcome.deltas_merged = total_epochs;
  return outcome;
}

void expect_identical(const IngestOutcome& got, const IngestOutcome& want,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.sketch, want.sketch) << "merged sketch bytes diverged";
  EXPECT_EQ(got.top_k, want.top_k);
  EXPECT_EQ(got.frequencies, want.frequencies);
  EXPECT_EQ(got.distinct_pairs, want.distinct_pairs);
  EXPECT_EQ(got.watermarks, want.watermarks);
  EXPECT_EQ(got.deltas_merged, want.deltas_merged);
  EXPECT_EQ(got.frame_errors, 0u);
  EXPECT_EQ(got.dropped_epochs, 0u);
}

// --- the differential grid --------------------------------------------------

/// N agents x workload scenarios: every answer the collector can give must
/// be bit-identical to the single-sketch reference.
TEST(ReactorEquivalence, ScenarioGridMatchesReferenceBitForBit) {
  struct Scenario {
    int sites;
    std::uint64_t pairs;
    std::uint64_t seed;
  };
  const Scenario grid[] = {
      {1, 2000, 11},  // single site: pure transport difference
      {4, 6000, 99},  // the PR 3 acceptance scenario
      {6, 6600, 42},  // uneven split (6600/6 = 1100 -> 3 epochs each)
  };
  for (const Scenario& scenario : grid) {
    const auto updates = zipf_updates(scenario.pairs, scenario.seed);
    const IngestOutcome reference =
        reference_outcome(updates, scenario.sites);
    const IngestOutcome reactor =
        run_scenario(collector_config(), scenario.sites, updates);
    const std::string label = "sites=" + std::to_string(scenario.sites) +
                              " pairs=" + std::to_string(scenario.pairs);
    expect_identical(reactor, reference, "reactor vs reference " + label);
  }
}

/// Worker-pool width must not leak into answers: 1 worker (fully serial)
/// and 4 workers (connections spread across epoll loops) give the same
/// bits.
TEST(ReactorEquivalence, WorkerCountDoesNotChangeAnswers) {
  const auto updates = zipf_updates(4000, 7);
  const IngestOutcome reference = reference_outcome(updates, 4);
  const IngestOutcome one =
      run_scenario(collector_config(/*workers=*/1), 4, updates);
  const IngestOutcome four =
      run_scenario(collector_config(/*workers=*/4), 4, updates);
  expect_identical(one, reference, "1 worker vs reference");
  expect_identical(four, reference, "4 workers vs reference");
  expect_identical(four, one, "4 workers vs 1 worker");
}

// --- protocol parity at the wire level --------------------------------------

struct RawClient {
  std::optional<TcpSocket> socket;
  FrameDecoder decoder;
  char buffer[4096];

  explicit RawClient(std::uint16_t port) {
    socket = tcp_connect("127.0.0.1", port, 1000);
    if (socket) socket->set_timeouts(3000, 3000);
  }
  bool ok() const { return socket.has_value(); }
  bool send(const std::string& bytes) { return socket->send_all(bytes); }
  std::optional<Ack> read_ack() {
    for (;;) {
      if (auto frame = decoder.next()) {
        EXPECT_EQ(frame->type, MsgType::kAck);
        return Ack::decode(frame->payload);
      }
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  }
  /// Wait for the collector to drop us (EOF/reset), bounded.
  bool wait_for_drop() {
    for (int i = 0; i < 100; ++i) {
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) return true;
      if (got.timed_out) return false;
    }
    return false;
  }
};

std::string delta_frame(std::uint64_t site, std::uint64_t epoch) {
  DistinctCountSketch sketch(small_params());
  sketch.update(static_cast<Addr>(epoch), static_cast<Addr>(site * 100), +1);
  SnapshotDelta delta;
  delta.site_id = site;
  delta.epoch = epoch;
  delta.updates = 1;
  delta.sketch_blob = sketch_bytes(sketch);
  return encode_frame(MsgType::kSnapshotDelta, delta.encode());
}

std::string hello_frame(std::uint64_t site, std::uint64_t first_epoch = 1) {
  Hello hello;
  hello.site_id = site;
  hello.params_fingerprint = small_params().fingerprint();
  hello.first_epoch = first_epoch;
  return encode_frame(MsgType::kHello, hello.encode());
}

/// The exactly-once contract on the reactor path: a retransmitted epoch is
/// acked kDuplicate and merged once.
TEST(ReactorEquivalence, DuplicateDeltaAckedAsDuplicate) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  RawClient client(collector.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send(hello_frame(5)));
  auto hello_ack = client.read_ack();
  ASSERT_TRUE(hello_ack.has_value());
  EXPECT_EQ(hello_ack->status, AckStatus::kOk);

  const std::string frame = delta_frame(5, 1);
  ASSERT_TRUE(client.send(frame));
  auto first = client.read_ack();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, AckStatus::kOk);
  EXPECT_EQ(first->epoch, 1u);
  ASSERT_TRUE(client.send(frame));  // identical retransmit
  auto second = client.read_ack();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, AckStatus::kDuplicate);

  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, 1u);
  EXPECT_EQ(stats.duplicate_deltas, 1u);
  collector.stop();
}

/// Hello-resume gap accounting: a site resuming above last_epoch+1 gets the
/// gap counted as dropped epochs.
TEST(ReactorEquivalence, HelloResumeGapIsAccounted) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  {
    RawClient client(collector.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send(hello_frame(9)));
    ASSERT_TRUE(client.read_ack().has_value());
    ASSERT_TRUE(client.send(delta_frame(9, 1)));
    ASSERT_TRUE(client.read_ack().has_value());
  }
  // Restarted site lost epochs 2-4; resumes at 5.
  RawClient client(collector.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send(hello_frame(9, /*first_epoch=*/5)));
  auto ack = client.read_ack();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  EXPECT_EQ(ack->epoch, 4u);  // resume watermark advanced past the gap

  const auto sites = collector.site_stats();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].dropped_epochs, 3u);
  collector.stop();
}

/// Protocol-order violation on the reactor path: a delta before Hello is a
/// WireError — connection dropped, frame_errors bumped, nothing merged.
TEST(ReactorEquivalence, DeltaBeforeHelloDropsConnection) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  RawClient client(collector.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send(delta_frame(3, 1)));
  EXPECT_TRUE(client.wait_for_drop());

  EXPECT_TRUE(collector.wait_for_byes(0, 10));  // settle
  const auto stats = collector.stats();
  EXPECT_EQ(stats.frame_errors, 1u);
  EXPECT_EQ(stats.deltas_merged, 0u);
  collector.stop();
}

}  // namespace
}  // namespace dcs::service

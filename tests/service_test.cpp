// Loopback integration tests for the src/service sketch-shipping subsystem:
// collector + agents over real TCP on 127.0.0.1.
//
// The linearity contract under test: merging per-site, per-epoch sketch
// deltas at the collector must be *bit-identical* to ingesting the
// concatenated stream into a single sketch, regardless of how the deltas
// interleave on the wire. Plus the fault-model guarantees: agent churn
// never blocks collector queries, epoch retransmits merge exactly once,
// and malformed frames are rejected without crashing anything.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "obs/export.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs_series.hpp"
#include "service/agent.hpp"
#include "service/collector.hpp"
#include "service/federation/leaf.hpp"
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

CollectorConfig collector_config() {
  CollectorConfig config;
  config.params = small_params();
  config.io_timeout_ms = 50;  // keep stop() fast in tests
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

// --- wire-level unit tests --------------------------------------------------

TEST(WireFraming, RoundTripsThroughDecoder) {
  Hello hello;
  hello.site_id = 42;
  hello.params_fingerprint = 0xabcdef;
  hello.first_epoch = 7;
  const std::string frame = encode_frame(MsgType::kHello, hello.encode());

  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kHello);
  const Hello back = Hello::decode(decoded->payload);
  EXPECT_EQ(back.site_id, 42u);
  EXPECT_EQ(back.params_fingerprint, 0xabcdefu);
  EXPECT_EQ(back.first_epoch, 7u);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireFraming, ReassemblesByteAtATime) {
  Ack ack;
  ack.epoch = 9;
  ack.status = AckStatus::kDuplicate;
  const std::string frame = encode_frame(MsgType::kAck, ack.encode());

  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.feed(frame.data() + i, 1);
    EXPECT_FALSE(decoder.next().has_value()) << "frame complete early at " << i;
  }
  decoder.feed(frame.data() + frame.size() - 1, 1);
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  const Ack back = Ack::decode(decoded->payload);
  EXPECT_EQ(back.epoch, 9u);
  EXPECT_EQ(back.status, AckStatus::kDuplicate);
}

TEST(WireFraming, RejectsMalformedFrames) {
  const std::string good = encode_frame(MsgType::kHeartbeat,
                                        Heartbeat{}.encode());
  // Bad magic.
  {
    std::string bad = good;
    bad[0] ^= 0x01;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Unknown message type.
  {
    std::string bad = good;
    bad[5] = 0;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Oversized length prefix (claims > kMaxPayloadBytes).
  {
    std::string bad = good;
    bad[6] = bad[7] = bad[8] = bad[9] = static_cast<char>(0xff);
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Corrupted payload byte -> CRC mismatch.
  {
    std::string bad = good;
    bad[kFrameHeaderBytes] ^= 0x40;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  // Truncated frame is not an error — just incomplete.
  {
    FrameDecoder decoder;
    decoder.feed(good.data(), good.size() - 1);
    EXPECT_FALSE(decoder.next().has_value());
  }
}

TEST(WireFraming, AckRejectsUnknownStatus) {
  std::string payload = Ack{}.encode();
  payload[8] = 17;  // status byte (after the u64 epoch) out of range
  EXPECT_THROW(Ack::decode(payload), WireError);
}

TEST(WireFraming, AckRoundTripsRetryAfter) {
  Ack nack;
  nack.epoch = 41;
  nack.status = AckStatus::kRetryLater;
  nack.retry_after_ms = 750;
  const Ack back = Ack::decode(nack.encode());
  EXPECT_EQ(back.epoch, 41u);
  EXPECT_EQ(back.status, AckStatus::kRetryLater);
  EXPECT_EQ(back.retry_after_ms, 750u);
}

/// The receive-side cap boundary, tested at the decoder so no multi-MiB
/// allocations are needed: a payload of exactly the cap passes; one byte
/// over is rejected at the header, before any payload is buffered.
TEST(WireFraming, ReceiverPayloadCapBoundary) {
  const std::string at_cap(256, 'x');
  const std::string frame = encode_frame(MsgType::kHeartbeat, at_cap);

  FrameDecoder decoder;
  decoder.set_max_payload(256);
  decoder.feed(frame.data(), frame.size());
  const auto ok = decoder.next();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->payload.size(), 256u);

  const std::string over = encode_frame(MsgType::kHeartbeat,
                                        std::string(257, 'x'));
  FrameDecoder capped;
  capped.set_max_payload(256);
  // Header alone is enough to reject: the decoder must throw without ever
  // seeing (or buffering) the announced payload.
  capped.feed(over.data(), kFrameHeaderBytes);
  try {
    capped.next();
    FAIL() << "oversized announcement accepted";
  } catch (const WireError& error) {
    EXPECT_STREQ(error.what(), "frame: oversized payload length");
  }

  // The cap clamps to the protocol-wide maximum; it can never be raised
  // above kMaxPayloadBytes.
  FrameDecoder wide;
  wide.set_max_payload(~0u);
  EXPECT_EQ(wide.max_payload(), kMaxPayloadBytes);
}

/// Sketch parameters whose serialized delta exceeds 1 MiB (each allocated
/// level is 3 x 1024 x 65 counters), so the frame and footer CRCs run
/// their folding kernel over many blocks.
DcsParams large_params() {
  DcsParams params = small_params();
  params.buckets_per_table = 1024;
  return params;
}

std::string large_blob(const DistinctCountSketch& sketch) {
  std::string blob;
  BinaryWriter writer(blob);
  sketch.serialize(writer);
  return blob;
}

/// Updates in large_sketch(): enough live buckets over enough levels that
/// its compact blob passes 1 MiB.
constexpr std::uint64_t kLargeUpdates = 200'000;

DistinctCountSketch large_sketch() {
  DistinctCountSketch sketch(large_params());
  for (const auto& update : zipf_updates(kLargeUpdates, 21))
    sketch.update(update.dest, update.source, update.delta);
  return sketch;
}

/// Per-hop integrity: one flipped bit anywhere in a >= 1 MiB SnapshotDelta
/// frame fails the frame CRC. The offsets cover the header, sampled 64-byte
/// fold blocks, the last 16-byte block and the tail the table loop finishes.
TEST(WireFraming, BitFlipsInALargeDeltaFrameAreRejected) {
  SnapshotDelta delta;
  delta.site_id = 3;
  delta.epoch = 12;
  delta.updates = 99;
  delta.sketch_blob.resize((1u << 20) + 13);
  std::mt19937 rng(5);
  for (char& c : delta.sketch_blob) c = static_cast<char>(rng());
  std::string frame = delta.encode_frame();
  ASSERT_EQ(frame, encode_frame(MsgType::kSnapshotDelta, delta.encode()));

  // The CRC covers [4, crc_end).
  const std::size_t crc_begin = 4;
  const std::size_t crc_end = frame.size() - kFrameCrcBytes;
  const std::size_t span = crc_end - crc_begin;
  ASSERT_NE(span % 16, 0u) << "want a tail shorter than one 16-byte block";
  const std::size_t tail = crc_begin + span / 16 * 16;
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) offsets.push_back(i);
  for (std::size_t block = 0; block < span / 64; block += 997) {
    offsets.push_back(crc_begin + block * 64);
    offsets.push_back(crc_begin + block * 64 + 63);
  }
  for (std::size_t i = tail - 16; i < frame.size(); ++i) offsets.push_back(i);

  for (const std::size_t offset : offsets) {
    for (const int bit : {0, 7}) {
      frame[offset] = static_cast<char>(frame[offset] ^ (1 << bit));
      FrameDecoder decoder;
      decoder.feed(frame.data(), frame.size());
      if (offset >= 6 && offset < kFrameHeaderBytes) {
        // A flipped length bit may announce a longer frame: the decoder
        // then waits for bytes that never come. It must never yield one.
        try {
          EXPECT_FALSE(decoder.next_view().has_value()) << "offset " << offset;
        } catch (const WireError&) {
        }
      } else {
        EXPECT_THROW(decoder.next_view(), WireError)
            << "offset " << offset << " bit " << bit;
      }
      frame[offset] = static_cast<char>(frame[offset] ^ (1 << bit));
    }
  }
  FrameDecoder clean;
  clean.feed(frame.data(), frame.size());
  const auto view = clean.next_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(SnapshotDeltaView::decode(view->payload).sketch_blob,
            delta.sketch_blob);
}

/// End-to-end integrity: a blob byte flipped before the frame CRC was
/// computed (corruption at the sender, or at a relaying leaf) passes the
/// per-hop check and is still caught by the sketch's own footer.
TEST(WireFraming, BlobFlipUnderARecomputedFrameCrcFailsTheSketchFooter) {
  const std::string blob = large_blob(large_sketch());
  ASSERT_GE(blob.size(), 1u << 20);
  for (const std::size_t offset :
       {blob.size() / 3, blob.size() / 2, blob.size() - 5, blob.size() - 1}) {
    SnapshotDelta delta;
    delta.site_id = 1;
    delta.epoch = 1;
    delta.sketch_blob = blob;
    delta.sketch_blob[offset] ^= 0x04;
    const std::string frame = delta.encode_frame();

    FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    const auto view = decoder.next_view();
    ASSERT_TRUE(view.has_value()) << "the frame CRC covers the tampered blob";
    const SnapshotDeltaView received =
        SnapshotDeltaView::decode(view->payload);
    BinaryReader reader(received.sketch_blob);
    EXPECT_THROW(DistinctCountSketch::deserialize(reader), SerializeError)
        << "blob offset " << offset;
  }
}

// --- loopback integration ---------------------------------------------------

/// The same end-to-end check on a live collector: a large, well-framed
/// delta with a corrupt blob drops the connection and merges nothing; the
/// intact delta then merges bit-identically.
TEST(ServiceLoopback, LargeCorruptBlobIsRejectedAndIntactOneMerges) {
  CollectorConfig config = collector_config();
  config.params = large_params();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  const DistinctCountSketch sketch = large_sketch();
  Hello hello;
  hello.site_id = 4;
  hello.params_fingerprint = large_params().fingerprint();
  SnapshotDelta delta;
  delta.site_id = 4;
  delta.epoch = 1;
  delta.updates = kLargeUpdates;
  delta.sketch_blob = large_blob(sketch);
  const std::string good = delta.encode_frame();
  delta.sketch_blob[delta.sketch_blob.size() / 2] ^= 0x10;
  const std::string tampered = delta.encode_frame();

  const auto ship = [&](const std::string& frame) -> std::optional<Ack> {
    auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
    if (!socket) return std::nullopt;
    socket->set_timeouts(3000, 3000);
    if (!socket->send_all(encode_frame(MsgType::kHello, hello.encode()) +
                          frame))
      return std::nullopt;
    FrameDecoder decoder;
    char buffer[4096];
    std::optional<Ack> last;
    for (;;) {
      while (auto reply = decoder.next())
        last = Ack::decode(reply->payload);
      if (last && last->epoch == delta.epoch) return last;
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error || got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  };

  EXPECT_FALSE(ship(tampered).has_value()) << "corrupt blob was acked";
  EXPECT_GE(collector.stats().frame_errors, 1u);
  EXPECT_EQ(collector.stats().deltas_merged, 0u);

  const auto ack = ship(good);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  EXPECT_EQ(collector.stats().deltas_merged, 1u);
  EXPECT_TRUE(collector.merged_sketch() == sketch);
  collector.stop();
}


/// The acceptance-criteria scenario: four agents split one stream; the
/// collector's merged sketch must equal the single-sketch reference on the
/// concatenated stream, bit for bit.
TEST(ServiceLoopback, FourSiteMergeEqualsSingleSketchReference) {
  Collector collector(collector_config());
  collector.start();

  const auto all_updates = zipf_updates(6000, 99);
  DistinctCountSketch reference(small_params());
  for (const auto& update : all_updates)
    reference.update(update.dest, update.source, update.delta);

  constexpr int kSites = 4;
  const std::size_t share = all_updates.size() / kSites;
  std::uint64_t total_epochs = 0;
  std::vector<std::thread> threads;
  for (int site = 0; site < kSites; ++site) {
    const std::size_t begin = static_cast<std::size_t>(site) * share;
    const std::size_t end = site == kSites - 1 ? all_updates.size()
                                               : begin + share;
    threads.emplace_back([&, begin, end, site] {
      SiteAgent agent(agent_config(static_cast<std::uint64_t>(site + 1),
                                   collector.port()));
      agent.start();
      for (std::size_t i = begin; i < end; ++i) agent.ingest(all_updates[i]);
      EXPECT_TRUE(agent.flush(10000));
      agent.stop();
    });
    const std::uint64_t site_updates = end - begin;
    total_epochs += (site_updates + 499) / 500;  // ceil(updates / epoch size)
  }
  for (auto& thread : threads) thread.join();

  ASSERT_TRUE(collector.wait_for_deltas(total_epochs, 10000));
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, total_epochs);
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.dropped_epochs, 0u);

  // Linearity: the merged sketch is bit-identical to the reference.
  EXPECT_TRUE(collector.merged_sketch() == reference);
  const TrackingDcs tracking_reference(reference);
  const auto merged_topk = collector.top_k(5);
  const auto reference_topk = tracking_reference.top_k(5);
  ASSERT_EQ(merged_topk.entries.size(), reference_topk.entries.size());
  for (std::size_t i = 0; i < merged_topk.entries.size(); ++i) {
    EXPECT_EQ(merged_topk.entries[i].group, reference_topk.entries[i].group);
    EXPECT_EQ(merged_topk.entries[i].estimate,
              reference_topk.entries[i].estimate);
  }
  collector.stop();
}

/// Killing an agent abruptly (destructor without Bye — a crash, as far as
/// the collector can tell) must not block queries or corrupt the merged
/// view, and a restarted agent resuming at a later epoch surfaces the gap
/// in the per-site drop accounting.
TEST(ServiceLoopback, AgentChurnKeepsCollectorConsistent) {
  Collector collector(collector_config());
  collector.start();

  const auto updates = zipf_updates(3000, 7);
  DistinctCountSketch expected(small_params());

  // Phase 1: agent ships 2 epochs (1000 updates), is killed abruptly.
  {
    auto agent = std::make_unique<SiteAgent>(agent_config(1, collector.port()));
    agent->start();
    for (std::size_t i = 0; i < 1000; ++i) agent->ingest(updates[i]);
    ASSERT_TRUE(agent->flush(10000));
    for (std::size_t i = 0; i < 1000; ++i)
      expected.update(updates[i].dest, updates[i].source, updates[i].delta);
    agent.reset();  // no Bye, no graceful stop
  }
  ASSERT_TRUE(collector.wait_for_deltas(2, 10000));

  // Queries keep working while the site is gone.
  EXPECT_TRUE(collector.merged_sketch() == expected);
  EXPECT_NO_THROW(collector.top_k(3));

  // Phase 2: the site restarts but lost epochs 3-4 (crashed before
  // shipping); it resumes at epoch 5.
  {
    auto config = agent_config(1, collector.port());
    config.first_epoch = 5;
    SiteAgent agent(config);
    agent.start();
    for (std::size_t i = 1000; i < 2000; ++i) agent.ingest(updates[i]);
    ASSERT_TRUE(agent.flush(10000));
    for (std::size_t i = 1000; i < 2000; ++i)
      expected.update(updates[i].dest, updates[i].source, updates[i].delta);
    agent.stop();
  }
  ASSERT_TRUE(collector.wait_for_deltas(4, 10000));

  EXPECT_TRUE(collector.merged_sketch() == expected);
  const auto sites = collector.site_stats();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].epochs_merged, 4u);
  EXPECT_EQ(sites[0].last_epoch, 6u);
  EXPECT_EQ(sites[0].dropped_epochs, 2u);  // the gap is visible, not silent
  collector.stop();
}

/// A delta retransmitted after reconnect (at-least-once delivery) must
/// merge exactly once; the duplicate is acked as such, not re-merged.
TEST(ServiceLoopback, DuplicateDeltaMergesExactlyOnce) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  DistinctCountSketch delta_sketch(small_params());
  delta_sketch.update(1, 2, +1);
  delta_sketch.update(1, 3, +1);
  std::ostringstream blob_out(std::ios::binary);
  BinaryWriter writer(blob_out);
  delta_sketch.serialize(writer);

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack = [&]() -> Ack {
    for (;;) {
      if (auto frame = decoder.next()) {
        EXPECT_EQ(frame->type, MsgType::kAck);
        return Ack::decode(frame->payload);
      }
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) {
        ADD_FAILURE() << "connection lost awaiting ack";
        return Ack{};
      }
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 5;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  EXPECT_EQ(read_ack().status, AckStatus::kOk);

  SnapshotDelta delta;
  delta.site_id = 5;
  delta.epoch = 1;
  delta.updates = 2;
  delta.sketch_blob = std::move(blob_out).str();
  const std::string frame =
      encode_frame(MsgType::kSnapshotDelta, delta.encode());
  ASSERT_TRUE(socket->send_all(frame));
  Ack first = read_ack();
  EXPECT_EQ(first.status, AckStatus::kOk);
  EXPECT_EQ(first.epoch, 1u);
  ASSERT_TRUE(socket->send_all(frame));  // identical retransmit
  Ack second = read_ack();
  EXPECT_EQ(second.status, AckStatus::kDuplicate);

  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, 1u);
  EXPECT_EQ(stats.duplicate_deltas, 1u);
  EXPECT_TRUE(collector.merged_sketch() == delta_sketch);
  collector.stop();
}

/// Malformed input — garbage bytes, bad CRC, oversized length, truncated
/// payload, corrupt sketch blob — must drop only the offending connection;
/// the collector keeps serving well-formed peers afterwards.
TEST(ServiceLoopback, MalformedFramesAreRejectedWithoutCrashing) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  const auto send_garbage = [&](std::string bytes) {
    auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
    ASSERT_TRUE(socket.has_value());
    ASSERT_TRUE(socket->send_all(bytes));
    // Collector should close on us; wait for EOF (bounded by its timeout).
    socket->set_timeouts(3000, 3000);
    char buffer[256];
    for (int i = 0; i < 100; ++i) {
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) return;
    }
    ADD_FAILURE() << "collector never dropped the malformed connection";
  };

  send_garbage("this is not a frame at all, definitely no magic");
  {
    std::string bad = encode_frame(MsgType::kHello, Hello{}.encode());
    bad[bad.size() - 1] ^= 0x01;  // corrupt the CRC itself
    send_garbage(bad);
  }
  {
    std::string bad = encode_frame(MsgType::kHello, Hello{}.encode());
    bad[6] = bad[7] = bad[8] = bad[9] = static_cast<char>(0xff);
    send_garbage(bad);
  }
  {
    // Well-framed delta whose sketch blob is corrupt: the frame CRC is
    // valid but the blob's own footer check must reject it.
    Hello hello;
    hello.site_id = 9;
    hello.params_fingerprint = small_params().fingerprint();
    DistinctCountSketch sketch(small_params());
    sketch.update(4, 5, +1);
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    sketch.serialize(writer);
    std::string blob = std::move(out).str();
    blob[blob.size() / 2] ^= 0x20;
    SnapshotDelta delta;
    delta.site_id = 9;
    delta.epoch = 1;
    delta.sketch_blob = blob;
    send_garbage(encode_frame(MsgType::kHello, hello.encode()) +
                 encode_frame(MsgType::kSnapshotDelta, delta.encode()));
  }

  EXPECT_GE(collector.stats().frame_errors, 4u);
  EXPECT_EQ(collector.stats().deltas_merged, 0u);

  // A well-behaved agent still gets served.
  SiteAgent agent(agent_config(1, collector.port()));
  agent.start();
  for (const auto& update : zipf_updates(600, 3)) agent.ingest(update);
  EXPECT_TRUE(agent.flush(10000));
  agent.stop();
  EXPECT_GE(collector.stats().deltas_merged, 1u);
  collector.stop();
}

/// A parameter-fingerprint mismatch is rejected at Hello, before any merge.
TEST(ServiceLoopback, ParameterMismatchIsRejectedAtHello) {
  Collector collector(collector_config());
  collector.start();

  auto config = agent_config(1, collector.port());
  config.params.seed = 12345;  // different hash seeds cannot be merged
  SiteAgent agent(config);
  agent.start();
  agent.ingest(1, 2, +1);
  agent.seal_epoch();
  EXPECT_FALSE(agent.flush(3000));
  const auto stats = agent.stats();
  EXPECT_TRUE(stats.rejected);
  EXPECT_EQ(stats.epochs_shipped, 0u);
  EXPECT_EQ(collector.stats().rejected_hellos, 1u);
  EXPECT_EQ(collector.stats().deltas_merged, 0u);
  agent.stop();
  collector.stop();
}

/// With no collector reachable, the agent keeps ingesting, spools up to the
/// bound, then sheds the *oldest* epochs and accounts every drop.
TEST(ServiceAgent, SpoolOverflowDropsOldestAndCounts) {
  // Grab an ephemeral port, then close the listener: connections to it are
  // refused, so the agent can never drain.
  std::uint16_t dead_port = 0;
  {
    auto listener = TcpListener::listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.has_value());
    dead_port = listener->port();
  }

  auto config = agent_config(1, dead_port);
  config.epoch_updates = 10;
  config.spool_epochs = 3;
  SiteAgent agent(config);
  agent.start();
  for (int i = 0; i < 80; ++i)
    agent.ingest(static_cast<Addr>(i % 4), static_cast<Addr>(i), +1);

  const auto stats = agent.stats();
  EXPECT_EQ(stats.epochs_sealed, 8u);
  EXPECT_EQ(stats.epochs_dropped, 5u);  // 8 sealed, spool holds 3
  EXPECT_EQ(stats.spool_depth, 3u);
  EXPECT_EQ(stats.epochs_shipped, 0u);
  agent.stop(100);
}

/// Runs one agent against a collector that taps every delta it accepts, and
/// checks each shipped blob against a fresh DistinctCountSketch fed that
/// epoch's updates and serialized. The agent seals an under-full epoch by
/// hand after `seal_at` updates, and flush() seals the final partial epoch.
/// After `reject_at` updates it is offered a key too wide for the params,
/// which must throw and leave the stream as it was.
void expect_shipped_blobs_match_reference(
    const DcsParams& params, const std::vector<FlowUpdate>& updates,
    std::uint64_t epoch_updates, std::size_t seal_at,
    std::size_t reject_at = SIZE_MAX) {
  std::mutex tapped_mutex;
  std::map<std::uint64_t, std::string> tapped;  // epoch -> blob
  CollectorConfig collector_cfg = collector_config();
  collector_cfg.params = params;
  collector_cfg.delta_tap = [&](std::uint64_t, std::uint64_t epoch,
                                std::uint64_t, std::string_view blob, bool) {
    std::lock_guard<std::mutex> lock(tapped_mutex);
    tapped.emplace(epoch, std::string(blob));
    return true;
  };
  Collector collector(collector_cfg);
  collector.start();

  // The reference: split the stream where the agent will seal.
  std::vector<std::string> expected;
  {
    DistinctCountSketch epoch_sketch(params);
    std::uint64_t fill = 0;
    const auto seal = [&] {
      std::string blob;
      BinaryWriter writer(blob);
      epoch_sketch.serialize(writer);
      expected.push_back(std::move(blob));
      epoch_sketch = DistinctCountSketch(params);
      fill = 0;
    };
    for (std::size_t i = 0; i < updates.size(); ++i) {
      epoch_sketch.update(updates[i].dest, updates[i].source, updates[i].delta);
      if (++fill == epoch_updates) seal();
      if (i + 1 == seal_at && fill > 0) seal();
    }
    if (fill > 0) seal();
  }

  auto config = agent_config(1, collector.port());
  config.params = params;
  config.epoch_updates = epoch_updates;
  // Room for every epoch, so none is dropped however far ingest runs ahead.
  config.spool_epochs = std::max(config.spool_epochs, expected.size());
  const std::uint64_t updates_before =
      obs::SketchMetrics::get().updates.value();
  SiteAgent agent(config);
  agent.start();
  for (std::size_t i = 0; i < updates.size(); ++i) {
    agent.ingest(updates[i]);
    if (i + 1 == seal_at) agent.seal_epoch();
    if (i + 1 == reject_at) {
      EXPECT_THROW(agent.ingest(1, 0, +1), std::invalid_argument);
    }
  }
  ASSERT_TRUE(agent.flush(10000));
  agent.stop();
  EXPECT_EQ(agent.stats().epochs_sealed, expected.size());
  // Telemetry still counts every update on the agent path (seal flushes).
  if (obs::recording()) {
    EXPECT_EQ(obs::SketchMetrics::get().updates.value() - updates_before,
              updates.size());
  }

  ASSERT_TRUE(collector.wait_for_deltas(expected.size(), 10000));
  collector.stop();
  std::lock_guard<std::mutex> lock(tapped_mutex);
  ASSERT_EQ(tapped.size(), expected.size());
  std::uint64_t epoch = config.first_epoch;
  for (const std::string& blob : expected) {
    ASSERT_TRUE(tapped.count(epoch)) << "epoch " << epoch;
    EXPECT_TRUE(tapped[epoch] == blob) << "epoch " << epoch;
    ++epoch;
  }
}

/// The agent ingests into int16 epoch counters (EpochSketch), yet every
/// blob it ships is byte-identical to the int64 sketch's serialization:
/// default parameters, full epochs, an under-full seal_epoch(), flush().
TEST(ServiceAgent, ShippedBlobsEqualReferenceSerializeDefaultParams) {
  auto updates = zipf_updates(5000, 123);
  // Deletions of pairs inserted earlier, some landing in a later epoch.
  for (std::size_t i = 0; i < 600; i += 3)
    updates.push_back({updates[i].source, updates[i].dest, -1});
  expect_shipped_blobs_match_reference(DcsParams{}, updates, 2048, 3000);
}

TEST(ServiceAgent, ShippedBlobsEqualReferenceSerializeNarrowKeys) {
  DcsParams params = small_params();
  params.key_bits = 24;  // dest 0, 24-bit sources
  Xoshiro256 rng(9);
  std::vector<FlowUpdate> updates;
  for (int i = 0; i < 3000; ++i)
    updates.push_back({static_cast<Addr>(rng.bounded(1 << 24)), 0,
                       static_cast<std::int8_t>(rng.bounded(5) == 0 ? -1 : 1)});
  expect_shipped_blobs_match_reference(params, updates, 700, 1000);
}

/// The caller's thread hands updates to the sketch thread in blocks of
/// 4096; epochs shorter, equal to and longer than a block, a manual seal
/// and a rejected key mid-block all ship the reference blobs.
TEST(ServiceAgent, ShippedBlobsEqualReferenceAcrossHandoffBlocks) {
  DcsParams params = small_params();
  params.key_bits = 24;  // dest 0, 24-bit sources; dest 1 is too wide
  for (const std::uint64_t epoch_updates :
       {1ull, 10ull, 4095ull, 4096ull, 4097ull, 10000ull}) {
    SCOPED_TRACE(epoch_updates);
    const std::size_t n =
        std::max<std::size_t>(300, epoch_updates * 5 / 2 + 123);
    Xoshiro256 rng(epoch_updates);
    std::vector<FlowUpdate> updates;
    for (std::size_t i = 0; i < n; ++i)
      updates.push_back({static_cast<Addr>(rng.bounded(1 << 24)), 0,
                         static_cast<std::int8_t>(rng.bounded(4) == 0 ? -1 : 1)});
    expect_shipped_blobs_match_reference(params, updates, epoch_updates,
                                         n / 2 + 7, n / 3);
  }
}

/// Updates enough to keep the sketch thread busy: a caller that closes an
/// epoch after this many finds several blocks still queued behind it.
constexpr std::size_t kBusyEpoch = 12 * 4096;

/// With a spool of one, closing the next epoch drops the one the sketch
/// thread is still sealing. Its seal still resets the sketch, so the epoch
/// that ships holds only its own updates, and the collector counts the
/// dropped one as a gap.
TEST(ServiceAgent, SpoolOfOneDropsTheEpochStillSealing) {
  std::uint16_t port = 0;
  {
    auto listener = TcpListener::listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.has_value());
    port = listener->port();
  }
  auto config = agent_config(1, port);
  config.epoch_updates = kBusyEpoch * 2;
  config.spool_epochs = 1;
  SiteAgent agent(config);
  agent.start();  // the port is closed: nothing ships yet
  const auto updates = zipf_updates(kBusyEpoch + 100, 41);
  DistinctCountSketch expected(small_params());
  for (std::size_t i = kBusyEpoch; i < updates.size(); ++i)
    expected.update(updates[i].dest, updates[i].source, updates[i].delta);
  for (std::size_t i = 0; i < kBusyEpoch; ++i) agent.ingest(updates[i]);
  agent.seal_epoch();
  // The next epoch closes within microseconds, well inside the first's
  // remaining blocks and seal.
  for (std::size_t i = kBusyEpoch; i < updates.size(); ++i)
    agent.ingest(updates[i]);
  agent.seal_epoch();
  auto stats = agent.stats();
  EXPECT_EQ(stats.epochs_sealed, 2u);
  EXPECT_EQ(stats.epochs_dropped, 1u);
  EXPECT_EQ(stats.spool_depth, 1u);

  CollectorConfig collector_cfg = collector_config();
  collector_cfg.port = port;
  Collector collector(collector_cfg);
  collector.start();
  EXPECT_TRUE(agent.flush(15000));
  agent.stop();
  stats = agent.stats();
  EXPECT_EQ(stats.epochs_shipped, 1u);
  ASSERT_TRUE(collector.wait_for_deltas(1, 10000));
  EXPECT_TRUE(collector.merged_sketch() == expected);
  EXPECT_EQ(collector.stats().dropped_epochs, 1u);
  collector.stop();
}

/// A Hello sent while an epoch is still sealing names that epoch as the
/// first the agent holds, so the collector counts no gap: the agent ships
/// an epoch, stops, closes a busy epoch and reconnects at once.
TEST(ServiceAgent, ReconnectWhileSealingCountsNoGap) {
  Collector collector(collector_config());
  collector.start();
  auto config = agent_config(1, collector.port());
  config.epoch_updates = kBusyEpoch * 2;
  SiteAgent agent(config);
  const auto updates = zipf_updates(kBusyEpoch + 500, 43);
  DistinctCountSketch expected(small_params());
  for (const FlowUpdate& u : updates)
    expected.update(u.dest, u.source, u.delta);

  agent.start();
  for (std::size_t i = 0; i < 500; ++i) agent.ingest(updates[i]);
  ASSERT_TRUE(agent.flush(10000));
  agent.stop();
  for (std::size_t i = 500; i < updates.size(); ++i) agent.ingest(updates[i]);
  agent.seal_epoch();
  agent.start();
  ASSERT_TRUE(agent.flush(15000));
  agent.stop();

  ASSERT_TRUE(collector.wait_for_deltas(2, 10000));
  const auto stats = collector.stats();
  EXPECT_EQ(stats.dropped_epochs, 0u);
  EXPECT_EQ(agent.stats().epochs_dropped, 0u);
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

/// Destroying an agent with handoff blocks still queued discards them
/// without hanging (the sanitizer builds also check nothing leaks), started
/// or not.
TEST(ServiceAgent, DestructorWithQueuedBlocksReturns) {
  std::uint16_t dead_port = 0;
  {
    auto listener = TcpListener::listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.has_value());
    dead_port = listener->port();
  }
  const auto updates = zipf_updates(kBusyEpoch, 47);
  for (const bool started : {false, true}) {
    auto config = agent_config(1, dead_port);
    config.epoch_updates = 3 * 4096 + 11;
    SiteAgent agent(config);
    if (started) agent.start();
    for (const FlowUpdate& u : updates) agent.ingest(u);
    EXPECT_EQ(agent.stats().epochs_sealed, kBusyEpoch / config.epoch_updates);
  }
}

/// Late-starting collector: the agent retries with backoff and delivers
/// everything it still has spooled once the collector appears.
TEST(ServiceLoopback, AgentSurvivesCollectorOutage) {
  // Reserve a port for the future collector by binding and closing.
  std::uint16_t port = 0;
  {
    auto listener = TcpListener::listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.has_value());
    port = listener->port();
  }

  auto config = agent_config(1, port);
  SiteAgent agent(config);
  agent.start();
  const auto updates = zipf_updates(1500, 11);
  DistinctCountSketch expected(small_params());
  for (const auto& update : updates) {
    agent.ingest(update);
    expected.update(update.dest, update.source, update.delta);
  }
  agent.seal_epoch();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GT(agent.stats().spool_depth, 0u);  // nothing shipped yet

  CollectorConfig collector_cfg = collector_config();
  collector_cfg.port = port;
  Collector collector(collector_cfg);
  collector.start();

  EXPECT_TRUE(agent.flush(15000));
  agent.stop();
  const auto stats = agent.stats();
  EXPECT_EQ(stats.epochs_dropped, 0u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

/// Duplicate-delivery regression across a collector restart: four sites
/// whose delta acks were lost in the crash re-ship every pre-checkpoint
/// epoch to the recovered collector. Each re-ship must be acked kDuplicate
/// without re-merging (counted by the post-recovery dedup oracle), and the
/// merged sketch must equal the reference of every unique epoch exactly.
TEST(ServiceRecovery, ReshippedPreCheckpointEpochsAreAckedNotRemerged) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  config.state_dir = ::testing::TempDir() +
                     "ServiceRecovery.ReshippedPreCheckpointEpochs.state";
  std::filesystem::remove_all(config.state_dir);
  config.checkpoint_every = 2;

  // Per-site, per-epoch deltas: 4 sites x 3 epochs, each its own sketch.
  DistinctCountSketch expected(small_params());
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> blobs;
  for (std::uint64_t site = 1; site <= 4; ++site)
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      DistinctCountSketch delta(small_params());
      for (std::uint64_t i = 0; i < 40; ++i) {
        const auto dest = static_cast<Addr>(site * 100 + i % 6);
        const auto source = static_cast<Addr>(epoch * 1000 + i);
        delta.update(dest, source, +1);
        expected.update(dest, source, +1);
      }
      std::ostringstream out(std::ios::binary);
      BinaryWriter writer(out);
      delta.serialize(writer);
      blobs[{site, epoch}] = std::move(out).str();
    }

  /// One raw-socket site connection (the agent path is covered elsewhere;
  /// raw frames let the test re-ship exactly what it wants).
  struct RawSite {
    std::optional<TcpSocket> socket;
    FrameDecoder decoder;
    char buffer[4096];

    Ack read_ack() {
      for (;;) {
        if (auto frame = decoder.next()) {
          EXPECT_EQ(frame->type, MsgType::kAck);
          return Ack::decode(frame->payload);
        }
        const RecvResult got = socket->recv_some(buffer, sizeof buffer);
        if (got.bytes == 0) {
          ADD_FAILURE() << "connection lost awaiting ack";
          return Ack{};
        }
        decoder.feed(buffer, got.bytes);
      }
    }

    Ack hello(std::uint64_t site_id, std::uint16_t port) {
      socket = tcp_connect("127.0.0.1", port, 1000);
      EXPECT_TRUE(socket.has_value());
      socket->set_timeouts(3000, 3000);
      Hello greeting;
      greeting.site_id = site_id;
      greeting.params_fingerprint = small_params().fingerprint();
      EXPECT_TRUE(
          socket->send_all(encode_frame(MsgType::kHello, greeting.encode())));
      return read_ack();
    }

    Ack ship(std::uint64_t site_id, std::uint64_t epoch,
             const std::string& blob) {
      SnapshotDelta delta;
      delta.site_id = site_id;
      delta.epoch = epoch;
      delta.updates = 40;
      delta.sketch_blob = blob;
      EXPECT_TRUE(socket->send_all(
          encode_frame(MsgType::kSnapshotDelta, delta.encode())));
      return read_ack();
    }
  };

  // Phase 1: all 12 epochs land and are durable (journal fsync per merge),
  // then the collector goes away. stop() checkpoints, but even without that
  // every acked epoch is covered by the journal.
  {
    Collector collector(config);
    collector.start();
    for (std::uint64_t site = 1; site <= 4; ++site) {
      RawSite raw;
      EXPECT_EQ(raw.hello(site, collector.port()).status, AckStatus::kOk);
      for (std::uint64_t epoch = 1; epoch <= 3; ++epoch)
        EXPECT_EQ(raw.ship(site, epoch, blobs[{site, epoch}]).status,
                  AckStatus::kOk);
    }
    ASSERT_TRUE(collector.wait_for_deltas(12, 10000));
    collector.stop();
    ASSERT_TRUE(collector.merged_sketch() == expected);
  }

  // Phase 2: recovered collector. Every site reconnects believing nothing
  // was delivered (lost acks) and re-ships epochs 1-3, then ships epoch 4.
  Collector recovered(config);
  EXPECT_EQ(recovered.stats().recoveries, 1u);
  ASSERT_TRUE(recovered.merged_sketch() == expected);
  recovered.start();

  for (std::uint64_t site = 1; site <= 4; ++site) {
    RawSite raw;
    const Ack hello_ack = raw.hello(site, recovered.port());
    EXPECT_EQ(hello_ack.status, AckStatus::kOk);
    EXPECT_EQ(hello_ack.epoch, 3u);  // resume watermark from the checkpoint
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      const Ack ack = raw.ship(site, epoch, blobs[{site, epoch}]);
      EXPECT_EQ(ack.status, AckStatus::kDuplicate);
      EXPECT_EQ(ack.epoch, epoch);
    }
    DistinctCountSketch fresh(small_params());
    for (std::uint64_t i = 0; i < 40; ++i) {
      const auto dest = static_cast<Addr>(site * 100 + i % 6);
      fresh.update(dest, static_cast<Addr>(4000 + i), +1);
      expected.update(dest, static_cast<Addr>(4000 + i), +1);
    }
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    fresh.serialize(writer);
    EXPECT_EQ(raw.ship(site, 4, std::move(out).str()).status, AckStatus::kOk);
  }

  const auto stats = recovered.stats();
  EXPECT_EQ(stats.post_recovery_duplicates, 12u);  // the dedup oracle
  EXPECT_EQ(stats.duplicate_deltas, 12u);
  EXPECT_EQ(stats.deltas_merged, 16u);  // 12 recovered + 4 fresh, no doubles
  EXPECT_TRUE(recovered.merged_sketch() == expected);
  const auto sites = recovered.site_stats();
  ASSERT_EQ(sites.size(), 4u);
  for (const auto& site : sites) {
    EXPECT_EQ(site.last_epoch, 4u);
    EXPECT_EQ(site.epochs_merged, 4u);
    EXPECT_EQ(site.duplicate_deltas, 3u);
  }
  recovered.stop();
}

/// The Hello-ack resume watermark end to end with a real agent: spooled
/// epochs at or below the recovered collector's watermark are pruned
/// locally (counted as resume_skips), never re-shipped.
TEST(ServiceRecovery, AgentPrunesSpooledEpochsBelowResumeWatermark) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  config.state_dir =
      ::testing::TempDir() + "ServiceRecovery.AgentPrunes.state";
  std::filesystem::remove_all(config.state_dir);

  const auto updates = zipf_updates(2000, 23);

  // Phase 1: the agent ships epochs 1-2, which become durable; the
  // collector then "crashes" (goes away) before the agent can ship more.
  std::uint16_t port = 0;
  {
    Collector collector(config);
    collector.start();
    port = collector.port();
    auto cfg = agent_config(7, port);
    SiteAgent agent(cfg);
    agent.start();
    for (std::size_t i = 0; i < 1000; ++i) agent.ingest(updates[i]);
    ASSERT_TRUE(agent.flush(10000));
    agent.stop();
    ASSERT_TRUE(collector.wait_for_deltas(2, 10000));
    collector.stop();
  }

  // Phase 2: a restarted agent re-seals the same epochs 1-2 (same data,
  // deterministic workload) plus new epochs 3-4 while the collector is
  // still down — so all four sit in its spool.
  auto cfg = agent_config(7, port);
  SiteAgent agent(cfg);
  for (std::size_t i = 0; i < 2000; ++i) agent.ingest(updates[i]);
  agent.seal_epoch();
  ASSERT_EQ(agent.stats().spool_depth, 4u);

  // Recovered collector on the same port: its Hello ack says "epochs <= 2
  // are already durable here", and the agent ships only 3-4.
  config.port = port;
  Collector recovered(config);
  EXPECT_EQ(recovered.stats().recoveries, 1u);
  recovered.start();
  agent.start();
  EXPECT_TRUE(agent.flush(15000));
  agent.stop();

  const auto stats = agent.stats();
  EXPECT_EQ(stats.resume_skips, 2u);
  EXPECT_EQ(stats.epochs_shipped, 4u);  // 2 skipped + 2 shipped count alike
  const auto collector_stats = recovered.stats();
  EXPECT_EQ(collector_stats.deltas_merged, 4u);  // 2 recovered + 2 fresh
  EXPECT_EQ(collector_stats.duplicate_deltas, 0u);
  EXPECT_EQ(collector_stats.post_recovery_duplicates, 0u);

  DistinctCountSketch expected(small_params());
  for (std::size_t i = 0; i < 2000; ++i)
    expected.update(updates[i].dest, updates[i].source, updates[i].delta);
  EXPECT_TRUE(recovered.merged_sketch() == expected);
  recovered.stop();
}

// --- overload protection ----------------------------------------------------
//
// Wire-level abuse against a live collector: slow-loris partial frames,
// stalls, oversized announcements, heartbeat floods, and admission sheds.
// The contract throughout: the abuser's connection dies (and the table
// shrinks), everyone else keeps merging, and anything shed is re-shipped —
// overload costs latency, never data.

/// Wait until the collector's live-connection count drops to `want`.
bool wait_for_connections(const Collector& collector, std::size_t want,
                          int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (collector.connection_count() <= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return collector.connection_count() <= want;
}

TEST(ServiceOverload, PartialHeaderStallHitsFrameDeadline) {
  CollectorConfig config = collector_config();
  config.frame_deadline_ms = 100;
  config.idle_timeout_ms = 0;  // isolate: only the frame deadline may fire
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  // Four header bytes, then silence: an incomplete frame that will never
  // finish. The deadline, not a byte count, must kill it.
  const std::uint32_t magic = kWireMagic;
  ASSERT_TRUE(socket->send_all(&magic, sizeof magic));
  ASSERT_TRUE(wait_for_connections(collector, 1, 2000));

  char c;
  const RecvResult got = socket->recv_some(&c, 1);  // blocks until the FIN
  EXPECT_TRUE(got.closed || got.error);
  EXPECT_TRUE(wait_for_connections(collector, 0, 2000));
  EXPECT_EQ(collector.stats().deadline_drops, 1u);
  EXPECT_EQ(collector.stats().idle_reaped, 0u);
  collector.stop();
}

TEST(ServiceOverload, DribbledBytesCannotEvadeTheDeadline) {
  CollectorConfig config = collector_config();
  config.frame_deadline_ms = 150;
  config.idle_timeout_ms = 0;
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(200, 200);
  // Classic slow-loris: keep the connection "active" with one byte of a
  // valid frame every 30 ms. Activity must NOT reset the frame clock.
  const std::string frame = encode_frame(MsgType::kHello, Hello{}.encode());
  bool dropped = false;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (!socket->send_all(frame.data() + i, 1)) {
      dropped = true;
      break;
    }
    char c;
    const RecvResult got = socket->recv_some(&c, 1);
    if (got.closed || got.error) {
      dropped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_TRUE(dropped) << "collector never dropped the dribbling peer";
  EXPECT_TRUE(wait_for_connections(collector, 0, 2000));
  EXPECT_EQ(collector.stats().deadline_drops, 1u);
  collector.stop();
}

TEST(ServiceOverload, SilentConnectionIsIdleReaped) {
  CollectorConfig config = collector_config();
  config.frame_deadline_ms = 0;  // isolate: only the idle reaper may fire
  config.idle_timeout_ms = 100;
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  char c;
  const RecvResult got = socket->recv_some(&c, 1);
  EXPECT_TRUE(got.closed || got.error);
  EXPECT_TRUE(wait_for_connections(collector, 0, 2000));
  EXPECT_EQ(collector.stats().idle_reaped, 1u);
  EXPECT_EQ(collector.stats().deadline_drops, 0u);
  collector.stop();
}

TEST(ServiceOverload, OversizedAnnouncementDropsConnectionNotCollector) {
  CollectorConfig config = collector_config();
  // A real delta frame for small_params() is ~1 MiB, so a 2 MiB cap admits
  // legitimate traffic while rejecting the abuser below.
  config.max_frame_bytes = 2u << 20;
  Collector collector(config);
  collector.start();

  // Hand-build a header announcing 4 MiB (over the 2 MiB receive cap but
  // far under the protocol cap, so only the per-collector limit rejects).
  std::string header;
  const auto put_u32 = [&header](std::uint32_t v) {
    header.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put_u32(kWireMagic);
  header.push_back(static_cast<char>(kWireVersion));
  header.push_back(static_cast<char>(MsgType::kSnapshotDelta));
  put_u32(4u << 20);

  auto abuser = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(abuser.has_value());
  abuser->set_timeouts(2000, 2000);
  ASSERT_TRUE(abuser->send_all(header));
  char c;
  const RecvResult got = abuser->recv_some(&c, 1);
  EXPECT_TRUE(got.closed || got.error);
  EXPECT_TRUE(wait_for_connections(collector, 0, 2000));
  EXPECT_EQ(collector.stats().frame_errors, 1u);

  // The collector itself is unharmed: a well-behaved agent still merges.
  SiteAgent agent(agent_config(1, collector.port()));
  agent.start();
  for (const auto& update : zipf_updates(1000, 5))
    agent.ingest(update);
  EXPECT_TRUE(agent.flush(15000));
  agent.stop();
  EXPECT_GT(collector.stats().deltas_merged, 0u);
  collector.stop();
}

TEST(ServiceOverload, HeartbeatFloodNeitherStallsNorKills) {
  CollectorConfig config = collector_config();
  config.frame_deadline_ms = 200;
  Collector collector(config);
  collector.start();

  // One connection interleaving a heartbeat flood with real deltas: many
  // complete frames arriving back to back must never trip the partial-
  // frame deadline, and the deltas in between must all merge.
  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(3000, 3000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack = [&]() -> Ack {
    for (;;) {
      if (auto frame = decoder.next()) {
        EXPECT_EQ(frame->type, MsgType::kAck);
        return Ack::decode(frame->payload);
      }
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) {
        ADD_FAILURE() << "connection lost awaiting ack";
        return Ack{};
      }
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 3;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  EXPECT_EQ(read_ack().status, AckStatus::kOk);

  DistinctCountSketch expected(small_params());
  Heartbeat beat;
  beat.site_id = 3;
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    // 100 heartbeats in one burst, batched into as few sends as the stack
    // allows — the decoder sees multiple frames per recv.
    std::string burst;
    for (int i = 0; i < 100; ++i) {
      beat.current_epoch = epoch;
      burst += encode_frame(MsgType::kHeartbeat, beat.encode());
    }
    ASSERT_TRUE(socket->send_all(burst));

    DistinctCountSketch delta(small_params());
    for (std::uint64_t i = 0; i < 50; ++i) {
      const auto dest = static_cast<Addr>(i % 4);
      const auto source = static_cast<Addr>(epoch * 1000 + i);
      delta.update(dest, source, +1);
      expected.update(dest, source, +1);
    }
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    delta.serialize(writer);
    SnapshotDelta ship;
    ship.site_id = 3;
    ship.epoch = epoch;
    ship.updates = 50;
    ship.sketch_blob = std::move(out).str();
    ASSERT_TRUE(
        socket->send_all(encode_frame(MsgType::kSnapshotDelta, ship.encode())));
    // Each heartbeat is acked with epoch 0; the delta ack (epoch >= 1)
    // arrives after every frame of the burst was processed in order.
    Ack ack;
    do {
      ack = read_ack();
      EXPECT_EQ(ack.status, AckStatus::kOk);
    } while (ack.epoch == 0);
    EXPECT_EQ(ack.epoch, epoch);
  }

  const auto stats = collector.stats();
  EXPECT_GE(stats.frames, 304u);  // hello + 300 heartbeats + 3 deltas
  EXPECT_EQ(stats.deadline_drops, 0u);
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.deltas_merged, 3u);
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

TEST(ServiceOverload, ShedDeltasAreNackedAndReshippedExactlyOnce) {
  CollectorConfig config = collector_config();
  config.admission.site_rate_per_sec = 5.0;  // ~one admit per 200 ms
  config.admission.site_burst = 1.0;
  config.admission.min_retry_after_ms = 10;
  config.admission.max_retry_after_ms = 300;
  Collector collector(config);
  collector.start();

  // Raw site shipping 4 epochs as fast as NACKs allow: every shed must
  // come back kRetryLater with a usable hint, and honoring the hint must
  // eventually land every epoch exactly once.
  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(3000, 3000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack = [&]() -> Ack {
    for (;;) {
      if (auto frame = decoder.next()) return Ack::decode(frame->payload);
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) {
        ADD_FAILURE() << "connection lost awaiting ack";
        return Ack{};
      }
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 9;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  EXPECT_EQ(read_ack().status, AckStatus::kOk);

  DistinctCountSketch expected(small_params());
  std::uint64_t nacks = 0;
  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    DistinctCountSketch delta(small_params());
    for (std::uint64_t i = 0; i < 30; ++i) {
      const auto dest = static_cast<Addr>(i % 3);
      const auto source = static_cast<Addr>(epoch * 500 + i);
      delta.update(dest, source, +1);
      expected.update(dest, source, +1);
    }
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    delta.serialize(writer);
    SnapshotDelta ship;
    ship.site_id = 9;
    ship.epoch = epoch;
    ship.updates = 30;
    ship.sketch_blob = std::move(out).str();
    const std::string frame =
        encode_frame(MsgType::kSnapshotDelta, ship.encode());

    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 100) << "epoch " << epoch << " never admitted";
      ASSERT_TRUE(socket->send_all(frame));
      const Ack ack = read_ack();
      ASSERT_EQ(ack.epoch, epoch);
      if (ack.status == AckStatus::kOk) break;
      ASSERT_EQ(ack.status, AckStatus::kRetryLater);
      ASSERT_GT(ack.retry_after_ms, 0u);
      ++nacks;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(ack.retry_after_ms));
    }
  }

  const auto stats = collector.stats();
  EXPECT_GT(stats.shed_deltas, 0u);
  EXPECT_EQ(nacks, stats.shed_deltas);
  EXPECT_EQ(stats.deltas_merged, 4u);
  EXPECT_EQ(stats.duplicate_deltas, 0u);  // a shed is not a duplicate
  EXPECT_EQ(stats.dropped_epochs, 0u);    // and never a gap
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

TEST(ServiceOverload, AgentBacksOffOnNackWithoutSpillingItsSpool) {
  CollectorConfig config = collector_config();
  config.admission.site_rate_per_sec = 10.0;
  config.admission.site_burst = 2.0;
  config.admission.min_retry_after_ms = 10;
  config.admission.max_retry_after_ms = 200;
  Collector collector(config);
  collector.start();

  // A real agent sealing epochs far faster than the bucket admits. The
  // NACK path must delay shipping without ever evicting a spooled epoch,
  // and the final merged sketch must equal the reference bit for bit.
  SiteAgentConfig agent_cfg = agent_config(1, collector.port());
  agent_cfg.epoch_updates = 200;
  agent_cfg.spool_epochs = 256;
  SiteAgent agent(agent_cfg);
  agent.start();

  const auto updates = zipf_updates(4000, 77);
  DistinctCountSketch expected(small_params());
  for (const auto& update : updates) {
    agent.ingest(update);
    expected.update(update.dest, update.source, update.delta);
  }
  EXPECT_TRUE(agent.flush(30000));
  agent.stop();

  const auto agent_stats = agent.stats();
  EXPECT_GT(agent_stats.nacks, 0u);
  EXPECT_EQ(agent_stats.epochs_dropped, 0u);
  const auto stats = collector.stats();
  EXPECT_GT(stats.shed_deltas, 0u);
  EXPECT_EQ(stats.dropped_epochs, 0u);
  EXPECT_EQ(stats.post_recovery_duplicates, 0u);
  EXPECT_TRUE(collector.merged_sketch() == expected);
  collector.stop();
}

// --- wire version: kWireVersion only ---------------------------------------

/// `frame` re-stamped with another version byte, its CRC recomputed, so the
/// version is the only thing wrong with the result.
std::string with_version(std::string frame, std::uint8_t version) {
  frame[4] = static_cast<char>(version);
  const std::uint32_t crc = crc32(frame.data() + 4, frame.size() - 8);
  std::memcpy(frame.data() + frame.size() - 4, &crc, sizeof crc);
  return frame;
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const unsigned char byte : bytes) {
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

TEST(WireVersioning, FrameCarriesItsVersionAndRejectsOutOfRange) {
  const std::string beat =
      encode_frame(MsgType::kHeartbeat, Heartbeat{}.encode());
  FrameDecoder decoder;
  decoder.feed(beat.data(), beat.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->version, kWireVersion);

  // Any other version byte is a frame error even under a valid CRC — the v2
  // and v3 layouts included.
  for (const int version : {0, 1, 2, 3, kWireVersion + 1, 255}) {
    const std::string bad =
        with_version(beat, static_cast<std::uint8_t>(version));
    FrameDecoder fresh;
    fresh.feed(bad.data(), bad.size());
    EXPECT_THROW(fresh.next(), WireError) << "version " << version;
  }
}

TEST(WireVersioning, SnapshotDeltaTimestampsAreV3Only) {
  SnapshotDelta delta;
  delta.site_id = 4;
  delta.epoch = 11;
  delta.updates = 256;
  delta.seal_unix_ns = 111;
  delta.seal_steady_ns = 222;
  delta.spool_unix_ns = 333;
  delta.ship_unix_ns = 444;
  delta.sketch_blob = "blobbytes";

  // Payloads round-trip every stamp.
  const SnapshotDelta back = SnapshotDelta::decode(delta.encode());
  EXPECT_EQ(back.seal_unix_ns, 111u);
  EXPECT_EQ(back.seal_steady_ns, 222u);
  EXPECT_EQ(back.spool_unix_ns, 333u);
  EXPECT_EQ(back.ship_unix_ns, 444u);
  EXPECT_EQ(back.sketch_blob, "blobbytes");

  // A payload handed in with any other frame version is refused.
  EXPECT_THROW(SnapshotDelta::decode(delta.encode(), 3), WireError);
}

/// Every message's frame, byte for byte: the v4 contract deployed peers
/// decode. Any change to this hex is a wire break, not a refactor.
TEST(WireVersioning, V4FramesMatchGoldenBytes) {
  constexpr std::uint64_t kFingerprint = 0x0123456789abcdefULL;
  Hello site;
  site.site_id = 7;
  site.params_fingerprint = kFingerprint;
  site.epoch_updates = 2048;
  site.first_epoch = 3;
  site.dropped_epochs = 1;
  site.map_version = 2;
  EXPECT_EQ(to_hex(encode_frame(MsgType::kHello, site.encode())),
            "4443535704012d0000000700000000000000efcdab89674523010008000000"
            "000000030000000000000001000000000000000002000000ce80942f");

  Hello leaf;
  leaf.site_id = 1001;
  leaf.params_fingerprint = kFingerprint;
  leaf.role = PeerRole::kLeaf;
  EXPECT_EQ(to_hex(encode_frame(MsgType::kHello, leaf.encode())),
            "4443535704012d000000e903000000000000efcdab89674523010000000000"
            "0000000100000000000000000000000000000001000000005b62b710");

  SnapshotDelta delta;
  delta.site_id = 7;
  delta.epoch = 5;
  delta.updates = 2048;
  delta.seal_unix_ns = 1700000000000000001ULL;
  delta.seal_steady_ns = 42;
  delta.spool_unix_ns = 1700000000000000002ULL;
  delta.ship_unix_ns = 1700000000000000003ULL;
  delta.sketch_blob = std::string("DCSB\x00\x01\xfe\xff", 8);
  const std::string delta_hex =
      "444353570402480000000700000000000000050000000000000000080000000000"
      "0001002a36fe9c97172a0000000000000002002a36fe9c971703002a36fe9c9717"
      "0800000000000000444353420001feff1867a3ab";
  EXPECT_EQ(to_hex(delta.encode_frame()), delta_hex);
  EXPECT_EQ(to_hex(encode_frame(MsgType::kSnapshotDelta, delta.encode())),
            delta_hex);

  Heartbeat beat;
  beat.site_id = 7;
  beat.current_epoch = 6;
  beat.spooled_epochs = 2;
  beat.dropped_epochs = 1;
  EXPECT_EQ(to_hex(encode_frame(MsgType::kHeartbeat, beat.encode())),
            "44435357040320000000070000000000000006000000000000000200000000"
            "000000010000000000000059fe79c3");

  Ack plain;
  plain.epoch = 5;
  plain.status = AckStatus::kRetryLater;
  plain.retry_after_ms = 250;
  EXPECT_EQ(to_hex(encode_frame(MsgType::kAck, plain.encode())),
            "44435357040419000000050000000000000003fa0000000000000000000000"
            "00000000e7778292");

  Ack with_map;
  with_map.status = AckStatus::kWrongShard;
  with_map.map_version = 3;
  with_map.map_blob = std::string("MAP\x00\x01", 5);
  EXPECT_EQ(to_hex(encode_frame(MsgType::kAck, with_map.encode())),
            "4443535704041e000000000000000000000004000000000300000005000000"
            "000000004d41500001170fc051");

  Bye bye;
  bye.site_id = 7;
  EXPECT_EQ(to_hex(encode_frame(MsgType::kBye, bye.encode())),
            "444353570405080000000700000000000000283af1d9");
}

/// A peer speaking an older version is dropped at its first frame: one
/// frame error, nothing booked for the site.
TEST(WireVersioning, V3HelloDropsTheConnectionAndBooksNothing) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  Hello hello;
  hello.site_id = 3;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(
      with_version(encode_frame(MsgType::kHello, hello.encode()), 3)));

  // The collector counts the frame error before it closes the socket, so
  // the counter is settled once the close is seen.
  char buffer[256];
  const RecvResult got = socket->recv_some(buffer, sizeof buffer);
  EXPECT_TRUE(got.closed || got.error) << "no reply, just the close";
  EXPECT_EQ(got.bytes, 0u);

  const auto stats = collector.stats();
  EXPECT_EQ(stats.frame_errors, 1u);
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_EQ(stats.connected_sites, 0u);
  EXPECT_EQ(stats.rejected_hellos, 0u);
  EXPECT_TRUE(collector.site_stats().empty());
  collector.stop();
}

/// Heartbeats are acked with epoch 0 — the free RTT probe.
TEST(WireVersioning, V3HeartbeatsAreAckedWithEpochZero) {
  CollectorConfig config = collector_config();
  config.run_detection = false;
  Collector collector(config);
  collector.start();

  auto socket = tcp_connect("127.0.0.1", collector.port(), 1000);
  ASSERT_TRUE(socket.has_value());
  socket->set_timeouts(2000, 2000);
  FrameDecoder decoder;
  char buffer[4096];
  const auto read_ack_frame = [&]() -> std::optional<Frame> {
    for (;;) {
      if (auto frame = decoder.next()) return frame;
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  };

  Hello hello;
  hello.site_id = 6;
  hello.params_fingerprint = small_params().fingerprint();
  ASSERT_TRUE(socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  auto hello_ack = read_ack_frame();
  ASSERT_TRUE(hello_ack.has_value());
  EXPECT_EQ(hello_ack->version, kWireVersion);

  ASSERT_TRUE(socket->send_all(
      encode_frame(MsgType::kHeartbeat, Heartbeat{}.encode())));
  auto beat_ack = read_ack_frame();
  ASSERT_TRUE(beat_ack.has_value());
  EXPECT_EQ(beat_ack->type, MsgType::kAck);
  EXPECT_EQ(beat_ack->version, kWireVersion);
  const Ack ack = Ack::decode(beat_ack->payload);
  EXPECT_EQ(ack.status, AckStatus::kOk);
  EXPECT_EQ(ack.epoch, 0u);
  collector.stop();
}

// --- end-to-end epoch tracing ----------------------------------------------

/// Real agent, real collector, telemetry on: every trace dumped from the
/// collector's ring must be complete (all eight stages stamped, in order)
/// and carry a detection-freshness measurement.
TEST(ServiceTrace, CollectorTracesAreCompleteAndMonotone) {
  obs::set_enabled(true);
  const std::uint64_t freshness_before =
      obs::TraceMetrics::get().detection_freshness_ns.snapshot().count;

  Collector collector(collector_config());
  collector.start();
  SiteAgent agent(agent_config(2, collector.port()));
  agent.start();
  for (const auto& update : zipf_updates(2500, 9)) agent.ingest(update);
  EXPECT_TRUE(agent.flush(10000));
  agent.stop();

  const auto traces = collector.traces();
  ASSERT_GE(traces.size(), 4u);  // 2500 updates / 500 per epoch
  for (const auto& trace : traces) {
    EXPECT_EQ(trace.site_id, 2u);
    EXPECT_TRUE(trace.complete()) << "epoch " << trace.epoch;
    EXPECT_GT(trace.freshness_ns, 0u) << "epoch " << trace.epoch;
    EXPECT_GT(trace.updates, 0u);
    EXPECT_GT(trace.bytes, 0u);
  }

  // The SLO histogram saw every merged epoch.
  const auto freshness =
      obs::TraceMetrics::get().detection_freshness_ns.snapshot();
  EXPECT_GE(freshness.count, freshness_before + traces.size());

  // The agent kept its own (sealed/spooled/shipped) view of the epochs.
  const auto agent_traces = agent.traces();
  ASSERT_GE(agent_traces.size(), 4u);
  for (const auto& trace : agent_traces) {
    const auto sealed = trace.stamp(obs::TraceStage::kSealed);
    const auto spooled = trace.stamp(obs::TraceStage::kSpooled);
    const auto shipped = trace.stamp(obs::TraceStage::kShipped);
    EXPECT_GT(sealed, 0u);
    EXPECT_GE(spooled, sealed);
    EXPECT_GE(shipped, spooled);
  }
  collector.stop();
}

/// An idle agent <-> collector pair turns keepalive heartbeats into RTT
/// observations.
TEST(ServiceTrace, HeartbeatRttIsMeasuredOnIdleConnections) {
  obs::set_enabled(true);
  const obs::Labels site_label{{"site", "1"}};
  const auto rtt_count = [&] {
    return test::histogram_count(obs::Registry::global().snapshot(),
                                 "dcs_agent_heartbeat_rtt_ns", site_label);
  };

  Collector collector(collector_config());
  collector.start();
  auto config = agent_config(1, collector.port());
  config.heartbeat_interval_ms = 20;
  SiteAgent agent(config);
  agent.start();
  // One epoch to establish the connection, then idle through several
  // heartbeat intervals.
  agent.ingest(1, 2, +1);
  agent.seal_epoch();
  EXPECT_TRUE(agent.flush(5000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rtt_count() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  agent.stop();

  EXPECT_GE(rtt_count(), 2u)
      << "no heartbeat RTT observed within the deadline";
  collector.stop();
}

// --- per-instance metrics ----------------------------------------------------

obs::Labels collector_label(const Collector& collector) {
  return {{"collector", "127.0.0.1:" + std::to_string(collector.port())}};
}

/// Every series a collector exports equals the matching field of its
/// stats() (inflight_bytes() for the admission gauge), field for field.
void expect_collector_series(const obs::Snapshot& snapshot,
                             const Collector& collector) {
  const Collector::Stats s = collector.stats();
  const obs::Labels label = collector_label(collector);
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"dcs_collector_frames_total", s.frames},
      {"dcs_collector_frame_errors_total", s.frame_errors},
      {"dcs_collector_deltas_total", s.deltas_merged},
      {"dcs_collector_duplicate_deltas_total", s.duplicate_deltas},
      {"dcs_collector_dropped_epochs_total", s.dropped_epochs},
      {"dcs_collector_rejected_hellos_total", s.rejected_hellos},
      {"dcs_collector_shed_deltas_total", s.shed_deltas},
      {"dcs_collector_shed_bytes_total", s.shed_bytes},
      {"dcs_collector_deadline_drops_total", s.deadline_drops},
      {"dcs_collector_idle_reaped_total", s.idle_reaped},
      {"dcs_checkpoint_generations_total", s.checkpoints_written},
      {"dcs_checkpoint_bytes_written_total", s.checkpoint_bytes_written},
      {"dcs_checkpoint_journal_records_total", s.journal_records},
      {"dcs_checkpoint_recoveries_total", s.recoveries},
      {"dcs_checkpoint_corrupt_generations_total",
       s.corrupt_generations_skipped},
      {"dcs_checkpoint_replayed_epochs_total", s.replayed_epochs},
      {"dcs_checkpoint_replay_deduped_total", s.replay_deduped},
      {"dcs_checkpoint_post_recovery_duplicates_total",
       s.post_recovery_duplicates},
      {"dcs_collector_wrong_shard_acks_total", s.wrong_shard_acks},
      {"dcs_collector_reshards_total", s.reshards},
      {"dcs_root_gap_fills_total", s.gap_fills},
      {"dcs_root_gap_overflow_epochs_total", s.gap_overflow_epochs},
      {"dcs_root_relayed_deltas_total", s.relayed_deltas},
      {"dcs_leaf_uplink_shed_total", s.tap_shed_deltas},
  };
  for (const auto& [name, value] : counters)
    EXPECT_EQ(test::counter_value(snapshot, name, label), value) << name;
  EXPECT_EQ(test::gauge_value(snapshot, "dcs_collector_connected_sites",
                              label),
            static_cast<std::int64_t>(s.connected_sites));
  EXPECT_EQ(test::gauge_value(snapshot, "dcs_root_pending_gap_epochs", label),
            static_cast<std::int64_t>(s.pending_gap_epochs));
  EXPECT_EQ(test::gauge_value(snapshot, "dcs_collector_inflight_bytes", label),
            static_cast<std::int64_t>(collector.inflight_bytes()));
}

void expect_uplink_series(const obs::Snapshot& snapshot,
                          const LeafUplink& uplink) {
  const LeafUplink::Stats s = uplink.stats();
  const obs::Labels label{{"leaf", std::to_string(uplink.config().leaf_id)}};
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"dcs_leaf_uplink_relayed_total", s.relayed},
      {"dcs_leaf_uplink_acked_total", s.root_acks + s.root_duplicates},
      {"dcs_leaf_uplink_nacks_total", s.nacks},
      {"dcs_leaf_uplink_reconnects_total", s.reconnects},
  };
  for (const auto& [name, value] : counters)
    EXPECT_EQ(test::counter_value(snapshot, name, label), value) << name;
  EXPECT_EQ(test::gauge_value(snapshot, "dcs_leaf_uplink_spool_depth", label),
            static_cast<std::int64_t>(s.spool_depth));
}

void expect_agent_series(const obs::Snapshot& snapshot,
                         const SiteAgent& agent) {
  const SiteAgent::Stats s = agent.stats();
  const obs::Labels label{{"site", std::to_string(agent.config().site_id)}};
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"dcs_agent_epochs_sealed_total", s.epochs_sealed},
      {"dcs_agent_epochs_shipped_total", s.epochs_shipped},
      {"dcs_agent_epochs_dropped_total", s.epochs_dropped},
      {"dcs_agent_reconnects_total", s.reconnects},
      {"dcs_agent_io_errors_total", s.io_errors},
      {"dcs_agent_resume_skips_total", s.resume_skips},
      {"dcs_agent_nacks_total", s.nacks},
      {"dcs_agent_rehomes_total", s.rehomes},
      {"dcs_agent_ingest_stalls_total", s.ingest_stalls},
  };
  for (const auto& [name, value] : counters)
    EXPECT_EQ(test::counter_value(snapshot, name, label), value) << name;
  EXPECT_EQ(test::gauge_value(snapshot, "dcs_agent_spool_depth", label),
            static_cast<std::int64_t>(s.spool_depth));
}

/// A root, two leaves (each a collector plus its uplink) and two agents in
/// one process: each instance exports its own labelled series, and every
/// value is exactly its instance's Stats field — also with telemetry
/// switched off for half of the traffic, since the series read Stats, not
/// gated instruments.
TEST(ServiceMetrics, EachInstanceExportsItsOwnStatsFieldForField) {
  struct RestoreSwitch {
    bool was = obs::enabled();
    ~RestoreSwitch() { obs::set_enabled(was); }
  } restore;
  obs::set_enabled(true);

  CollectorConfig root_config = collector_config();
  root_config.federation_root = true;
  root_config.run_detection = false;
  Collector root(root_config);
  root.start();

  const std::string state_dir =
      ::testing::TempDir() + "ServiceMetrics.EachInstance.state";
  std::filesystem::remove_all(state_dir);
  std::vector<std::unique_ptr<LeafCollector>> leaves;
  for (const std::uint64_t leaf_id : {1001ull, 1002ull}) {
    LeafCollectorConfig config;
    config.collector = collector_config();
    config.collector.run_detection = false;
    config.collector.leaf_id = leaf_id;
    // One durable leaf so the checkpoint series carry nonzero values.
    if (leaf_id == 1001) config.collector.state_dir = state_dir;
    config.root_port = root.port();
    config.uplink_heartbeat_interval_ms = 50;
    leaves.push_back(std::make_unique<LeafCollector>(config));
    leaves.back()->start();
  }
  std::vector<std::unique_ptr<SiteAgent>> agents;
  for (std::uint64_t site = 1; site <= 2; ++site) {
    auto config =
        agent_config(site, leaves[site - 1]->collector().port());
    config.epoch_updates = 100;
    agents.push_back(std::make_unique<SiteAgent>(config));
    agents.back()->start();
  }

  const auto updates = zipf_updates(2000, 5);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (i == updates.size() / 2) obs::set_enabled(false);
    agents[i % 2]->ingest(updates[i]);
  }
  std::uint64_t sealed = 0;
  for (auto& agent : agents) {
    ASSERT_TRUE(agent->flush(10000));
    agent->stop();
    sealed += agent->stats().epochs_sealed;
  }
  for (auto& leaf : leaves) leaf->stop(10000);
  ASSERT_TRUE(root.wait_for_deltas(sealed, 10000));
  root.stop();

  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  expect_collector_series(snapshot, root);
  for (const auto& leaf : leaves) {
    expect_collector_series(snapshot, leaf->collector());
    expect_uplink_series(snapshot, leaf->uplink());
  }
  for (const auto& agent : agents) expect_agent_series(snapshot, *agent);

  // One series per instance, and the traffic really was counted.
  EXPECT_EQ(test::series_count(snapshot.counters, "dcs_collector_deltas_total"),
            3u);
  EXPECT_EQ(test::series_count(snapshot.gauges, "dcs_leaf_uplink_spool_depth"),
            2u);
  EXPECT_EQ(test::series_count(snapshot.gauges, "dcs_agent_spool_depth"), 2u);
  EXPECT_EQ(test::counter_value(snapshot, "dcs_collector_deltas_total",
                                collector_label(root)),
            sealed);
  EXPECT_GT(test::counter_value(snapshot, "dcs_checkpoint_journal_records_total",
                                collector_label(leaves[0]->collector())),
            0u);
}

/// Lock order and lifetime: instances come and go while another thread
/// scrapes in a loop. A source handle's destruction waits for the scrape
/// calling it, so no scrape reads a destroyed instance (TSan/ASan run this)
/// and no series outlives its instance.
TEST(ServiceMetrics, InstancesDestroyedWhileScrapingLeaveNoSeries) {
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto text = obs::to_prometheus(obs::Registry::global().snapshot());
      scrapes.fetch_add(text.empty() ? 0 : 1, std::memory_order_relaxed);
    }
  });

  for (int round = 0; round < 20; ++round) {
    Collector collector(collector_config());
    collector.start();
    LeafUplinkConfig uplink_config;
    uplink_config.leaf_id = 1001;
    uplink_config.root_port = collector.port();
    uplink_config.params = small_params();
    LeafUplink uplink(uplink_config);
    SiteAgent agent(agent_config(1, collector.port()));
    agent.start();
    agent.ingest(1, 2, +1);
    agent.seal_epoch();
    EXPECT_TRUE(agent.flush(5000));
    // Stopped or running, each instance leaves through its destructor with
    // the scraper still going.
    if (round % 2 == 0) {
      agent.stop();
      collector.stop();
    }
  }
  const std::uint64_t before = scrapes.load(std::memory_order_relaxed);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (scrapes.load(std::memory_order_relaxed) < before + 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GE(scrapes.load(), before + 2);

  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  EXPECT_EQ(test::series_count(snapshot.counters, "dcs_collector_frames_total"),
            0u);
  EXPECT_EQ(test::series_count(snapshot.counters,
                               "dcs_leaf_uplink_relayed_total"),
            0u);
  EXPECT_EQ(test::series_count(snapshot.counters,
                               "dcs_agent_epochs_sealed_total"),
            0u);
}

}  // namespace
}  // namespace dcs::service

// Frame-reassembly fuzz matrix for the epoll reactor (service/reactor.cpp).
//
// The reactor's read path must reassemble CRC frames across ARBITRARY
// EAGAIN boundaries: one byte per wakeup, a split at every single byte
// offset of a session (header fields, payload, CRC — every boundary is
// hit), or fifty frames coalesced into one read. Malformed input must
// disconnect exactly the offending peer with the right counter bumped —
// never a neighbor, never the merged state. And the reply path must
// survive a peer that floods requests without draining acks (partial
// send()s on the non-blocking socket).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <netinet/in.h>
#include <optional>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "service/collector.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/distinct_count_sketch.hpp"

namespace dcs::service {
namespace {

DcsParams small_params() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 17;
  return params;
}

CollectorConfig reactor_config() {
  CollectorConfig config;
  config.params = small_params();
  config.io_timeout_ms = 20;
  config.reactor_workers = 2;
  config.run_detection = false;
  return config;
}

std::string sketch_bytes(const DistinctCountSketch& sketch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

std::string hello_frame(std::uint64_t site, std::uint64_t first_epoch = 1) {
  Hello hello;
  hello.site_id = site;
  hello.params_fingerprint = small_params().fingerprint();
  hello.first_epoch = first_epoch;
  return encode_frame(MsgType::kHello, hello.encode());
}

/// One-update delta frame; the update is (epoch, site*1000) so every
/// epoch/site combination contributes distinct bits to the merged sketch.
std::string delta_frame(std::uint64_t site, std::uint64_t epoch) {
  DistinctCountSketch sketch(small_params());
  sketch.update(static_cast<Addr>(site), static_cast<Addr>(epoch * 7 + 1),
                +1);
  SnapshotDelta delta;
  delta.site_id = site;
  delta.epoch = epoch;
  delta.updates = 1;
  delta.sketch_blob = sketch_bytes(sketch);
  return encode_frame(MsgType::kSnapshotDelta, delta.encode());
}

struct RawClient {
  std::optional<TcpSocket> socket;
  FrameDecoder decoder;
  char buffer[8192];

  explicit RawClient(std::uint16_t port, int timeout_ms = 3000) {
    socket = tcp_connect("127.0.0.1", port, 1000);
    if (socket)
      socket->set_timeouts(static_cast<std::uint64_t>(timeout_ms),
                           static_cast<std::uint64_t>(timeout_ms));
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
  bool wait_for_drop() {
    for (int i = 0; i < 200; ++i) {
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) return true;
      if (got.timed_out) return false;
    }
    return false;
  }
};

// --- reassembly across EAGAIN boundaries ------------------------------------

/// An entire session — Hello, three deltas, Bye — dribbled one byte per
/// send(). Every byte lands in its own epoll wakeup (or coalesces with a
/// handful of neighbors under scheduler jitter); the decoded frame sequence
/// must be identical either way.
TEST(ReactorFraming, OneByteDribbleReassemblesWholeSession) {
  CollectorConfig config = reactor_config();
  config.frame_deadline_ms = 0;  // the dribble IS the test; don't reap it
  config.idle_timeout_ms = 0;
  Collector collector(config);
  collector.start();

  std::string session = hello_frame(1);
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch)
    session += delta_frame(1, epoch);
  Bye bye;
  bye.site_id = 1;
  session += encode_frame(MsgType::kBye, bye.encode());

  RawClient client(collector.port());
  ASSERT_TRUE(client.ok());
  for (char byte : session)
    ASSERT_TRUE(client.send(std::string(1, byte)));

  // Hello ack + 3 delta acks, in order.
  auto hello_ack = client.read_ack();
  ASSERT_TRUE(hello_ack.has_value());
  EXPECT_EQ(hello_ack->status, AckStatus::kOk);
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    auto ack = client.read_ack();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->status, AckStatus::kOk);
    EXPECT_EQ(ack->epoch, epoch);
  }
  ASSERT_TRUE(collector.wait_for_byes(1, 5000));
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, 3u);
  EXPECT_EQ(stats.frame_errors, 0u);
  collector.stop();
}

/// Split a Hello+delta session at EVERY byte offset — both the prefix and
/// the suffix arrive in separate sends, so each run exercises a different
/// header/payload/CRC boundary. Every split must merge exactly its one
/// epoch.
TEST(ReactorFraming, SplitAtEveryByteBoundary) {
  Collector collector(reactor_config());
  collector.start();

  // Each split run uses its own connection and epoch. The offset walk
  // covers every byte of the Hello frame (magic, version, type, length,
  // payload, CRC — every field boundary), the delta's header plus its
  // first payload bytes, and the delta's final 8 bytes (payload end + CRC),
  // which together hit every boundary type without walking the multi-KiB
  // sketch blob byte by byte.
  const std::string hello = hello_frame(7);
  const std::size_t head_splits = hello.size() - 1;
  const std::size_t delta_head_splits = kFrameHeaderBytes + 17;
  const std::size_t tail_splits = 8;
  const std::size_t total = head_splits + delta_head_splits + tail_splits;

  std::uint64_t expected_merges = 0;
  for (std::size_t k = 0; k < total; ++k) {
    const std::uint64_t epoch = static_cast<std::uint64_t>(k) + 1;
    const std::string session = hello + delta_frame(7, epoch);
    std::size_t offset;
    if (k < head_splits)
      offset = k + 1;
    else if (k < head_splits + delta_head_splits)
      offset = hello.size() + (k - head_splits);
    else
      offset = session.size() - (total - k);
    ASSERT_GT(offset, 0u);
    ASSERT_LT(offset, session.size());
    RawClient client(collector.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send(session.substr(0, offset)));
    ASSERT_TRUE(client.send(session.substr(offset)));
    auto hello_ack = client.read_ack();
    ASSERT_TRUE(hello_ack.has_value()) << "split at " << offset;
    auto ack = client.read_ack();
    ASSERT_TRUE(ack.has_value()) << "split at " << offset;
    EXPECT_EQ(ack->epoch, epoch);
    EXPECT_EQ(ack->status, AckStatus::kOk);
    ++expected_merges;
  }
  ASSERT_TRUE(collector.wait_for_deltas(expected_merges, 10000));
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, expected_merges);
  EXPECT_EQ(stats.frame_errors, 0u);
  collector.stop();
}

/// Fifty frames coalesced into a single send() — one read wakeup carries
/// many complete frames plus a partial tail; all must decode, in order.
TEST(ReactorFraming, CoalescedMultiFrameRead) {
  Collector collector(reactor_config());
  collector.start();

  std::string burst = hello_frame(3);
  constexpr std::uint64_t kEpochs = 49;
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch)
    burst += delta_frame(3, epoch);

  RawClient client(collector.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send(burst));
  auto hello_ack = client.read_ack();
  ASSERT_TRUE(hello_ack.has_value());
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    auto ack = client.read_ack();
    ASSERT_TRUE(ack.has_value()) << "epoch " << epoch;
    EXPECT_EQ(ack->epoch, epoch);
  }
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, kEpochs);
  EXPECT_EQ(stats.frame_errors, 0u);
  collector.stop();
}

// --- malformed input isolation ----------------------------------------------

/// A truncated tail (half a frame, then FIN) is not an error — the
/// connection ends, nothing merges from the partial frame, and the frames
/// before the truncation point are intact.
TEST(ReactorFraming, TruncatedTailDisconnectsCleanly) {
  Collector collector(reactor_config());
  collector.start();

  const std::string full = delta_frame(4, 2);
  std::string session = hello_frame(4) + delta_frame(4, 1) +
                        full.substr(0, full.size() / 2);
  RawClient client(collector.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send(session));
  auto hello_ack = client.read_ack();
  ASSERT_TRUE(hello_ack.has_value());
  auto ack = client.read_ack();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->epoch, 1u);
  client.socket->shutdown();  // FIN with the tail incomplete

  ASSERT_TRUE(collector.wait_for_deltas(1, 5000));
  // Give the reactor a beat to process the EOF, then assert no error and
  // no phantom merge.
  for (int i = 0; i < 100 && collector.connection_count() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(collector.connection_count(), 0u);
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deltas_merged, 1u);
  EXPECT_EQ(stats.frame_errors, 0u);
  collector.stop();
}

/// Garbage bytes after a valid prefix kill exactly that peer with
/// frame_errors bumped — and a well-formed neighbor streaming concurrently
/// is untouched: its deltas all merge and the merged sketch equals the
/// neighbor-only reference (the abuser contributed nothing).
TEST(ReactorFraming, GarbageDropsOnePeerNeverCorruptsNeighbor) {
  Collector collector(reactor_config());
  collector.start();

  RawClient good(collector.port());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good.send(hello_frame(1)));
  ASSERT_TRUE(good.read_ack().has_value());

  RawClient abuser(collector.port());
  ASSERT_TRUE(abuser.ok());
  ASSERT_TRUE(abuser.send(hello_frame(2)));
  ASSERT_TRUE(abuser.read_ack().has_value());

  // Interleave: neighbor delta, garbage, neighbor delta.
  DistinctCountSketch reference(small_params());
  reference.update(1, 8, +1);   // delta_frame(1, 1)
  reference.update(1, 15, +1);  // delta_frame(1, 2)

  ASSERT_TRUE(good.send(delta_frame(1, 1)));
  auto first = good.read_ack();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(abuser.send("garbage that is definitely not a DCSW frame"));
  EXPECT_TRUE(abuser.wait_for_drop());
  ASSERT_TRUE(good.send(delta_frame(1, 2)));
  auto second = good.read_ack();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(second->status, AckStatus::kOk);

  const auto stats = collector.stats();
  EXPECT_EQ(stats.frame_errors, 1u);
  EXPECT_EQ(stats.deltas_merged, 2u);
  EXPECT_TRUE(collector.merged_sketch() == reference);
  collector.stop();
}

/// Bad-CRC and bad-magic each kill exactly one peer; N abusers -> N
/// frame_errors, zero merges, zero crashes.
TEST(ReactorFraming, EachMalformedPeerCountsOnce) {
  Collector collector(reactor_config());
  collector.start();

  std::string bad_crc = hello_frame(11);
  bad_crc[bad_crc.size() - 1] ^= 0x01;
  std::string bad_magic = hello_frame(12);
  bad_magic[0] ^= 0x01;
  std::string bad_version = hello_frame(13);
  bad_version[4] = 99;

  for (const std::string* poison : {&bad_crc, &bad_magic, &bad_version}) {
    RawClient client(collector.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send(*poison));
    EXPECT_TRUE(client.wait_for_drop());
  }
  const auto stats = collector.stats();
  EXPECT_EQ(stats.frame_errors, 3u);
  EXPECT_EQ(stats.deltas_merged, 0u);
  collector.stop();
}

/// Oversized announced length (above --max-frame-bytes) is rejected from
/// the header alone: the peer dies before the payload is ever buffered.
TEST(ReactorFraming, OversizedAnnouncementRejectedAtHeader) {
  CollectorConfig config = reactor_config();
  config.max_frame_bytes = 4096;
  Collector collector(config);
  collector.start();

  // A raw header announcing a 1 MiB heartbeat; never send the payload.
  std::string huge = encode_frame(MsgType::kHeartbeat,
                                  std::string(1 << 20, 'x'));
  RawClient client(collector.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send(huge.substr(0, kFrameHeaderBytes)));
  EXPECT_TRUE(client.wait_for_drop());
  const auto stats = collector.stats();
  EXPECT_EQ(stats.frame_errors, 1u);
  collector.stop();
}

// --- deadline & reply-path regressions --------------------------------------

/// The non-refreshing frame deadline survives the transplant: a peer
/// dribbling a frame slower than the deadline is dropped with
/// deadline_drops bumped, even though every dribble resets last_activity.
TEST(ReactorFraming, SlowLorisHitsDeadlineDespiteDribbling) {
  CollectorConfig config = reactor_config();
  config.frame_deadline_ms = 200;
  config.idle_timeout_ms = 0;
  config.io_timeout_ms = 20;  // tick: sweep granularity
  Collector collector(config);
  collector.start();

  RawClient client(collector.port());
  ASSERT_TRUE(client.ok());
  const std::string frame = hello_frame(1);
  // One byte every 40 ms: activity never stops, but the first frame can
  // never complete before the 200 ms deadline. Sends start failing (RST)
  // once the collector drops us.
  bool dropped = false;
  for (std::size_t i = 0; i < frame.size() - 1 && !dropped; ++i) {
    if (!client.send(std::string(1, frame[i]))) {
      dropped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  if (!dropped) {
    EXPECT_TRUE(client.wait_for_drop());
  }
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deadline_drops, 1u);
  EXPECT_EQ(stats.frame_errors, 0u);
  collector.stop();
}

/// Reply-path partial-send regression: a peer floods heartbeats without
/// reading a single ack (tiny receive buffer), forcing the reactor's
/// non-blocking reply path through partial send()s and EPOLLOUT resumes.
/// When the peer finally drains, every ack must arrive intact and in
/// order — none lost, none corrupted, connection still alive.
TEST(ReactorFraming, AckBackpressureSurvivesPartialWrites) {
  CollectorConfig config = reactor_config();
  config.idle_timeout_ms = 0;
  config.frame_deadline_ms = 0;
  Collector collector(config);
  collector.start();

  RawClient client(collector.port(), /*timeout_ms=*/5000);
  ASSERT_TRUE(client.ok());
  // Shrink our receive window so the collector's sends hit EAGAIN fast.
  const int tiny = 2048;
  ::setsockopt(client.socket->fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
               sizeof tiny);

  ASSERT_TRUE(client.send(hello_frame(6)));
  ASSERT_TRUE(client.read_ack().has_value());

  Heartbeat beat;
  beat.site_id = 6;
  const std::string frame = encode_frame(MsgType::kHeartbeat, beat.encode());
  constexpr int kFloods = 2000;
  std::string flood;
  flood.reserve(frame.size() * kFloods);
  for (int i = 0; i < kFloods; ++i) flood += frame;
  ASSERT_TRUE(client.send(flood));  // no reads until the whole flood is sent

  // Now drain: exactly kFloods acks (heartbeats are acked), all valid.
  for (int i = 0; i < kFloods; ++i) {
    auto ack = client.read_ack();
    ASSERT_TRUE(ack.has_value()) << "ack " << i << " lost under backpressure";
    EXPECT_EQ(ack->epoch, 0u);
  }
  // The connection survived; a delta still works.
  ASSERT_TRUE(client.send(delta_frame(6, 1)));
  auto ack = client.read_ack();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->epoch, 1u);
  const auto stats = collector.stats();
  EXPECT_EQ(stats.frame_errors, 0u);
  collector.stop();
}

}  // namespace
}  // namespace dcs::service

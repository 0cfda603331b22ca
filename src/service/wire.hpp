// Wire protocol for sketch shipping (src/service).
//
// The paper's deployment (Fig. 1) is distributed: per-router monitors
// observe flow updates locally; a central detector needs the *global*
// distinct-source counts. Because the DCS is linear, a site never ships raw
// flow updates — it ships its per-epoch sketch delta (a few hundred KiB at
// most, independent of traffic volume) and the collector adds counters.
//
// Framing. Every message travels in one CRC-framed, length-prefixed frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic 0x57534344 ("DCSW"), little-endian
//        4     1  protocol version (kWireVersion)
//        5     1  message type (MsgType)
//        6     4  payload length in bytes (<= kMaxPayloadBytes)
//       10     n  payload (message-specific, see below)
//    10 + n     4  CRC-32 over bytes [4, 10 + n) — version, type,
//                  length and payload; the magic is covered by the
//                  equality check itself
//
// A receiver rejects bad magic, a version other than kWireVersion, an
// unknown type, oversized length and CRC mismatch with WireError *before*
// interpreting any payload byte, so a malformed or malicious peer can tear
// down its own connection but never corrupt collector state. Sketch
// payloads additionally carry the common/serialize CRC footer — integrity
// is checked end to end, not just per hop.
//
// Messages (all integers little-endian, encoded via common/serialize):
//   Hello          site -> collector, once per connection. Carries the site
//                  id, the DcsParams fingerprint (mergeability check), the
//                  epoch size and the resume epoch. Acked (epoch = 0).
//   SnapshotDelta  site -> collector. One epoch's sketch delta plus its
//                  origin timestamps (seal wall + steady clock, spool,
//                  ship) for end-to-end freshness. Acked with the epoch
//                  number; the site keeps the delta spooled until the ack
//                  arrives, so a connection drop never loses an epoch
//                  silently.
//   Heartbeat      site -> collector, when idle. Liveness + degraded-mode
//                  accounting (spool depth, epochs dropped so far). Acked
//                  (epoch = 0), so the site times it as an RTT probe.
//   Ack            collector -> site. Status for a Hello, SnapshotDelta or
//                  Heartbeat. Carries the resume watermark (Hello) or the
//                  acked epoch (SnapshotDelta), a retry_after_ms hint when
//                  the collector sheds a delta under overload
//                  (kRetryLater), and the collector's shard-map version.
//   Bye            site -> collector. Clean end of stream.
//
// Federation (docs/FEDERATION.md). Hello carries the peer's role (site
// agent vs leaf-collector uplink) and the shard-map version it holds. A
// collector pushes its current ShardMap inside the ack stream (Ack
// map_blob) to a stale peer or with kWrongShard — no side channel, no
// extra round trip. On role = leaf connections the delta site_id is the
// *origin* site, not the Hello site_id: a leaf relays many sites over one
// multiplexed uplink.
//
// One version. kWireVersion is 4 (v2 added the Ack retry hint, v3 the
// delta timestamps and heartbeat acks, v4 the federation fields). Every
// frame is encoded at it and a receiver accepts no other: any other
// version byte is a frame error that drops the connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/serialize.hpp"

namespace dcs::service {

constexpr std::uint32_t kWireMagic = 0x57534344;  // "DCSW"
constexpr std::uint8_t kWireVersion = 4;
/// Sketch deltas are ~r*s*65*8 bytes per allocated level (~1.6 MiB at
/// r=3, s=1024, 8 levels); 64 MiB leaves generous headroom while bounding
/// what a garbage length prefix can make a receiver buffer.
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
constexpr std::size_t kFrameHeaderBytes = 10;
constexpr std::size_t kFrameCrcBytes = 4;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kSnapshotDelta = 2,
  kHeartbeat = 3,
  kAck = 4,
  kBye = 5,
};

/// Thrown on malformed frames and payloads. Subtype of SerializeError so
/// transport and payload corruption surface through one catch.
class WireError : public SerializeError {
 public:
  using SerializeError::SerializeError;
};

/// What a connection is (Hello::role). Site agents ship their own
/// epochs; a leaf uplink relays deltas for every site its shard owns over
/// one multiplexed connection to the root.
enum class PeerRole : std::uint8_t {
  kSite = 0,
  kLeaf = 1,
};

struct Frame {
  MsgType type = MsgType::kHello;
  /// The frame's version byte; always kWireVersion once decoded.
  std::uint8_t version = kWireVersion;
  std::string payload;
};

/// A decoded frame whose payload still lives in the FrameDecoder's buffer.
/// Valid until the next feed() or next*() call on that decoder.
struct FrameView {
  MsgType type = MsgType::kHello;
  std::uint8_t version = kWireVersion;
  std::string_view payload;
};

/// Assemble one kWireVersion frame (header + payload + CRC) ready to send.
std::string encode_frame(MsgType type, std::string_view payload);

/// Incremental frame parser for a TCP byte stream. feed() appends received
/// bytes; next() pops the first complete frame, returns std::nullopt when
/// more bytes are needed, and throws WireError on malformed input (the
/// stream is unrecoverable after a throw — drop the connection).
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);
  std::optional<Frame> next();
  /// next() without copying the payload out: the collector's receive path
  /// decodes multi-MiB deltas straight from the stream buffer.
  std::optional<FrameView> next_view();

  /// Bytes buffered but not yet consumed (diagnostics).
  std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

  /// Lower the acceptable payload size below the protocol-wide
  /// kMaxPayloadBytes (values above it are clamped). A frame announcing a
  /// larger payload throws WireError from next() *before* any of it is
  /// buffered past the header — the receiver-side memory bound under
  /// oversized-frame abuse.
  void set_max_payload(std::uint32_t cap) noexcept {
    max_payload_ = cap < kMaxPayloadBytes ? cap : kMaxPayloadBytes;
  }
  std::uint32_t max_payload() const noexcept { return max_payload_; }

 private:
  std::string buffer_;
  /// Prefix of buffer_ already handed out as frames; dropped on the next
  /// feed() so a returned FrameView stays valid until then.
  std::size_t consumed_ = 0;
  std::uint32_t max_payload_ = kMaxPayloadBytes;
};

/// Per-connection protocol state the reactor keeps for the collector's
/// frame handler: who the peer claims to be.
struct PeerState {
  /// Site id learned from the Hello; 0 until the handshake completes.
  /// On a role = kLeaf connection this is the *leaf id*, not a site id.
  std::uint64_t site_id = 0;
  bool hello_ok = false;
  /// Connection role from the Hello. A kLeaf peer is another collector's
  /// uplink: its deltas carry origin site ids that differ from the Hello
  /// id, and shard-ownership checks don't apply.
  PeerRole role = PeerRole::kSite;
};

// --- message payloads ------------------------------------------------------

enum class AckStatus : std::uint8_t {
  kOk = 0,
  /// The epoch was already merged (a retransmit after reconnect); the site
  /// treats it as shipped.
  kDuplicate = 1,
  /// Parameter fingerprint mismatch or malformed payload; the site cannot
  /// usefully retry.
  kRejected = 2,
  /// Shed by the collector's overload admission control. The epoch was NOT
  /// merged; the site must keep it spooled and re-ship it no sooner than
  /// Ack::retry_after_ms from now. Principled shedding: the loss is
  /// negotiated, never silent.
  kRetryLater = 3,
  /// This site hashes to a different leaf under the collector's current
  /// shard map (sent for a Hello or a delta after a reshard). Nothing was
  /// merged; the ack carries the full map in Ack::map_blob so the agent
  /// can re-home — spool intact — without any out-of-band lookup.
  kWrongShard = 4,
};

struct Hello {
  std::uint64_t site_id = 0;
  /// DcsParams::fingerprint() of the site's sketch parameters; the
  /// collector rejects a mismatch before any counters are merged.
  std::uint64_t params_fingerprint = 0;
  /// Updates per epoch at this site (informational; sites may differ).
  std::uint64_t epoch_updates = 0;
  /// First epoch this connection will ship (> 1 after an agent restart —
  /// the collector counts the gap as dropped epochs).
  std::uint64_t first_epoch = 1;
  /// Epochs this site has dropped on spool overflow so far (degraded-mode
  /// accounting survives reconnects).
  std::uint64_t dropped_epochs = 0;
  /// What this connection is: a site agent or a leaf uplink.
  PeerRole role = PeerRole::kSite;
  /// Version of the shard map the peer currently holds (0 = none). When it
  /// trails the collector's map the Hello ack carries the current map in
  /// Ack::map_blob.
  std::uint32_t map_version = 0;

  std::string encode() const;
  static Hello decode(std::string_view payload);
};

/// One epoch's sketch delta. `Blob` owns the sketch bytes (SnapshotDelta)
/// or views bytes the caller keeps alive (SnapshotDeltaView): the spooled
/// blob when sending, the frame payload when receiving.
template <typename Blob>
struct BasicSnapshotDelta {
  std::uint64_t site_id = 0;
  /// 1-based epoch number, strictly increasing per site.
  std::uint64_t epoch = 0;
  /// Flow updates summarized by this delta (for collector accounting).
  std::uint64_t updates = 0;
  // Epoch origin timestamps (zero when the sender had none, e.g. a leaf
  // relay's seal and spool stamps). Unix stamps are CLOCK_REALTIME
  // nanoseconds so the collector can subtract across processes;
  // seal_steady_ns is the agent's monotonic clock at seal, immune to
  // wall-clock steps on the agent itself.
  std::uint64_t seal_unix_ns = 0;    ///< epoch sealed (serialize complete)
  std::uint64_t seal_steady_ns = 0;  ///< agent steady clock at seal
  std::uint64_t spool_unix_ns = 0;   ///< delta enqueued on the spool
  std::uint64_t ship_unix_ns = 0;    ///< stamped per send attempt
  /// DistinctCountSketch::serialize bytes (self-checksummed, v2 footer).
  Blob sketch_blob;

  std::string encode() const;
  /// The whole SnapshotDelta frame, byte-identical to
  /// encode_frame(kSnapshotDelta, encode()) but written into one buffer:
  /// the blob is copied once, into the frame.
  std::string encode_frame() const;
  /// `version` is the frame's version byte (Frame::version); any value
  /// but kWireVersion is a WireError.
  static BasicSnapshotDelta decode(std::string_view payload,
                                   std::uint8_t version = kWireVersion);
};

using SnapshotDelta = BasicSnapshotDelta<std::string>;
using SnapshotDeltaView = BasicSnapshotDelta<std::string_view>;

struct Heartbeat {
  std::uint64_t site_id = 0;
  /// Epoch currently being accumulated at the site.
  std::uint64_t current_epoch = 0;
  std::uint64_t spooled_epochs = 0;
  std::uint64_t dropped_epochs = 0;

  std::string encode() const;
  static Heartbeat decode(std::string_view payload);
};

struct Ack {
  /// For a SnapshotDelta ack: the epoch being acknowledged. For a Hello
  /// ack: the collector's resume watermark — the highest epoch already
  /// durably merged for this site (0 = none); the agent prunes spooled
  /// epochs at or below it instead of re-shipping them after a collector
  /// restart (they would only be acked kDuplicate anyway).
  std::uint64_t epoch = 0;
  AckStatus status = AckStatus::kOk;
  /// Only meaningful with kRetryLater: the earliest the site may re-ship
  /// the shed epoch, in milliseconds from receipt. 0 otherwise.
  std::uint32_t retry_after_ms = 0;
  /// The collector's current shard-map version (0 = unsharded).
  /// Lets an agent notice a reshard from any ack without polling.
  std::uint32_t map_version = 0;
  /// ShardMap::encode() bytes, attached when the collector decides to push
  /// the map (a Hello from a peer with a stale map_version, or any
  /// kWrongShard). Empty otherwise — delta acks on the hot path stay
  /// small.
  std::string map_blob;

  std::string encode() const;
  static Ack decode(std::string_view payload);
};

struct Bye {
  std::uint64_t site_id = 0;

  std::string encode() const;
  static Bye decode(std::string_view payload);
};

}  // namespace dcs::service

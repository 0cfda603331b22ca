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
// A receiver rejects bad magic, unknown version/type, oversized length and
// CRC mismatch with WireError *before* interpreting any payload byte, so a
// malformed or malicious peer can tear down its own connection but never
// corrupt collector state. Sketch payloads additionally carry the
// common/serialize CRC footer — integrity is checked end to end, not just
// per hop.
//
// Messages (all integers little-endian, encoded via common/serialize):
//   Hello          site -> collector, once per connection. Carries the site
//                  id, the DcsParams fingerprint (mergeability check), the
//                  epoch size and the resume epoch. Acked (epoch = 0).
//   SnapshotDelta  site -> collector. One epoch's sketch delta. Acked with
//                  the epoch number; the site keeps the delta spooled until
//                  the ack arrives, so a connection drop never loses an
//                  epoch silently.
//   Heartbeat      site -> collector, when idle. Liveness + degraded-mode
//                  accounting (spool depth, epochs dropped so far).
//   Ack            collector -> site. Status for a Hello or SnapshotDelta.
//                  Carries the resume watermark (Hello) or the acked epoch
//                  (SnapshotDelta), plus a retry_after_ms hint when the
//                  collector sheds a delta under overload (kRetryLater).
//   Bye            site -> collector. Clean end of stream.
//
// Version history:
//   v1  Hello/SnapshotDelta/Heartbeat/Ack/Bye; Ack = {epoch, status}.
//   v2  Ack gained retry_after_ms and AckStatus::kRetryLater — the overload
//       admission controller's honest NACK (shed, not silently dropped).
//   v3  Epoch lifecycle tracing. SnapshotDelta carries four u64 origin
//       timestamps (seal wall clock, seal agent-steady clock, spool time,
//       ship time) so the collector can measure end-to-end detection
//       freshness; a v3 collector additionally acks Heartbeat frames
//       (epoch = 0) so agents can measure round-trip time from frames
//       already exchanged. The Ack payload is unchanged from v2.
//   v4  Federation (docs/FEDERATION.md). Hello gained role (site agent vs
//       leaf-collector uplink) and map_version (the shard-map version the
//       peer currently holds); Ack gained map_version and map_blob, so a
//       collector can push its current ShardMap to a stale peer inside the
//       ack stream — no side channel, no extra round trip. AckStatus
//       gained kWrongShard: "this site hashes to another leaf under the
//       current map"; the attached map tells the agent where to re-home
//       without losing its spool. On role = leaf connections the delta
//       site_id is the *origin* site, not the Hello site_id — a leaf
//       relays many sites over one multiplexed uplink.
//
// Version negotiation. A receiver accepts any version in
// [kMinWireVersion, kWireVersion] and each frame carries the version its
// payload was encoded at (Frame::version). A peer replies at
// min(kWireVersion, version-the-peer-spoke): a v4 collector answers a v2
// Hello with v2-framed Acks and never acks that connection's Heartbeats;
// a v4 agent that receives a v2-framed Hello ack encodes its deltas as v2
// (no timestamps) and does not wait for Heartbeat acks. v4 payload fields
// (Hello role/map_version, Ack map fields) are appended and version-gated,
// so a v3 peer never sees them and a v4 peer decodes v3 payloads with the
// pre-federation defaults. kWrongShard is only ever sent to v4 peers — a
// downlevel site cannot re-home, so a sharded leaf answers it kRejected.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/serialize.hpp"

namespace dcs::service {

constexpr std::uint32_t kWireMagic = 0x57534344;  // "DCSW"
constexpr std::uint8_t kWireVersion = 4;
/// Oldest version still decoded. v1 is gone: its Ack payload predates the
/// retry_after_ms field and silent-drop semantics the collector relies on.
constexpr std::uint8_t kMinWireVersion = 2;
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

/// What a connection is (wire v4, Hello::role). Site agents ship their own
/// epochs; a leaf uplink relays deltas for every site its shard owns over
/// one multiplexed connection to the root.
enum class PeerRole : std::uint8_t {
  kSite = 0,
  kLeaf = 1,
};

struct Frame {
  MsgType type = MsgType::kHello;
  /// Version byte the sender framed this payload at; payload decoders that
  /// changed shape across versions (SnapshotDelta) branch on it.
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

/// Assemble one frame (header + payload + CRC) ready to send. `version`
/// must be in [kMinWireVersion, kWireVersion]; pass the negotiated peer
/// version when answering a downlevel site.
std::string encode_frame(MsgType type, std::string_view payload,
                         std::uint8_t version = kWireVersion);

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

/// Per-connection protocol state shared by both collector ingest paths (the
/// thread-per-connection loop and the epoll reactor): who the peer claims to
/// be and what dialect the connection negotiated at Hello. Both transports
/// hand the same struct to the same frame handler, so the handler cannot
/// tell which path delivered a frame — the invariant the differential
/// equivalence tests rely on.
struct PeerState {
  /// Site id learned from the Hello; 0 until the handshake completes.
  /// On a role = kLeaf connection this is the *leaf id*, not a site id.
  std::uint64_t site_id = 0;
  /// Version negotiated at Hello: min(ours, the site's). Every reply on
  /// this connection is framed at it, and v3-only behaviour (heartbeat
  /// acks) is gated on it so a v2 site's ack stream never desyncs.
  std::uint8_t wire_version = kWireVersion;
  bool hello_ok = false;
  /// Connection role from the v4 Hello (kSite for v2/v3 peers). A kLeaf
  /// peer is another collector's uplink: its deltas carry origin site ids
  /// that differ from the Hello id, and shard-ownership checks don't apply.
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
  /// Wire v4 only. This site hashes to a different leaf under the
  /// collector's current shard map (sent for a Hello or a delta after a
  /// reshard). Nothing was merged; the ack carries the full map in
  /// Ack::map_blob so the agent can re-home — spool intact — without any
  /// out-of-band lookup. Never sent to v2/v3 peers (they get kRejected).
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
  /// Wire v4: what this connection is (defaults to a site agent when
  /// decoded from a v2/v3 frame).
  PeerRole role = PeerRole::kSite;
  /// Wire v4: version of the shard map the peer currently holds (0 =
  /// none). When it trails the collector's map the Hello ack carries the
  /// current map in Ack::map_blob.
  std::uint32_t map_version = 0;

  /// Encode at `version`: v2/v3 omit role and map_version.
  std::string encode(std::uint8_t version = kWireVersion) const;
  static Hello decode(std::string_view payload,
                      std::uint8_t version = kWireVersion);
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
  // Epoch origin timestamps (wire v3+; all zero when decoded from a v2
  // frame). Unix stamps are CLOCK_REALTIME nanoseconds so the collector
  // can subtract across processes; seal_steady_ns is the agent's monotonic
  // clock at seal, immune to wall-clock steps on the agent itself.
  std::uint64_t seal_unix_ns = 0;    ///< epoch sealed (serialize complete)
  std::uint64_t seal_steady_ns = 0;  ///< agent steady clock at seal
  std::uint64_t spool_unix_ns = 0;   ///< delta enqueued on the spool
  std::uint64_t ship_unix_ns = 0;    ///< stamped per send attempt
  /// DistinctCountSketch::serialize bytes (self-checksummed, v2 footer).
  Blob sketch_blob;

  /// Encode at `version`: v2 omits the four timestamp fields.
  std::string encode(std::uint8_t version = kWireVersion) const;
  /// The whole SnapshotDelta frame, byte-identical to
  /// encode_frame(kSnapshotDelta, encode(version), version) but written
  /// into one buffer: the blob is copied once, into the frame.
  std::string encode_frame(std::uint8_t version = kWireVersion) const;
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
  /// Wire v4: the collector's current shard-map version (0 = unsharded).
  /// Lets an agent notice a reshard from any ack without polling.
  std::uint32_t map_version = 0;
  /// Wire v4: ShardMap::encode() bytes, attached when the collector
  /// decides to push the map (a Hello from a peer with a stale
  /// map_version, or any kWrongShard). Empty otherwise — delta acks on the
  /// hot path stay small.
  std::string map_blob;

  /// Encode at `version`: v2/v3 omit map_version and map_blob.
  std::string encode(std::uint8_t version = kWireVersion) const;
  static Ack decode(std::string_view payload,
                    std::uint8_t version = kWireVersion);
};

struct Bye {
  std::uint64_t site_id = 0;

  std::string encode() const;
  static Bye decode(std::string_view payload);
};

}  // namespace dcs::service

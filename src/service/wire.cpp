#include "service/wire.hpp"

#include <cstring>

namespace dcs::service {

namespace {

bool valid_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MsgType::kHello) &&
         type <= static_cast<std::uint8_t>(MsgType::kBye);
}

void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

std::uint32_t get_u32(const char* data) {
  std::uint32_t v;
  std::memcpy(&v, data, sizeof v);
  return v;
}

/// Encode a payload struct straight into a string.
template <typename Fn>
std::string encode_payload(Fn&& write_fields) {
  std::string out;
  BinaryWriter writer(out);
  write_fields(writer);
  return out;
}

/// Decode a payload; any reader underflow or trailing garbage is a
/// WireError (payload lengths are exact by construction).
template <typename Fn>
void decode_payload(std::string_view payload, Fn&& read_fields) {
  BinaryReader reader(payload);
  try {
    read_fields(reader);
  } catch (const SerializeError& error) {
    throw WireError(std::string("malformed payload: ") + error.what());
  }
  if (reader.remaining() != 0)
    throw WireError("malformed payload: trailing bytes");
}

/// Build one frame in a single buffer: header, the payload write_payload
/// appends (about `payload_hint` bytes, to size the buffer once), CRC.
template <typename Fn>
std::string build_frame(MsgType type, std::size_t payload_hint,
                        Fn&& write_payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload_hint + kFrameCrcBytes);
  put_u32(frame, kWireMagic);
  frame.push_back(static_cast<char>(kWireVersion));
  frame.push_back(static_cast<char>(type));
  put_u32(frame, 0);  // payload length, patched below
  write_payload(frame);
  const std::size_t payload_bytes = frame.size() - kFrameHeaderBytes;
  if (payload_bytes > kMaxPayloadBytes)
    throw WireError("encode_frame: payload exceeds kMaxPayloadBytes");
  const auto length = static_cast<std::uint32_t>(payload_bytes);
  std::memcpy(frame.data() + 6, &length, sizeof length);
  // CRC covers everything after the magic: version, type, length, payload.
  put_u32(frame, crc32(frame.data() + 4, frame.size() - 4));
  return frame;
}

template <typename Blob>
void write_delta(BinaryWriter& w, const BasicSnapshotDelta<Blob>& delta) {
  w.u64(delta.site_id);
  w.u64(delta.epoch);
  w.u64(delta.updates);
  w.u64(delta.seal_unix_ns);
  w.u64(delta.seal_steady_ns);
  w.u64(delta.spool_unix_ns);
  w.u64(delta.ship_unix_ns);
  w.str(delta.sketch_blob);
}

}  // namespace

std::string encode_frame(MsgType type, std::string_view payload) {
  return build_frame(type, payload.size(),
                     [&](std::string& frame) { frame.append(payload); });
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  buffer_.append(data, size);
}

std::optional<Frame> FrameDecoder::next() {
  const auto view = next_view();
  if (!view) return std::nullopt;
  Frame frame;
  frame.type = view->type;
  frame.version = view->version;
  frame.payload = std::string(view->payload);
  return frame;
}

std::optional<FrameView> FrameDecoder::next_view() {
  const char* head = buffer_.data() + consumed_;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::nullopt;
  if (get_u32(head) != kWireMagic) throw WireError("frame: bad magic");
  if (static_cast<std::uint8_t>(head[4]) != kWireVersion)
    throw WireError("frame: unsupported version");
  const auto type = static_cast<std::uint8_t>(head[5]);
  if (!valid_type(type)) throw WireError("frame: unknown message type");
  const std::uint32_t payload_len = get_u32(head + 6);
  if (payload_len > max_payload_)
    throw WireError("frame: oversized payload length");
  const std::size_t total =
      kFrameHeaderBytes + payload_len + kFrameCrcBytes;
  if (available < total) return std::nullopt;
  const std::uint32_t expected = get_u32(head + kFrameHeaderBytes + payload_len);
  const std::uint32_t computed =
      crc32(head + 4, kFrameHeaderBytes - 4 + payload_len);
  if (expected != computed) throw WireError("frame: CRC mismatch");
  consumed_ += total;
  return FrameView{static_cast<MsgType>(type), kWireVersion,
                   std::string_view(head + kFrameHeaderBytes, payload_len)};
}

std::string Hello::encode() const {
  return encode_payload([&](BinaryWriter& w) {
    w.u64(site_id);
    w.u64(params_fingerprint);
    w.u64(epoch_updates);
    w.u64(first_epoch);
    w.u64(dropped_epochs);
    w.u8(static_cast<std::uint8_t>(role));
    w.u32(map_version);
  });
}

Hello Hello::decode(std::string_view payload) {
  Hello hello;
  decode_payload(payload, [&](BinaryReader& r) {
    hello.site_id = r.u64();
    hello.params_fingerprint = r.u64();
    hello.epoch_updates = r.u64();
    hello.first_epoch = r.u64();
    hello.dropped_epochs = r.u64();
    const std::uint8_t role = r.u8();
    if (role > static_cast<std::uint8_t>(PeerRole::kLeaf))
      throw WireError("hello: unknown role");
    hello.role = static_cast<PeerRole>(role);
    hello.map_version = r.u32();
  });
  return hello;
}

template <typename Blob>
std::string BasicSnapshotDelta<Blob>::encode() const {
  return encode_payload([&](BinaryWriter& w) { write_delta(w, *this); });
}

template <typename Blob>
std::string BasicSnapshotDelta<Blob>::encode_frame() const {
  // The fixed fields add at most 64 bytes to the blob.
  return build_frame(MsgType::kSnapshotDelta, sketch_blob.size() + 64,
                     [&](std::string& frame) {
                       BinaryWriter w(frame);
                       write_delta(w, *this);
                     });
}

template <typename Blob>
BasicSnapshotDelta<Blob> BasicSnapshotDelta<Blob>::decode(
    std::string_view payload, std::uint8_t version) {
  if (version != kWireVersion)
    throw WireError("snapshot delta: unsupported version");
  BasicSnapshotDelta delta;
  decode_payload(payload, [&](BinaryReader& r) {
    delta.site_id = r.u64();
    delta.epoch = r.u64();
    delta.updates = r.u64();
    delta.seal_unix_ns = r.u64();
    delta.seal_steady_ns = r.u64();
    delta.spool_unix_ns = r.u64();
    delta.ship_unix_ns = r.u64();
    delta.sketch_blob = Blob(r.str_view());
  });
  return delta;
}

template struct BasicSnapshotDelta<std::string>;
template struct BasicSnapshotDelta<std::string_view>;

std::string Heartbeat::encode() const {
  return encode_payload([&](BinaryWriter& w) {
    w.u64(site_id);
    w.u64(current_epoch);
    w.u64(spooled_epochs);
    w.u64(dropped_epochs);
  });
}

Heartbeat Heartbeat::decode(std::string_view payload) {
  Heartbeat heartbeat;
  decode_payload(payload, [&](BinaryReader& r) {
    heartbeat.site_id = r.u64();
    heartbeat.current_epoch = r.u64();
    heartbeat.spooled_epochs = r.u64();
    heartbeat.dropped_epochs = r.u64();
  });
  return heartbeat;
}

std::string Ack::encode() const {
  return encode_payload([&](BinaryWriter& w) {
    w.u64(epoch);
    w.u8(static_cast<std::uint8_t>(status));
    w.u32(retry_after_ms);
    w.u32(map_version);
    w.str(map_blob);
  });
}

Ack Ack::decode(std::string_view payload) {
  Ack ack;
  decode_payload(payload, [&](BinaryReader& r) {
    ack.epoch = r.u64();
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(AckStatus::kWrongShard))
      throw WireError("ack: unknown status");
    ack.status = static_cast<AckStatus>(status);
    ack.retry_after_ms = r.u32();
    ack.map_version = r.u32();
    ack.map_blob = r.str();
  });
  return ack;
}

std::string Bye::encode() const {
  return encode_payload([&](BinaryWriter& w) { w.u64(site_id); });
}

Bye Bye::decode(std::string_view payload) {
  Bye bye;
  decode_payload(payload, [&](BinaryReader& r) { bye.site_id = r.u64(); });
  return bye;
}

}  // namespace dcs::service

#include "sketch/sketch_blob.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

namespace dcs {

namespace {

constexpr std::uint32_t kSketchMagic = 0x53434344;  // "DCCS"
// v1: dense int64 levels. v2: v1 plus the CRC-32 footer.
// v3: the compact canonical form (sketch_blob.hpp); the only one read.
constexpr std::uint8_t kSketchVersion = 3;

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
}

/// Width code of the narrowest of 1/2/4/8 B that holds every zigzag value
/// OR-ed into `bits`.
int width_code(std::uint64_t bits) noexcept {
  if (bits >> 8 == 0) return 0;
  if (bits >> 16 == 0) return 1;
  if (bits >> 32 == 0) return 2;
  return 3;
}

std::size_t bitmap_words(const DcsParams& params) {
  const std::size_t buckets =
      static_cast<std::size_t>(params.num_tables) * params.buckets_per_table;
  return (buckets + 63) / 64;
}

/// OR of the `bytes` bytes at `in`, folded onto one counter of
/// `width_bytes` bytes: `in` holds whole counters of that width, so every
/// 8-byte chunk starts on a counter boundary.
std::uint64_t or_counters(const char* in, std::size_t bytes,
                          int width_bytes) {
  std::uint64_t bits = 0;
  std::size_t at = 0;
  for (; at + 8 <= bytes; at += 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, in + at, 8);
    bits |= chunk;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, in + at, bytes - at);
  bits |= tail;
  for (int fold = 32; fold >= width_bytes * 8; fold /= 2)
    bits = (bits | (bits >> fold)) & ((1ULL << fold) - 1);
  return bits;
}

/// OR of zigzag(counters[k]) over n counters.
std::uint64_t zigzag_or(const std::int64_t* counters, std::size_t n) {
  std::uint64_t bits = 0;
  for (std::size_t k = 0; k < n; ++k) bits |= zigzag(counters[k]);
  return bits;
}

template <typename U>
void pack_as(const std::int64_t* counters, std::size_t n, char* out) {
  for (std::size_t k = 0; k < n; ++k) {
    const U z = static_cast<U>(zigzag(counters[k]));
    std::memcpy(out + k * sizeof(U), &z, sizeof(U));
  }
}

/// Write n counters zigzag encoded at 1 << code bytes each.
void pack_counters(const std::int64_t* counters, std::size_t n, int code,
                   char* out) {
  switch (code) {
    case 0: pack_as<std::uint8_t>(counters, n, out); break;
    case 1: pack_as<std::uint16_t>(counters, n, out); break;
    case 2: pack_as<std::uint32_t>(counters, n, out); break;
    default: pack_as<std::uint64_t>(counters, n, out); break;
  }
}

template <typename U>
void add_as(const char* in, std::size_t n, std::int64_t* out) {
  for (std::size_t k = 0; k < n; ++k) {
    U z;
    std::memcpy(&z, in + k * sizeof(U), sizeof(U));
    out[k] += unzigzag(z);
  }
}

/// Decode n counters of 1 << code bytes and add them into `out`.
void add_counters(const char* in, std::size_t n, int code,
                  std::int64_t* out) {
  switch (code) {
    case 0: add_as<std::uint8_t>(in, n, out); break;
    case 1: add_as<std::uint16_t>(in, n, out); break;
    case 2: add_as<std::uint32_t>(in, n, out); break;
    default: add_as<std::uint64_t>(in, n, out); break;
  }
}

}  // namespace

SketchBlob SketchBlob::parse(std::string_view bytes) {
  BinaryReader reader(bytes);
  SketchBlob parsed;
  const std::uint64_t mask = blob::read_prefix(reader, parsed.params_);
  std::string unused;  // a memory reader hands out views
  parsed.levels_.reserve(static_cast<std::size_t>(std::popcount(mask)));
  for (std::uint64_t m = mask; m != 0; m &= m - 1)
    parsed.levels_.push_back(blob::read_level(reader, parsed.params_,
                                              std::countr_zero(m), unused));
  read_crc_footer(reader);
  if (reader.remaining() != 0)
    throw SerializeError("sketch blob: trailing bytes");
  return parsed;
}

namespace blob {

void write_prefix(BinaryWriter& writer, const DcsParams& params,
                  std::uint64_t levels) {
  writer.crc_reset();  // the footer covers the header too
  write_header(writer, kSketchMagic, kSketchVersion);
  writer.i32(params.num_tables);
  writer.u32(params.buckets_per_table);
  writer.i32(params.key_bits);
  writer.i32(params.max_level);
  writer.f64(params.epsilon);
  writer.f64(params.sample_target_fraction);
  writer.u8(params.collision_correction ? 1 : 0);
  writer.u64(params.seed);
  writer.u64(levels);
}

std::uint64_t read_prefix(BinaryReader& reader, DcsParams& params) {
  reader.crc_reset();
  if (reader.u32() != kSketchMagic)
    throw SerializeError("sketch blob: bad magic");
  const std::uint8_t version = reader.u8();
  if (version != kSketchVersion) {
    if (version != 0 && version < kSketchVersion)
      throw StaleFormatError(
          "sketch blob: version " + std::to_string(version) +
          " was written before the compact blob format (version " +
          std::to_string(kSketchVersion) +
          "); drain that state with the build that wrote it and start "
          "this one empty (docs/RUNBOOK.md)");
    throw SerializeError("sketch blob: unsupported version");
  }
  params.num_tables = reader.i32();
  params.buckets_per_table = reader.u32();
  params.key_bits = reader.i32();
  params.max_level = reader.i32();
  params.epsilon = reader.f64();
  params.sample_target_fraction = reader.f64();
  params.collision_correction = reader.u8() != 0;
  params.seed = reader.u64();
  try {
    params.validate();
  } catch (const std::invalid_argument& error) {
    throw SerializeError(std::string("sketch blob: ") + error.what());
  }
  const std::uint64_t levels = reader.u64();
  if (params.max_level < 63 && (levels >> (params.max_level + 1)) != 0)
    throw SerializeError("sketch blob: level mask past max_level");
  return levels;
}

BlobLevel read_level(BinaryReader& reader, const DcsParams& params, int level,
                     std::string& scratch) {
  BlobLevel out;
  out.level = level;
  const std::uint8_t code = reader.u8();
  if (code > 3) throw SerializeError("sketch blob: bad width code");
  out.width_bytes = 1 << code;
  const std::size_t buckets =
      static_cast<std::size_t>(params.num_tables) * params.buckets_per_table;
  out.live.resize(bitmap_words(params));
  std::size_t live = 0;
  for (std::uint64_t& word : out.live) {
    word = reader.u64();
    live += static_cast<std::size_t>(std::popcount(word));
  }
  if (buckets % 64 != 0 && (out.live.back() >> (buckets % 64)) != 0)
    throw SerializeError("sketch blob: live bit past the last bucket");
  const std::size_t bucket_bytes = params.signature_width() << code;
  out.payload = reader.bytes(live * bucket_bytes, scratch);

  // Canonical form: every live bucket holds a nonzero counter, and some
  // counter of the level needs the full width.
  std::uint64_t level_bits = 0;
  for (std::size_t b = 0; b < live; ++b) {
    const std::uint64_t bits = or_counters(
        out.payload.data() + b * bucket_bytes, bucket_bytes, out.width_bytes);
    if (bits == 0) throw SerializeError("sketch blob: all-zero live bucket");
    level_bits |= bits;
  }
  if (width_code(level_bits) != code)
    throw SerializeError("sketch blob: counter width is not the narrowest");
  return out;
}

void add_level(const BlobLevel& level, const DcsParams& params,
               std::int64_t* counters) {
  const std::size_t width = params.signature_width();
  const int code = std::countr_zero(static_cast<unsigned>(level.width_bytes));
  const std::size_t bucket_bytes = width << code;
  const char* in = level.payload.data();
  for (std::size_t w = 0; w < level.live.size(); ++w) {
    for (std::uint64_t bits = level.live[w]; bits != 0; bits &= bits - 1) {
      const std::size_t bucket =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      add_counters(in, width, code, counters + bucket * width);
      in += bucket_bytes;
    }
  }
}

void add_bucket(const char* packed, int width_bytes, const DcsParams& params,
                std::int64_t* signature) {
  add_counters(packed, params.signature_width(),
               std::countr_zero(static_cast<unsigned>(width_bytes)),
               signature);
}

LevelPacker::LevelPacker(const DcsParams& params)
    : width_(params.signature_width()), live_(bitmap_words(params)) {}

void LevelPacker::add(std::size_t index, const std::int64_t* signature) {
  const std::uint64_t bits = zigzag_or(signature, width_);
  if (bits == 0) return;
  zigzag_or_ |= bits;
  live_[index / 64] |= 1ULL << (index % 64);
  counters_.insert(counters_.end(), signature, signature + width_);
}

void LevelPacker::write(BinaryWriter& writer) {
  const int code = width_code(zigzag_or_);
  const std::size_t bitmap_bytes = live_.size() * sizeof(std::uint64_t);
  writer.u8(static_cast<std::uint8_t>(code));
  writer.fill(bitmap_bytes + (counters_.size() << code), [&](char* out) {
    std::memcpy(out, live_.data(), bitmap_bytes);
    pack_counters(counters_.data(), counters_.size(), code,
                  out + bitmap_bytes);
  });
  std::fill(live_.begin(), live_.end(), 0);
  counters_.clear();
  zigzag_or_ = 0;
}

}  // namespace blob

}  // namespace dcs

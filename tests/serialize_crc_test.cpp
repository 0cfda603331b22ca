// CRC-32 integrity footer on serialized sketch blobs: a clean round trip
// succeeds, any single bit flip or truncation is rejected with
// SerializeError, and the checksum primitive matches its published test
// vector. Both CRC kernels (the dispatched crc32() and the portable table
// loop) are checked against a bit-at-a-time reference.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "stream/generator.hpp"

namespace dcs {
namespace {

// Computed during dynamic initialization, before main(): crc32() must not
// depend on any other translation unit's initializers having run.
const std::uint32_t kCrcAtStaticInit = crc32("123456789", 9);

/// The definition, one bit at a time: no table, no folding.
std::uint32_t crc32_reference(const unsigned char* data, std::size_t size,
                              std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> bytes(size);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

DistinctCountSketch populated_sketch() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 17;
  DistinctCountSketch sketch(params);
  ZipfWorkloadConfig config;
  config.u_pairs = 2000;
  config.num_destinations = 50;
  config.seed = 5;
  const ZipfWorkload workload(config);
  for (const FlowUpdate& u : workload.updates())
    sketch.update(u.dest, u.source, u.delta);
  return sketch;
}

std::string serialized(const DistinctCountSketch& sketch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return out.str();
}

TEST(SerializeCrc, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Running continuation equals one-shot computation.
  const std::uint32_t first = crc32("1234", 4);
  EXPECT_EQ(crc32("56789", 5, first), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_portable("123456789", 9, 0), 0xCBF43926u);
  EXPECT_EQ(kCrcAtStaticInit, 0xCBF43926u);
}

TEST(SerializeCrc, KernelsMatchBitwiseReferenceAtEveryShortLength) {
  // 0..4096 covers the portable-only sizes (< 64), every 16-byte tail
  // remainder, and 1..64 folds of 64 bytes.
  const auto bytes = random_bytes(4096 + 16, 7);
  for (std::size_t size = 0; size <= 4096; ++size) {
    const unsigned char* data = bytes.data() + size % 16;
    const std::uint32_t seed = static_cast<std::uint32_t>(size * 0x9E3779B9u);
    const std::uint32_t expected = crc32_reference(data, size, seed);
    ASSERT_EQ(crc32(data, size, seed), expected) << "size " << size;
    ASSERT_EQ(detail::crc32_portable(data, size, seed), expected)
        << "size " << size;
  }
}

TEST(SerializeCrc, KernelsMatchBitwiseReferenceAtEveryAlignment) {
  const auto bytes = random_bytes((1u << 20) + 16, 11);
  std::mt19937 rng(13);
  for (std::size_t align = 0; align < 16; ++align) {
    const std::size_t size =
        std::uniform_int_distribution<std::size_t>(1, 1u << 20)(rng);
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    const unsigned char* data = bytes.data() + align;
    const std::uint32_t expected = crc32_reference(data, size, seed);
    EXPECT_EQ(crc32(data, size, seed), expected)
        << "size " << size << " alignment " << align;
    EXPECT_EQ(detail::crc32_portable(data, size, seed), expected)
        << "size " << size << " alignment " << align;
  }
}

TEST(SerializeCrc, ChainedSeedsEqualOneShot) {
  // Splitting anywhere, including inside a fold block and between two
  // runs long enough to fold, must not change the result.
  const auto bytes = random_bytes(3000, 17);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{64},
                                  std::size_t{100}, std::size_t{1029},
                                  std::size_t{2999}, std::size_t{3000}}) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
    const std::uint32_t portable_head =
        detail::crc32_portable(bytes.data(), split, 0);
    EXPECT_EQ(detail::crc32_portable(bytes.data() + split,
                                     bytes.size() - split, portable_head),
              whole)
        << "split " << split;
  }
}

TEST(SerializeCrc, CleanRoundTrip) {
  const DistinctCountSketch original = populated_sketch();
  std::istringstream in(serialized(original), std::ios::binary);
  BinaryReader reader(in);
  const DistinctCountSketch restored = DistinctCountSketch::deserialize(reader);
  EXPECT_TRUE(original == restored);
}

TEST(SerializeCrc, EveryRegionRejectsBitFlips) {
  const std::string blob = serialized(populated_sketch());
  ASSERT_GT(blob.size(), 64u);
  // Flip one bit in several positions spread across the blob: params region,
  // counter payload, and the footer itself. The magic/version bytes already
  // fail the header check; everything else must fail the CRC.
  for (const std::size_t pos :
       {std::size_t{6}, blob.size() / 2, blob.size() - 6, blob.size() - 1}) {
    std::string corrupted = blob;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    std::istringstream in(corrupted, std::ios::binary);
    BinaryReader reader(in);
    EXPECT_THROW(DistinctCountSketch::deserialize(reader), SerializeError)
        << "bit flip at offset " << pos << " was not detected";
  }
}

TEST(SerializeCrc, RejectsTruncation) {
  const std::string blob = serialized(populated_sketch());
  for (const std::size_t keep : {blob.size() - 1, blob.size() - 4, blob.size() / 2}) {
    std::istringstream in(blob.substr(0, keep), std::ios::binary);
    BinaryReader reader(in);
    EXPECT_THROW(DistinctCountSketch::deserialize(reader), SerializeError)
        << "truncation to " << keep << " bytes was not detected";
  }
}

TEST(SerializeCrc, RejectsBadMagic) {
  std::string blob = serialized(populated_sketch());
  blob[0] = 'X';
  std::istringstream in(blob, std::ios::binary);
  BinaryReader reader(in);
  EXPECT_THROW(DistinctCountSketch::deserialize(reader), SerializeError);
}

TEST(SerializeCrc, MemoryWriterAndReaderMatchTheStreamForms) {
  const DistinctCountSketch original = populated_sketch();
  std::string blob;
  BinaryWriter writer(blob);
  original.serialize(writer);
  EXPECT_EQ(blob, serialized(original));

  BinaryReader reader{std::string_view(blob)};
  EXPECT_TRUE(DistinctCountSketch::deserialize(reader) == original);
  EXPECT_EQ(reader.remaining(), 0u);

  const std::string_view truncated(blob.data(), blob.size() - 1);
  BinaryReader short_reader(truncated);
  EXPECT_THROW(DistinctCountSketch::deserialize(short_reader), SerializeError);
}

TEST(SerializeCrc, RunningCrcStartsAtCrcReset) {
  // Writers and readers without a footer compute no CRC at all.
  std::string bytes;
  BinaryWriter writer(bytes);
  writer.u64(42);
  EXPECT_EQ(writer.crc(), 0u);
  writer.crc_reset();
  writer.str("footer-covered");
  EXPECT_EQ(writer.crc(), crc32(bytes.data() + 8, bytes.size() - 8));

  BinaryReader reader{std::string_view(bytes)};
  EXPECT_EQ(reader.u64(), 42u);
  EXPECT_EQ(reader.crc(), 0u);
  reader.crc_reset();
  EXPECT_EQ(reader.str_view(), "footer-covered");
  EXPECT_EQ(reader.crc(), writer.crc());
}

TEST(SerializeCrc, WriterReaderRunningCrcAgree) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  writer.crc_reset();
  writer.u64(0xdeadbeefcafef00dULL);
  writer.str("distinct-count");
  const std::uint32_t written_crc = writer.crc();

  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader reader(in);
  reader.crc_reset();
  (void)reader.u64();
  (void)reader.str();
  EXPECT_EQ(reader.crc(), written_crc);
}

}  // namespace
}  // namespace dcs

// The sketch blob (sketch/sketch_blob.hpp) is the one byte form of a sketch:
// the agent's seal writes it, serialize writes it, and the collector merges
// straight from it. Checked here:
//  * a property grid over r x s x key_bits x skew, with deletions, spilled
//    levels (counters of every width) and net-zero levels: seal ==
//    serialize, deserialize then serialize is the identity, and a merge
//    from the blob equals a merge of the deserialized sketch, byte for byte
//    and through TrackingDcs::check_invariants(). Both merges are
//    incremental, so both are also held to a TrackingDcs constructed over
//    the summed counters;
//  * a seeded mutation test: truncations, bit flips with and without a
//    recomputed CRC, a bitmap that disagrees with the payload length, bad
//    and over-wide width codes, an all-zero live bucket, bits past r*s, a
//    level past max_level, trailing bytes and an older version. Each must
//    throw and leave the merge target untouched; a flip the reader accepts
//    must be another canonical blob. Run under ASan+UBSan in CI;
//  * one small blob pinned as golden hex.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "common/serialize.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/epoch_sketch.hpp"
#include "sketch/sketch_blob.hpp"
#include "sketch/tracking_dcs.hpp"

namespace dcs {
namespace {

struct KeyUpdate {
  PairKey key;
  int delta;
};

std::uint64_t key_mask(int key_bits) {
  return key_bits == 64 ? ~0ULL : (1ULL << key_bits) - 1;
}

std::string blob_of(const DistinctCountSketch& sketch) {
  std::string blob;
  BinaryWriter writer(blob);
  sketch.serialize(writer);
  return blob;
}

DistinctCountSketch decode(const std::string& blob) {
  BinaryReader reader{std::string_view(blob)};
  return DistinctCountSketch::deserialize(reader);
}

/// `n` inserts (a `skew` share on a 16-key hot set), deletions of a fifth
/// of them, an insert/delete pair that nets to zero, and a few deltas far
/// past the int16 range, so some levels spill and some counters need 4 or
/// 8 bytes.
std::vector<KeyUpdate> make_updates(Xoshiro256& rng, int key_bits,
                                    double skew, std::size_t n) {
  const std::uint64_t mask = key_mask(key_bits);
  std::vector<PairKey> hot(16);
  for (PairKey& key : hot) key = rng() & mask;
  std::vector<KeyUpdate> updates;
  for (std::size_t i = 0; i < n; ++i)
    updates.push_back(
        {rng.uniform() < skew ? hot[rng.bounded(hot.size())] : rng() & mask,
         +1});
  for (std::size_t i = 0; i < n / 5; ++i)
    updates.push_back({updates[rng.bounded(n)].key, -1});
  const PairKey zero_net = rng() & mask;
  updates.push_back({zero_net, +1});
  updates.push_back({zero_net, -1});
  updates.push_back({hot[0], 70'000});
  updates.push_back({hot[1], -3'000'000});
  updates.push_back({hot[2], 2'000'000'000});
  updates.push_back({hot[2], 2'000'000'000});
  for (std::size_t i = updates.size(); i > 1; --i)
    std::swap(updates[i - 1], updates[rng.bounded(i)]);
  return updates;
}

// ---------------------------------------------------------------------------
// Property grid.
// ---------------------------------------------------------------------------
using Shape = std::tuple<int, std::uint32_t, int, double>;  // r, s, bits, skew

class SketchBlobGrid : public ::testing::TestWithParam<Shape> {};

TEST_P(SketchBlobGrid, SealSerializeDeserializeAndMergeAgree) {
  const auto [r, s, key_bits, skew] = GetParam();
  DcsParams params;
  params.num_tables = r;
  params.buckets_per_table = s;
  params.key_bits = key_bits;
  params.seed = 500 + static_cast<std::uint64_t>(r * 7 + key_bits) + s;
  Xoshiro256 rng(params.seed);
  EpochSketch epoch(params);
  TrackingDcs from_blob(params);
  TrackingDcs from_sketch(params);
  DistinctCountSketch total(params);
  for (int e = 0; e < 3; ++e) {
    const auto updates =
        make_updates(rng, key_bits, skew, 300 + 700 * static_cast<std::size_t>(e));
    DistinctCountSketch reference(params);
    for (const KeyUpdate& u : updates) {
      reference.update_key(u.key, u.delta);
      epoch.update_key(u.key, u.delta);
    }
    const std::string blob = blob_of(reference);
    ASSERT_EQ(epoch.seal(), blob) << "epoch " << e;

    const DistinctCountSketch decoded = decode(blob);
    EXPECT_TRUE(decoded == reference);
    EXPECT_EQ(blob_of(decoded), blob);

    from_blob.merge_sketch(SketchBlob::parse(blob));
    from_sketch.merge_sketch(decoded);
    total.merge(reference);
    EXPECT_EQ(blob_of(from_blob.sketch()), blob_of(from_sketch.sketch()));
    EXPECT_EQ(blob_of(from_blob.sketch()), blob_of(total));
    EXPECT_TRUE(from_blob.check_invariants());
    EXPECT_TRUE(from_sketch.check_invariants());
  }
  EXPECT_TRUE(from_blob.check_invariants());
  EXPECT_EQ(from_blob.top_k(5).entries, from_sketch.top_k(5).entries);
  const TrackingDcs constructed(total);
  EXPECT_EQ(from_blob.top_k(5).entries, constructed.top_k(5).entries);
  EXPECT_EQ(from_sketch.top_k(5).entries, constructed.top_k(5).entries);
}

INSTANTIATE_TEST_SUITE_P(
    RsBitsSkew, SketchBlobGrid,
    ::testing::Combine(::testing::Values(1, 3, 5),
                       ::testing::Values(16u, 100u, 128u),
                       ::testing::Values(20, 64),
                       ::testing::Values(0.0, 0.9)));

TEST(SketchBlob, StreamAndMemoryReadersAgree) {
  DcsParams params;
  params.buckets_per_table = 64;
  Xoshiro256 rng(3);
  DistinctCountSketch sketch(params);
  for (const KeyUpdate& u : make_updates(rng, 64, 0.5, 2000))
    sketch.update_key(u.key, u.delta);
  std::ostringstream out(std::ios::binary);
  BinaryWriter stream_writer(out);
  sketch.serialize(stream_writer);
  const std::string blob = blob_of(sketch);
  ASSERT_EQ(out.str(), blob);
  std::istringstream in(blob, std::ios::binary);
  BinaryReader stream_reader(in);
  EXPECT_TRUE(DistinctCountSketch::deserialize(stream_reader) == sketch);
}

TEST(SketchBlob, MergeRejectsAnotherSeedBeforeAddingAnything) {
  DcsParams params;
  params.buckets_per_table = 32;
  DistinctCountSketch sketch(params);
  sketch.update_key(7, +1);
  const std::string blob = blob_of(sketch);
  DcsParams other = params;
  other.seed = 1;
  DistinctCountSketch target(other);
  target.update_key(9, +1);
  const std::string before = blob_of(target);
  EXPECT_THROW(target.merge(SketchBlob::parse(blob)), std::invalid_argument);
  EXPECT_EQ(blob_of(target), before);
}

// ---------------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------------
void recompute_crc(std::string& blob) {
  const std::uint32_t crc = crc32(blob.data(), blob.size() - 4);
  std::memcpy(blob.data() + blob.size() - 4, &crc, 4);
}

/// A target sketch with content of its own, and its blob.
struct Target {
  DistinctCountSketch sketch;
  std::string before;
};

Target make_target(const DcsParams& params) {
  Target target{DistinctCountSketch(params), {}};
  for (PairKey k = 1; k <= 40; ++k) target.sketch.update_key(k * 977, +1);
  target.before = blob_of(target.sketch);
  return target;
}

/// The mutated blob must be refused by every reader, and the merge target
/// left as it was.
void expect_refused(const std::string& mutated, Target& target,
                    const char* what) {
  SCOPED_TRACE(what);
  EXPECT_THROW(
      {
        const SketchBlob parsed = SketchBlob::parse(mutated);
        target.sketch.merge(parsed);
      },
      SerializeError);
  EXPECT_THROW(decode(mutated), SerializeError);
  std::istringstream in(mutated, std::ios::binary);
  BinaryReader stream_reader(in);
  EXPECT_THROW(DistinctCountSketch::deserialize(stream_reader),
               SerializeError);
  EXPECT_EQ(blob_of(target.sketch), target.before);
}

/// The mutated blob either throws, target untouched, or is itself a
/// canonical blob: the one its decoded sketch writes.
void expect_refused_or_canonical(const std::string& mutated, Target& target) {
  try {
    const SketchBlob parsed = SketchBlob::parse(mutated);
    DistinctCountSketch decoded = decode(mutated);
    EXPECT_EQ(blob_of(decoded), mutated);
  } catch (const SerializeError&) {
    EXPECT_EQ(blob_of(target.sketch), target.before);
  }
}

/// Byte offset of level `index`'s width code in `blob`.
std::size_t level_offset(const std::string& blob, std::size_t index) {
  const SketchBlob parsed = SketchBlob::parse(blob);
  const BlobLevel& level = parsed.levels()[index];
  const std::size_t bitmap_bytes = level.live.size() * 8;
  return static_cast<std::size_t>(level.payload.data() - blob.data()) -
         bitmap_bytes - 1;
}

/// Re-encode level `index` of `blob` at width code `code`, the bitmap as
/// given by `live`: `extra` all-zero buckets are inserted where `live` has
/// bits the original does not.
std::string rewrite_level(const std::string& blob, const DcsParams& params,
                          std::size_t index, int code,
                          std::vector<std::uint64_t> live) {
  const SketchBlob parsed = SketchBlob::parse(blob);
  const BlobLevel& level = parsed.levels()[index];
  const std::size_t width = params.signature_width();
  const std::size_t begin = level_offset(blob, index);
  const std::size_t end = static_cast<std::size_t>(
      level.payload.data() + level.payload.size() - blob.data());
  std::string out = blob.substr(0, begin);
  out.push_back(static_cast<char>(code));
  out.append(reinterpret_cast<const char*>(live.data()), live.size() * 8);
  const char* in = level.payload.data();
  for (std::size_t bucket = 0; bucket < live.size() * 64; ++bucket) {
    const bool was = (level.live[bucket / 64] >> (bucket % 64)) & 1;
    const bool now = (live[bucket / 64] >> (bucket % 64)) & 1;
    for (std::size_t k = 0; k < width; ++k) {
      std::uint64_t z = 0;
      if (was) {
        std::memcpy(&z, in, static_cast<std::size_t>(level.width_bytes));
        in += level.width_bytes;
      }
      if (now) out.append(reinterpret_cast<const char*>(&z), 1u << code);
    }
  }
  out.append(blob, end, std::string::npos);
  recompute_crc(out);
  return out;
}

TEST(SketchBlobMutation, SeededCorruptionsAreRefused) {
  DcsParams params;
  params.num_tables = 1;
  params.buckets_per_table = 100;  // 100 buckets: bits 36..63 of word 1 spare
  params.max_level = 20;
  params.seed = 77;
  Xoshiro256 rng(2024);
  DistinctCountSketch sketch(params);
  for (const KeyUpdate& u : make_updates(rng, 64, 0.3, 600))
    sketch.update_key(u.key, u.delta);
  const std::string blob = blob_of(sketch);
  const SketchBlob parsed = SketchBlob::parse(blob);
  ASSERT_GE(parsed.levels().size(), 3u);
  Target target = make_target(params);

  // Truncations, at every length up to the first level and sampled beyond.
  for (std::size_t keep = 0; keep < blob.size(); keep += keep < 80 ? 1 : 37)
    expect_refused(blob.substr(0, keep), target, "truncation");
  // Trailing bytes.
  // Trailing bytes: a standalone blob ends at its footer (deserialize may
  // read a blob embedded in a longer stream, so only parse checks this).
  EXPECT_THROW(SketchBlob::parse(blob + '\0'), SerializeError);
  // Bit flips without a CRC fix: the footer catches every one.
  for (int i = 0; i < 300; ++i) {
    std::string flipped = blob;
    flipped[rng.bounded(flipped.size())] ^=
        static_cast<char>(1u << rng.bounded(8));
    expect_refused(flipped, target, "bit flip");
  }
  // Bit flips under a recomputed CRC: refused, or another canonical blob.
  for (int i = 0; i < 2000; ++i) {
    std::string flipped = blob;
    flipped[rng.bounded(flipped.size() - 4)] ^=
        static_cast<char>(1u << rng.bounded(8));
    recompute_crc(flipped);
    expect_refused_or_canonical(flipped, target);
  }

  // Structural lies, each with a valid CRC.
  for (std::size_t index = 0; index < parsed.levels().size(); ++index) {
    const BlobLevel& level = parsed.levels()[index];
    const std::size_t at = level_offset(blob, index);
    const int code = std::countr_zero(static_cast<unsigned>(level.width_bytes));

    std::string bad_code = blob;
    bad_code[at] = 4;
    recompute_crc(bad_code);
    expect_refused(bad_code, target, "width code 4");

    if (code < 3)
      expect_refused(rewrite_level(blob, params, index, code + 1, level.live),
                     target, "over-wide width");
    if (code > 0 && !level.payload.empty()) {
      std::string narrow = blob;
      narrow[at] = static_cast<char>(code - 1);
      recompute_crc(narrow);
      expect_refused(narrow, target, "width narrower than the payload");
    }

    // Find a bucket that is not live: claim it with and without bytes.
    std::size_t dead = 0;
    while ((level.live[dead / 64] >> (dead % 64)) & 1) ++dead;
    if (dead < 100) {
      std::vector<std::uint64_t> live = level.live;
      live[dead / 64] |= 1ULL << (dead % 64);
      expect_refused(rewrite_level(blob, params, index, code, live), target,
                     "all-zero live bucket");
      std::string no_bytes = blob;
      std::memcpy(no_bytes.data() + at + 1, live.data(), live.size() * 8);
      recompute_crc(no_bytes);
      expect_refused(no_bytes, target, "bitmap longer than the payload");
    }
    if (!level.payload.empty()) {
      std::vector<std::uint64_t> live = level.live;
      live[0] != 0 ? live[0] &= live[0] - 1 : live[1] &= live[1] - 1;
      std::string extra_bytes = blob;
      std::memcpy(extra_bytes.data() + at + 1, live.data(), live.size() * 8);
      recompute_crc(extra_bytes);
      expect_refused(extra_bytes, target, "bitmap shorter than the payload");
    }
    std::string past = blob;
    past[at + 1 + 8 + 5] ^= 0x10;  // bucket 64 + 44: past the 100 buckets
    recompute_crc(past);
    expect_refused(past, target, "live bit past r*s");
  }

  // The level mask names a level past max_level.
  std::string deep = blob;
  const std::size_t mask_at = 4 + 1 + 4 + 4 + 4 + 4 + 8 + 8 + 1 + 8;
  deep[mask_at + 3] |= 0x01;  // level 24 > max_level 20
  recompute_crc(deep);
  expect_refused(deep, target, "level past max_level");

  // A blob of the older dense format is refused as stale, by name.
  std::string stale = blob;
  stale[4] = 2;
  recompute_crc(stale);
  EXPECT_THROW(SketchBlob::parse(stale), StaleFormatError);
  EXPECT_THROW(decode(stale), StaleFormatError);

  // The intact blob still merges.
  target.sketch.merge(SketchBlob::parse(blob));
  DistinctCountSketch expected = make_target(params).sketch;
  expected.merge(sketch);
  EXPECT_TRUE(target.sketch == expected);
}

// ---------------------------------------------------------------------------
// Golden bytes: one small blob, pinned.
// ---------------------------------------------------------------------------
std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 15]);
  }
  return out;
}

TEST(SketchBlob, GoldenBytes) {
  DcsParams params;
  params.num_tables = 1;
  params.buckets_per_table = 4;
  params.key_bits = 4;
  params.max_level = 2;
  params.seed = 1;
  DistinctCountSketch sketch(params);
  // Level 0: two live buckets at 1 B. Level 1: one bucket whose total
  // needs 2 B. Level 2: touched, but it nets to zero, so no live bucket.
  sketch.update_key(0x5, +1);
  sketch.update_key(0x8, +2);
  sketch.update_key(0x7, +300);
  sketch.update_key(0x6, +1);
  sketch.update_key(0x6, -1);
  EXPECT_EQ(hex(blob_of(sketch)),
            "4443435303"                        // magic "DCCS", version 3
            "01000000" "04000000" "04000000"    // r 1, s 4, key_bits 4
            "02000000"                          // max_level 2
            "000000000000d03f" "000000000000f03f"  // epsilon, sample target
            "00" "0100000000000000"             // correction, seed
            "0700000000000000"                  // levels 0, 1, 2
            "00" "0a00000000000000"             // level 0: 1 B, buckets 1, 3
            "0202000200" "0400000004"           //   key 0x5 +1, key 0x8 +2
            "01" "0800000000000000"             // level 1: 2 B, bucket 3
            "5802" "5802" "5802" "5802" "0000"  //   key 0x7 +300
            "00" "0000000000000000"             // level 2: 1 B, none live
            "ef280fe8");                        // CRC-32
}

}  // namespace
}  // namespace dcs

// EpochSketch is the agent's int16 ingest form of a Distinct-Count Sketch.
// Its contract is byte identity: every sealed epoch must be exactly the blob
// DistinctCountSketch::serialize writes for a fresh sketch fed the same
// updates. Checked over a seeded grid of r x s x key_bits x skew with
// deletions, reused epochs, zero-net levels, empty epochs, per-level folds
// at the int16 bound and spills, plus every int16 signature kernel the CPU
// can run on its own. An int16 counter that wrapped would leave no trace
// for a sanitizer (scalar adds are promoted and narrowed, vector adds are
// modular), so these byte comparisons are the only guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "common/serialize.hpp"
#include "sketch/count_signature.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/epoch_sketch.hpp"
#include "sketch/sketch_hashes.hpp"
#include "stream/generator.hpp"

namespace dcs {
namespace {

struct KeyUpdate {
  PairKey key;
  int delta;
};

std::string reference_blob(const DcsParams& params,
                           const std::vector<KeyUpdate>& updates) {
  DistinctCountSketch sketch(params);
  for (const KeyUpdate& u : updates) sketch.update_key(u.key, u.delta);
  std::string blob;
  BinaryWriter writer(blob);
  sketch.serialize(writer);
  return blob;
}

/// Feed `updates` through update_batch in spans whose lengths cycle
/// through `spans`: by default one update, under, at and over a hash
/// block, and several blocks.
void feed(EpochSketch& epoch, const std::vector<KeyUpdate>& updates,
          std::vector<std::size_t> spans = {1, 63, 64, 65, 300}) {
  std::vector<PairKey> keys;
  std::vector<int> deltas;
  for (const KeyUpdate& u : updates) {
    keys.push_back(u.key);
    deltas.push_back(u.delta);
  }
  for (std::size_t at = 0, i = 0; at < keys.size(); ++i) {
    const std::size_t n = std::min(spans[i % spans.size()], keys.size() - at);
    epoch.update_batch({keys.data() + at, n}, {deltas.data() + at, n});
    at += n;
  }
}

std::string ingest_and_seal(EpochSketch& epoch,
                            const std::vector<KeyUpdate>& updates) {
  feed(epoch, updates);
  return epoch.seal();
}

std::uint64_t key_mask(int key_bits) {
  return key_bits == 64 ? ~0ULL : (1ULL << key_bits) - 1;
}

/// One epoch of updates: `n` inserts, a `skew` share of them drawn from a
/// 16-key hot set, then deletions of a fifth of the inserted keys and of a
/// few keys from earlier epochs (`history`), all shuffled so a delete can
/// come before its insert.
std::vector<KeyUpdate> make_epoch(Xoshiro256& rng, int key_bits, double skew,
                                  std::size_t n,
                                  std::vector<PairKey>& history) {
  const std::uint64_t mask = key_mask(key_bits);
  std::vector<PairKey> hot(16);
  for (PairKey& key : hot) key = rng() & mask;
  std::vector<KeyUpdate> updates;
  for (std::size_t i = 0; i < n; ++i) {
    const PairKey key =
        rng.uniform() < skew ? hot[rng.bounded(hot.size())] : rng() & mask;
    updates.push_back({key, +1});
  }
  for (std::size_t i = 0; i < n / 5; ++i)
    updates.push_back({updates[rng.bounded(n)].key, -1});
  for (std::size_t i = 0; i < std::min<std::size_t>(history.size(), 8); ++i)
    updates.push_back({history[rng.bounded(history.size())], -1});
  for (std::size_t i = updates.size(); i > 1; --i)
    std::swap(updates[i - 1], updates[rng.bounded(i)]);
  for (std::size_t i = 0; i < n; i += 7) history.push_back(updates[i].key);
  return updates;
}

// ---------------------------------------------------------------------------
// Grid: every epoch of a reused EpochSketch is byte-identical.
// ---------------------------------------------------------------------------
using Shape = std::tuple<int, std::uint32_t, int, double>;  // r, s, bits, skew

class EpochSketchGrid : public ::testing::TestWithParam<Shape> {};

TEST_P(EpochSketchGrid, EveryEpochBlobIsByteIdentical) {
  const auto [r, s, key_bits, skew] = GetParam();
  DcsParams params;
  params.num_tables = r;
  params.buckets_per_table = s;
  params.key_bits = key_bits;
  params.seed = 1000 + static_cast<std::uint64_t>(r * 131 + key_bits) + s;
  Xoshiro256 rng(params.seed);
  EpochSketch epoch(params);
  EXPECT_EQ(epoch.staged_levels(), 0);  // the constructor stages nothing

  std::vector<PairKey> history;
  for (int e = 0; e < 4; ++e) {
    const auto updates =
        make_epoch(rng, key_bits, skew, 600 + 400 * static_cast<std::size_t>(e),
                   history);
    const std::string expected = reference_blob(params, updates);
    const std::string blob = ingest_and_seal(epoch, updates);
    ASSERT_EQ(blob, expected) << "epoch " << e;
    EXPECT_EQ(epoch.touched_levels(), 0u);
    // And it reads back as a sketch that writes the same blob.
    BinaryReader reader(blob);
    const DistinctCountSketch decoded =
        DistinctCountSketch::deserialize(reader);
    std::string again;
    BinaryWriter writer(again);
    decoded.serialize(writer);
    EXPECT_EQ(again, blob);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RsBitsSkew, EpochSketchGrid,
    ::testing::Combine(::testing::Values(1, 3, 5),
                       ::testing::Values(16u, 128u),
                       ::testing::Values(8, 20, 33, 64),
                       ::testing::Values(0.0, 0.9)));

// ---------------------------------------------------------------------------
// Edge cases of the level mask.
// ---------------------------------------------------------------------------
TEST(EpochSketch, LevelThatNetsToZeroStaysInTheBlob) {
  DcsParams params;
  params.buckets_per_table = 32;
  params.seed = 3;
  EpochSketch epoch(params);
  // A delete shuffled before its insert: every counter nets to zero, but
  // the level was touched, so the int64 sketch allocated it.
  const std::vector<KeyUpdate> updates = {{0xdeadbeef12345678ULL, -1},
                                          {0xdeadbeef12345678ULL, +1}};
  for (const KeyUpdate& u : updates) epoch.update_key(u.key, u.delta);
  EXPECT_NE(epoch.touched_levels(), 0u);
  const std::string blob = epoch.seal();
  EXPECT_EQ(blob, reference_blob(params, updates));
  // One level, with no live bucket.
  const SketchBlob parsed = SketchBlob::parse(blob);
  ASSERT_EQ(parsed.levels().size(), 1u);
  EXPECT_EQ(parsed.levels()[0].payload.size(), 0u);
}

TEST(EpochSketch, EmptyEpochMatchesAFreshSketch) {
  DcsParams params;
  params.seed = 11;
  EpochSketch epoch(params);
  EXPECT_EQ(epoch.seal(), reference_blob(params, {}));
  // Also after a populated epoch: staging is reused, and empty again.
  epoch.update_key(42, +1);
  EXPECT_EQ(epoch.seal(), reference_blob(params, {{42, +1}}));
  EXPECT_EQ(epoch.seal(), reference_blob(params, {}));
  EXPECT_EQ(epoch.staged_levels(), 1);
}

TEST(EpochSketch, StagingIsReusedAcrossEpochs) {
  DcsParams params;
  params.seed = 12;
  EpochSketch epoch(params);
  std::vector<KeyUpdate> updates;
  for (PairKey k = 1; k <= 2000; ++k) updates.push_back({k * 0x9e37ULL, +1});
  EXPECT_EQ(ingest_and_seal(epoch, updates), reference_blob(params, updates));
  const int staged = epoch.staged_levels();
  EXPECT_GT(staged, 5);
  for (int e = 0; e < 3; ++e)
    EXPECT_EQ(ingest_and_seal(epoch, updates), reference_blob(params, updates));
  EXPECT_EQ(epoch.staged_levels(), staged);
}

// ---------------------------------------------------------------------------
// The exactness rule: a level's int16 staging folds into the int64 spill
// before its sum of |delta| passes INT16_MAX, and never wraps.
// ---------------------------------------------------------------------------
constexpr int kInt16Max = INT16_MAX;

/// `count` distinct keys that all hash to `level` under `params`.
std::vector<PairKey> keys_at_level(const DcsParams& params, int level,
                                   std::size_t count, std::uint64_t seed) {
  const DistinctCountSketch probe(params);
  Xoshiro256 rng(seed);
  std::vector<PairKey> keys;
  while (keys.size() < count) {
    const PairKey key = rng() & key_mask(params.key_bits);
    if (probe.level_of(key) == level &&
        std::find(keys.begin(), keys.end(), key) == keys.end())
      keys.push_back(key);
  }
  return keys;
}

TEST(EpochSketch, OneLevelFoldsRepeatedlyFromUnitUpdates) {
  DcsParams params;
  params.num_tables = 2;
  params.buckets_per_table = 16;
  params.seed = 23;
  const std::vector<PairKey> keys = keys_at_level(params, 0, 2, 1);
  Xoshiro256 rng(2);
  // 4 x INT16_MAX + 5 unit updates on level 0 alone: its mass passes the
  // bound four times, so the level folds four times in one epoch. Inserts
  // outnumber deletes 7:1 over two keys, so each key nets about 49k and
  // its counters end well past INT16_MAX, in the spill.
  std::vector<KeyUpdate> updates;
  for (int i = 0; i < 4 * kInt16Max + 5; ++i)
    updates.push_back({keys[rng.bounded(keys.size())],
                       rng.bounded(8) == 0 ? -1 : +1});
  EpochSketch epoch(params);
  for (const KeyUpdate& u : updates) epoch.update_key(u.key, u.delta);
  EXPECT_TRUE(epoch.spilled());
  EXPECT_EQ(epoch.touched_levels(), 1u);
  EXPECT_EQ(epoch.seal(), reference_blob(params, updates));
  EXPECT_FALSE(epoch.spilled());
}

TEST(EpochSketch, MassExactlyAtInt16MaxThenOneMore) {
  DcsParams params;
  params.buckets_per_table = 16;
  params.seed = 24;
  const std::vector<PairKey> keys = keys_at_level(params, 2, 2, 3);
  // Level 2's mass lands exactly on INT16_MAX, and the counters of the
  // bits both keys share stand at INT16_MAX too: still staged. One more
  // unit would take them to 32768, so it must fold first.
  std::vector<KeyUpdate> updates(kInt16Max - 700, {keys[0], +1});
  updates.insert(updates.end(), 700, {keys[1], +1});
  EpochSketch epoch(params);
  for (const KeyUpdate& u : updates) epoch.update_key(u.key, u.delta);
  EXPECT_FALSE(epoch.spilled());
  updates.push_back({keys[0], +1});
  epoch.update_key(keys[0], +1);
  EXPECT_TRUE(epoch.spilled());
  EXPECT_EQ(epoch.seal(), reference_blob(params, updates));

  // The same bound reached from below by deletes: counters at -INT16_MAX.
  std::vector<KeyUpdate> deletes(kInt16Max + 1, {keys[1], -1});
  EXPECT_EQ(ingest_and_seal(epoch, deletes), reference_blob(params, deletes));
}

TEST(EpochSketch, DeltasAtTheInt16Edge) {
  DcsParams params;
  params.buckets_per_table = 16;
  params.seed = 25;
  const std::vector<PairKey> keys = keys_at_level(params, 1, 3, 4);
  EpochSketch epoch(params);
  // +32767 fits: staged, no spill.
  const std::vector<KeyUpdate> largest = {{keys[0], +kInt16Max}};
  for (const KeyUpdate& u : largest) epoch.update_key(u.key, u.delta);
  EXPECT_FALSE(epoch.spilled());
  EXPECT_EQ(epoch.seal(), reference_blob(params, largest));
  // The seal reset the level's mass: one more unit stages again.
  const std::vector<KeyUpdate> unit = {{keys[0], +1}};
  epoch.update_key(unit[0].key, unit[0].delta);
  EXPECT_FALSE(epoch.spilled());
  EXPECT_EQ(epoch.seal(), reference_blob(params, unit));
  // -32768 fits an int16 but passes the mass bound: straight to the spill.
  const std::vector<KeyUpdate> smallest = {{keys[0], -kInt16Max - 1}};
  epoch.update_key(smallest[0].key, smallest[0].delta);
  EXPECT_TRUE(epoch.spilled());
  EXPECT_EQ(epoch.seal(), reference_blob(params, smallest));
  // Mixed: staged edges, a fold between them, and +-32768 spilled directly.
  const std::vector<KeyUpdate> mixed = {
      {keys[0], +kInt16Max}, {keys[1], +kInt16Max}, {keys[2], -kInt16Max},
      {keys[0], +kInt16Max + 1}, {keys[1], -kInt16Max - 1}, {keys[2], +1},
      {keys[0], -1}};
  EXPECT_EQ(ingest_and_seal(epoch, mixed), reference_blob(params, mixed));
  // The spill level is zero again: a small epoch on the same level.
  const std::vector<KeyUpdate> small = {{keys[1], +1}, {keys[2], +1}};
  EXPECT_EQ(ingest_and_seal(epoch, small), reference_blob(params, small));
}

TEST(EpochSketch, PaperEpochsReuseStagingAndSpill) {
  // The paper's 6.1 stream (Zipf z=1.5 over 50k destinations) in epochs of
  // 131072 inserts, default parameters: levels 0 and 1 fold mid-epoch, and
  // every epoch reuses the staging and spill levels of the ones before.
  const DcsParams params;
  EpochSketch epoch(params);
  for (std::uint64_t e = 0; e < 3; ++e) {
    ZipfWorkloadConfig config;
    config.u_pairs = 131'072;
    config.num_destinations = 50'000;
    config.skew = 1.5;
    config.seed = 31 + e;
    const ZipfWorkload workload(config);
    std::vector<KeyUpdate> updates;
    for (const FlowUpdate& u : workload.updates())
      updates.push_back({pack_pair(u.dest, u.source), u.delta});
    // In the agent's 4096-update handoff blocks: the folds land mid-span.
    feed(epoch, updates, {4096});
    EXPECT_TRUE(epoch.spilled()) << "epoch " << e;
    ASSERT_EQ(epoch.seal(), reference_blob(params, updates)) << "epoch " << e;
  }
}

TEST(EpochSketch, LargeDeltasSpillAndStayExact) {
  DcsParams params;
  params.buckets_per_table = 16;
  params.seed = 21;
  EpochSketch epoch(params);
  Xoshiro256 rng(5);
  std::vector<KeyUpdate> updates;
  // A few hot keys take +-1e9 over and over: the same counters reach
  // several times INT32_MAX, all of it in the spill.
  for (int i = 0; i < 40; ++i) {
    const PairKey key = 1 + rng.bounded(4);
    updates.push_back({key, (i % 5 == 4) ? -1'000'000'000 : 1'000'000'000});
    updates.push_back({rng(), +1});
  }
  for (const KeyUpdate& u : updates) epoch.update_key(u.key, u.delta);
  EXPECT_TRUE(epoch.spilled());
  EXPECT_EQ(epoch.seal(), reference_blob(params, updates));
  // The next epoch starts narrow again, on the levels that spilled too.
  EXPECT_FALSE(epoch.spilled());
  const std::vector<KeyUpdate> small = {{7, +1}, {8, +1}, {7, -1},
                                        {1, +1}, {2, +1}, {3, +1}};
  EXPECT_EQ(ingest_and_seal(epoch, small), reference_blob(params, small));
}

TEST(EpochSketch, IntMinDeltaGoesStraightToTheSpill) {
  DcsParams params;
  params.buckets_per_table = 16;
  params.seed = 22;
  EpochSketch epoch(params);
  const std::vector<KeyUpdate> updates = {
      {5, +1}, {0xffffffff00000001ULL, INT_MIN}, {6, +1}, {5, INT_MAX},
      {0xffffffff00000001ULL, -1}};
  for (const KeyUpdate& u : updates) epoch.update_key(u.key, u.delta);
  EXPECT_TRUE(epoch.spilled());
  EXPECT_EQ(epoch.seal(), reference_blob(params, updates));
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------
TEST(EpochSketch, KeyWiderThanKeyBitsThrowsAndChangesNothing) {
  DcsParams params;
  params.key_bits = 20;
  params.buckets_per_table = 32;
  params.seed = 31;
  EpochSketch epoch(params);
  const std::vector<KeyUpdate> updates = {{1, +1}, {0xfffff, +1}};
  for (const KeyUpdate& u : updates) epoch.update_key(u.key, u.delta);
  const std::uint64_t touched = epoch.touched_levels();
  const int staged = epoch.staged_levels();
  EXPECT_THROW(epoch.update_key(1ULL << 20, +1), std::invalid_argument);
  EXPECT_THROW(epoch.update(1, 0, +1), std::invalid_argument);  // dest != 0
  EXPECT_EQ(epoch.touched_levels(), touched);
  EXPECT_EQ(epoch.staged_levels(), staged);
  EXPECT_EQ(epoch.seal(), reference_blob(params, updates));
}

TEST(EpochSketch, TooWideKeyMidSpanThrowsAndAppliesNothing) {
  DcsParams params;
  params.key_bits = 20;
  params.buckets_per_table = 32;
  params.seed = 32;
  EpochSketch epoch(params);
  // A span of three blocks and a tail, with a too-wide key in its third
  // block: the throw comes before the first block is applied.
  std::vector<PairKey> keys;
  std::vector<int> deltas;
  for (PairKey k = 1; k <= 200; ++k) {
    keys.push_back((k * 4099) & 0xfffff);
    deltas.push_back(k % 3 == 0 ? -1 : +1);
  }
  keys[150] = 1ULL << 20;
  EXPECT_THROW(epoch.update_batch(keys, deltas), std::invalid_argument);
  keys[150] = 77;
  EXPECT_THROW(epoch.update_batch(keys, {deltas.data(), deltas.size() - 1}),
               std::invalid_argument);
  EXPECT_EQ(epoch.touched_levels(), 0u);
  EXPECT_EQ(epoch.staged_levels(), 0);
  // The same span with that key fitting and a delta too wide to stage
  // applies in full.
  deltas[150] = 40'000;
  epoch.update_batch(keys, deltas);
  EXPECT_TRUE(epoch.spilled());
  std::vector<KeyUpdate> updates;
  for (std::size_t i = 0; i < keys.size(); ++i)
    updates.push_back({keys[i], deltas[i]});
  EXPECT_EQ(epoch.seal(), reference_blob(params, updates));
  EXPECT_EQ(epoch.touched_levels(), 0u);
  EXPECT_FALSE(epoch.spilled());
}

TEST(EpochSketch, InvalidParamsAreRejected) {
  DcsParams params;
  params.key_bits = 0;
  EXPECT_THROW(EpochSketch{params}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The int16 signature kernels: every variant this CPU runs, not only the one
// dispatched, against the plain bit loop.
// ---------------------------------------------------------------------------
struct alignas(64) Block {
  std::int16_t counts[64] = {};
};

TEST(EpochSketchKernel, DispatchedIsTheFirstVariant) {
  const auto variants = detail::dense_add16_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front().fn, detail::dense_add16);
  EXPECT_STREQ(variants.back().name, "portable");
  EXPECT_EQ(variants.back().fn, &detail::dense_add16_portable);
}

TEST(EpochSketchKernel, EveryVariantMatchesTheBitLoop) {
  const std::uint64_t edge_keys[] = {0, ~0ULL, 1, 1ULL << 63,
                                     0x8000000000000001ULL,
                                     0x00ff00ff00ff00ffULL,
                                     0x0000ffffffff0000ULL,
                                     0x8000800080008000ULL};
  constexpr int kEdges = sizeof(edge_keys) / sizeof(edge_keys[0]);
  for (const detail::DenseAdd16Variant& variant :
       detail::dense_add16_variants()) {
    SCOPED_TRACE(variant.name);
    Xoshiro256 rng(77);
    Block block;
    std::int64_t expected[64] = {};
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t key = i < kEdges ? edge_keys[i] : rng();
      const auto delta = static_cast<std::int16_t>(
          static_cast<int>(rng.bounded(61)) - 30);
      for (int b = 0; b < 64; ++b)
        if ((key >> b) & 1) expected[b] += delta;
      variant.fn(block.counts, key, delta);
    }
    for (int b = 0; b < 64; ++b) {
      ASSERT_LE(std::abs(expected[b]), kInt16Max);  // the test stays exact
      EXPECT_EQ(block.counts[b], expected[b]) << "bit " << b;
    }
  }
}

TEST(EpochSketchKernel, EveryVariantReachesInt16Bounds) {
  for (const detail::DenseAdd16Variant& variant :
       detail::dense_add16_variants()) {
    SCOPED_TRACE(variant.name);
    Block block;
    variant.fn(block.counts, 0xaaaaaaaaaaaaaaaaULL, INT16_MAX);
    variant.fn(block.counts, 0x5555555555555555ULL, INT16_MIN);
    for (int b = 0; b < 64; ++b)
      EXPECT_EQ(block.counts[b], (b % 2 == 1) ? INT16_MAX : INT16_MIN)
          << "bit " << b;
    // Back from both bounds by one, and up to them again from there.
    variant.fn(block.counts, 0xaaaaaaaaaaaaaaaaULL, -1);
    variant.fn(block.counts, 0x5555555555555555ULL, +1);
    variant.fn(block.counts, ~0ULL, +1);
    variant.fn(block.counts, 0x5555555555555555ULL, -2);
    for (int b = 0; b < 64; ++b)
      EXPECT_EQ(block.counts[b], (b % 2 == 1) ? INT16_MAX : INT16_MIN)
          << "bit " << b;
  }
}

// ---------------------------------------------------------------------------
// The block hash: every variant this CPU runs against per-key SketchHashes.
// ---------------------------------------------------------------------------
TEST(SketchHashBlock, DispatchedIsTheFirstVariant) {
  const auto variants = detail::hash_block_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front().fn, detail::hash_block);
  EXPECT_STREQ(variants.back().name, "portable");
}

/// Check `variant` on the first `n` of `keys` against the scalar hashes,
/// and that nothing past `n` is written.
void expect_block_matches(const detail::HashBlockVariant& variant,
                          const SketchHashes& hashes,
                          const std::vector<std::uint64_t>& keys,
                          std::size_t n) {
  constexpr std::size_t kStride = 64;
  const int tables = hashes.buckets.count();
  std::vector<std::uint8_t> levels(kStride, 0xee);
  std::vector<std::uint32_t> buckets(kStride * static_cast<std::size_t>(tables),
                                     0xeeeeeeee);
  variant.fn(hashes, keys.data(), n, levels.data(), buckets.data(), kStride);
  for (std::size_t i = 0; i < kStride; ++i) {
    if (i >= n) {
      ASSERT_EQ(levels[i], 0xee) << "past the block, lane " << i;
      continue;
    }
    ASSERT_EQ(levels[i], hashes.level(keys[i])) << "key " << keys[i];
    for (int j = 0; j < tables; ++j)
      ASSERT_EQ(buckets[static_cast<std::size_t>(j) * kStride + i],
                hashes.buckets.bucket(j, keys[i]))
          << "key " << keys[i] << " table " << j;
  }
  for (int j = 0; j < tables; ++j)
    for (std::size_t i = n; i < kStride; ++i)
      ASSERT_EQ(buckets[static_cast<std::size_t>(j) * kStride + i], 0xeeeeeeee);
}

TEST(SketchHashBlock, EveryVariantMatchesSketchHashesOnEveryShapeAndTail) {
  for (const int r : {1, 3, 5})
    for (const std::uint32_t s : {16u, 100u, 128u})
      for (const int max_level : {5, 63})
        for (const int key_bits : {20, 64}) {
          DcsParams params;
          params.num_tables = r;
          params.buckets_per_table = s;
          params.max_level = max_level;
          params.key_bits = key_bits;
          params.seed = static_cast<std::uint64_t>(r * 1000 + s + max_level);
          const SketchHashes hashes(params);
          Xoshiro256 rng(params.seed);
          std::vector<std::uint64_t> keys(64);
          for (std::uint64_t& key : keys) key = rng() & key_mask(key_bits);
          for (const detail::HashBlockVariant& variant :
               detail::hash_block_variants()) {
            SCOPED_TRACE(::testing::Message()
                         << variant.name << " r=" << r << " s=" << s
                         << " max_level=" << max_level
                         << " key_bits=" << key_bits);
            for (std::size_t n = 1; n <= 64; ++n)
              expect_block_matches(variant, hashes, keys, n);
          }
        }
}

/// x ^ (x >> shift) inverted.
std::uint64_t unxorshift(std::uint64_t y, int shift) {
  std::uint64_t x = y;
  for (int i = 0; i < 64 / shift + 1; ++i) x = y ^ (x >> shift);
  return x;
}

/// The multiplicative inverse of an odd constant mod 2^64 (Newton).
std::uint64_t inverse(std::uint64_t c) {
  std::uint64_t x = c;
  for (int i = 0; i < 6; ++i) x *= 2 - c * x;
  return x;
}

/// mix64 inverted step by step.
std::uint64_t unmix64(std::uint64_t z) {
  std::uint64_t x = unxorshift(z, 31);
  x *= inverse(0x94d049bb133111ebULL);
  x = unxorshift(x, 27);
  x *= inverse(0xbf58476d1ce4e5b9ULL);
  x = unxorshift(x, 30);
  return x - 0x9e3779b97f4a7c15ULL;
}

TEST(SketchHashBlock, AKeyWhoseLevelHashIsZeroLandsOnTheDeepestLevel) {
  // fmix64(0) == 0 and both mixers are bijections, so the key whose mix64
  // equals the level seed has a level hash of exactly 0: LevelHash folds
  // it into max_level, and every kernel must too.
  for (const int max_level : {5, 63}) {
    DcsParams params;
    params.max_level = max_level;
    params.seed = 8;
    const SketchHashes hashes(params);
    const std::uint64_t key = unmix64(hashes.level.seed());
    ASSERT_EQ(mix64(key), hashes.level.seed());
    ASSERT_EQ(fmix64(hashes.level.seed() ^ mix64(key)), 0u);
    EXPECT_EQ(hashes.level(key), max_level);
    Xoshiro256 rng(9);
    std::vector<std::uint64_t> keys(64);
    for (std::uint64_t& k : keys) k = rng();
    keys[3] = key;
    keys[9] = key;
    for (const detail::HashBlockVariant& variant :
         detail::hash_block_variants()) {
      SCOPED_TRACE(variant.name);
      expect_block_matches(variant, hashes, keys, 64);
      expect_block_matches(variant, hashes, keys, 10);
    }
  }
}

}  // namespace
}  // namespace dcs

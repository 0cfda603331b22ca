// EpochSketch is the agent's int32 ingest form of a Distinct-Count Sketch.
// Its contract is byte identity: every sealed epoch must be exactly the blob
// DistinctCountSketch::serialize writes for a fresh sketch fed the same
// updates. Checked over a seeded grid of r x s x key_bits x skew with
// deletions, reused epochs, zero-net levels, empty epochs and int32 spills,
// plus the int32 signature kernels on their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "common/serialize.hpp"
#include "sketch/count_signature.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/epoch_sketch.hpp"

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

std::string ingest_and_seal(EpochSketch& epoch,
                            const std::vector<KeyUpdate>& updates) {
  for (const KeyUpdate& u : updates) epoch.update_key(u.key, u.delta);
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
    // And it reads back as the same sketch.
    BinaryReader reader(blob);
    DistinctCountSketch decoded = DistinctCountSketch::deserialize(reader);
    EXPECT_EQ(decoded.serialized_size(), blob.size());
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
  EXPECT_EQ(blob.size(),
            DistinctCountSketch::serialized_size(params, 1));  // one level
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
// The exactness rule: the int32 staging spills into int64, never wraps.
// ---------------------------------------------------------------------------
TEST(EpochSketch, LargeDeltasSpillAndStayExact) {
  DcsParams params;
  params.buckets_per_table = 16;
  params.seed = 21;
  EpochSketch epoch(params);
  Xoshiro256 rng(5);
  std::vector<KeyUpdate> updates;
  // A few hot keys take +-1e9 over and over: the same counters reach
  // several times INT32_MAX, so staging must fold more than once.
  for (int i = 0; i < 40; ++i) {
    const PairKey key = 1 + rng.bounded(4);
    updates.push_back({key, (i % 5 == 4) ? -1'000'000'000 : 1'000'000'000});
    updates.push_back({rng(), +1});
  }
  for (const KeyUpdate& u : updates) epoch.update_key(u.key, u.delta);
  EXPECT_TRUE(epoch.spilled());
  EXPECT_EQ(epoch.seal(), reference_blob(params, updates));
  // The next epoch starts narrow again.
  EXPECT_FALSE(epoch.spilled());
  const std::vector<KeyUpdate> small = {{7, +1}, {8, +1}, {7, -1}};
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

TEST(EpochSketch, InvalidParamsAreRejected) {
  DcsParams params;
  params.key_bits = 0;
  EXPECT_THROW(EpochSketch{params}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The int32 signature kernels.
// ---------------------------------------------------------------------------
struct alignas(64) Block {
  std::int32_t counts[64] = {};
};

void reference_add(Block& block, std::uint64_t key, std::int32_t delta) {
  for (int i = 0; i < 64; ++i)
    if ((key >> i) & 1) block.counts[i] += delta;
}

TEST(EpochSketchKernel, PortableAndDispatchedMatchTheBitLoop) {
  ASSERT_NE(detail::dense_add32, nullptr);
  Xoshiro256 rng(77);
  Block expected, portable, dispatched;
  const std::uint64_t edge_keys[] = {0, ~0ULL, 1, 1ULL << 63,
                                     0x8000000000000001ULL,
                                     0x00ff00ff00ff00ffULL};
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = i < 6 ? edge_keys[i] : rng();
    const auto delta = static_cast<std::int32_t>(rng.bounded(2001)) - 1000;
    reference_add(expected, key, delta);
    detail::dense_add32_portable(portable.counts, key, delta);
    detail::dense_add32(dispatched.counts, key, delta);
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(portable.counts[i], expected.counts[i]) << "bit " << i;
    EXPECT_EQ(dispatched.counts[i], expected.counts[i]) << "bit " << i;
  }
}

TEST(EpochSketchKernel, ExtremeDeltasReachInt32Bounds) {
  Block portable, dispatched;
  detail::dense_add32_portable(portable.counts, 0xaaaaaaaaaaaaaaaaULL, INT_MAX);
  detail::dense_add32(dispatched.counts, 0xaaaaaaaaaaaaaaaaULL, INT_MAX);
  detail::dense_add32_portable(portable.counts, 0x5555555555555555ULL, INT_MIN);
  detail::dense_add32(dispatched.counts, 0x5555555555555555ULL, INT_MIN);
  for (int i = 0; i < 64; ++i) {
    const std::int32_t want = (i % 2 == 1) ? INT_MAX : INT_MIN;
    EXPECT_EQ(portable.counts[i], want);
    EXPECT_EQ(dispatched.counts[i], want);
  }
}

}  // namespace
}  // namespace dcs

// Batched ingest must be indistinguishable from sequential ingest: the
// sketch is linear, so update_batch()'s level-major reordering, hash
// hoisting, prefetching, and (on capable CPUs) vectorized signature adds
// must all produce a bit-identical sketch — verified via operator== across
// parameter grids, random batch boundaries, deletions, and every consumer
// of the batch path (basic sketch, tracking sketch).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/tracking_dcs.hpp"
#include "stream/generator.hpp"

namespace dcs {
namespace {

/// A churned stream (inserts + genuine deletions) over `destinations`
/// destinations with Zipf-ish repetition controlled by `skew`.
std::vector<FlowUpdate> make_stream(std::uint64_t seed, double skew,
                                    std::size_t n, std::uint32_t destinations) {
  ZipfWorkloadConfig config;
  config.u_pairs = n;
  config.num_destinations = destinations;
  config.skew = skew;
  config.churn = 2;
  config.noise_pairs = n / 4;
  config.seed = seed;
  config.shuffle = true;
  return ZipfWorkload(config).updates();
}

/// Feed `updates` through update_batch in random-sized blocks (1..max_block).
template <typename Sketch>
void ingest_random_blocks(Sketch& sketch, std::span<const FlowUpdate> updates,
                          Xoshiro256& rng, std::size_t max_block) {
  std::size_t i = 0;
  while (i < updates.size()) {
    const std::size_t block =
        std::min<std::size_t>(1 + rng.bounded(max_block), updates.size() - i);
    sketch.update_batch(updates.subspan(i, block));
    i += block;
  }
}

// ---------------------------------------------------------------------------
// Grid: bit-identity across (r, s, skew) with random batch boundaries.
// ---------------------------------------------------------------------------
using RsSkew = std::tuple<int, std::uint32_t, double>;

class BatchEquivalenceGrid : public ::testing::TestWithParam<RsSkew> {};

TEST_P(BatchEquivalenceGrid, BasicSketchBitIdentical) {
  const auto [r, s, skew] = GetParam();
  DcsParams params;
  params.num_tables = r;
  params.buckets_per_table = s;
  params.seed = 17;
  const auto updates = make_stream(static_cast<std::uint64_t>(r) * 100 + s,
                                   skew, 8000, 200);

  DistinctCountSketch sequential(params), batched(params);
  for (const FlowUpdate& u : updates)
    sequential.update(u.dest, u.source, u.delta);
  Xoshiro256 rng(99);
  ingest_random_blocks(batched, updates, rng, 300);

  EXPECT_TRUE(sequential == batched) << "r=" << r << " s=" << s
                                     << " skew=" << skew;
}

TEST_P(BatchEquivalenceGrid, TrackingSketchSameTopK) {
  const auto [r, s, skew] = GetParam();
  DcsParams params;
  params.num_tables = r;
  params.buckets_per_table = s;
  params.seed = 23;
  const auto updates = make_stream(static_cast<std::uint64_t>(r) * 100 + s + 1,
                                   skew, 8000, 200);

  TrackingDcs sequential(params), batched(params);
  for (const FlowUpdate& u : updates)
    sequential.update(u.dest, u.source, u.delta);
  Xoshiro256 rng(7);
  ingest_random_blocks(batched, updates, rng, 300);

  EXPECT_EQ(sequential.top_k(10).entries, batched.top_k(10).entries)
      << "r=" << r << " s=" << s << " skew=" << skew;
  EXPECT_TRUE(batched.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchEquivalenceGrid,
    ::testing::Combine(::testing::Values(1, 3),
                       ::testing::Values(16u, 64u, 128u),
                       ::testing::Values(0.8, 1.5)));

// ---------------------------------------------------------------------------
// Narrow keys take the scalar (sparse) signature path; the batch machinery
// must be identical there too.
// ---------------------------------------------------------------------------
TEST(BatchEquivalence, NarrowKeySketchBitIdentical) {
  DcsParams params;
  params.key_bits = 32;  // pair keys must fit: dest == 0, key == source
  params.buckets_per_table = 32;
  params.seed = 5;
  Xoshiro256 rng(42);
  std::vector<FlowUpdate> updates;
  for (int i = 0; i < 4000; ++i)
    updates.push_back({static_cast<Addr>(rng.bounded(1 << 20)), 0,
                       static_cast<std::int8_t>(rng.bounded(6) == 0 ? -1 : 1)});

  DistinctCountSketch sequential(params), batched(params);
  for (const FlowUpdate& u : updates)
    sequential.update(u.dest, u.source, u.delta);
  ingest_random_blocks(batched, updates, rng, 100);
  EXPECT_TRUE(sequential == batched);
}

// ---------------------------------------------------------------------------
// Whole-span validation: one bad key anywhere leaves the sketch untouched.
// ---------------------------------------------------------------------------
TEST(BatchEquivalence, BadKeyMidSpanLeavesSketchUnchanged) {
  DcsParams params;
  params.key_bits = 32;
  params.buckets_per_table = 32;
  DistinctCountSketch sketch(params);
  const std::vector<FlowUpdate> good = {{1, 0, +1}, {2, 0, +1}};
  sketch.update_batch(good);
  const DistinctCountSketch before = sketch;

  // dest != 0 packs above 32 bits: invalid for this sketch.
  const std::vector<FlowUpdate> poisoned = {{3, 0, +1}, {4, 9, +1}, {5, 0, +1}};
  EXPECT_THROW(sketch.update_batch(poisoned), std::invalid_argument);
  EXPECT_TRUE(sketch == before);
}

TEST(BatchEquivalence, EmptySpanIsANoOp) {
  DistinctCountSketch sketch{DcsParams{}};
  sketch.update(1, 2, +1);
  const DistinctCountSketch before = sketch;
  sketch.update_batch({});
  EXPECT_TRUE(sketch == before);

  TrackingDcs tracker{DcsParams{}};
  tracker.update_batch({});
  EXPECT_TRUE(tracker.check_invariants());
}

}  // namespace
}  // namespace dcs

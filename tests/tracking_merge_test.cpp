// The tracking merges diff only the buckets a delta names: a blob merge
// (TrackingDcs::merge_sketch(const SketchBlob&)) reclassifies the live
// buckets of its bitmaps, a dense merge (merge_sketch of a sketch, and
// merge of another tracker) the buckets whose delta signature is nonzero.
// None of them rebuilds. Checked here by a seeded property grid over
// r x s x key_bits x skew: three sites ship many epochs each, with
//  * deletions of the site's own pairs, shipped epochs later;
//  * one site deleting pairs another site inserted (singleton -> empty,
//    collision -> singleton at the merged sketch);
//  * a pair inserted 4e9 times and deleted 4e9 times epochs later, so
//    levels spill past 32-bit counters, and one inserted 70000 times;
//  * an insert/delete pair at a high level that nets to zero, so a
//    shipped level is allocated but holds no live bucket;
//  * a key at a level the merged sketch has not allocated yet.
// After every merge, the tracker of each path must equal a TrackingDcs
// built by construction over the summed counters: the same blob, top_k,
// groups_above, estimate_distinct_pairs and num_singletons at every level,
// with check_invariants() holding.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "common/serialize.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/sketch_blob.hpp"
#include "sketch/tracking_dcs.hpp"

namespace dcs {
namespace {

constexpr int kSites = 3;
constexpr int kRounds = 4;

std::string blob_of(const DistinctCountSketch& sketch) {
  std::string blob;
  BinaryWriter writer(blob);
  sketch.serialize(writer);
  return blob;
}

/// Everything a query can observe of `got`, compared with `want`.
::testing::AssertionResult same_state(const TrackingDcs& want,
                                      const TrackingDcs& got) {
  if (blob_of(got.sketch()) != blob_of(want.sketch()))
    return ::testing::AssertionFailure() << "sketch blobs differ";
  const TopKResult a = want.top_k(10);
  const TopKResult b = got.top_k(10);
  if (b.entries != a.entries || b.inference_level != a.inference_level ||
      b.sample_size != a.sample_size)
    return ::testing::AssertionFailure() << "top_k differs";
  if (got.groups_above(1) != want.groups_above(1))
    return ::testing::AssertionFailure() << "groups_above differs";
  if (got.estimate_distinct_pairs() != want.estimate_distinct_pairs())
    return ::testing::AssertionFailure() << "estimate_distinct_pairs differs";
  for (int l = 0; l <= want.params().max_level; ++l)
    if (got.num_singletons(l) != want.num_singletons(l))
      return ::testing::AssertionFailure()
             << "num_singletons(" << l << ") differs";
  if (!got.check_invariants())
    return ::testing::AssertionFailure() << "check_invariants() fails";
  return ::testing::AssertionSuccess();
}

struct KeyUpdate {
  PairKey key;
  int delta;
};

/// Three sites' update streams. Every pair a site inserts stays owned by it
/// until a delete (by it or by the next site) takes it back, so the summed
/// stream never deletes a pair that is not live.
class Fleet {
 public:
  Fleet(const DcsParams& params, double skew)
      : probe_(params), rng_(params.seed), skew_(skew),
        mask_(params.key_bits == 64 ? ~0ULL
                                    : (1ULL << params.key_bits) - 1) {
    for (PairKey& key : hot_) key = rng_() & mask_;
  }

  /// Site `site`'s updates for round `round`. `missing_level` is a level
  /// the merged sketch lacks (or -1): one key lands there.
  std::vector<KeyUpdate> epoch(int site, int round, int missing_level) {
    std::vector<KeyUpdate> out;
    auto& own = owned_[site];
    const std::size_t n = 150 + 150 * static_cast<std::size_t>(round) +
                          rng_.bounded(100);
    for (std::size_t i = 0; i < n; ++i) insert(out, site, next_key());
    // Deletions of the site's own pairs: this epoch's and earlier ones'.
    for (std::size_t i = 0; i < n / 5 && !own.empty(); ++i)
      take(out, own, rng_.bounded(own.size()));
    // Deletions of pairs the next site inserted, already merged.
    auto& other = owned_[(site + 1) % kSites];
    for (std::size_t i = 0; i < n / 8 && !other.empty(); ++i)
      take(out, other, rng_.bounded(other.size()));
    // A pair at a high level that nets to zero within the epoch.
    const PairKey zero_net = key_at_level(11 + round % 3);
    out.push_back({zero_net, +1});
    out.push_back({zero_net, -1});
    if (missing_level >= 0) insert(out, site, key_at_level(missing_level));
    // Spilled counters: +4e9 and +70000 early, taken back two rounds on.
    if (site == 0 && round == 0) {
      out.push_back({big_, 2'000'000'000});
      out.push_back({big_, 2'000'000'000});
      out.push_back({medium_, 70'000});
    }
    if (site == 1 && round == 2) {
      out.push_back({big_, -2'000'000'000});
      out.push_back({big_, -2'000'000'000});
      out.push_back({medium_, -70'000});
    }
    for (std::size_t i = out.size(); i > 1; --i)
      std::swap(out[i - 1], out[rng_.bounded(i)]);
    return out;
  }

 private:
  PairKey random_key() {
    if (mask_ != ~0ULL) return rng_() & mask_;
    return pack_pair(static_cast<Addr>(rng_()), static_cast<Addr>(rng_()));
  }

  /// Skewed keys: with 20-bit keys a hot key is repeated whole; with
  /// 64-bit keys a hot destination gains a fresh source.
  PairKey next_key() {
    if (rng_.uniform() >= skew_) return random_key();
    const PairKey hot = hot_[rng_.bounded(hot_.size())];
    if (mask_ != ~0ULL) return hot;
    return pack_pair(pair_group(hot), static_cast<Addr>(rng_()));
  }

  PairKey key_at_level(int level) {
    for (;;) {
      const PairKey key = random_key();
      if (probe_.level_of(key) == level) return key;
    }
  }

  void insert(std::vector<KeyUpdate>& out, int site, PairKey key) {
    out.push_back({key, +1});
    owned_[site].push_back(key);
  }

  void take(std::vector<KeyUpdate>& out, std::vector<PairKey>& keys,
            std::size_t at) {
    out.push_back({keys[at], -1});
    keys[at] = keys.back();
    keys.pop_back();
  }

  DistinctCountSketch probe_;  // level_of only
  Xoshiro256 rng_;
  double skew_;
  std::uint64_t mask_;
  std::vector<PairKey> hot_ = std::vector<PairKey>(16);
  std::vector<PairKey> owned_[kSites];
  PairKey big_ = rng_() & mask_;
  PairKey medium_ = rng_() & mask_;
};

using Shape = std::tuple<int, std::uint32_t, int, double>;  // r, s, bits, skew

class TrackingMergeGrid : public ::testing::TestWithParam<Shape> {};

TEST_P(TrackingMergeGrid, EveryMergeEqualsTheConstructedTracker) {
  const auto [r, s, key_bits, skew] = GetParam();
  DcsParams params;
  params.num_tables = r;
  params.buckets_per_table = s;
  params.key_bits = key_bits;
  params.collision_correction = true;  // estimates read the occupancy too
  params.seed = 900 + static_cast<std::uint64_t>(r * 13 + key_bits) + s +
                (skew > 0 ? 1 : 0);
  Fleet fleet(params, skew);

  DistinctCountSketch reference(params);
  TrackingDcs via_blob(params);
  TrackingDcs via_sketch(params);
  TrackingDcs via_tracking(params);
  int new_levels = 0;
  int empty_levels = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int site = 0; site < kSites; ++site) {
      int missing = -1;
      for (int l = 0; l <= 16 && missing < 0; ++l)
        if (!reference.level_allocated(l)) missing = l;

      DistinctCountSketch delta(params);
      for (const KeyUpdate& u : fleet.epoch(site, round, missing))
        delta.update_key(u.key, u.delta);
      const std::string blob = blob_of(delta);
      const SketchBlob parsed = SketchBlob::parse(blob);
      for (const BlobLevel& level : parsed.levels()) {
        bool live = false;
        for (const std::uint64_t word : level.live) live |= word != 0;
        if (!live) ++empty_levels;
      }

      reference.merge(delta);
      via_blob.merge_sketch(parsed);
      via_sketch.merge_sketch(delta);
      via_tracking.merge(TrackingDcs(delta));
      if (missing >= 0) {
        EXPECT_TRUE(via_blob.sketch().level_allocated(missing));
        ++new_levels;
      }

      const TrackingDcs constructed(reference);
      ASSERT_TRUE(same_state(constructed, via_blob))
          << "blob merge, round " << round << " site " << site;
      ASSERT_TRUE(same_state(constructed, via_sketch))
          << "dense merge, round " << round << " site " << site;
      ASSERT_TRUE(same_state(constructed, via_tracking))
          << "tracker merge, round " << round << " site " << site;
    }
  }
  EXPECT_GT(new_levels, 0);
  EXPECT_GT(empty_levels, 0);
  EXPECT_FALSE(via_blob.top_k(10).entries.empty());
}

INSTANTIATE_TEST_SUITE_P(
    RsBitsSkew, TrackingMergeGrid,
    ::testing::Combine(::testing::Values(1, 3, 5),
                       ::testing::Values(16u, 100u, 128u),
                       ::testing::Values(20, 64),
                       ::testing::Values(0.0, 0.9)));

}  // namespace
}  // namespace dcs

// EpochSketch: the form of a Distinct-Count Sketch a site agent updates on
// its sketch thread, one epoch at a time (src/service/agent.hpp).
//
// An agent ships each epoch as the sketch blob (sketch/sketch_blob.hpp) of
// that epoch's updates. Updating an int64 DistinctCountSketch directly
// writes r signatures of 65 x 8 B per update (about 27 cache lines) and
// allocates a fresh multi-megabyte sketch every epoch. But every counter of
// a level — a signed sum of a subset of the deltas that level took — is
// bounded by that level's sum of |delta|. While that sum stays within
// INT16_MAX, every counter fits an int16 exactly, at every step. So the
// form updated at the edge is narrower than the int64 form, and the form
// shipped is narrower again:
//
//  * Span ingest: update_batch checks every key of a span first (a key
//    that does not fit throws and nothing is applied), then takes the span
//    kBlock updates at a time: one CPU-dispatched kernel hashes the block's
//    keys where they lie (detail::hash_block: mix64, the level and the r
//    buckets, 8 keys per AVX-512 vector), and the block is applied with the
//    dispatched int16 masked add (dense_add16), inlined when that is its
//    AVX-512BW form. Telemetry is tallied once per block. The agent calls
//    it with each handoff block its sketch thread takes.
//  * Staging: per level, r x s blocks of 64 int16 bit counters, each block
//    64-byte aligned (128 B, 2 cache lines), with the r x s bucket totals
//    kept apart as int32, and a bitmap of the buckets updated this epoch.
//    Levels are allocated on first touch and reused by every later epoch;
//    the constructor allocates no staging.
//  * Exactness, per level: an update that would push its level's sum of
//    |delta| past INT16_MAX first folds that level alone into the same
//    level of an int64 DistinctCountSketch spill and continues; a single
//    |delta| > INT16_MAX goes straight to the spill. That is the only
//    fallback. On the paper's 6.1 epochs (131072 unit updates) level 0
//    folds about twice and level 1 once. The spill and its levels are kept
//    across epochs, so a fold allocates nothing after the first epoch; a
//    spilled counter only ever sits in a bucket updated this epoch.
//  * Seal: writes exactly the blob DistinctCountSketch::serialize writes
//    for the epoch — the same prefix writer, a level mask of the levels
//    touched this epoch (a level whose counters netted to zero included,
//    as the int64 sketch would have allocated it), and per touched level
//    the live buckets among those updated this epoch, widened (plus the
//    spill level if it folded) into the same level packer. Staging and
//    spill are zeroed in that pass.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/instruments.hpp"
#include "sketch/count_signature.hpp"
#include "sketch/dcs_params.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/sketch_blob.hpp"
#include "sketch/sketch_hashes.hpp"
#include "stream/flow_update.hpp"

namespace dcs {

class EpochSketch {
 public:
  /// Updates hashed by one detail::hash_block call and applied together.
  static constexpr std::size_t kBlock = 64;

  explicit EpochSketch(DcsParams params = {});

  /// Apply keys[i] with deltas[i], in order. Spans of different sizes, or
  /// a key that does not fit params().key_bits, throw
  /// std::invalid_argument before any update of the span is applied.
  void update_batch(std::span<const PairKey> keys,
                    std::span<const int> deltas);
  /// One update: a span of one.
  void update_key(PairKey key, int delta) {
    update_batch({&key, 1}, {&delta, 1});
  }
  /// Apply one flow update (group = destination, member = source).
  void update(Addr group, Addr member, int delta) {
    update_key(pack_pair(group, member), delta);
  }

  /// End the epoch: return the blob DistinctCountSketch::serialize writes
  /// for a fresh sketch given this epoch's updates, byte for byte, and
  /// start the next epoch empty (staging levels stay allocated).
  std::string seal();

  const DcsParams& params() const noexcept { return params_; }
  /// Levels updated this epoch (bit l = level l): the blob's level mask.
  std::uint64_t touched_levels() const noexcept { return touched_; }
  /// Staging levels allocated so far, over all epochs.
  int staged_levels() const;
  /// True iff this epoch has put counters into the int64 spill (a fold or
  /// a delta too wide to stage).
  bool spilled() const noexcept { return spilled_ != 0; }

 private:
  struct alignas(64) BitBlock {
    std::int16_t counts[64];
  };
  struct Level {
    std::unique_ptr<BitBlock[]> bits;        ///< r * s, table-major.
    std::unique_ptr<std::int32_t[]> totals;  ///< r * s, same order.
    /// One bit per bucket updated this epoch: the seal and the spill fold
    /// visit only these, so sparse levels cost what they hold.
    std::unique_ptr<std::uint64_t[]> dirty;
    /// Sum of |delta| staged since the epoch began or this level last
    /// folded; never above INT16_MAX, which bounds every staged counter.
    std::uint32_t mass = 0;
  };
  /// The block apply loops, one per add kernel (epoch_sketch.cpp).
  struct BlockApply;

  /// Hash and apply n <= kBlock checked updates.
  void apply_block(const PairKey* keys, const int* deltas, std::size_t n);
  Level& staging(int level);
  /// The int64 spill level `level` (allocated on first use), marked as
  /// spilled this epoch.
  std::int64_t* spill_level(int level);
  /// Update `i` of the block being applied, a |delta| no int16 counter may
  /// take, straight into the spill.
  void spill_update(std::size_t i, PairKey key, int delta);
  /// Add staging level `level` into its spill level, mark it spilled and
  /// reset its mass. Its buckets stay marked as updated this epoch.
  void fold_level(int level);
  /// Widen staged bucket `i` of `stage` into `signature` (the total, then
  /// 64 bit counters) and zero it.
  static void take_signature(Level& stage, std::size_t i,
                             std::int64_t* signature);

  DcsParams params_;
  SketchHashes hashes_;
  /// BlockApply's entry for add_: the one with it inlined when add_ is
  /// detail::dense_add16_avx512, else the one calling through add_.
  void (*apply_)(EpochSketch&, const PairKey*, const int*,
                 std::size_t) = nullptr;
  /// The int16 add of the portable apply loop.
  detail::DenseAdd16Fn add_;
  /// The block's hashes: a level per update, and r rows of kBlock buckets.
  std::array<std::uint8_t, kBlock> block_levels_;
  std::vector<std::uint32_t> block_buckets_;
  std::array<Level, 64> levels_;
  std::uint64_t touched_ = 0;
  /// Levels holding spilled counters this epoch; their spill levels are
  /// zero outside this mask.
  std::uint64_t spilled_ = 0;
  /// Created on the first fold and kept, levels included, for later epochs.
  std::unique_ptr<DistinctCountSketch> spill_;
  blob::LevelPacker packer_;
  obs::SketchUpdateTally pending_metrics_;
};

}  // namespace dcs

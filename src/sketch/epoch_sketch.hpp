// EpochSketch: the form of a Distinct-Count Sketch a site agent updates on
// the router thread, one epoch at a time (src/service/agent.hpp).
//
// An agent ships each epoch as the serialized int64 DistinctCountSketch of
// that epoch's updates. Updating the int64 sketch directly writes r
// signatures of 65 x 8 B per update (about 27 cache lines) and allocates a
// fresh multi-megabyte sketch every epoch. But every counter of a level —
// a signed sum of a subset of the deltas that level took — is bounded by
// that level's sum of |delta|. While that sum stays within INT16_MAX, every
// counter fits an int16 exactly, at every step. So the form updated at the
// edge is narrower than the form shipped:
//
//  * Staging: per level, r x s blocks of 64 int16 bit counters, each block
//    64-byte aligned (128 B, 2 cache lines), with the r x s bucket totals
//    kept apart as int32. A full-width update is 2 masked vector adds per
//    table (detail::dense_add16). Levels are allocated on first touch and
//    reused by every later epoch; the constructor allocates no staging.
//  * Exactness, per level: an update that would push its level's sum of
//    |delta| past INT16_MAX first folds that level alone into the same
//    level of an int64 DistinctCountSketch spill and continues; a single
//    |delta| > INT16_MAX goes straight to the spill. That is the only
//    fallback. On the paper's 6.1 epochs (131072 unit updates) level 0
//    folds about twice and level 1 once. The spill and its levels are kept
//    across epochs, so a fold allocates nothing after the first epoch.
//  * Seal: writes exactly the bytes DistinctCountSketch::serialize writes
//    for the epoch — the same prefix writer, a level mask of the levels
//    touched this epoch (a level whose counters netted to zero included,
//    as the int64 sketch would have allocated it), and each touched level
//    widened straight into the blob in the interleaved [total, bits...]
//    int64 layout, added to its spill level if it folded, its staging
//    zeroed in the same pass (and the spill level after its copy).
//
// Keys hash through the same SketchHashes as DistinctCountSketch, each
// key mixed once (mix64, then from_mixed for the level and every table).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/instruments.hpp"
#include "sketch/count_signature.hpp"
#include "sketch/dcs_params.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "stream/flow_update.hpp"

namespace dcs {

class EpochSketch {
 public:
  explicit EpochSketch(DcsParams params = {});

  /// Apply one flow update (group = destination, member = source).
  void update(Addr group, Addr member, int delta) {
    update_key(pack_pair(group, member), delta);
  }
  /// Apply an update for a packed key. A key that does not fit
  /// params().key_bits throws std::invalid_argument and changes nothing.
  void update_key(PairKey key, int delta);

  /// End the epoch: return the blob DistinctCountSketch::serialize writes
  /// for a fresh sketch given this epoch's updates, byte for byte, and
  /// start the next epoch empty (staging levels stay allocated).
  std::string seal();

  const DcsParams& params() const noexcept { return params_; }
  /// Levels updated this epoch (bit l = level l): the blob's level mask.
  std::uint64_t touched_levels() const noexcept { return touched_; }
  /// Staging levels allocated so far, over all epochs.
  int staged_levels() const noexcept;
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
    /// One bit per bucket updated since the last drain: the seal and the
    /// spill fold visit only these, so sparse levels cost what they hold.
    std::unique_ptr<std::uint64_t[]> dirty;
    /// Sum of |delta| staged since the epoch began or this level last
    /// folded; never above INT16_MAX, which bounds every staged counter.
    std::uint32_t mass = 0;
  };

  Level& staging(int level);
  /// The int64 spill level `level` (allocated on first use), marked as
  /// spilled this epoch.
  std::int64_t* spill_level(int level);
  /// Move staging level `level` into its spill level and mark it spilled.
  void fold_level(int level);
  /// Move staging level `level` into `out`, its int64 counters in the blob
  /// layout: added to what `out` holds if `accumulate`, else stored over
  /// it (zeroed bytes). Visits only dirty buckets and leaves them zero.
  void drain_level(int level, char* out, bool accumulate);

  DcsParams params_;
  SketchHashes hashes_;
  detail::DenseAdd16Fn add_;
  std::array<Level, 64> levels_;
  std::uint64_t touched_ = 0;
  /// Levels holding spilled counters this epoch; their spill levels are
  /// zero outside this mask.
  std::uint64_t spilled_ = 0;
  /// Created on the first fold and kept, levels included, for later epochs.
  std::unique_ptr<DistinctCountSketch> spill_;
  obs::SketchUpdateTally pending_metrics_;
};

}  // namespace dcs

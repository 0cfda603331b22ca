// The basic Distinct-Count Sketch (paper §3–§4).
//
// Structure: a first-level geometric hash h with Pr[h(key) = l] = 2^-(l+1)
// partitions the key domain across levels; each level holds r independent
// second-level hash tables of s buckets; each bucket holds a count signature
// (see count_signature.hpp). The sketch is *linear* in the update stream:
// every counter is a signed sum of ±1 contributions, so deletions exactly
// cancel insertions and two sketches with identical parameters merge by
// adding counters — which is how the epoch sketches site agents ship combine
// into one network-wide view at a collector (src/service).
//
// Query (BaseTopk, Fig. 3): walk levels top-down collecting singleton keys —
// a *distinct sample* of the active (net-positive) pairs — until the sample
// reaches the target size; the k most frequent groups in the sample, scaled
// by 2^inference_level, estimate the top-k distinct-member frequencies.
//
// Note on the paper's pseudocode: Fig. 3 decrements b once more before
// scaling by 2^b, which under-scales by 2 relative to the paper's own
// analysis (E[u_b] = U/2^b for the sample collected from levels >= b). We
// scale by 2^l for the lowest level l actually included (see DESIGN.md);
// unit tests verify unbiasedness.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "obs/instruments.hpp"
#include "sketch/count_signature.hpp"
#include "sketch/dcs_params.hpp"
#include "sketch/sketch_blob.hpp"
#include "sketch/sketch_hashes.hpp"
#include "sketch/top_k.hpp"
#include "stream/flow_update.hpp"

namespace dcs {

class DistinctCountSketch final : public TopKEstimator {
 public:
  explicit DistinctCountSketch(DcsParams params = {});

  // --- streaming updates -------------------------------------------------
  /// Process one flow update; for DDoS tracking group = destination and
  /// member = source.
  void update(Addr group, Addr member, int delta) override;

  /// Process an update for an already-packed key. Throws if the key does not
  /// fit in params().key_bits.
  void update_key(PairKey key, int delta);

  /// Batched ingest: validate the whole span and precompute every level
  /// hash up front, then apply level-major (counting-sorted) with the
  /// touched count-signature lines software-prefetched ahead of the applies,
  /// amortizing the telemetry tallies to once per span. The sketch is
  /// linear, so reordering is sound and the final state is bit-identical to
  /// calling update() once per element in order (tested via operator==).
  /// A key that does not fit key_bits throws before anything is applied,
  /// leaving the sketch unchanged for the entire span.
  void update_batch(std::span<const FlowUpdate> updates);

  /// Block size used by order-preserving batch consumers (TrackingDcs):
  /// hashes for this many updates are computed and prefetched before any is
  /// applied.
  static constexpr std::size_t kBatchBlock = 64;
  /// Rolling prefetch distance inside a block, in (update, table) targets:
  /// target i + kPrefetchAhead is prefetched while target i is applied. Deep
  /// enough to hide a memory round-trip behind several signature applies,
  /// shallow enough that prefetched lines (a signature spans multiple cache
  /// lines) are not evicted before use.
  static constexpr std::size_t kPrefetchAhead = 8;

  // --- queries -----------------------------------------------------------
  /// BaseTopk (Fig. 3): approximate top-k groups by distinct-member count.
  TopKResult top_k(std::size_t k) const override;

  /// Threshold variant (paper footnote 3): every group whose estimated
  /// frequency is >= tau, descending.
  std::vector<TopKEntry> groups_above(std::uint64_t tau) const;

  /// FM-style estimate of the total number of distinct net-positive pairs.
  std::uint64_t estimate_distinct_pairs() const;

  /// Point query: estimated distinct-member frequency of one group.
  std::uint64_t estimate_frequency(Addr group) const;

  /// A distinct sample of active pairs plus the level it was inferred at
  /// (sampling probability 2^-inference_level per pair).
  struct DistinctSample {
    std::vector<PairKey> keys;
    int inference_level = 0;
  };
  DistinctSample collect_sample() const;

  /// GetdSample (Fig. 4): all recoverable singleton keys at one level.
  std::vector<PairKey> level_sample(int level) const;

  /// Number of non-empty second-level buckets at (level, table); the input
  /// to linear-counting collision correction.
  std::uint64_t occupied_buckets(int level, int table) const;

  /// Linear-counting estimate of the number of distinct keys hashed into
  /// `level`, from bucket occupancy averaged over the r tables. Sees through
  /// collisions that singleton recovery misses.
  double estimate_level_population(int level) const;

  /// Multiplier applied to sample-derived estimates when
  /// params().collision_correction is set: (Σ_{l >= level} n̂_l) / sample,
  /// clamped to >= 1. Returns 1 when correction is disabled or the sample is
  /// empty.
  double correction_factor(int level, std::uint64_t sample_size) const;

  // --- structural access (used by TrackingDcs and tests) ------------------
  int level_of(PairKey key) const noexcept { return hashes_.level(key); }

  std::uint32_t bucket_of(int table, PairKey key) const noexcept {
    return hashes_.buckets.bucket(table, key);
  }

  /// Classify one second-level bucket (empty / singleton / collision).
  /// An unallocated level classifies as empty.
  BucketClass classify_bucket(int level, int table, std::uint32_t bucket) const;

  /// Apply `delta` for `key` to a single second-level table's signature,
  /// allocating the level lazily. TrackingDcs interleaves this with pre/post
  /// classification to maintain its incremental state.
  void apply_to_table(int level, int table, PairKey key, int delta);

  /// Prefetch the count-signature lines `key` touches at (level, table);
  /// a no-op for unallocated levels. The batched tracking ingest resolves a
  /// block's hashes first and prefetches here so the classify/apply reads
  /// that follow overlap their memory latency.
  void prefetch_bucket(int level, int table, PairKey key) const {
    if (!level_allocated(level)) return;
    prefetch_write(counters_at(level, table, bucket_of(table, key)),
                   params_.signature_width() * sizeof(std::int64_t));
  }

  // --- composition / persistence ------------------------------------------
  /// Add `other`'s counters into this sketch. Both sketches must have been
  /// built with identical parameters (including seed); throws otherwise.
  void merge(const DistinctCountSketch& other);

  /// Subtract `other`'s counters (linearity: the result is the sketch of the
  /// difference stream). Subtracting an earlier snapshot of the same stream
  /// yields the sketch of everything that arrived since — top-k over the
  /// difference finds the destinations with the most NEW distinct sources
  /// (epoch-based heavy-change detection, after Krishnamurthy et al.).
  /// Caveat: if pairs present in `other` were since deleted, the difference
  /// has net-negative pairs; such buckets classify as collisions (and ghost
  /// singletons are filtered by the recovery re-hash check), so use against
  /// a snapshot of the same monotonically-growing stream for exact semantics.
  void subtract(const DistinctCountSketch& other);

  /// Add the counters of a validated blob (SketchBlob::parse): the same
  /// result as merge(deserialize(blob)), without building the sketch.
  /// Throws std::invalid_argument on a parameter/seed mismatch, before
  /// anything is added.
  void merge(const SketchBlob& blob);

  /// Write the canonical blob (sketch/sketch_blob.hpp): every allocated
  /// level, its live buckets only, at the level's narrowest counter width.
  void serialize(BinaryWriter& writer) const;
  /// Read a blob; throws SerializeError (StaleFormatError for a blob of an
  /// older format version) on anything but the canonical form.
  static DistinctCountSketch deserialize(BinaryReader& reader);

  /// True iff params and all counters match (unallocated levels compare
  /// equal to all-zero levels).
  friend bool operator==(const DistinctCountSketch& a,
                         const DistinctCountSketch& b);

  // --- introspection -------------------------------------------------------
  const DcsParams& params() const noexcept { return params_; }
  bool level_allocated(int level) const noexcept {
    return !levels_[static_cast<std::size_t>(level)].empty();
  }
  int allocated_levels() const noexcept;
  std::size_t memory_bytes() const override;
  std::string name() const override { return "dcs-basic"; }

  /// Scan all allocated buckets for signatures that no valid update stream
  /// can produce (negative totals, bit counts outside [0, total]); returns
  /// true when clean. O(size of sketch) — a debugging aid, not a query.
  bool validate() const;

 private:
  /// The agent's epoch form folds into and reads the int64 levels directly
  /// when its int16 staging folds or spills (sketch/epoch_sketch.hpp).
  friend class EpochSketch;
  /// The tracking merges classify each bucket a delta names, add it, and
  /// classify it again, on the int64 levels in place (sketch/tracking_dcs.hpp).
  friend class TrackingDcs;

  std::int64_t* counters_at(int level, int table, std::uint32_t bucket);
  const std::int64_t* counters_at(int level, int table,
                                  std::uint32_t bucket) const;
  void ensure_level(int level);
  void check_key(PairKey key) const;
  std::uint64_t allocated_mask() const noexcept;

  DcsParams params_;
  SketchHashes hashes_;
  /// levels_[l] is either empty (never touched) or a flat array of
  /// r * s * (key_bits + 1) counters.
  std::vector<std::vector<std::int64_t>> levels_;
  /// Update-path telemetry, flushed at query time too. Mutable: queries
  /// flush from const paths.
  mutable obs::SketchUpdateTally pending_metrics_;
};

/// Shared by BaseTopk and the threshold query: count group occurrences in a
/// distinct sample and return entries with counts multiplied by `scale`
/// (2^level, times the collision-correction factor when enabled), ordered by
/// estimate descending then group ascending. `k == 0` means "all groups".
std::vector<TopKEntry> rank_sample_groups(const std::vector<PairKey>& sample,
                                          double scale, std::size_t k);

/// Linear-counting ("probabilistic counting with a bitmap") estimate of how
/// many distinct keys landed in a hash table of `buckets` buckets given that
/// `occupied` of them are non-empty: n̂ = ln(1 - o/s) / ln(1 - 1/s). A
/// saturated table (o == s) is clamped to o = s - 1/2.
double linear_count_estimate(std::uint64_t occupied, std::uint32_t buckets);

}  // namespace dcs

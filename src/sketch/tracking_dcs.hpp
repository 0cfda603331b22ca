// The Tracking Distinct-Count Sketch (paper §5).
//
// Wraps the basic sketch and *incrementally* maintains, per first-level
// bucket b:
//   * singletons(b)      — the current distinct sample contributed by b: a
//                          map from singleton key to the number of
//                          second-level tables where it is currently alone;
//   * numSingletons(b)   — |singletons(b)| (the map's size);
//   * topDestHeap(b)     — a max-heap over groups (destinations) keyed by
//                          their occurrence frequency in the cumulative
//                          sample ∪_{l >= b} singletons(l).
//
// Each stream update touches r second-level buckets; for each we classify
// the bucket before and after applying the count-signature update and diff
// the two states. This uniform state-before/apply/state-after scheme covers
// every transition of the paper's Fig. 6 — empty→singleton,
// singleton→collision, singleton→empty, collision→singleton, and
// singleton(p)→singleton(p) — for insertions and deletions symmetrically.
//
// A merge runs the same diff bucket by bucket over exactly the buckets the
// delta names, so a shipped epoch costs its live buckets, not the sketch.
// Only construction classifies every bucket.
//
// TrackTopk (Fig. 7) then answers a top-k query in O(k log k): infer the
// sampling level from the numSingletons counters and read the top k entries
// off that level's heap.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sketch/distinct_count_sketch.hpp"
#include "sketch/indexed_heap.hpp"
#include "sketch/top_k.hpp"

namespace dcs {

class TrackingDcs final : public TopKEstimator {
 public:
  explicit TrackingDcs(DcsParams params = {});

  /// Adopt an existing basic sketch (e.g. the merge of several router-level
  /// monitors) and build the tracking state over it. Taken by value: an
  /// owner that is done with its sketch moves it in rather than keep a
  /// second dense copy.
  explicit TrackingDcs(DistinctCountSketch sketch);

  // --- streaming updates ---------------------------------------------------
  void update(Addr group, Addr member, int delta) override;
  void update_key(PairKey key, int delta);

  /// Batched ingest: per block of DistinctCountSketch::kBatchBlock updates,
  /// precompute the level/bucket hashes and prefetch the touched signature
  /// lines, then run the usual classify/apply/classify maintenance per
  /// update in order. State (sketch counters, singleton maps, heaps) is
  /// identical to calling update() per element; the per-update telemetry
  /// tally is amortized to once per block.
  void update_batch(std::span<const FlowUpdate> updates);

  // --- queries --------------------------------------------------------------
  /// TrackTopk (Fig. 7): O(k log k), no sample reconstruction.
  TopKResult top_k(std::size_t k) const override;

  /// Threshold variant: all groups with estimated frequency >= tau.
  std::vector<TopKEntry> groups_above(std::uint64_t tau) const;

  /// Estimate of the number of distinct net-positive pairs, from the
  /// maintained per-level singleton counters.
  std::uint64_t estimate_distinct_pairs() const;

  /// Point query: estimated distinct-member frequency of one group —
  /// O(log m) (inference-level scan plus an O(1) heap lookup).
  std::uint64_t estimate_frequency(Addr group) const;

  // --- composition -----------------------------------------------------------
  /// Merge another monitor's sketch (identical params/seed): merge_sketch
  /// of its counters.
  void merge(const TrackingDcs& other);

  /// Merge a *basic* sketch delta (e.g. one site's per-epoch snapshot
  /// shipped over the wire by src/service). Each bucket whose delta
  /// signature is nonzero is classified, added to and classified again,
  /// and the two classes are diffed into the tracking state as an update
  /// would be; no other bucket is read. Heap priorities are sums and ties
  /// break by key, so the order of the transitions cannot change an
  /// answer: the state is identical to TrackingDcs over the summed
  /// counters, and by linearity to having ingested the delta's update
  /// stream directly, in any order relative to other sites' deltas.
  /// Throws std::invalid_argument on a parameter/seed mismatch, before
  /// anything is added.
  void merge_sketch(const DistinctCountSketch& delta);
  /// The same merge straight from a validated blob (SketchBlob::parse):
  /// exactly the live buckets its bitmaps name are classified, added and
  /// classified again, with no intermediate sketch.
  void merge_sketch(const SketchBlob& delta);

  /// Reconstruct singleton maps, heaps and occupancy from the raw sketch
  /// counters in one pass over every allocated bucket. Construction runs
  /// it; no merge does. O(sketch size); moves no telemetry counter.
  void rebuild();

  void serialize(BinaryWriter& writer) const;
  static TrackingDcs deserialize(BinaryReader& reader);

  // --- introspection ----------------------------------------------------------
  const DistinctCountSketch& sketch() const noexcept { return sketch_; }
  const DcsParams& params() const noexcept { return sketch_.params(); }

  /// numSingletons(level): distinct pairs currently recoverable at `level`.
  std::uint64_t num_singletons(int level) const;

  /// topDestHeap(level) — exposed for tests and diagnostics.
  const IndexedMaxHeap<Addr>& heap(int level) const {
    return heaps_[static_cast<std::size_t>(level)];
  }

  /// Recompute all tracking state from the raw counters and compare with the
  /// incrementally-maintained state. O(sketch size); test/debug aid.
  bool check_invariants() const;

  std::size_t memory_bytes() const override;
  std::string name() const override { return "dcs-tracking"; }

 private:
  using SingletonMap = std::unordered_map<PairKey, std::uint32_t>;

  /// One table's worth of update: classify before, apply, classify after,
  /// and diff the two states into the incremental tracking structures.
  /// Shared by the per-update and batched ingest paths.
  void apply_tracked(int level, int table, PairKey key, int delta);

  /// Diff one bucket's class before and after a change into the singleton
  /// maps, heaps and occupancy (Fig. 6). Every update and merge ends here.
  void track(int level, int table, const BucketClass& before,
             const BucketClass& after);

  /// `key` became a singleton in one more table of `level`'s bucket.
  void singleton_gained(int level, PairKey key);
  /// `key` stopped being a singleton in one table of `level`'s bucket.
  void singleton_lost(int level, PairKey key);

  /// Push the pending transition tallies to TrackingMetrics and reset
  /// them: once per update, batch block or merge, so no per-transition
  /// atomic runs inside a merge.
  void flush_tally();

  /// Compute what the singleton maps should be, straight from the counters.
  std::vector<SingletonMap> recompute_singletons() const;

  /// Find the inference level and cumulative sample size (TrackTopk 1-7).
  std::pair<int, std::uint64_t> inference_level() const;

  /// Collision-correction multiplier (see DcsParams::collision_correction),
  /// computed from the incrementally-maintained occupancy counters; agrees
  /// exactly with DistinctCountSketch::correction_factor on the same state.
  double correction_factor(int level, std::uint64_t sample_size) const;

  DistinctCountSketch sketch_;
  std::vector<SingletonMap> singletons_;        // per level
  std::vector<IndexedMaxHeap<Addr>> heaps_;     // per level (cumulative)
  /// occupancy_[level][table] = non-empty buckets, maintained on
  /// empty <-> non-empty transitions.
  std::vector<std::vector<std::uint32_t>> occupancy_;
  /// Singleton transitions and heap adjustments since the last flush.
  struct Tally {
    std::uint64_t gained = 0;
    std::uint64_t lost = 0;
    std::uint64_t heap_ops = 0;
  };
  Tally pending_;
};

}  // namespace dcs

// Configuration of a Distinct-Count Sketch (basic or tracking).
//
// Notation maps to the paper as: num_tables = r, buckets_per_table = s,
// key_bits = log(m^2) (64 for packed 32-bit address pairs), max_level bounds
// the first-level geometric hash, and epsilon enters the estimator's
// distinct-sample stopping rule (target sample size (1+ε)·s/16, Fig. 3/7).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dcs {

struct DcsParams {
  /// Number of independent second-level hash tables per first-level bucket
  /// (the paper's r; default from §6.1).
  int num_tables = 3;
  /// Buckets per second-level hash table (the paper's s; default from §6.1).
  std::uint32_t buckets_per_table = 128;
  /// Bits in a stream key. 64 for (source, dest) pairs of IPv4 addresses;
  /// smaller domains (tests) may use fewer. Count signatures then carry
  /// key_bits + 1 counters.
  int key_bits = 64;
  /// Highest first-level bucket index (levels 0..max_level). The level hash
  /// folds deeper levels into max_level; with 64-bit hashing the default 63
  /// loses nothing.
  int max_level = 63;
  /// Relative-accuracy knob ε < 1/3 from TRACKAPPROXTOPK; only the
  /// distinct-sample stopping threshold depends on it at query time.
  double epsilon = 0.25;
  /// Distinct-sample stopping target as a fraction of s; 0 selects the
  /// paper's literal rule (1+ε)·s/16.
  ///
  /// Default 1.0: descend until the cumulative sample reaches ~s keys, which
  /// places the expected load of the stopping level at s/2 — exactly the
  /// recoverability bound of the paper's Lemma 4.1 — and yields a sample an
  /// order of magnitude larger than the (1+ε)·s/16 constant of the paper's
  /// pseudocode, at the cost of a few percent recovery loss on the boundary
  /// level. bench/ablation_stopping quantifies the trade-off (see DESIGN.md).
  double sample_target_fraction = 1.0;
  /// Collision-corrected estimation. At the default stopping rule the
  /// boundary level carries a load of up to ~s pairs, and a few percent of
  /// them collide in all r tables and drop out of the distinct sample,
  /// biasing every estimate ~5-10% low. With correction enabled, each
  /// level's true population is estimated from its bucket *occupancy* via
  /// linear counting (n̂ = ln(1-o/s)/ln(1-1/s), averaged over the r tables)
  /// and estimates are rescaled by (Σ n̂) / |sample|. Estimates stop being
  /// exact multiples of 2^level; exactness on tiny streams is preserved to
  /// within rounding. Off by default for faithfulness to the paper.
  bool collision_correction = false;
  /// Master seed for all hash functions. Sketches are mergeable iff their
  /// params (including seed) are identical.
  std::uint64_t seed = 0;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;

  /// Counters per second-level bucket: one total + key_bits bit-location
  /// counts (the paper's 2·log m + 1).
  std::size_t signature_width() const noexcept {
    return static_cast<std::size_t>(key_bits) + 1;
  }

  /// True iff `key` fits in key_bits; sketches reject wider keys.
  bool key_fits(std::uint64_t key) const noexcept {
    return key_bits >= 64 || (key >> key_bits) == 0;
  }

  /// Counters in one first-level bucket's full second-level structure.
  std::size_t counters_per_level() const noexcept {
    return static_cast<std::size_t>(num_tables) * buckets_per_table *
           signature_width();
  }

  std::size_t level_bytes() const noexcept {
    return counters_per_level() * sizeof(std::int64_t);
  }

  /// Distinct-sample size the estimators aim for before inferring the
  /// sampling level (Fig. 3 step 3 / Fig. 7 step 4).
  std::uint64_t sample_target() const noexcept;

  /// Order-sensitive 64-bit digest of every field (including the seed).
  /// Two sketches are mergeable iff their params are identical, so remote
  /// peers exchange this fingerprint in their handshake and reject a
  /// mismatch before any counters cross the wire (src/service).
  std::uint64_t fingerprint() const noexcept;

  /// Conservative parameter choice implementing Theorems 4.4 / 5.1 literally:
  /// r = Θ(log(n/δ)), s = Θ(U·log((n+log m)/δ) / (f_k·ε²)). The constants in
  /// the paper's analysis are loose; §6.1's empirical defaults (r=3, s=128)
  /// are far smaller and work well in practice.
  static DcsParams recommend(double epsilon, double delta,
                             std::uint64_t expected_distinct_pairs,
                             std::uint64_t expected_kth_frequency,
                             std::uint64_t expected_stream_length);

  /// Practical sizing: the largest power-of-two s (at r = 3) whose sketch
  /// fits the given memory budget, assuming ~log2(expected_distinct_pairs)+1
  /// allocated levels. Deployments usually start from a budget, not from
  /// ε/δ; accuracy then follows from s (see bench/ablation_rs).
  static DcsParams for_memory_budget(std::size_t budget_bytes,
                                     std::uint64_t expected_distinct_pairs);

  friend bool operator==(const DcsParams&, const DcsParams&) = default;
};

}  // namespace dcs

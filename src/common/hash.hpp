// Seeded 64-bit hash functions used by the Distinct-Count Sketch.
//
// The paper requires two kinds of hash functions over the pair domain [m^2]:
//   * a "level" hash h with geometric bucket probabilities
//     Pr[h(x) = l] = 2^-(l+1), implemented (per Flajolet-Martin) as the index
//     of the least-significant set bit of a uniformly randomizing function;
//   * r independent uniform hashes g_1..g_r mapping [m^2] -> [s].
//
// Both are built on top of strong seeded 64->64-bit mixers. We provide two
// mixer qualities (STRONG: two xor-shift-multiply rounds of the splitmix64 /
// murmur3 finalizer family; WEAK: a single multiply, used only by the hash-
// quality ablation benchmark to show why mixing strength matters).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.hpp"

namespace dcs {

/// splitmix64 finalizer: a full-avalanche 64->64 bit mixer.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// murmur3 fmix64 finalizer (used when a second independent mixer is needed).
inline std::uint64_t fmix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Deliberately weak mixer (single multiply, no final avalanche) — exists only
/// so the hash-quality ablation can demonstrate the failure mode.
inline std::uint64_t weak_mix64(std::uint64_t x) noexcept {
  return x * 0x9e3779b97f4a7c15ULL;
}

/// 128-bit product type (GCC/Clang extension, wrapped to stay -Wpedantic
/// clean).
__extension__ using uint128 = unsigned __int128;

/// Map a uniform 64-bit hash onto [0, range) without modulo bias
/// (Lemire's multiply-shift reduction).
inline std::uint32_t reduce_range(std::uint64_t hash, std::uint32_t range) noexcept {
  return static_cast<std::uint32_t>((static_cast<uint128>(hash) * range) >> 64);
}

/// A seeded uniform hash: h(x) = mix(seed ^ mix(x)). Distinct seeds give
/// (empirically) independent functions; determinism across runs is guaranteed
/// for a fixed seed.
class SeededHash {
 public:
  explicit SeededHash(std::uint64_t seed = 0) noexcept : seed_(mix64(seed)) {}

  std::uint64_t operator()(std::uint64_t key) const noexcept {
    return fmix64(seed_ ^ mix64(key));
  }

  /// Hash a key whose mix64() the caller has already computed — batch ingest
  /// hashes each key once and reuses the mix across the level hash and every
  /// bucket hash. from_mixed(mix64(k)) == operator()(k) by construction.
  std::uint64_t from_mixed(std::uint64_t mixed_key) const noexcept {
    return fmix64(seed_ ^ mixed_key);
  }

  std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// Geometric "level" hash: Pr[level(x) = l] = 2^-(l+1), capped at max_level.
/// Implemented as LSB(uniform_hash(x)) exactly as suggested in the paper
/// (footnote 5, after Flajolet-Martin).
class LevelHash {
 public:
  LevelHash() : LevelHash(0, 63) {}
  LevelHash(std::uint64_t seed, int max_level) noexcept
      : hash_(seed), max_level_(max_level) {}

  int operator()(std::uint64_t key) const noexcept {
    return level_from(hash_(key));
  }

  /// Level for a precomputed mix64(key) (see SeededHash::from_mixed).
  int from_mixed(std::uint64_t mixed_key) const noexcept {
    return level_from(hash_.from_mixed(mixed_key));
  }

  int max_level() const noexcept { return max_level_; }
  /// The mixed seed of the underlying uniform hash (SeededHash::seed).
  std::uint64_t seed() const noexcept { return hash_.seed(); }

 private:
  int level_from(std::uint64_t h) const noexcept {
    // h == 0 happens with probability 2^-64; fold it into the deepest level.
    const int l = (h == 0) ? max_level_ : lsb_index(h);
    return l > max_level_ ? max_level_ : l;
  }

  SeededHash hash_;
  int max_level_;
};

/// A family of r independent uniform hashes g_j : [2^64] -> [s], one per
/// second-level hash table of a first-level bucket.
class BucketHashFamily {
 public:
  BucketHashFamily() = default;

  /// Construct `count` functions onto [0, range), derived from `seed`.
  BucketHashFamily(std::uint64_t seed, int count, std::uint32_t range);

  std::uint32_t bucket(int j, std::uint64_t key) const noexcept {
    return reduce_range(hashes_[static_cast<std::size_t>(j)](key), range_);
  }

  /// bucket(j, key) for a precomputed mix64(key) (see SeededHash::from_mixed).
  std::uint32_t bucket_mixed(int j, std::uint64_t mixed_key) const noexcept {
    return reduce_range(
        hashes_[static_cast<std::size_t>(j)].from_mixed(mixed_key), range_);
  }

  int count() const noexcept { return static_cast<int>(hashes_.size()); }
  std::uint32_t range() const noexcept { return range_; }
  /// The mixed seed of g_j (SeededHash::seed).
  std::uint64_t seed(int j) const noexcept {
    return hashes_[static_cast<std::size_t>(j)].seed();
  }

 private:
  std::vector<SeededHash> hashes_;
  std::uint32_t range_ = 1;
};

}  // namespace dcs

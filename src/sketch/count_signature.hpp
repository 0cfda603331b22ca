// Count signatures — the per-bucket structure at the heart of the
// Distinct-Count Sketch (paper §3).
//
// A signature is an array of key_bits + 1 signed counters over the (multi)set
// of keys currently hashed into a second-level bucket:
//   counters[0]      — net total number of keys in the bucket;
//   counters[1 + i]  — net number of keys whose bit i is 1.
// Because every counter is a linear function of the stream, insert-then-
// delete leaves the signature exactly as if the item was never seen — this is
// what makes the whole sketch delete-resilient.
//
// Classification (paper's ReturnSingleton, Fig. 4): a bucket is a singleton
// iff total > 0 and every bit counter is either 0 or equal to the total; the
// unique key is then read off bit by bit. Two distinct keys must differ in
// some bit, and with nonnegative per-key net counts that bit's counter falls
// strictly between 0 and the total — so classification is exact for valid
// update streams. Counters outside [0, total] (possible only if a stream
// deletes items it never inserted) are reported as kCollision.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "stream/flow_update.hpp"

namespace dcs {

namespace detail {
/// Runtime-dispatched dense signature apply: add `delta` to the total counter
/// and to each of the 64 bit counters whose bit is set in `key`, as masked
/// vector adds (AVX-512F: 8 masked 512-bit adds; AVX2: 16 nibble-masked
/// 256-bit adds). Signed 64-bit integer adds, so the result is bit-identical
/// to the scalar loop. Resolved once from CPUID at startup; nullptr on
/// machines without the ISA (callers fall back to the sparse scalar loop,
/// which is also the safe default if an add runs before dynamic init).
using DenseAddFn = void (*)(std::int64_t* counters, std::uint64_t key,
                            std::int64_t delta);
extern const DenseAddFn dense_add;

/// The epoch-counter form of dense_add (sketch/epoch_sketch.hpp): add
/// `delta` to each of the 64 int16 bit counters at `bits` whose bit is set
/// in `key`. The bucket total lives apart and is not touched. The adds wrap
/// silently, so the caller guarantees no counter leaves int16 range.
/// Resolved once from CPUID to the first entry of dense_add16_variants();
/// nullptr only before dynamic initialization.
using DenseAdd16Fn = void (*)(std::int16_t* bits, std::uint64_t key,
                              std::int16_t delta);
extern const DenseAdd16Fn dense_add16;

/// The set-bit loop behind dense_add16 on machines without the ISA, also
/// used for keys narrower than 64 bits. O(popcount(key)).
void dense_add16_portable(std::int16_t* bits, std::uint64_t key,
                          std::int16_t delta);

struct DenseAdd16Variant {
  const char* name;
  DenseAdd16Fn fn;
};
/// Every dense_add16 form compiled in that this CPU can run, fastest first
/// (AVX-512BW, AVX2, portable); dense_add16 is the first. Probes CPUID on
/// each call, so it is for tests and benchmarks, not the update path.
std::vector<DenseAdd16Variant> dense_add16_variants();
}  // namespace detail

enum class BucketState : std::uint8_t {
  kEmpty,      // no keys present
  kSingleton,  // exactly one distinct key; its value was recovered
  kCollision,  // >= 2 distinct keys (or an inconsistent signature)
};

struct BucketClass {
  BucketState state = BucketState::kEmpty;
  PairKey key = 0;  // valid iff state == kSingleton

  friend bool operator==(const BucketClass&, const BucketClass&) = default;
};

/// Non-owning view over one bucket's counters (contiguous, length
/// key_bits + 1). The sketch owns the storage; this view implements the
/// update and classification logic so it can be unit-tested in isolation.
class CountSignatureView {
 public:
  CountSignatureView(std::int64_t* counters, int key_bits) noexcept
      : counters_(counters), key_bits_(key_bits) {}

  std::int64_t total() const noexcept { return counters_[0]; }

  std::int64_t bit_count(int i) const noexcept { return counters_[1 + i]; }

  /// Apply a stream update for `key` with weight `delta` (±1, or any signed
  /// weight — the structure is linear).
  void add(PairKey key, std::int64_t delta) noexcept {
    // Full-width keys take the vector path when the CPU has one: a real pair
    // key has ~32 set bits, where a handful of masked vector adds beat a
    // 32-iteration scalar loop severalfold. Narrow keys (small test domains)
    // keep the sparse loop, which also covers machines without the ISA.
    if (key_bits_ == 64 && detail::dense_add != nullptr) {
      detail::dense_add(counters_, key, delta);
      return;
    }
    counters_[0] += delta;
    // Iterate set bits only: expected key population is half the bits, and
    // sparse keys (small test domains) update in O(popcount).
    std::uint64_t bits = key;
    while (bits != 0) {
      const int i = lsb_index(bits);
      counters_[1 + i] += delta;
      bits &= bits - 1;
    }
  }

  /// Classify the bucket and recover the singleton key if there is one.
  BucketClass classify() const noexcept {
    const std::int64_t t = counters_[0];
    if (t < 0) return {BucketState::kCollision, 0};
    if (t == 0) {
      // A truly empty bucket has all-zero counters; anything else means the
      // stream violated the no-spurious-deletes contract.
      for (int i = 0; i < key_bits_; ++i)
        if (counters_[1 + i] != 0) return {BucketState::kCollision, 0};
      return {BucketState::kEmpty, 0};
    }
    PairKey key = 0;
    for (int i = 0; i < key_bits_; ++i) {
      const std::int64_t c = counters_[1 + i];
      if (c == t) {
        key |= (PairKey{1} << i);
      } else if (c != 0) {
        return {BucketState::kCollision, 0};
      }
    }
    return {BucketState::kSingleton, key};
  }

  /// True iff every counter is zero.
  bool all_zero() const noexcept {
    for (int i = 0; i <= key_bits_; ++i)
      if (counters_[i] != 0) return false;
    return true;
  }

  std::span<const std::int64_t> raw() const noexcept {
    return {counters_, static_cast<std::size_t>(key_bits_) + 1};
  }

 private:
  std::int64_t* counters_;
  int key_bits_;
};

}  // namespace dcs

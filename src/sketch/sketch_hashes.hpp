// The hash functions of a Distinct-Count Sketch, and the block kernel that
// evaluates them for many keys at once.
//
// Every key is mixed once (mix64) and the mix feeds the first-level hash and
// each of the r second-level hashes (SeededHash::from_mixed). The batched
// ingest paths (EpochSketch's 64-update block, DistinctCountSketch's
// update_batch) hash through detail::hash_block instead of key by key. Its
// AVX-512 form runs 8 keys per vector: both mixers are 64-bit multiplies
// (vpmullq, AVX-512DQ) and xor-shifts, the level is a trailing-zero count
// built from vplzcntq (AVX-512CD) on the isolated low bit, and Lemire's
// reduce (h * s) >> 64 splits into two 32 x 32 -> 64 multiplies
// (vpmuludq): hi(h) * s + ((lo(h) * s) >> 32), shifted right by 32, never
// overflows 64 bits. So every form is bit-identical to the scalar hashes,
// which tests/epoch_sketch_test.cpp checks over a grid of shapes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "sketch/dcs_params.hpp"

namespace dcs {

/// The first-level (level) hash and the r second-level (bucket) hashes of
/// every sketch built with `params`, derived from params.seed. Anything
/// that must address the same buckets as a DistinctCountSketch
/// (EpochSketch's staging counters) derives its hashes here.
struct SketchHashes {
  explicit SketchHashes(const DcsParams& params);
  LevelHash level;
  BucketHashFamily buckets;
};

namespace detail {
/// Hash `n` keys: levels[i] = level(keys[i]) and, for every table j,
/// buckets[j * stride + i] = bucket(j, keys[i]). stride >= n.
using HashBlockFn = void (*)(const SketchHashes& hashes,
                             const std::uint64_t* keys, std::size_t n,
                             std::uint8_t* levels, std::uint32_t* buckets,
                             std::size_t stride);
/// Resolved once from CPUID to the first entry of hash_block_variants().
extern const HashBlockFn hash_block;

struct HashBlockVariant {
  const char* name;
  HashBlockFn fn;
};
/// Every hash_block form compiled in that this CPU can run, fastest first
/// (AVX-512 F+DQ+CD, then the portable per-key loop). Probes CPUID on each
/// call, so it is for tests and benchmarks, not the update path.
std::vector<HashBlockVariant> hash_block_variants();
}  // namespace detail

}  // namespace dcs

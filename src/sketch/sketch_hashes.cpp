// Block hashing, dispatched at runtime from CPUID (see sketch_hashes.hpp).
//
// Build note: like detail::dense_add (count_signature.cpp), the AVX-512
// kernel carries a `target` attribute instead of compiling the project with
// -mavx512*, so the binary still runs on machines without the ISA.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#ifndef __clang__
// GCC 12's AVX-512 intrinsics seed their pass-through operand from a
// self-initialized local, which the uninitialized-use warnings flag once
// inlined.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#define DCS_HASH_BLOCK_X86 1
#endif

#include "sketch/sketch_hashes.hpp"

namespace dcs {

namespace {
// Seed-derivation constants: keep the level hash and the bucket family
// independent even though both derive from the same master seed.
constexpr std::uint64_t kLevelSeedSalt = 0x1b873593a4093822ULL;
constexpr std::uint64_t kBucketSeedSalt = 0xcc9e2d51b5297a4dULL;
}  // namespace

SketchHashes::SketchHashes(const DcsParams& params)
    : level(mix64(params.seed ^ kLevelSeedSalt), params.max_level),
      buckets(mix64(params.seed ^ kBucketSeedSalt), params.num_tables,
              params.buckets_per_table) {}

namespace detail {

namespace {

void hash_block_portable(const SketchHashes& hashes, const std::uint64_t* keys,
                         std::size_t n, std::uint8_t* levels,
                         std::uint32_t* buckets, std::size_t stride) {
  const int tables = hashes.buckets.count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t mixed = mix64(keys[i]);
    levels[i] = static_cast<std::uint8_t>(hashes.level.from_mixed(mixed));
    for (int j = 0; j < tables; ++j)
      buckets[static_cast<std::size_t>(j) * stride + i] =
          hashes.buckets.bucket_mixed(j, mixed);
  }
}

#ifdef DCS_HASH_BLOCK_X86

#define DCS_HASH_TARGET __attribute__((target("avx512f,avx512dq,avx512cd")))

DCS_HASH_TARGET inline __m512i xorshift(__m512i x, unsigned shift) {
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, shift));
}

DCS_HASH_TARGET inline __m512i mul(__m512i x, std::uint64_t c) {
  return _mm512_mullo_epi64(x, _mm512_set1_epi64(static_cast<long long>(c)));
}

/// mix64, lane by lane.
DCS_HASH_TARGET inline __m512i mix64_x8(__m512i x) {
  x = _mm512_add_epi64(x, _mm512_set1_epi64(0x9e3779b97f4a7c15LL));
  x = mul(xorshift(x, 30), 0xbf58476d1ce4e5b9ULL);
  x = mul(xorshift(x, 27), 0x94d049bb133111ebULL);
  return xorshift(x, 31);
}

/// fmix64(seed ^ x), lane by lane: SeededHash::from_mixed.
DCS_HASH_TARGET inline __m512i seeded_x8(__m512i mixed, std::uint64_t seed) {
  __m512i x = _mm512_xor_si512(
      mixed, _mm512_set1_epi64(static_cast<long long>(seed)));
  x = mul(xorshift(x, 33), 0xff51afd7ed558ccdULL);
  x = mul(xorshift(x, 33), 0xc4ceb9fe1a85ec53ULL);
  return xorshift(x, 33);
}

DCS_HASH_TARGET void hash_block_avx512(const SketchHashes& hashes,
                                       const std::uint64_t* keys,
                                       std::size_t n, std::uint8_t* levels,
                                       std::uint32_t* buckets,
                                       std::size_t stride) {
  const int tables = hashes.buckets.count();
  const std::uint64_t level_seed = hashes.level.seed();
  const __m512i max_level =
      _mm512_set1_epi64(hashes.level.max_level());
  const __m512i range = _mm512_set1_epi64(hashes.buckets.range());
  const __m512i top = _mm512_set1_epi64(63);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? static_cast<__mmask8>(0xff)
                   : static_cast<__mmask8>((1u << (n - i)) - 1);
    const __m512i mixed = mix64_x8(_mm512_maskz_loadu_epi64(lanes, keys + i));
    // Level: the index of the lowest set bit, 63 - lzcnt(h & -h). For
    // h == 0 that reads 63 - 64 = 2^64 - 1, which the unsigned min with
    // max_level folds into the deepest level, as LevelHash does.
    const __m512i h = seeded_x8(mixed, level_seed);
    const __m512i low_bit =
        _mm512_and_si512(h, _mm512_sub_epi64(_mm512_setzero_si512(), h));
    const __m512i level = _mm512_min_epu64(
        _mm512_sub_epi64(top, _mm512_lzcnt_epi64(low_bit)), max_level);
    _mm512_mask_cvtepi64_storeu_epi8(levels + i, lanes, level);
    for (int j = 0; j < tables; ++j) {
      const __m512i g = seeded_x8(mixed, hashes.buckets.seed(j));
      const __m512i high = _mm512_mul_epu32(_mm512_srli_epi64(g, 32), range);
      const __m512i low = _mm512_srli_epi64(_mm512_mul_epu32(g, range), 32);
      const __m512i bucket =
          _mm512_srli_epi64(_mm512_add_epi64(high, low), 32);
      _mm512_mask_cvtepi64_storeu_epi32(
          buckets + static_cast<std::size_t>(j) * stride + i, lanes, bucket);
    }
  }
}

#undef DCS_HASH_TARGET

#endif  // DCS_HASH_BLOCK_X86

}  // namespace

std::vector<HashBlockVariant> hash_block_variants() {
  std::vector<HashBlockVariant> variants;
#ifdef DCS_HASH_BLOCK_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512cd"))
    variants.push_back({"avx512", &hash_block_avx512});
#endif
  variants.push_back({"portable", &hash_block_portable});
  return variants;
}

const HashBlockFn hash_block = hash_block_variants().front().fn;

}  // namespace detail

}  // namespace dcs

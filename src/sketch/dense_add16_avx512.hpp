// The AVX-512BW form of detail::dense_add16 (sketch/count_signature.hpp),
// defined inline so that one body serves two callers: count_signature.cpp
// takes its address as the dispatched dense_add16, and EpochSketch's block
// apply loop, compiled for the same target, inlines it. Only those two
// translation units include this header.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>

#include <cstdint>

#define DCS_DENSE_ADD16_AVX512 1

namespace dcs::detail {

/// A 64-counter block is exactly two 512-bit vectors, so the 64-bit key is
/// consumed 32 bits per masked add.
__attribute__((target("avx512bw"))) inline void dense_add16_avx512(
    std::int16_t* bits, std::uint64_t key, std::int16_t delta) {
  const __m512i dv = _mm512_set1_epi16(delta);
  for (int k = 0; k < 2; ++k) {
    const auto mask = static_cast<__mmask32>(key >> (32 * k));
    std::int16_t* p = bits + 32 * k;
    const __m512i v = _mm512_loadu_si512(p);
    _mm512_storeu_si512(p, _mm512_mask_add_epi16(v, mask, v, dv));
  }
}

}  // namespace dcs::detail

#endif

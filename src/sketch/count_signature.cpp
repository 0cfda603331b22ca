// Vectorized dense signature add, dispatched at runtime from CPUID.
//
// The scalar CountSignatureView::add walks the set bits of the key, one
// 64-bit counter increment per bit — O(popcount) work that is ideal for the
// narrow keys unit tests use, but a ~32-iteration serial chain for real
// 64-bit pair keys. The dense kernels below instead touch all 64 bit
// counters as full-width masked vector adds: lanes whose key bit is clear
// add zero, lanes whose bit is set add `delta`. Signed 64-bit integer
// addition is exact and associative here, so the dense result is
// bit-identical to the scalar one — only the instruction count changes.
// The int32 forms (dense_add32) serve the agent's epoch counters
// (sketch/epoch_sketch.hpp): half the width, so a signature is 4 cache
// lines and 4 AVX-512 adds instead of 9 lines and 8 adds.
//
// Build note: the kernels carry `target` attributes instead of compiling the
// whole project with -mavx2/-mavx512f, so the binary still runs on machines
// without the ISA (dense_add resolves to nullptr there and callers keep the
// scalar loop; dense_add32 resolves to its portable set-bit loop).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DCS_DENSE_ADD_X86 1
#endif

#include "sketch/count_signature.hpp"

namespace dcs::detail {

namespace {

#ifdef DCS_DENSE_ADD_X86

// AVX-512F: the 64-bit key is consumed one byte at a time as the write mask
// of a masked 512-bit add — 8 load/mask-add/store triples for the whole
// signature body.
__attribute__((target("avx512f"))) void dense_add_avx512(
    std::int64_t* counters, std::uint64_t key, std::int64_t delta) {
  counters[0] += delta;
  const __m512i dv = _mm512_set1_epi64(delta);
  for (int k = 0; k < 8; ++k) {
    const __mmask8 mask = static_cast<__mmask8>(key >> (8 * k));
    std::int64_t* p = counters + 1 + 8 * k;
    const __m512i v = _mm512_loadu_si512(p);
    _mm512_storeu_si512(p, _mm512_mask_add_epi64(v, mask, v, dv));
  }
}

// AVX2 fallback: no mask registers, so each nibble of the key is expanded to
// a 4x64 lane mask by comparing against per-lane bit constants, and the
// masked delta is added — 16 iterations over the signature body.
__attribute__((target("avx2"))) void dense_add_avx2(std::int64_t* counters,
                                                    std::uint64_t key,
                                                    std::int64_t delta) {
  counters[0] += delta;
  const __m256i dv = _mm256_set1_epi64x(delta);
  const __m256i lane_bit = _mm256_set_epi64x(8, 4, 2, 1);
  for (int k = 0; k < 16; ++k) {
    const long long nibble = static_cast<long long>((key >> (4 * k)) & 0xf);
    const __m256i mask = _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(nibble), lane_bit), lane_bit);
    std::int64_t* p = counters + 1 + 4 * k;
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(p),
        _mm256_add_epi64(v, _mm256_and_si256(dv, mask)));
  }
}

// The int32 epoch-counter kernels: a 64-counter block is exactly four
// 512-bit vectors, so the 64-bit key is consumed 16 bits per masked add.
__attribute__((target("avx512f"))) void dense_add32_avx512(
    std::int32_t* bits, std::uint64_t key, std::int32_t delta) {
  const __m512i dv = _mm512_set1_epi32(delta);
  for (int k = 0; k < 4; ++k) {
    const __mmask16 mask = static_cast<__mmask16>(key >> (16 * k));
    std::int32_t* p = bits + 16 * k;
    const __m512i v = _mm512_loadu_si512(p);
    _mm512_storeu_si512(p, _mm512_mask_add_epi32(v, mask, v, dv));
  }
}

// AVX2: each key byte is broadcast and expanded to an 8x32 lane mask by
// comparing against per-lane bit constants; 8 iterations over the block.
__attribute__((target("avx2"))) void dense_add32_avx2(std::int32_t* bits,
                                                      std::uint64_t key,
                                                      std::int32_t delta) {
  const __m256i dv = _mm256_set1_epi32(delta);
  const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (int k = 0; k < 8; ++k) {
    const int byte = static_cast<int>((key >> (8 * k)) & 0xff);
    const __m256i mask = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(byte), lane_bit), lane_bit);
    std::int32_t* p = bits + 8 * k;
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(p),
        _mm256_add_epi32(v, _mm256_and_si256(dv, mask)));
  }
}

#endif  // DCS_DENSE_ADD_X86

DenseAdd32Fn resolve32() noexcept {
#ifdef DCS_DENSE_ADD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return &dense_add32_avx512;
  if (__builtin_cpu_supports("avx2")) return &dense_add32_avx2;
#endif
  return &dense_add32_portable;
}

DenseAddFn resolve() noexcept {
#ifdef DCS_DENSE_ADD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return &dense_add_avx512;
  if (__builtin_cpu_supports("avx2")) return &dense_add_avx2;
#endif
  return nullptr;
}

}  // namespace

const DenseAddFn dense_add = resolve();

void dense_add32_portable(std::int32_t* bits, std::uint64_t key,
                          std::int32_t delta) {
  while (key != 0) {
    bits[lsb_index(key)] += delta;
    key &= key - 1;
  }
}

const DenseAdd32Fn dense_add32 = resolve32();

}  // namespace dcs::detail

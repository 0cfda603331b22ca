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
// The int16 forms (dense_add16) serve the agent's epoch counters
// (sketch/epoch_sketch.hpp): a quarter of the width, so a signature is 2
// cache lines and 2 AVX-512BW adds instead of 9 lines and 8 adds. int16 adds
// wrap without a trace (scalar ones are promoted and narrowed, vector ones
// are modular), so exactness rests on the caller's bound, which
// tests/epoch_sketch_test.cpp checks byte for byte.
//
// Build note: the kernels carry `target` attributes instead of compiling the
// whole project with -mavx2/-mavx512f, so the binary still runs on machines
// without the ISA (dense_add resolves to nullptr there and callers keep the
// scalar loop; dense_add16 resolves to its portable set-bit loop).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DCS_DENSE_ADD_X86 1
#endif

#include "sketch/count_signature.hpp"

#include "sketch/dense_add16_avx512.hpp"

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

// The int16 epoch-counter kernels: AVX-512BW in dense_add16_avx512.hpp.
// AVX2: each 16-bit chunk of the key is broadcast and expanded to a 16x16
// lane mask by comparing against per-lane bit constants; 4 iterations over
// the block.
__attribute__((target("avx2"))) void dense_add16_avx2(std::int16_t* bits,
                                                      std::uint64_t key,
                                                      std::int16_t delta) {
  const __m256i dv = _mm256_set1_epi16(delta);
  const __m256i lane_bit = _mm256_setr_epi16(
      0x0001, 0x0002, 0x0004, 0x0008, 0x0010, 0x0020, 0x0040, 0x0080, 0x0100,
      0x0200, 0x0400, 0x0800, 0x1000, 0x2000, 0x4000,
      static_cast<short>(0x8000));
  for (int k = 0; k < 4; ++k) {
    const auto chunk = static_cast<short>(key >> (16 * k));
    const __m256i mask = _mm256_cmpeq_epi16(
        _mm256_and_si256(_mm256_set1_epi16(chunk), lane_bit), lane_bit);
    std::int16_t* p = bits + 16 * k;
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(p),
        _mm256_add_epi16(v, _mm256_and_si256(dv, mask)));
  }
}

#endif  // DCS_DENSE_ADD_X86

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

void dense_add16_portable(std::int16_t* bits, std::uint64_t key,
                          std::int16_t delta) {
  while (key != 0) {
    std::int16_t& counter = bits[lsb_index(key)];
    counter = static_cast<std::int16_t>(counter + delta);
    key &= key - 1;
  }
}

std::vector<DenseAdd16Variant> dense_add16_variants() {
  std::vector<DenseAdd16Variant> variants;
#ifdef DCS_DENSE_ADD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512bw"))
    variants.push_back({"avx512bw", &dense_add16_avx512});
  if (__builtin_cpu_supports("avx2"))
    variants.push_back({"avx2", &dense_add16_avx2});
#endif
  variants.push_back({"portable", &dense_add16_portable});
  return variants;
}

const DenseAdd16Fn dense_add16 = dense_add16_variants().front().fn;

}  // namespace dcs::detail

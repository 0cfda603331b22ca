#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DCS_CRC_CLMUL 1
#endif

#include "common/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace dcs {

// CRC-32 kernels. The table loop consumes one byte per step through a
// 256-entry table. The PCLMULQDQ kernel (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
// 2009) instead folds the message 64 bytes at a time with carry-less
// multiplies by x^k mod P, then Barrett-reduces the last 128 bits; the
// table loop finishes the tail under 16 bytes. Both compute the same
// function, bit for bit.
//
// Build note: like detail::dense_add (sketch/count_signature.cpp), the
// kernel carries a `target` attribute instead of compiling the project with
// -mpclmul, so the binary still runs on CPUs without the instruction.

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}

// Constant-initialized: usable before any dynamic initializer has run.
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

#ifdef DCS_CRC_CLMUL

__m128i load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Carry-less x.lo * k.lo ^ x.hi * k.hi: moves both halves of x forward by
// the distances the two constants encode; the caller XORs in the block
// that lands there.
__attribute__((target("pclmul"))) __m128i fold16(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

// Fold constants for the bit-reflected polynomial (the Intel appendix):
// k1/k2 fold by 512 bits, k3/k4 by 128, k5 by 64, then the polynomial P'
// and the Barrett constant mu.
__attribute__((target("pclmul"))) std::uint32_t crc32_clmul(
    const void* data, std::size_t size, std::uint32_t seed) noexcept {
  if (size < 64) return detail::crc32_portable(data, size, seed);
  const auto* p = static_cast<const unsigned char*>(data);
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(~seed)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  size -= 64;
  while (size >= 64) {
    x1 = _mm_xor_si128(fold16(x1, k1k2), load16(p));
    x2 = _mm_xor_si128(fold16(x2, k1k2), load16(p + 16));
    x3 = _mm_xor_si128(fold16(x3, k1k2), load16(p + 32));
    x4 = _mm_xor_si128(fold16(x4, k1k2), load16(p + 48));
    p += 64;
    size -= 64;
  }
  x1 = _mm_xor_si128(fold16(x1, k3k4), x2);
  x1 = _mm_xor_si128(fold16(x1, k3k4), x3);
  x1 = _mm_xor_si128(fold16(x1, k3k4), x4);
  while (size >= 16) {
    x1 = _mm_xor_si128(fold16(x1, k3k4), load16(p));
    p += 16;
    size -= 16;
  }
  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x10),
                     _mm_srli_si128(x1, 8));
  // 64 -> 32 bits.
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, t);
  const auto crc =
      static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
  return detail::crc32_portable(p, size, ~crc);
}

#endif  // DCS_CRC_CLMUL

using CrcKernel = std::uint32_t (*)(const void*, std::size_t,
                                    std::uint32_t) noexcept;

CrcKernel resolve_crc_kernel() noexcept {
#ifdef DCS_CRC_CLMUL
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul")) return &crc32_clmul;
#endif
  return &detail::crc32_portable;
}

}  // namespace

std::uint32_t detail::crc32_portable(const void* data, std::size_t size,
                                     std::uint32_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = kCrcTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  // A function-local static resolves on first use, so a crc32() call from
  // another translation unit's static initializer never sees it unset.
  static const CrcKernel kernel = resolve_crc_kernel();
  return kernel(data, size, seed);
}

void write_header(BinaryWriter& w, std::uint32_t magic, std::uint8_t version) {
  w.u32(magic);
  w.u8(version);
}

std::uint8_t read_header(BinaryReader& r, std::uint32_t magic,
                         std::uint8_t max_version) {
  const std::uint32_t got = r.u32();
  if (got != magic) throw SerializeError("bad magic");
  const std::uint8_t version = r.u8();
  if (version == 0 || version > max_version)
    throw SerializeError("unsupported version");
  return version;
}

void write_crc_footer(BinaryWriter& w) {
  const std::uint32_t crc = w.crc();
  w.u32(crc);
}

void read_crc_footer(BinaryReader& r) {
  const std::uint32_t computed = r.crc();
  if (r.u32() != computed)
    throw SerializeError("CRC mismatch: corrupted or truncated input");
}

namespace {

/// fsync an fd, timing the call; throws SerializeError on failure.
void fsync_timed(int fd, const std::string& what, std::uint64_t* fsync_ns) {
  const auto start = std::chrono::steady_clock::now();
  if (::fsync(fd) != 0)
    throw SerializeError("atomic_write_file: fsync failed for " + what);
  if (fsync_ns) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    *fsync_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }
}

/// RAII fd so error paths cannot leak descriptors.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

void atomic_write_file(const std::string& path, std::string_view bytes,
                       std::uint64_t* fsync_ns) {
  if (fsync_ns) *fsync_ns = 0;
  const std::string tmp = path + ".tmp";
  {
    Fd file;
    file.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (file.fd < 0)
      throw SerializeError("atomic_write_file: cannot create " + tmp);
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ::ssize_t n =
          ::write(file.fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        std::remove(tmp.c_str());
        throw SerializeError("atomic_write_file: write failed for " + tmp);
      }
      written += static_cast<std::size_t>(n);
    }
    try {
      fsync_timed(file.fd, tmp, fsync_ns);
    } catch (...) {
      std::remove(tmp.c_str());
      throw;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SerializeError("atomic_write_file: rename to " + path + " failed");
  }
  // The rename is only durable once the directory entry is: fsync the parent.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  Fd dirfd;
  dirfd.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd.fd < 0)
    throw SerializeError("atomic_write_file: cannot open directory " + dir);
  fsync_timed(dirfd.fd, dir, fsync_ns);
}

std::optional<std::string> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buffer).str();
}

}  // namespace dcs

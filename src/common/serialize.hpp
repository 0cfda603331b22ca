// Minimal binary serialization for sketches and trace files.
//
// Format: little-endian fixed-width integers, length-prefixed vectors. All
// writers/readers are explicit (no reflection) so the on-disk layout is an
// auditable contract; each top-level object carries a magic + version header.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dcs {

/// Thrown on malformed input (bad magic, truncated stream, absurd lengths,
/// CRC mismatches).
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// continuing from `seed` (pass a previous return value to extend a running
/// checksum; the default starts a fresh one). On x86-64 CPUs with PCLMULQDQ
/// it runs a carry-less-multiply folding kernel, elsewhere the
/// byte-at-a-time table loop (~18 vs ~0.6 GB/s on one AMD EPYC core,
/// bench/micro_ops BM_Crc32). The kernel is picked from CPUID on first
/// use, so calls from static initializers are safe too.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

namespace detail {
/// The portable table kernel behind crc32(), bit-identical to it. Exposed
/// so tests cover it on hosts where crc32() dispatches to PCLMULQDQ.
std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed) noexcept;
}  // namespace detail

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(&out) {}
  /// Append straight to `out`: no stream buffer and no final str() copy.
  /// Sketch blobs and wire frames are written this way.
  explicit BinaryWriter(std::string& out) : bytes_(&out) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  template <typename T>
  void pod_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

  /// Append `n` bytes that `write(char* out)` produces in place — `out`
  /// starts zeroed, so `write` may skip zero runs — then fold them into the
  /// running CRC while they are still in cache. A memory writer hands out
  /// its own buffer, so a section packed element by element (a sketch blob
  /// level) lands in the output with no staging copy; a stream writer
  /// stages it once.
  template <typename Write>
  void fill(std::size_t n, Write&& write) {
    if (bytes_ == nullptr) {
      std::string staged(n, '\0');
      write(staged.data());
      raw(staged.data(), n);
      return;
    }
    const std::size_t at = bytes_->size();
    bytes_->resize(at + n);
    char* out = bytes_->data() + at;
    write(out);
    if (crc_on_) crc_ = crc32(out, n, crc_);
  }

  /// Running CRC-32 of every byte written since the last crc_reset().
  std::uint32_t crc() const noexcept { return crc_; }

  /// Start (or restart) the running CRC. Serializers call this before
  /// writing an object body so the integrity footer covers exactly that
  /// object even when several are written through one writer. Until the
  /// first call the writer computes no CRC at all: payloads without a
  /// footer (wire messages) pay nothing for it.
  void crc_reset() noexcept {
    crc_ = 0;
    crc_on_ = true;
  }

 private:
  void raw(const void* data, std::size_t n) {
    if (bytes_ != nullptr) {
      bytes_->append(static_cast<const char*>(data), n);
    } else {
      out_->write(static_cast<const char*>(data),
                  static_cast<std::streamsize>(n));
      if (!*out_) throw SerializeError("BinaryWriter: write failed");
    }
    if (crc_on_) crc_ = crc32(data, n, crc_);
  }

  std::ostream* out_ = nullptr;
  std::string* bytes_ = nullptr;
  std::uint32_t crc_ = 0;
  bool crc_on_ = false;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(&in) {}
  /// Read straight out of `bytes`, which must outlive the reader: no
  /// stream, and no copy beyond the one into each decoded value.
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}
  /// A temporary string would dangle under the view.
  explicit BinaryReader(std::string&&) = delete;

  std::uint8_t u8() { return read_as<std::uint8_t>(); }
  std::uint32_t u32() { return read_as<std::uint32_t>(); }
  std::uint64_t u64() { return read_as<std::uint64_t>(); }
  std::int32_t i32() { return read_as<std::int32_t>(); }
  std::int64_t i64() { return read_as<std::int64_t>(); }
  double f64() { return read_as<double>(); }

  std::string str() {
    if (in_ == nullptr) return std::string(str_view());
    const std::uint64_t n = u64();
    check_length(n);
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }

  /// A length-prefixed string, returned as a view into the bytes the
  /// reader was built over instead of a copy. Memory readers only.
  std::string_view str_view() {
    if (in_ != nullptr)
      throw SerializeError("BinaryReader: str_view needs a memory source");
    std::string unused;
    return bytes(u64(), unused);
  }

  template <typename T>
  std::vector<T> pod_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    check_length(n * sizeof(T));
    std::vector<T> v(n);
    raw(v.data(), n * sizeof(T));
    return v;
  }

  /// The next `n` raw bytes: a view into the source for a memory reader,
  /// else read into `scratch`, which must outlive the view.
  std::string_view bytes(std::size_t n, std::string& scratch) {
    check_length(n);
    if (in_ != nullptr) {
      scratch.resize(n);
      raw(scratch.data(), n);
      return scratch;
    }
    if (n > bytes_.size()) throw SerializeError("BinaryReader: truncated input");
    const std::string_view s = bytes_.substr(0, n);
    bytes_.remove_prefix(n);
    if (crc_on_) crc_ = crc32(s.data(), s.size(), crc_);
    return s;
  }

  /// Bytes a memory reader has not consumed yet (0 for a stream reader).
  std::size_t remaining() const noexcept { return bytes_.size(); }

  /// Running CRC-32 of every byte read since the last crc_reset().
  std::uint32_t crc() const noexcept { return crc_; }

  /// Start (or restart) the running CRC (mirror of
  /// BinaryWriter::crc_reset(); no CRC is computed before the first call).
  void crc_reset() noexcept {
    crc_ = 0;
    crc_on_ = true;
  }

 private:
  template <typename T>
  T read_as() {
    T v;
    raw(&v, sizeof v);
    return v;
  }

  void raw(void* data, std::size_t n) {
    if (in_ != nullptr) {
      in_->read(static_cast<char*>(data), static_cast<std::streamsize>(n));
      if (static_cast<std::size_t>(in_->gcount()) != n)
        throw SerializeError("BinaryReader: truncated input");
    } else {
      if (n > bytes_.size()) throw SerializeError("BinaryReader: truncated input");
      if (n > 0) std::memcpy(data, bytes_.data(), n);
      bytes_.remove_prefix(n);
    }
    if (crc_on_) crc_ = crc32(data, n, crc_);
  }

  static void check_length(std::uint64_t n) {
    // 1 GiB sanity cap: protects against reading garbage length prefixes.
    if (n > (1ULL << 30)) throw SerializeError("BinaryReader: absurd length");
  }

  std::istream* in_ = nullptr;
  std::string_view bytes_;
  std::uint32_t crc_ = 0;
  bool crc_on_ = false;
};

/// Write/verify a 4-byte magic + 1-byte version header. read_header returns
/// the version actually read so callers can branch on format revisions.
void write_header(BinaryWriter& w, std::uint32_t magic, std::uint8_t version);
std::uint8_t read_header(BinaryReader& r, std::uint32_t magic,
                         std::uint8_t max_version);

/// Append the writer's running CRC as a u32 integrity footer. Pair with
/// read_crc_footer: the serializer calls crc_reset() before the body,
/// write_crc_footer after it; the deserializer mirrors with crc_reset /
/// read_crc_footer and gets a SerializeError on any bit flip or truncation
/// inside the covered span.
void write_crc_footer(BinaryWriter& w);

/// Read the u32 footer and compare against the reader's running CRC over the
/// bytes consumed since its last crc_reset() (which must have been called). Throws SerializeError on
/// mismatch.
void read_crc_footer(BinaryReader& r);

// --- durable file I/O -------------------------------------------------------
//
// Helpers for state that must survive a crash (service checkpoints, epoch
// journals). They only move bytes; integrity framing (magic/version header +
// CRC footer) stays with the serializers above.

/// Atomically publish `bytes` at `path`: write to `path + ".tmp"`, fsync the
/// file, rename over `path`, then fsync the containing directory so the
/// rename itself is durable. A crash at any point leaves either the old file
/// or the new one — never a torn mix. Throws SerializeError on any I/O
/// failure (the temp file is removed best-effort). If `fsync_ns` is non-null
/// it receives the time spent in the two fsync calls.
void atomic_write_file(const std::string& path, std::string_view bytes,
                       std::uint64_t* fsync_ns = nullptr);

/// Read a whole file into memory. Returns std::nullopt if the file does not
/// exist or cannot be read — corruption handling belongs to the caller's
/// CRC checks, not here.
std::optional<std::string> read_file_bytes(const std::string& path);

}  // namespace dcs

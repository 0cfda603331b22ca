#include "service/epoch_journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

namespace dcs::service {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

std::uint32_t get_u32(const char* data) {
  std::uint32_t v;
  std::memcpy(&v, data, sizeof v);
  return v;
}

std::uint64_t get_u64(const char* data) {
  std::uint64_t v;
  std::memcpy(&v, data, sizeof v);
  return v;
}

constexpr std::size_t kRecordHeaderBytes = 8;  // magic + payload length
constexpr std::size_t kRecordCrcBytes = 4;

}  // namespace

EpochJournal::~EpochJournal() { close(); }

EpochJournal::EpochJournal(EpochJournal&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      fsync_each_(other.fsync_each_),
      appended_(other.appended_) {}

EpochJournal& EpochJournal::operator=(EpochJournal&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    fsync_each_ = other.fsync_each_;
    appended_ = other.appended_;
  }
  return *this;
}

EpochJournal EpochJournal::open(const std::string& path, bool fsync_each) {
  EpochJournal journal;
  journal.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (journal.fd_ < 0)
    throw std::runtime_error("EpochJournal: cannot open " + path);
  journal.path_ = path;
  journal.fsync_each_ = fsync_each;
  return journal;
}

void EpochJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void EpochJournal::append(std::uint64_t site_id, std::uint64_t epoch,
                          std::uint64_t updates, std::string_view sketch_blob,
                          std::uint64_t* fsync_ns) {
  if (fd_ < 0) throw std::runtime_error("EpochJournal: append on closed journal");

  const std::size_t payload_bytes = 3 * 8 + 8 + sketch_blob.size();
  if (payload_bytes > kMaxJournalPayloadBytes)
    throw std::runtime_error("EpochJournal: record exceeds payload cap");
  std::string framed;
  framed.reserve(kRecordHeaderBytes + payload_bytes + kRecordCrcBytes);
  put_u32(framed, kJournalMagic);
  put_u32(framed, static_cast<std::uint32_t>(payload_bytes));
  put_u64(framed, site_id);
  put_u64(framed, epoch);
  put_u64(framed, updates);
  put_u64(framed, sketch_blob.size());
  framed.append(sketch_blob);
  // CRC covers the length prefix and payload (magic is checked by equality).
  put_u32(framed, crc32(framed.data() + 4, framed.size() - 4));

  // One write() call per record: O_APPEND makes it a single atomic append,
  // so a crash can tear at most the final record — exactly what replay()'s
  // valid-prefix rule tolerates.
  std::size_t written = 0;
  while (written < framed.size()) {
    const ::ssize_t n =
        ::write(fd_, framed.data() + written, framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("EpochJournal: write failed for " + path_);
    }
    written += static_cast<std::size_t>(n);
  }
  if (fsync_each_) {
    const auto start = std::chrono::steady_clock::now();
    if (::fsync(fd_) != 0)
      throw std::runtime_error("EpochJournal: fsync failed for " + path_);
    if (fsync_ns) {
      const auto elapsed = std::chrono::steady_clock::now() - start;
      *fsync_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count());
    }
  }
  ++appended_;
}

EpochJournal::ReplayResult EpochJournal::replay(const std::string& path) {
  ReplayResult result;
  const auto bytes = read_file_bytes(path);
  if (!bytes) return result;  // no journal = empty journal
  const std::string& data = *bytes;

  std::size_t offset = 0;
  while (data.size() - offset >= kRecordHeaderBytes + kRecordCrcBytes) {
    if (get_u32(data.data() + offset) != kJournalMagic) break;
    const std::uint32_t payload_len = get_u32(data.data() + offset + 4);
    if (payload_len > kMaxJournalPayloadBytes) break;
    const std::size_t total =
        kRecordHeaderBytes + payload_len + kRecordCrcBytes;
    if (data.size() - offset < total) break;  // torn tail
    const std::uint32_t expected =
        get_u32(data.data() + offset + kRecordHeaderBytes + payload_len);
    const std::uint32_t computed =
        crc32(data.data() + offset + 4, kRecordHeaderBytes - 4 + payload_len);
    if (expected != computed) break;
    // Payload field lengths are internally consistent by construction; a
    // mismatch means corruption the CRC missed (astronomically unlikely) —
    // still reject rather than read out of bounds.
    if (payload_len < 4 * 8) break;
    const char* p = data.data() + offset + kRecordHeaderBytes;
    Record record;
    record.site_id = get_u64(p);
    record.epoch = get_u64(p + 8);
    record.updates = get_u64(p + 16);
    const std::uint64_t blob_len = get_u64(p + 24);
    if (blob_len != payload_len - 4 * 8) break;
    record.sketch_blob.assign(p + 32, blob_len);
    result.records.push_back(std::move(record));
    offset += total;
  }
  result.valid_bytes = offset;
  result.truncated_tail = offset != data.size();
  return result;
}

}  // namespace dcs::service

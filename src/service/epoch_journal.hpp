// Append-only epoch journal: the collector's write-ahead log between
// checkpoints.
//
// Durability contract (see checkpoint.hpp for the full recovery story): a
// SnapshotDelta is appended — full sketch blob included — and fsync'd
// *before* the collector merges it and acks the site. An acked epoch is
// therefore always recoverable: either it is covered by a later checkpoint,
// or replaying the journal re-merges it. Since the site agent drops a delta
// from its spool only on ack, the pair (ack-gated spool, durable-then-ack
// journal) turns at-least-once delivery into end-to-end exactly-once across
// collector crashes.
//
// Record framing (little-endian), one per merged delta:
//
//   offset  size  field
//   ------  ----  -----------------------------------------
//        0     4  magic 0x4A534344 ("DCSJ")
//        4     4  payload length in bytes
//        8     n  payload: u64 site_id, u64 epoch, u64 updates,
//                 str sketch_blob (u64 length + bytes)
//    8 + n     4  CRC-32 over bytes [4, 8 + n)
//
// replay() consumes the longest valid prefix and stops at the first torn or
// corrupt record (a crash mid-append leaves exactly that). It never throws
// on bad bytes — a corrupt journal yields fewer records, not a dead
// collector. Bytes after the first bad record are not trusted: a record
// boundary cannot be re-found reliably, and later records may depend on
// state the lost one carried.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcs::service {

constexpr std::uint32_t kJournalMagic = 0x4A534344;  // "DCSJ"
/// Bound on one record's payload; mirrors the wire frame cap so a corrupt
/// length prefix cannot make replay buffer gigabytes.
constexpr std::uint32_t kMaxJournalPayloadBytes = 64u << 20;

class EpochJournal {
 public:
  /// One journaled delta — everything needed to re-merge it on recovery.
  struct Record {
    std::uint64_t site_id = 0;
    std::uint64_t epoch = 0;
    std::uint64_t updates = 0;
    std::string sketch_blob;
  };

  struct ReplayResult {
    std::vector<Record> records;  ///< Longest valid prefix, in append order.
    /// True when trailing bytes were discarded (torn append or corruption).
    bool truncated_tail = false;
    std::uint64_t valid_bytes = 0;
  };

  EpochJournal() = default;
  ~EpochJournal();

  EpochJournal(EpochJournal&& other) noexcept;
  EpochJournal& operator=(EpochJournal&& other) noexcept;
  EpochJournal(const EpochJournal&) = delete;
  EpochJournal& operator=(const EpochJournal&) = delete;

  /// Open `path` for appending (created if missing). `fsync_each` makes
  /// every append durable before it returns — required for the ack-implies-
  /// durable contract; turn it off only for tests/benchmarks that accept
  /// losing the tail. Throws std::runtime_error on failure.
  static EpochJournal open(const std::string& path, bool fsync_each = true);

  /// Append one record (and fsync when configured). Throws
  /// std::runtime_error if the write or fsync fails — the caller must NOT
  /// ack the delta in that case. If `fsync_ns` is non-null it receives the
  /// fsync duration.
  void append(const Record& record, std::uint64_t* fsync_ns = nullptr) {
    append(record.site_id, record.epoch, record.updates, record.sketch_blob,
           fsync_ns);
  }
  /// append() of a record whose blob the caller holds elsewhere (the
  /// collector journals straight from the frame payload).
  void append(std::uint64_t site_id, std::uint64_t epoch,
              std::uint64_t updates, std::string_view sketch_blob,
              std::uint64_t* fsync_ns = nullptr);

  /// Parse the longest valid record prefix of the file at `path`. A missing
  /// file is an empty journal, not an error.
  static ReplayResult replay(const std::string& path);

  void close();
  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }
  std::uint64_t appended_records() const noexcept { return appended_; }

 private:
  int fd_ = -1;
  std::string path_;
  bool fsync_each_ = true;
  std::uint64_t appended_ = 0;
};

}  // namespace dcs::service

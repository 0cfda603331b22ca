#include "query/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/serialize.hpp"

namespace dcs::query {

namespace {

// "DCSQ" little-endian: distinct from the checkpoint container's "DCCK" so
// a snapshot can never be mistaken for a durable checkpoint (or vice
// versa) even when a directory is misconfigured.
constexpr std::uint32_t kSnapshotMagic = 0x51534344;
constexpr std::uint8_t kSnapshotVersion = 1;
constexpr const char* kSnapshotPrefix = "query-";
constexpr const char* kSnapshotSuffix = ".dcsq";

std::string generation_name(std::uint64_t generation) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s%08llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(generation), kSnapshotSuffix);
  return buffer;
}

}  // namespace

SnapshotStore::SnapshotStore(std::string dir, std::uint64_t retain)
    : dir_(std::move(dir)), retain_(retain) {
  if (retain_ == 0)
    throw std::invalid_argument("SnapshotStore: retain must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_))
    throw std::runtime_error("SnapshotStore: cannot create directory " + dir_);
}

std::string SnapshotStore::path(std::uint64_t generation) const {
  return dir_ + "/" + generation_name(generation);
}

std::string SnapshotStore::encode(const QuerySnapshot& snapshot) {
  // The checkpoint container carries its own header + CRC footer; embed it
  // as a length-prefixed blob so the outer footer's running CRC covers the
  // whole file without being reset by the inner serializer.
  const std::string checkpoint_blob =
      service::CheckpointStore::encode(snapshot.checkpoint);

  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  writer.crc_reset();
  write_header(writer, kSnapshotMagic, kSnapshotVersion);
  writer.u64(snapshot.generation);
  writer.u64(snapshot.published_unix_ns);
  writer.u64(snapshot.epoch_watermark);
  writer.u64(snapshot.deltas_merged);
  writer.u64(snapshot.active_alarms);
  writer.u64(snapshot.distinct_pairs);
  writer.u64(snapshot.alerts.size());
  for (const Alert& alert : snapshot.alerts) {
    writer.u8(static_cast<std::uint8_t>(alert.kind));
    writer.u32(alert.subject);
    writer.u64(alert.estimated_frequency);
    writer.f64(alert.baseline);
    writer.u64(alert.stream_position);
    writer.u64(alert.epoch);
    writer.f64(alert.threshold);
  }
  writer.u64(snapshot.top_k.entries.size());
  for (const TopKEntry& entry : snapshot.top_k.entries) {
    writer.u32(entry.group);
    writer.u64(entry.estimate);
  }
  writer.i32(snapshot.top_k.inference_level);
  writer.u64(snapshot.top_k.sample_size);
  writer.str(checkpoint_blob);
  write_crc_footer(writer);
  return std::move(out).str();
}

QuerySnapshot SnapshotStore::decode(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader reader(in);
  reader.crc_reset();
  read_header(reader, kSnapshotMagic, kSnapshotVersion);
  QuerySnapshot snapshot;
  snapshot.generation = reader.u64();
  snapshot.published_unix_ns = reader.u64();
  snapshot.epoch_watermark = reader.u64();
  snapshot.deltas_merged = reader.u64();
  snapshot.active_alarms = reader.u64();
  snapshot.distinct_pairs = reader.u64();
  const std::uint64_t alert_count = reader.u64();
  // Guard before allocating: a corrupt count must fail cleanly, not OOM.
  if (alert_count > bytes.size())
    throw SerializeError("QuerySnapshot: absurd alert count");
  snapshot.alerts.reserve(alert_count);
  for (std::uint64_t i = 0; i < alert_count; ++i) {
    Alert alert;
    const std::uint8_t kind = reader.u8();
    if (kind > static_cast<std::uint8_t>(Alert::Kind::kCleared))
      throw SerializeError("QuerySnapshot: bad alert kind");
    alert.kind = static_cast<Alert::Kind>(kind);
    alert.subject = reader.u32();
    alert.estimated_frequency = reader.u64();
    alert.baseline = reader.f64();
    alert.stream_position = reader.u64();
    alert.epoch = reader.u64();
    alert.threshold = reader.f64();
    snapshot.alerts.push_back(alert);
  }
  const std::uint64_t entry_count = reader.u64();
  if (entry_count > bytes.size())
    throw SerializeError("QuerySnapshot: absurd top-k count");
  snapshot.top_k.entries.reserve(entry_count);
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    TopKEntry entry;
    entry.group = reader.u32();
    entry.estimate = reader.u64();
    snapshot.top_k.entries.push_back(entry);
  }
  snapshot.top_k.inference_level = reader.i32();
  snapshot.top_k.sample_size = reader.u64();
  const std::string checkpoint_blob = reader.str();
  // Verify the container footer BEFORE decoding the nested checkpoint, so
  // a bit flip anywhere is caught by exactly one check and nothing corrupt
  // is ever handed to the inner deserializer.
  read_crc_footer(reader);
  if (in.peek() != std::char_traits<char>::eof())
    throw SerializeError("QuerySnapshot: trailing bytes");

  snapshot.checkpoint = service::CheckpointStore::decode(checkpoint_blob);
  return snapshot;
}

std::uint64_t SnapshotStore::write(const QuerySnapshot& snapshot) const {
  const std::string bytes = encode(snapshot);
  atomic_write_file(path(snapshot.generation), bytes);
  return bytes.size();
}

std::vector<std::uint64_t> SnapshotStore::generations() const {
  std::vector<std::uint64_t> found;
  const std::string prefix = kSnapshotPrefix;
  const std::string suffix = kSnapshotSuffix;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    found.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::uint64_t SnapshotStore::max_generation() const {
  const auto all = generations();
  return all.empty() ? 0 : all.back();
}

std::optional<QuerySnapshot> SnapshotStore::load(
    std::uint64_t generation) const {
  const auto bytes = read_file_bytes(path(generation));
  if (!bytes) return std::nullopt;
  try {
    QuerySnapshot snapshot = decode(*bytes);
    // The file name is untrusted input too: the payload must agree.
    if (snapshot.generation != generation) return std::nullopt;
    return snapshot;
  } catch (const StaleFormatError&) {
    throw;  // an older build's publish dir: refuse it, do not skip it
  } catch (const SerializeError&) {
    return std::nullopt;
  }
}

std::optional<QuerySnapshot> SnapshotStore::load_latest(
    std::uint64_t* corrupt_skipped) const {
  if (corrupt_skipped) *corrupt_skipped = 0;
  const auto all = generations();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (auto snapshot = load(*it)) return snapshot;
    if (corrupt_skipped) ++*corrupt_skipped;
  }
  return std::nullopt;
}

void SnapshotStore::prune_retained(std::uint64_t newest_generation) const {
  if (newest_generation < retain_) return;
  const std::uint64_t keep_from = newest_generation - retain_ + 1;
  for (const std::uint64_t generation : generations())
    if (generation < keep_from) std::remove(path(generation).c_str());
}

}  // namespace dcs::query

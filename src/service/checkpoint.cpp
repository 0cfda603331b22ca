#include "service/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/serialize.hpp"

namespace dcs::service {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4B434344;  // "DCCK"
constexpr std::uint8_t kCheckpointVersion = 1;
constexpr const char* kCheckpointPrefix = "checkpoint-";
constexpr const char* kCheckpointSuffix = ".dcsc";
constexpr const char* kJournalPrefix = "journal-";
constexpr const char* kJournalSuffix = ".dcsj";

std::string generation_name(const char* prefix, std::uint64_t generation,
                            const char* suffix) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s%08llu%s", prefix,
                static_cast<unsigned long long>(generation), suffix);
  return buffer;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, std::uint64_t retain)
    : dir_(std::move(dir)), retain_(retain) {
  if (retain_ == 0)
    throw std::invalid_argument("CheckpointStore: retain must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_))
    throw std::runtime_error("CheckpointStore: cannot create directory " +
                             dir_);
}

std::string CheckpointStore::checkpoint_path(std::uint64_t generation) const {
  return dir_ + "/" +
         generation_name(kCheckpointPrefix, generation, kCheckpointSuffix);
}

std::string CheckpointStore::journal_path(std::uint64_t generation) const {
  return dir_ + "/" + generation_name(kJournalPrefix, generation, kJournalSuffix);
}

std::string CheckpointStore::encode(const CheckpointState& state) {
  // The sketch and detector carry their own header + CRC footer; embed them
  // as length-prefixed blobs so the outer footer's running CRC covers the
  // whole container without being reset by their serializers.
  std::string sketch_blob;
  {
    BinaryWriter sketch_writer(sketch_blob);
    state.sketch.serialize(sketch_writer);
  }

  std::string out;
  BinaryWriter writer(out);
  writer.crc_reset();
  write_header(writer, kCheckpointMagic, kCheckpointVersion);
  writer.u64(state.generation);
  writer.u64(state.deltas_merged);
  writer.u64(state.duplicate_deltas);
  writer.u64(state.dropped_epochs);
  writer.u64(state.byes);
  writer.u64(state.sites.size());
  for (const SiteWatermark& site : state.sites) {
    writer.u64(site.site_id);
    writer.u64(site.last_epoch);
    writer.u64(site.epochs_merged);
    writer.u64(site.updates_merged);
    writer.u64(site.dropped_epochs);
    writer.u64(site.duplicate_deltas);
  }
  writer.str(state.detector_blob);
  writer.str(sketch_blob);
  write_crc_footer(writer);
  return out;
}

CheckpointState CheckpointStore::decode(const std::string& bytes) {
  BinaryReader reader(bytes);
  reader.crc_reset();
  read_header(reader, kCheckpointMagic, kCheckpointVersion);
  CheckpointState state;
  state.generation = reader.u64();
  state.deltas_merged = reader.u64();
  state.duplicate_deltas = reader.u64();
  state.dropped_epochs = reader.u64();
  state.byes = reader.u64();
  const std::uint64_t site_count = reader.u64();
  // Guard before allocating: a corrupt count must fail cleanly, not OOM.
  if (site_count > bytes.size())
    throw SerializeError("CheckpointState: absurd site count");
  state.sites.reserve(site_count);
  for (std::uint64_t i = 0; i < site_count; ++i) {
    SiteWatermark site;
    site.site_id = reader.u64();
    site.last_epoch = reader.u64();
    site.epochs_merged = reader.u64();
    site.updates_merged = reader.u64();
    site.dropped_epochs = reader.u64();
    site.duplicate_deltas = reader.u64();
    state.sites.push_back(site);
  }
  state.detector_blob = reader.str();
  const std::string_view sketch_blob = reader.str_view();
  // Verify the container footer BEFORE interpreting the nested blobs, so a
  // bit flip anywhere is caught by exactly one check and nothing corrupt is
  // ever handed to the sketch deserializer.
  read_crc_footer(reader);
  if (reader.remaining() != 0)
    throw SerializeError("CheckpointState: trailing bytes");

  BinaryReader sketch_reader(sketch_blob);
  state.sketch = DistinctCountSketch::deserialize(sketch_reader);
  return state;
}

std::uint64_t CheckpointStore::write(const CheckpointState& state,
                                     std::uint64_t* fsync_ns) const {
  const std::string bytes = encode(state);
  atomic_write_file(checkpoint_path(state.generation), bytes, fsync_ns);
  return bytes.size();
}

std::vector<std::uint64_t> CheckpointStore::generations_matching(
    const char* prefix, const char* suffix) const {
  std::vector<std::uint64_t> generations;
  const std::string prefix_str = prefix;
  const std::string suffix_str = suffix;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix_str.size() + suffix_str.size()) continue;
    if (name.compare(0, prefix_str.size(), prefix_str) != 0) continue;
    if (name.compare(name.size() - suffix_str.size(), suffix_str.size(),
                     suffix_str) != 0)
      continue;
    const std::string digits = name.substr(
        prefix_str.size(), name.size() - prefix_str.size() - suffix_str.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    generations.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

std::vector<std::uint64_t> CheckpointStore::checkpoint_generations() const {
  return generations_matching(kCheckpointPrefix, kCheckpointSuffix);
}

std::vector<std::uint64_t> CheckpointStore::journal_generations() const {
  return generations_matching(kJournalPrefix, kJournalSuffix);
}

std::uint64_t CheckpointStore::max_generation() const {
  const auto checkpoints = checkpoint_generations();
  const auto journals = journal_generations();
  std::uint64_t max = 0;
  if (!checkpoints.empty()) max = checkpoints.back();
  if (!journals.empty()) max = std::max(max, journals.back());
  return max;
}

std::optional<CheckpointState> CheckpointStore::load_latest(
    std::uint64_t* corrupt_skipped) const {
  if (corrupt_skipped) *corrupt_skipped = 0;
  const auto generations = checkpoint_generations();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const auto bytes = read_file_bytes(checkpoint_path(*it));
    if (bytes) {
      try {
        CheckpointState state = decode(*bytes);
        // The file name is untrusted input too: the state must agree.
        if (state.generation == *it) return state;
      } catch (const StaleFormatError&) {
        throw;  // an older build's state: refuse it, do not skip past it
      } catch (const SerializeError&) {
        // fall through to the previous generation
      }
    }
    if (corrupt_skipped) ++*corrupt_skipped;
  }
  return std::nullopt;
}

void CheckpointStore::prune_retained(std::uint64_t newest_generation) const {
  // Keep generations in (newest - retain, newest]; saturate so the first
  // retain_ generations survive (generation numbering starts at 1).
  if (newest_generation < retain_) return;
  prune_below(newest_generation - retain_ + 1);
}

void CheckpointStore::prune_below(std::uint64_t keep_from) const {
  for (const std::uint64_t generation : checkpoint_generations())
    if (generation < keep_from)
      std::remove(checkpoint_path(generation).c_str());
  for (const std::uint64_t generation : journal_generations())
    if (generation < keep_from)
      std::remove(journal_path(generation).c_str());
}

}  // namespace dcs::service

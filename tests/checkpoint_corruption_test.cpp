// Corruption fuzz tests for the durability layer: every way a checkpoint or
// journal file can rot on disk — bit flips, truncation, zero length, torn
// appends — must be *detected* (rejected or cut off at the last valid
// record), never crash the loader, and never partially apply. A collector
// facing a corrupt newest generation must fall back to the previous one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/serialize.hpp"
#include "service/checkpoint.hpp"
#include "service/collector.hpp"
#include "service/epoch_journal.hpp"
#include "sketch/distinct_count_sketch.hpp"

namespace dcs::service {
namespace {

std::string test_dir(const char* leaf) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                              (std::string(info->test_suite_name()) + "." +
                               info->name() + "." + leaf);
  std::filesystem::remove_all(dir);
  return dir.string();
}

DcsParams tiny_params() {
  DcsParams params;
  params.num_tables = 2;
  params.buckets_per_table = 16;
  params.seed = 11;
  return params;
}

CheckpointState sample_state() {
  CheckpointState state;
  state.generation = 1;
  state.sketch = DistinctCountSketch(tiny_params());
  for (std::uint64_t i = 0; i < 40; ++i)
    state.sketch.update(static_cast<Addr>(i % 5), static_cast<Addr>(i), +1);
  state.sites = {{1, 4, 4, 2000, 0, 1}, {2, 3, 3, 1500, 1, 0}};
  state.deltas_merged = 7;
  state.duplicate_deltas = 1;
  state.dropped_epochs = 1;
  state.byes = 1;
  return state;
}

/// Same shape but with an *empty* sketch: a few hundred bytes instead of
/// ~100 KiB (each allocated sketch level is a dense signature array), so
/// exhaustive per-byte fuzzing stays fast. The populated container is
/// fuzzed at a stride.
CheckpointState compact_state() {
  CheckpointState state = sample_state();
  state.sketch = DistinctCountSketch(tiny_params());
  state.detector_blob = "detector state stand-in bytes";
  return state;
}

std::string sketch_blob(std::uint64_t salt) {
  DistinctCountSketch sketch(tiny_params());
  for (std::uint64_t i = 0; i < 30; ++i)
    sketch.update(static_cast<Addr>(salt * 7 + i % 4), static_cast<Addr>(i),
                  +1);
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_raw(const std::string& path) {
  const auto bytes = read_file_bytes(path);
  EXPECT_TRUE(bytes.has_value()) << path;
  return bytes.value_or(std::string());
}

// --- checkpoint container ----------------------------------------------------

/// Flip one bit in every byte of a compact checkpoint — header, watermarks,
/// detector region, CRC footer alike — and at a stride through a populated
/// one (outer CRC coverage is uniform; the stride just proves the big
/// sketch region is inside it): decode must throw SerializeError every
/// single time (CRC-32 catches all 1-bit errors).
TEST(CheckpointCorruption, EveryBitFlipIsRejected) {
  const std::string compact = CheckpointStore::encode(compact_state());
  ASSERT_NO_THROW(CheckpointStore::decode(compact));
  for (std::size_t i = 0; i < compact.size(); ++i) {
    std::string bad = compact;
    bad[i] ^= 0x10;
    EXPECT_THROW(CheckpointStore::decode(bad), SerializeError)
        << "flip at byte " << i << " of " << compact.size() << " not detected";
  }

  const std::string populated = CheckpointStore::encode(sample_state());
  ASSERT_NO_THROW(CheckpointStore::decode(populated));
  for (std::size_t i = 0; i < populated.size(); i += 499) {
    std::string bad = populated;
    bad[i] ^= 0x10;
    EXPECT_THROW(CheckpointStore::decode(bad), SerializeError)
        << "flip at byte " << i << " of " << populated.size()
        << " not detected";
  }
}

/// Every truncation point of the compact container — from zero-length to
/// one-byte-short — and strided truncations of the populated one must be
/// rejected, not read past the end or partially applied.
TEST(CheckpointCorruption, EveryTruncationIsRejected) {
  const std::string compact = CheckpointStore::encode(compact_state());
  for (std::size_t len = 0; len < compact.size(); ++len)
    EXPECT_THROW(CheckpointStore::decode(compact.substr(0, len)),
                 SerializeError)
        << "truncation to " << len << " bytes not detected";

  const std::string populated = CheckpointStore::encode(sample_state());
  for (std::size_t len = 0; len < populated.size(); len += 499)
    EXPECT_THROW(CheckpointStore::decode(populated.substr(0, len)),
                 SerializeError)
        << "truncation to " << len << " bytes not detected";
  for (std::size_t cut = 1; cut <= 8; ++cut)
    EXPECT_THROW(
        CheckpointStore::decode(populated.substr(0, populated.size() - cut)),
        SerializeError)
        << "truncation by " << cut << " trailing bytes not detected";

  // Trailing garbage after a valid container is corruption too.
  EXPECT_THROW(CheckpointStore::decode(populated + "x"), SerializeError);
}

/// load_latest walks back over corrupt generations and recovers the newest
/// one that still verifies.
TEST(CheckpointCorruption, LoadLatestFallsBackAGeneration) {
  const CheckpointStore store(test_dir("fallback"));
  CheckpointState gen1 = sample_state();
  gen1.generation = 1;
  gen1.deltas_merged = 5;
  store.write(gen1);
  CheckpointState gen2 = sample_state();
  gen2.generation = 2;
  gen2.deltas_merged = 9;
  store.write(gen2);

  // Pristine: newest wins.
  std::uint64_t corrupt = 0;
  auto loaded = store.load_latest(&corrupt);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_EQ(corrupt, 0u);

  // Flip a byte mid-file in generation 2: fall back to generation 1.
  const std::string gen2_path = store.checkpoint_path(2);
  std::string bytes = read_raw(gen2_path);
  bytes[bytes.size() / 2] ^= 0x01;
  write_raw(gen2_path, bytes);
  corrupt = 0;
  loaded = store.load_latest(&corrupt);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->deltas_merged, 5u);
  EXPECT_EQ(corrupt, 1u);

  // Zero-length newest (crash between open and write): same fallback.
  write_raw(gen2_path, "");
  corrupt = 0;
  loaded = store.load_latest(&corrupt);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(corrupt, 1u);

  // Both generations corrupt: no state, both skips counted, no throw.
  write_raw(store.checkpoint_path(1), "not a checkpoint");
  corrupt = 0;
  loaded = store.load_latest(&corrupt);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(corrupt, 2u);
}

/// A checkpoint renamed to claim a different generation than its payload
/// records is rejected (defends against file-shuffling restores).
TEST(CheckpointCorruption, GenerationMismatchWithFilenameIsSkipped) {
  const CheckpointStore store(test_dir("rename"));
  CheckpointState state = sample_state();
  state.generation = 1;
  store.write(state);
  std::filesystem::rename(store.checkpoint_path(1), store.checkpoint_path(4));
  std::uint64_t corrupt = 0;
  EXPECT_FALSE(store.load_latest(&corrupt).has_value());
  EXPECT_EQ(corrupt, 1u);
}

// --- retention ---------------------------------------------------------------

/// Configurable retention depth: prune_retained(newest) keeps exactly the
/// newest `retain` generation numbers, with the subtraction guarded at the
/// low boundary (never underflows, never deletes what it should keep).
TEST(CheckpointRetention, PruneKeepsExactlyRetainNewestGenerations) {
  const CheckpointStore store(test_dir("retain3"), /*retain=*/3);
  EXPECT_EQ(store.retain(), 3u);
  for (std::uint64_t generation = 1; generation <= 6; ++generation) {
    CheckpointState state = sample_state();
    state.generation = generation;
    store.write(state);
    store.prune_retained(generation);
    // Never fewer than min(generation, retain) generations on disk.
    const auto kept = store.checkpoint_generations();
    EXPECT_EQ(kept.size(), std::min<std::uint64_t>(generation, 3u))
        << "generation=" << generation;
    EXPECT_EQ(kept.back(), generation);
  }
  EXPECT_EQ(store.checkpoint_generations(), (std::vector<std::uint64_t>{4, 5, 6}));
}

TEST(CheckpointRetention, BoundaryNewestAtOrBelowRetainPrunesNothing) {
  const CheckpointStore store(test_dir("boundary"), /*retain=*/5);
  for (std::uint64_t generation = 1; generation <= 5; ++generation) {
    CheckpointState state = sample_state();
    state.generation = generation;
    store.write(state);
  }
  store.prune_retained(3);  // newest < retain: nothing to cut
  EXPECT_EQ(store.checkpoint_generations().size(), 5u);
  store.prune_retained(5);  // newest == retain: keep 1..5 exactly
  EXPECT_EQ(store.checkpoint_generations(), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  store.prune_retained(6);  // one past: generation 1 goes
  EXPECT_EQ(store.checkpoint_generations(), (std::vector<std::uint64_t>{2, 3, 4, 5}));
}

TEST(CheckpointRetention, RetainOneKeepsOnlyNewestAndZeroIsRejected) {
  const CheckpointStore store(test_dir("retain1"), /*retain=*/1);
  for (std::uint64_t generation = 1; generation <= 3; ++generation) {
    CheckpointState state = sample_state();
    state.generation = generation;
    store.write(state);
    store.prune_retained(generation);
  }
  EXPECT_EQ(store.checkpoint_generations(), (std::vector<std::uint64_t>{3}));

  EXPECT_THROW(CheckpointStore(test_dir("retain0"), /*retain=*/0),
               std::invalid_argument);
}

/// The collector plumbs checkpoint_retain through to its store: a deeper
/// retention leaves more history for rollback while the default (2) keeps
/// the original disk footprint.
TEST(CheckpointRetention, CollectorHonorsConfiguredRetention) {
  CollectorConfig config;
  config.params = tiny_params();
  config.state_dir = test_dir("collector_retain");
  config.checkpoint_every = 1;  // checkpoint on every merge
  config.checkpoint_retain = 4;
  config.run_detection = false;
  config.io_timeout_ms = 50;
  Collector collector(config);

  // Drive checkpoints directly (no sockets needed): checkpoint_now()
  // advances the generation each call.
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(collector.checkpoint_now());
  const CheckpointStore store(config.state_dir);
  const auto kept = store.checkpoint_generations();
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.back(), collector.checkpoint_generation());
}

// --- epoch journal -----------------------------------------------------------

/// Journal framing is blob-agnostic (replay hands the bytes back verbatim;
/// decoding them is the collector's job, covered by the recovery property
/// tests), so short stand-in blobs keep the exhaustive per-byte fuzz loops
/// below fast — a real ~33 KiB sketch blob per record would make them
/// quadratic in file size.
std::string build_journal(const std::string& path, int records) {
  auto journal = EpochJournal::open(path, /*fsync_each=*/false);
  for (int i = 1; i <= records; ++i)
    journal.append({5, static_cast<std::uint64_t>(i), 30,
                    "epoch-" + std::to_string(i) + "-delta-bytes"});
  journal.close();
  return read_raw(path);
}

/// Bit flips anywhere in the journal cut replay off at the previous record —
/// replay never throws and never returns a record whose bytes were touched.
TEST(CheckpointCorruption, JournalBitFlipsTruncateAtLastValidRecord) {
  const std::string dir = test_dir("journal");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal-00000001.dcsj";
  const std::string good = build_journal(path, 3);

  const auto pristine = EpochJournal::replay(path);
  ASSERT_EQ(pristine.records.size(), 3u);
  ASSERT_FALSE(pristine.truncated_tail);

  // Record boundaries: [0, b1) is record 1, [b1, b2) record 2, etc.
  std::vector<std::size_t> boundaries;
  {
    std::size_t offset = 0;
    for (int i = 0; i < 3; ++i) {
      std::uint32_t payload_len = 0;
      std::memcpy(&payload_len, good.data() + offset + 4, 4);
      offset += 8 + payload_len + 4;
      boundaries.push_back(offset);
    }
    ASSERT_EQ(offset, good.size());
  }

  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] ^= 0x40;
    write_raw(path, bad);
    const auto replayed = EpochJournal::replay(path);
    // How many leading records are untouched by a flip at byte i?
    std::size_t intact = 0;
    while (intact < boundaries.size() && i >= boundaries[intact]) ++intact;
    EXPECT_EQ(replayed.records.size(), intact) << "flip at byte " << i;
    EXPECT_TRUE(replayed.truncated_tail) << "flip at byte " << i;
    for (std::size_t r = 0; r < replayed.records.size(); ++r)
      EXPECT_EQ(replayed.records[r].epoch, pristine.records[r].epoch);
  }
}

/// Truncation at every byte — the torn-append shape a crash leaves — yields
/// exactly the records whose bytes are complete, flagging the torn tail.
TEST(CheckpointCorruption, JournalTruncationKeepsValidPrefix) {
  const std::string dir = test_dir("torn");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal-00000001.dcsj";
  const std::string good = build_journal(path, 3);

  std::vector<std::size_t> boundaries;
  {
    std::size_t offset = 0;
    for (int i = 0; i < 3; ++i) {
      std::uint32_t payload_len = 0;
      std::memcpy(&payload_len, good.data() + offset + 4, 4);
      offset += 8 + payload_len + 4;
      boundaries.push_back(offset);
    }
  }

  for (std::size_t len = 0; len <= good.size(); ++len) {
    write_raw(path, good.substr(0, len));
    const auto replayed = EpochJournal::replay(path);
    std::size_t complete = 0;
    while (complete < boundaries.size() && len >= boundaries[complete])
      ++complete;
    const std::size_t consumed = complete == 0 ? 0 : boundaries[complete - 1];
    EXPECT_EQ(replayed.records.size(), complete) << "truncated to " << len;
    EXPECT_EQ(replayed.valid_bytes, consumed) << "truncated to " << len;
    EXPECT_EQ(replayed.truncated_tail, len > consumed)
        << "truncated to " << len;
  }

  // Pure garbage from byte 0: zero records, flagged, no throw.
  write_raw(path, "garbage garbage garbage garbage!");
  const auto garbage = EpochJournal::replay(path);
  EXPECT_TRUE(garbage.records.empty());
  EXPECT_TRUE(garbage.truncated_tail);
}

// --- collector over a rotten state directory ---------------------------------

/// End to end: the newest checkpoint generation is corrupt on disk, but the
/// previous generation plus its journal still reconstruct the full state —
/// the collector starts, recovers, and numbers new checkpoints above the
/// corrupt file so it is never resurrected.
TEST(CheckpointCorruption, CollectorFallsBackAndResumesNumbering) {
  CollectorConfig config;
  config.params = tiny_params();
  config.run_detection = false;
  config.state_dir = test_dir("state");
  config.checkpoint_every = 1000;

  DistinctCountSketch epoch1(tiny_params());
  for (std::uint64_t i = 0; i < 25; ++i)
    epoch1.update(static_cast<Addr>(i % 3), static_cast<Addr>(i), +1);

  {
    const CheckpointStore store(config.state_dir);
    CheckpointState gen1;
    gen1.generation = 1;
    gen1.sketch = epoch1;
    gen1.sites = {{5, 1, 1, 25, 0, 0}};
    gen1.deltas_merged = 1;
    store.write(gen1);
    // Journal for generation 1: a second epoch not covered by any
    // checkpoint.
    auto journal = EpochJournal::open(store.journal_path(1));
    journal.append({5, 2, 30, sketch_blob(2)});
    journal.close();
    // Generation 2 exists but is corrupt (crash mid-write + lost rename
    // ordering, or disk rot).
    CheckpointState gen2 = gen1;
    gen2.generation = 2;
    gen2.deltas_merged = 2;
    store.write(gen2);
    std::string bytes = read_raw(store.checkpoint_path(2));
    bytes[bytes.size() / 3] ^= 0x08;
    write_raw(store.checkpoint_path(2), bytes);
  }

  Collector collector(config);
  const auto stats = collector.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.corrupt_generations_skipped, 1u);
  EXPECT_EQ(stats.replayed_epochs, 1u);  // journal epoch 2
  EXPECT_EQ(stats.deltas_merged, 2u);

  DistinctCountSketch expected = epoch1;
  {
    DistinctCountSketch epoch2(tiny_params());
    for (std::uint64_t i = 0; i < 30; ++i)
      epoch2.update(static_cast<Addr>(2 * 7 + i % 4), static_cast<Addr>(i),
                    +1);
    expected.merge(epoch2);
  }
  EXPECT_TRUE(collector.merged_sketch() == expected);
  // New checkpoints must be numbered above the corrupt generation 2.
  EXPECT_GE(collector.checkpoint_generation(), 3u);

  const auto sites = collector.site_stats();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].last_epoch, 2u);
}

/// A sketch blob as the dense-format build wrote it: the same header with
/// version 2 (the body is never read past the version byte).
std::string stale_blob(std::uint64_t salt) {
  std::string blob = sketch_blob(salt);
  blob[4] = 2;
  return blob;
}

TEST(StaleFormat, JournalOfAnOlderBuildIsRefusedAtStartup) {
  CollectorConfig config;
  config.params = tiny_params();
  config.state_dir = test_dir("state");
  {
    const CheckpointStore store(config.state_dir);
    CheckpointState gen1;
    gen1.generation = 1;
    gen1.sketch = DistinctCountSketch(tiny_params());
    store.write(gen1);
    auto journal = EpochJournal::open(store.journal_path(1));
    journal.append({5, 1, 30, stale_blob(1)});
    journal.close();
  }
  EXPECT_THROW(Collector collector(config), StaleFormatError);
}

TEST(StaleFormat, CheckpointOfAnOlderBuildIsRefusedNotSkipped) {
  const std::string dir = test_dir("state");
  const CheckpointStore store(dir);
  CheckpointState gen1 = sample_state();
  store.write(gen1);
  // Re-encode generation 1 with its sketch blob marked version 2: every
  // CRC valid, so only the version tells it apart.
  std::string bytes = read_raw(store.checkpoint_path(1));
  std::string blob;
  {
    BinaryWriter writer(blob);
    gen1.sketch.serialize(writer);
  }
  const std::size_t at = bytes.find(blob);
  ASSERT_NE(at, std::string::npos);
  bytes[at + 4] = 2;
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  write_raw(store.checkpoint_path(1), bytes);
  std::uint64_t skipped = 0;
  EXPECT_THROW(store.load_latest(&skipped), StaleFormatError);
}

}  // namespace
}  // namespace dcs::service

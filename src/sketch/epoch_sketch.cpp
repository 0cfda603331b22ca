#include "sketch/epoch_sketch.hpp"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/serialize.hpp"

namespace dcs {

namespace {
constexpr std::uint64_t kInt16Max = std::numeric_limits<std::int16_t>::max();
}  // namespace

EpochSketch::EpochSketch(DcsParams params)
    : params_(params), hashes_(params) {
  params_.validate();
  // Narrow keys set few bits, where the set-bit loop beats any dense add.
  add_ = params_.key_bits == 64 && detail::dense_add16 != nullptr
             ? detail::dense_add16
             : &detail::dense_add16_portable;
}

EpochSketch::Level& EpochSketch::staging(int level) {
  Level& stage = levels_[static_cast<std::size_t>(level)];
  if (stage.bits == nullptr) {
    const std::size_t buckets =
        static_cast<std::size_t>(params_.num_tables) *
        params_.buckets_per_table;
    stage.bits.reset(new BitBlock[buckets]());
    stage.totals.reset(new std::int32_t[buckets]());
    stage.dirty.reset(new std::uint64_t[(buckets + 63) / 64]());
    if (obs::recording()) obs::SketchMetrics::get().level_allocations.inc();
  }
  return stage;
}

void EpochSketch::update_key(PairKey key, int delta) {
  if (!params_.key_fits(key))
    throw std::invalid_argument("EpochSketch: key does not fit in key_bits");
  const std::uint64_t mixed = mix64(key);
  const int level = hashes_.level.from_mixed(mixed);
  Level& stage = staging(level);
  touched_ |= 1ULL << level;
  if (obs::recording()) pending_metrics_.record(level, delta);
  const auto magnitude =
      static_cast<std::uint64_t>(std::llabs(static_cast<long long>(delta)));
  if (magnitude > kInt16Max) {
    // No int16 counter may take it, so it lands in int64 directly.
    spill_level(level);
    for (int j = 0; j < params_.num_tables; ++j)
      spill_->apply_to_table(level, j, key, delta);
    return;
  }
  if (stage.mass + magnitude > kInt16Max) fold_level(level);
  stage.mass += static_cast<std::uint32_t>(magnitude);
  for (int j = 0; j < params_.num_tables; ++j) {
    const std::size_t i =
        static_cast<std::size_t>(j) * params_.buckets_per_table +
        hashes_.buckets.bucket_mixed(j, mixed);
    stage.totals[i] += delta;
    add_(stage.bits[i].counts, key, static_cast<std::int16_t>(delta));
    stage.dirty[i / 64] |= 1ULL << (i % 64);
  }
}

void EpochSketch::drain_level(int level, char* out, bool accumulate) {
  Level& stage = levels_[static_cast<std::size_t>(level)];
  const std::size_t width = params_.signature_width();
  const std::size_t bytes = width * sizeof(std::int64_t);
  const std::size_t buckets =
      static_cast<std::size_t>(params_.num_tables) * params_.buckets_per_table;
  // Widen all 64 counters of a block (those past key_bits are zero) with a
  // fixed trip count, so the compiler vectorizes the sign extension and the
  // zeroing. `out` is a byte buffer at no particular alignment, so the
  // signature moves through memcpy.
  alignas(64) std::int64_t signature[65] = {};
  std::int64_t prior[65] = {};
  for (std::size_t word = 0; word < (buckets + 63) / 64; ++word) {
    for (std::uint64_t dirty = stage.dirty[word]; dirty != 0;
         dirty &= dirty - 1) {
      const std::size_t i =
          word * 64 + static_cast<std::size_t>(lsb_index(dirty));
      std::int16_t* bits = stage.bits[i].counts;
      signature[0] = stage.totals[i];
      stage.totals[i] = 0;
      for (std::size_t b = 0; b < 64; ++b) {
        signature[1 + b] = bits[b];
        bits[b] = 0;
      }
      char* at = out + i * bytes;
      if (accumulate) {
        std::memcpy(prior, at, bytes);
        for (std::size_t w = 0; w < width; ++w) signature[w] += prior[w];
      }
      std::memcpy(at, signature, bytes);
    }
    stage.dirty[word] = 0;
  }
}

std::int64_t* EpochSketch::spill_level(int level) {
  if (spill_ == nullptr)
    spill_ = std::make_unique<DistinctCountSketch>(params_);
  spill_->ensure_level(level);
  spilled_ |= 1ULL << level;
  return spill_->levels_[static_cast<std::size_t>(level)].data();
}

void EpochSketch::fold_level(int level) {
  drain_level(level, reinterpret_cast<char*>(spill_level(level)), true);
  levels_[static_cast<std::size_t>(level)].mass = 0;
}

std::string EpochSketch::seal() {
  const std::size_t level_bytes = params_.level_bytes();
  std::string blob;
  blob.reserve(DistinctCountSketch::serialized_size(params_, touched_));
  BinaryWriter writer(blob);
  writer.crc_reset();  // footer covers the header too
  DistinctCountSketch::serialize_prefix(writer, params_, touched_);
  for (std::uint64_t mask = touched_; mask != 0; mask &= mask - 1) {
    const int level = lsb_index(mask);
    writer.u64(params_.counters_per_level());
    // fill() hands over zeroed bytes: only buckets touched this epoch need
    // writing, unless the level folded into its spill level this epoch.
    writer.fill(level_bytes, [&](char* out) {
      const bool spilled = (spilled_ >> level) & 1;
      if (spilled) {
        std::int64_t* wide =
            spill_->levels_[static_cast<std::size_t>(level)].data();
        std::memcpy(out, wide, level_bytes);
        std::memset(wide, 0, level_bytes);
      }
      drain_level(level, out, spilled);
    });
    levels_[static_cast<std::size_t>(level)].mass = 0;
  }
  write_crc_footer(writer);
  touched_ = 0;
  spilled_ = 0;
  if (obs::recording()) pending_metrics_.flush();
  return blob;
}

int EpochSketch::staged_levels() const noexcept {
  int count = 0;
  for (const Level& stage : levels_)
    if (stage.bits != nullptr) ++count;
  return count;
}

}  // namespace dcs

#include "sketch/epoch_sketch.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/serialize.hpp"
#include "sketch/dense_add16_avx512.hpp"

namespace dcs {

namespace {
constexpr std::uint64_t kInt16Max = std::numeric_limits<std::int16_t>::max();
}  // namespace

struct EpochSketch::BlockApply {
  /// Apply `n` hashed updates. Always inlined, so each entry below compiles
  /// it with its own target; a constant `add` is inlined too.
  [[gnu::always_inline]] static inline void run(EpochSketch& sketch,
                                                const PairKey* keys,
                                                const int* deltas,
                                                std::size_t n,
                                                detail::DenseAdd16Fn add) {
    const std::size_t tables = static_cast<std::size_t>(sketch.params_.num_tables);
    const std::size_t s = sketch.params_.buckets_per_table;
    const std::uint32_t* buckets = sketch.block_buckets_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const int level = sketch.block_levels_[i];
      const int delta = deltas[i];
      const PairKey key = keys[i];
      Level& stage = sketch.staging(level);
      sketch.touched_ |= 1ULL << level;
      const auto magnitude =
          static_cast<std::uint64_t>(std::llabs(static_cast<long long>(delta)));
      if (magnitude > kInt16Max) {
        sketch.spill_update(i, key, delta);
        continue;
      }
      if (stage.mass + magnitude > kInt16Max) sketch.fold_level(level);
      stage.mass += static_cast<std::uint32_t>(magnitude);
      for (std::size_t j = 0; j < tables; ++j) {
        const std::size_t b = j * s + buckets[j * kBlock + i];
        stage.totals[b] += delta;
        add(stage.bits[b].counts, key, static_cast<std::int16_t>(delta));
        stage.dirty[b / 64] |= 1ULL << (b % 64);
      }
    }
  }

  static void portable(EpochSketch& sketch, const PairKey* keys,
                       const int* deltas, std::size_t n) {
    run(sketch, keys, deltas, n, sketch.add_);
  }

#ifdef DCS_DENSE_ADD16_AVX512
  __attribute__((target("avx512bw"))) static void avx512(
      EpochSketch& sketch, const PairKey* keys, const int* deltas,
      std::size_t n) {
    run(sketch, keys, deltas, n, &detail::dense_add16_avx512);
  }
#endif
};

EpochSketch::EpochSketch(DcsParams params)
    : params_(params),
      hashes_(params),
      block_buckets_(static_cast<std::size_t>(params.num_tables) * kBlock),
      packer_(params) {
  params_.validate();
  // Narrow keys set few bits, where the set-bit loop beats any dense add.
  const bool wide = params_.key_bits == 64;
  add_ = wide && detail::dense_add16 != nullptr ? detail::dense_add16
                                                : &detail::dense_add16_portable;
  apply_ = &BlockApply::portable;
#ifdef DCS_DENSE_ADD16_AVX512
  if (add_ == &detail::dense_add16_avx512) apply_ = &BlockApply::avx512;
#endif
}

void EpochSketch::update_batch(std::span<const PairKey> keys,
                               std::span<const int> deltas) {
  if (keys.size() != deltas.size())
    throw std::invalid_argument("EpochSketch: keys and deltas differ in size");
  for (const PairKey key : keys)
    if (!params_.key_fits(key))
      throw std::invalid_argument("EpochSketch: key does not fit in key_bits");
  for (std::size_t at = 0; at < keys.size(); at += kBlock)
    apply_block(keys.data() + at, deltas.data() + at,
                std::min(kBlock, keys.size() - at));
}

EpochSketch::Level& EpochSketch::staging(int level) {
  Level& stage = levels_[static_cast<std::size_t>(level)];
  if (stage.bits == nullptr) [[unlikely]] {
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

void EpochSketch::apply_block(const PairKey* keys, const int* deltas,
                              std::size_t n) {
  detail::hash_block(hashes_, keys, n, block_levels_.data(),
                     block_buckets_.data(), kBlock);
  if (obs::recording()) {
    std::uint32_t deletes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ++pending_metrics_.level_hits[block_levels_[i]];
      deletes += deltas[i] < 0;
    }
    pending_metrics_.add(static_cast<std::uint32_t>(n), deletes);
  }
  apply_(*this, keys, deltas, n);
}

std::int64_t* EpochSketch::spill_level(int level) {
  if (spill_ == nullptr)
    spill_ = std::make_unique<DistinctCountSketch>(params_);
  spill_->ensure_level(level);
  spilled_ |= 1ULL << level;
  return spill_->levels_[static_cast<std::size_t>(level)].data();
}

void EpochSketch::spill_update(std::size_t i, PairKey key, int delta) {
  const int level = block_levels_[i];
  spill_level(level);
  Level& stage = levels_[static_cast<std::size_t>(level)];
  for (int j = 0; j < params_.num_tables; ++j) {
    spill_->apply_to_table(level, j, key, delta);
    const std::size_t b =
        static_cast<std::size_t>(j) * params_.buckets_per_table +
        block_buckets_[static_cast<std::size_t>(j) * kBlock + i];
    stage.dirty[b / 64] |= 1ULL << (b % 64);
  }
}

void EpochSketch::take_signature(Level& stage, std::size_t i,
                                 std::int64_t* signature) {
  // All 64 counters of a block (those past key_bits are zero), with a fixed
  // trip count, so the compiler vectorizes the sign extension and zeroing.
  std::int16_t* bits = stage.bits[i].counts;
  signature[0] = stage.totals[i];
  stage.totals[i] = 0;
  for (std::size_t b = 0; b < 64; ++b) {
    signature[1 + b] = bits[b];
    bits[b] = 0;
  }
}

void EpochSketch::fold_level(int level) {
  Level& stage = levels_[static_cast<std::size_t>(level)];
  std::int64_t* wide = spill_level(level);
  const std::size_t width = params_.signature_width();
  const std::size_t buckets =
      static_cast<std::size_t>(params_.num_tables) * params_.buckets_per_table;
  alignas(64) std::int64_t signature[65];
  for (std::size_t word = 0; word < (buckets + 63) / 64; ++word) {
    for (std::uint64_t dirty = stage.dirty[word]; dirty != 0;
         dirty &= dirty - 1) {
      const std::size_t i =
          word * 64 + static_cast<std::size_t>(lsb_index(dirty));
      take_signature(stage, i, signature);
      std::int64_t* at = wide + i * width;
      for (std::size_t w = 0; w < width; ++w) at[w] += signature[w];
    }
  }
  stage.mass = 0;
}

std::string EpochSketch::seal() {
  const std::size_t width = params_.signature_width();
  const std::size_t buckets =
      static_cast<std::size_t>(params_.num_tables) * params_.buckets_per_table;
  std::string blob;
  BinaryWriter writer(blob);
  blob::write_prefix(writer, params_, touched_);
  alignas(64) std::int64_t signature[65];
  for (std::uint64_t mask = touched_; mask != 0; mask &= mask - 1) {
    const int level = lsb_index(mask);
    Level& stage = levels_[static_cast<std::size_t>(level)];
    std::int64_t* wide =
        (spilled_ >> level) & 1
            ? spill_->levels_[static_cast<std::size_t>(level)].data()
            : nullptr;
    for (std::size_t word = 0; word < (buckets + 63) / 64; ++word) {
      for (std::uint64_t dirty = stage.dirty[word]; dirty != 0;
           dirty &= dirty - 1) {
        const std::size_t i =
            word * 64 + static_cast<std::size_t>(lsb_index(dirty));
        take_signature(stage, i, signature);
        if (wide != nullptr) {
          std::int64_t* at = wide + i * width;
          for (std::size_t w = 0; w < width; ++w) {
            signature[w] += at[w];
            at[w] = 0;
          }
        }
        packer_.add(i, signature);
      }
      stage.dirty[word] = 0;
    }
    packer_.write(writer);
    stage.mass = 0;
  }
  write_crc_footer(writer);
  touched_ = 0;
  spilled_ = 0;
  if (obs::recording()) pending_metrics_.flush();
  return blob;
}

int EpochSketch::staged_levels() const {
  int count = 0;
  for (const Level& stage : levels_)
    if (stage.bits != nullptr) ++count;
  return count;
}

}  // namespace dcs

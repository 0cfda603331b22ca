#include "sketch/distinct_count_sketch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace dcs {

DistinctCountSketch::DistinctCountSketch(DcsParams params)
    : params_(params),
      hashes_(params),
      levels_(static_cast<std::size_t>(params.max_level) + 1) {
  params_.validate();
}

void DistinctCountSketch::check_key(PairKey key) const {
  if (!params_.key_fits(key))
    throw std::invalid_argument(
        "DistinctCountSketch: key does not fit in key_bits");
}

void DistinctCountSketch::ensure_level(int level) {
  auto& storage = levels_[static_cast<std::size_t>(level)];
  if (storage.empty()) {
    storage.assign(params_.counters_per_level(), 0);
    if (obs::recording()) obs::SketchMetrics::get().level_allocations.inc();
  }
}

std::int64_t* DistinctCountSketch::counters_at(int level, int table,
                                               std::uint32_t bucket) {
  auto& storage = levels_[static_cast<std::size_t>(level)];
  const std::size_t width = params_.signature_width();
  const std::size_t index =
      (static_cast<std::size_t>(table) * params_.buckets_per_table + bucket) *
      width;
  return storage.data() + index;
}

const std::int64_t* DistinctCountSketch::counters_at(
    int level, int table, std::uint32_t bucket) const {
  const auto& storage = levels_[static_cast<std::size_t>(level)];
  const std::size_t width = params_.signature_width();
  const std::size_t index =
      (static_cast<std::size_t>(table) * params_.buckets_per_table + bucket) *
      width;
  return storage.data() + index;
}

void DistinctCountSketch::update(Addr group, Addr member, int delta) {
  update_key(pack_pair(group, member), delta);
}

void DistinctCountSketch::update_key(PairKey key, int delta) {
  check_key(key);
  const int level = level_of(key);
  ensure_level(level);
  if (obs::recording()) pending_metrics_.record(level, delta);
  for (int j = 0; j < params_.num_tables; ++j) {
    CountSignatureView sig(counters_at(level, j, bucket_of(j, key)),
                           params_.key_bits);
    sig.add(key, delta);
  }
}

void DistinctCountSketch::update_batch(std::span<const FlowUpdate> updates) {
  if (updates.empty()) return;
  const std::size_t n = updates.size();
  const std::size_t bytes = params_.signature_width() * sizeof(std::int64_t);
  const bool record = obs::recording();

  // Scratch buffers are thread_local so steady-state batches allocate
  // nothing; they grow to the largest span this thread has applied.
  thread_local std::vector<PairKey> keys;
  thread_local std::vector<std::uint8_t> levels;
  thread_local std::vector<std::uint32_t> buckets;  // table-major, stride n
  thread_local std::vector<std::uint32_t> level_counts;
  thread_local std::vector<std::uint32_t> order;

  // Pass 1: pack + validate every key before anything is applied (a bad
  // key therefore leaves the sketch untouched for the whole span), then
  // hash the span with the block kernel: every level and every bucket.
  keys.resize(n);
  std::uint32_t deletes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const FlowUpdate& u = updates[i];
    keys[i] = pack_pair(u.dest, u.source);
    check_key(keys[i]);
    deletes += u.delta < 0;
  }
  levels.resize(n);
  buckets.resize(n * static_cast<std::size_t>(params_.num_tables));
  detail::hash_block(hashes_, keys.data(), n, levels.data(), buckets.data(),
                     n);
  // The level histogram allocates levels lazily, tallies the span's
  // telemetry in one go, and doubles as the counting-sort table of pass 2.
  level_counts.assign(static_cast<std::size_t>(params_.max_level) + 2, 0);
  for (std::size_t i = 0; i < n; ++i) ++level_counts[levels[i] + 1u];
  for (std::size_t l = 0; l + 1 < level_counts.size(); ++l) {
    if (level_counts[l + 1] != 0) ensure_level(static_cast<int>(l));
    if (record && level_counts[l + 1] != 0)
      pending_metrics_.level_hits[l] += level_counts[l + 1];
  }
  if (record) pending_metrics_.add(static_cast<std::uint32_t>(n), deletes);

  // Pass 2: counting-sort the update indices by level. The sketch is linear,
  // so any apply order yields bit-identical final state — and level-major
  // order turns a random walk over every allocated level (megabytes) into a
  // sweep of one ~per-level region at a time, which is what makes the batch
  // path faster than element-at-a-time ingest on sketches larger than cache.
  for (std::size_t l = 1; l < level_counts.size(); ++l)
    level_counts[l] += level_counts[l - 1];
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    order[level_counts[levels[i]]++] = static_cast<std::uint32_t>(i);

  // Pass 3: apply level-major, table-major within a level, with a rolling
  // software prefetch kPrefetchAhead buckets ahead — far enough to cover a
  // memory round-trip, close enough that the prefetched lines (a signature
  // spans several cache lines) are still resident when the apply reaches
  // them.
  std::size_t begin = 0;
  while (begin < n) {
    const int level = static_cast<int>(levels[order[begin]]);
    std::size_t end = begin + 1;
    while (end < n && levels[order[end]] == levels[order[begin]]) ++end;
    for (int j = 0; j < params_.num_tables; ++j) {
      const std::uint32_t* row =
          buckets.data() + static_cast<std::size_t>(j) * n;
      for (std::size_t i = begin; i < end; ++i) {
        if (i + kPrefetchAhead < end)
          prefetch_write(
              counters_at(level, j, row[order[i + kPrefetchAhead]]), bytes);
        const std::uint32_t u = order[i];
        CountSignatureView sig(counters_at(level, j, row[u]),
                               params_.key_bits);
        sig.add(keys[u], updates[u].delta);
      }
    }
    begin = end;
  }
}

void DistinctCountSketch::apply_to_table(int level, int table, PairKey key,
                                         int delta) {
  ensure_level(level);
  CountSignatureView sig(counters_at(level, table, bucket_of(table, key)),
                         params_.key_bits);
  sig.add(key, delta);
}

BucketClass DistinctCountSketch::classify_bucket(int level, int table,
                                                 std::uint32_t bucket) const {
  if (!level_allocated(level)) return {BucketState::kEmpty, 0};
  CountSignatureView sig(
      const_cast<std::int64_t*>(counters_at(level, table, bucket)),
      params_.key_bits);
  return sig.classify();
}

std::vector<PairKey> DistinctCountSketch::level_sample(int level) const {
  std::vector<PairKey> sample;
  if (!level_allocated(level)) return sample;
  std::unordered_set<PairKey> seen;
  // Classification tallies are batched locally and flushed once per level so
  // instrumentation adds no atomics to the inner scan.
  std::uint64_t empty = 0, singleton = 0, collision = 0, ghosts = 0;
  for (int j = 0; j < params_.num_tables; ++j) {
    for (std::uint32_t b = 0; b < params_.buckets_per_table; ++b) {
      const BucketClass cls = classify_bucket(level, j, b);
      if (cls.state != BucketState::kSingleton) {
        (cls.state == BucketState::kEmpty ? empty : collision)++;
        continue;
      }
      ++singleton;
      // Defensive re-hash: a recovered key must map back to this very bucket.
      // Valid update streams can never fail this check; streams that delete
      // items they never inserted could fabricate "ghost" singletons.
      if (level_of(cls.key) != level || bucket_of(j, cls.key) != b) {
        ++ghosts;
        continue;
      }
      if (seen.insert(cls.key).second) sample.push_back(cls.key);
    }
  }
  if (obs::recording()) {
    auto& metrics = obs::SketchMetrics::get();
    metrics.query_empty.inc(empty);
    metrics.query_singleton.inc(singleton);
    metrics.query_collision.inc(collision);
    metrics.recovery_failures.inc(ghosts);
  }
  return sample;
}

DistinctCountSketch::DistinctSample DistinctCountSketch::collect_sample() const {
  DistinctSample result;
  const std::uint64_t target = params_.sample_target();
  int level = params_.max_level;
  for (; level >= 0; --level) {
    auto keys = level_sample(level);
    result.keys.insert(result.keys.end(), keys.begin(), keys.end());
    if (result.keys.size() >= target) break;
  }
  // If the stream is small enough that every level was consumed, the sample
  // holds (nearly) all active pairs at sampling probability 1.
  result.inference_level = std::max(level, 0);
  return result;
}

double linear_count_estimate(std::uint64_t occupied, std::uint32_t buckets) {
  if (occupied == 0) return 0.0;
  const double s = static_cast<double>(buckets);
  const double o = occupied >= buckets ? s - 0.5 : static_cast<double>(occupied);
  return std::log(1.0 - o / s) / std::log(1.0 - 1.0 / s);
}

std::vector<TopKEntry> rank_sample_groups(const std::vector<PairKey>& sample,
                                          double scale, std::size_t k) {
  std::unordered_map<Addr, std::uint64_t> counts;
  counts.reserve(sample.size());
  for (const PairKey key : sample) ++counts[pair_group(key)];

  std::vector<TopKEntry> entries;
  entries.reserve(counts.size());
  for (const auto& [group, freq] : counts)
    entries.push_back({group, static_cast<std::uint64_t>(std::llround(
                                  static_cast<double>(freq) * scale))});

  const auto order = [](const TopKEntry& a, const TopKEntry& b) {
    return a.estimate != b.estimate ? a.estimate > b.estimate
                                    : a.group < b.group;
  };
  if (k > 0 && k < entries.size()) {
    std::partial_sort(entries.begin(),
                      entries.begin() + static_cast<std::ptrdiff_t>(k),
                      entries.end(), order);
    entries.resize(k);
  } else {
    std::sort(entries.begin(), entries.end(), order);
  }
  return entries;
}

std::uint64_t DistinctCountSketch::occupied_buckets(int level,
                                                    int table) const {
  if (!level_allocated(level)) return 0;
  std::uint64_t occupied = 0;
  for (std::uint32_t b = 0; b < params_.buckets_per_table; ++b)
    if (classify_bucket(level, table, b).state != BucketState::kEmpty)
      ++occupied;
  return occupied;
}

double DistinctCountSketch::estimate_level_population(int level) const {
  double total = 0.0;
  for (int j = 0; j < params_.num_tables; ++j)
    total += linear_count_estimate(occupied_buckets(level, j),
                                   params_.buckets_per_table);
  return total / static_cast<double>(params_.num_tables);
}

double DistinctCountSketch::correction_factor(
    int level, std::uint64_t sample_size) const {
  if (!params_.collision_correction || sample_size == 0) return 1.0;
  double population = 0.0;
  for (int l = params_.max_level; l >= level; --l)
    population += estimate_level_population(l);
  const double factor = population / static_cast<double>(sample_size);
  return factor < 1.0 ? 1.0 : factor;
}

TopKResult DistinctCountSketch::top_k(std::size_t k) const {
  pending_metrics_.flush();  // query-time snapshots see every update so far
  obs::ScopedTimer timer(obs::SketchMetrics::get().query_ns);
  const DistinctSample sample = collect_sample();
  TopKResult result;
  result.inference_level = sample.inference_level;
  result.sample_size = sample.keys.size();
  const double scale =
      std::ldexp(correction_factor(sample.inference_level, sample.keys.size()),
                 sample.inference_level);
  result.entries = rank_sample_groups(sample.keys, scale, k);
  return result;
}

std::vector<TopKEntry> DistinctCountSketch::groups_above(
    std::uint64_t tau) const {
  pending_metrics_.flush();  // query-time snapshots see every update so far
  obs::ScopedTimer timer(obs::SketchMetrics::get().query_ns);
  const DistinctSample sample = collect_sample();
  const double scale =
      std::ldexp(correction_factor(sample.inference_level, sample.keys.size()),
                 sample.inference_level);
  auto entries = rank_sample_groups(sample.keys, scale, 0);
  const auto cut = std::find_if(entries.begin(), entries.end(),
                                [tau](const TopKEntry& e) {
                                  return e.estimate < tau;
                                });
  entries.erase(cut, entries.end());
  return entries;
}

std::uint64_t DistinctCountSketch::estimate_distinct_pairs() const {
  pending_metrics_.flush();  // query-time snapshots see every update so far
  obs::ScopedTimer timer(obs::SketchMetrics::get().query_ns);
  const DistinctSample sample = collect_sample();
  const double scale =
      std::ldexp(correction_factor(sample.inference_level, sample.keys.size()),
                 sample.inference_level);
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(sample.keys.size()) * scale));
}

std::uint64_t DistinctCountSketch::estimate_frequency(Addr group) const {
  pending_metrics_.flush();  // query-time snapshots see every update so far
  obs::ScopedTimer timer(obs::SketchMetrics::get().query_ns);
  const DistinctSample sample = collect_sample();
  std::uint64_t in_sample = 0;
  for (const PairKey key : sample.keys)
    if (pair_group(key) == group) ++in_sample;
  const double scale =
      std::ldexp(correction_factor(sample.inference_level, sample.keys.size()),
                 sample.inference_level);
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(in_sample) * scale));
}

void DistinctCountSketch::merge(const DistinctCountSketch& other) {
  if (!(params_ == other.params_))
    throw std::invalid_argument(
        "DistinctCountSketch::merge: parameter/seed mismatch");
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const auto& src = other.levels_[l];
    if (src.empty()) continue;
    auto& dst = levels_[l];
    if (dst.empty()) {
      dst = src;
    } else {
      for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
    }
  }
}

void DistinctCountSketch::subtract(const DistinctCountSketch& other) {
  if (!(params_ == other.params_))
    throw std::invalid_argument(
        "DistinctCountSketch::subtract: parameter/seed mismatch");
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const auto& src = other.levels_[l];
    if (src.empty()) continue;
    auto& dst = levels_[l];
    if (dst.empty()) dst.assign(params_.counters_per_level(), 0);
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] -= src[i];
  }
}

std::uint64_t DistinctCountSketch::allocated_mask() const noexcept {
  std::uint64_t allocated = 0;
  for (std::size_t l = 0; l < levels_.size(); ++l)
    if (!levels_[l].empty()) allocated |= (1ULL << l);
  return allocated;
}

void DistinctCountSketch::merge(const SketchBlob& blob) {
  if (!(params_ == blob.params()))
    throw std::invalid_argument(
        "DistinctCountSketch::merge: parameter/seed mismatch");
  for (const BlobLevel& level : blob.levels()) {
    ensure_level(level.level);
    blob::add_level(level, params_,
                    levels_[static_cast<std::size_t>(level.level)].data());
  }
}

void DistinctCountSketch::serialize(BinaryWriter& writer) const {
  blob::write_prefix(writer, params_, allocated_mask());
  blob::LevelPacker packer(params_);
  const std::size_t width = params_.signature_width();
  const std::size_t buckets =
      static_cast<std::size_t>(params_.num_tables) * params_.buckets_per_table;
  for (const auto& level : levels_) {
    if (level.empty()) continue;
    for (std::size_t i = 0; i < buckets; ++i)
      packer.add(i, level.data() + i * width);
    packer.write(writer);
  }
  write_crc_footer(writer);
}

DistinctCountSketch DistinctCountSketch::deserialize(BinaryReader& reader) {
  DcsParams params;
  const std::uint64_t allocated = blob::read_prefix(reader, params);
  DistinctCountSketch sketch(params);
  std::string scratch;
  for (std::uint64_t mask = allocated; mask != 0; mask &= mask - 1) {
    const int l = std::countr_zero(mask);
    const BlobLevel level = blob::read_level(reader, params, l, scratch);
    sketch.ensure_level(l);
    blob::add_level(level, params,
                    sketch.levels_[static_cast<std::size_t>(l)].data());
  }
  read_crc_footer(reader);
  return sketch;
}

bool operator==(const DistinctCountSketch& a, const DistinctCountSketch& b) {
  if (!(a.params_ == b.params_)) return false;
  const auto all_zero = [](const std::vector<std::int64_t>& v) {
    return std::all_of(v.begin(), v.end(), [](std::int64_t c) { return c == 0; });
  };
  for (std::size_t l = 0; l < a.levels_.size(); ++l) {
    const auto& la = a.levels_[l];
    const auto& lb = b.levels_[l];
    if (la.empty() && lb.empty()) continue;
    if (la.empty()) {
      if (!all_zero(lb)) return false;
    } else if (lb.empty()) {
      if (!all_zero(la)) return false;
    } else if (la != lb) {
      return false;
    }
  }
  return true;
}

int DistinctCountSketch::allocated_levels() const noexcept {
  int count = 0;
  for (const auto& level : levels_)
    if (!level.empty()) ++count;
  return count;
}

std::size_t DistinctCountSketch::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& level : levels_)
    bytes += level.capacity() * sizeof(std::int64_t);
  return bytes;
}

bool DistinctCountSketch::validate() const {
  for (int l = 0; l <= params_.max_level; ++l) {
    if (!level_allocated(l)) continue;
    for (int j = 0; j < params_.num_tables; ++j) {
      for (std::uint32_t b = 0; b < params_.buckets_per_table; ++b) {
        const std::int64_t* c = counters_at(l, j, b);
        const std::int64_t total = c[0];
        if (total < 0) return false;
        for (int i = 1; i <= params_.key_bits; ++i)
          if (c[i] < 0 || c[i] > total) return false;
      }
    }
  }
  return true;
}

}  // namespace dcs

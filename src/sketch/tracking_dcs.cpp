#include "sketch/tracking_dcs.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/instruments.hpp"

namespace dcs {

TrackingDcs::TrackingDcs(DcsParams params)
    : sketch_(params),
      singletons_(static_cast<std::size_t>(params.max_level) + 1),
      heaps_(static_cast<std::size_t>(params.max_level) + 1),
      occupancy_(static_cast<std::size_t>(params.max_level) + 1,
                 std::vector<std::uint32_t>(
                     static_cast<std::size_t>(params.num_tables), 0)) {}

TrackingDcs::TrackingDcs(DistinctCountSketch sketch)
    : sketch_(std::move(sketch)),
      singletons_(static_cast<std::size_t>(sketch_.params().max_level) + 1),
      heaps_(static_cast<std::size_t>(sketch_.params().max_level) + 1),
      occupancy_(static_cast<std::size_t>(sketch_.params().max_level) + 1,
                 std::vector<std::uint32_t>(
                     static_cast<std::size_t>(sketch_.params().num_tables),
                     0)) {
  rebuild();
}

void TrackingDcs::update(Addr group, Addr member, int delta) {
  update_key(pack_pair(group, member), delta);
}

void TrackingDcs::update_key(PairKey key, int delta) {
  if (params().key_bits < 64 && (key >> params().key_bits) != 0)
    throw std::invalid_argument("TrackingDcs: key does not fit in key_bits");
  if (obs::recording()) obs::TrackingMetrics::get().updates.inc();
  const int level = sketch_.level_of(key);
  for (int j = 0; j < params().num_tables; ++j)
    apply_tracked(level, j, key, delta);
  flush_tally();
}

void TrackingDcs::apply_tracked(int level, int j, PairKey key, int delta) {
  const std::uint32_t bucket = sketch_.bucket_of(j, key);
  const BucketClass before = sketch_.classify_bucket(level, j, bucket);
  sketch_.apply_to_table(level, j, key, delta);
  track(level, j, before, sketch_.classify_bucket(level, j, bucket));
}

void TrackingDcs::track(int level, int j, const BucketClass& before,
                        const BucketClass& after) {
  const bool was_singleton = before.state == BucketState::kSingleton;
  const bool is_singleton = after.state == BucketState::kSingleton;
  if (was_singleton && (!is_singleton || after.key != before.key))
    singleton_lost(level, before.key);
  if (is_singleton && (!was_singleton || before.key != after.key))
    singleton_gained(level, after.key);

  const bool was_empty = before.state == BucketState::kEmpty;
  const bool is_empty = after.state == BucketState::kEmpty;
  auto& occupancy =
      occupancy_[static_cast<std::size_t>(level)][static_cast<std::size_t>(j)];
  if (was_empty && !is_empty) ++occupancy;
  if (!was_empty && is_empty) --occupancy;
}

void TrackingDcs::update_batch(std::span<const FlowUpdate> updates) {
  constexpr std::size_t kBlock = DistinctCountSketch::kBatchBlock;
  std::array<PairKey, kBlock> keys;
  std::array<int, kBlock> levels;
  for (std::size_t begin = 0; begin < updates.size(); begin += kBlock) {
    const std::size_t block = std::min(kBlock, updates.size() - begin);
    // Pass 1: hashes up front, prefetch every signature the block touches.
    for (std::size_t i = 0; i < block; ++i) {
      const FlowUpdate& u = updates[begin + i];
      const PairKey key = pack_pair(u.dest, u.source);
      if (params().key_bits < 64 && (key >> params().key_bits) != 0)
        throw std::invalid_argument("TrackingDcs: key does not fit in key_bits");
      keys[i] = key;
      levels[i] = sketch_.level_of(key);
      for (int j = 0; j < params().num_tables; ++j)
        sketch_.prefetch_bucket(levels[i], j, key);
    }
    if (obs::recording())
      obs::TrackingMetrics::get().updates.inc(block);
    // Pass 2: the usual classify/apply/classify maintenance, in order (the
    // tracking structures are order-sensitive within a bucket, so the block
    // replays exactly the sequential schedule).
    for (std::size_t i = 0; i < block; ++i)
      for (int j = 0; j < params().num_tables; ++j)
        apply_tracked(levels[i], j, keys[i], updates[begin + i].delta);
    flush_tally();
  }
}

void TrackingDcs::singleton_gained(int level, PairKey key) {
  auto& map = singletons_[static_cast<std::size_t>(level)];
  if (++map[key] == 1) {
    // New distinct-sample member: bump the group's sample frequency in the
    // cumulative heaps of this level and every level below (Fig. 6, 20-22).
    const Addr group = pair_group(key);
    for (int l = level; l >= 0; --l)
      heaps_[static_cast<std::size_t>(l)].add(group, +1);
    ++pending_.gained;
    pending_.heap_ops += static_cast<std::uint64_t>(level) + 1;
  }
}

void TrackingDcs::singleton_lost(int level, PairKey key) {
  auto& map = singletons_[static_cast<std::size_t>(level)];
  const auto it = map.find(key);
  if (it == map.end())
    throw std::logic_error("TrackingDcs: losing an untracked singleton");
  if (--it->second == 0) {
    map.erase(it);
    const Addr group = pair_group(key);
    for (int l = level; l >= 0; --l)
      heaps_[static_cast<std::size_t>(l)].add(group, -1);
    ++pending_.lost;
    pending_.heap_ops += static_cast<std::uint64_t>(level) + 1;
  }
}

void TrackingDcs::flush_tally() {
  if (obs::recording()) {
    auto& metrics = obs::TrackingMetrics::get();
    metrics.singletons_gained.inc(pending_.gained);
    metrics.singletons_lost.inc(pending_.lost);
    metrics.heap_ops.inc(pending_.heap_ops);
  }
  pending_ = {};
}

std::uint64_t TrackingDcs::num_singletons(int level) const {
  return singletons_[static_cast<std::size_t>(level)].size();
}

std::pair<int, std::uint64_t> TrackingDcs::inference_level() const {
  const std::uint64_t target = params().sample_target();
  std::uint64_t sample_size = 0;
  int level = params().max_level;
  for (; level >= 0; --level) {
    sample_size += num_singletons(level);
    if (sample_size >= target) break;
  }
  return {std::max(level, 0), sample_size};
}

double TrackingDcs::correction_factor(int level,
                                      std::uint64_t sample_size) const {
  if (!params().collision_correction || sample_size == 0) return 1.0;
  // Mirrors DistinctCountSketch::correction_factor term for term so both
  // estimators produce bit-identical results on identical state.
  double population = 0.0;
  for (int l = params().max_level; l >= level; --l) {
    double level_total = 0.0;
    for (int j = 0; j < params().num_tables; ++j)
      level_total += linear_count_estimate(
          occupancy_[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)],
          params().buckets_per_table);
    population += level_total / static_cast<double>(params().num_tables);
  }
  const double factor = population / static_cast<double>(sample_size);
  return factor < 1.0 ? 1.0 : factor;
}

TopKResult TrackingDcs::top_k(std::size_t k) const {
  obs::ScopedTimer timer(obs::TrackingMetrics::get().query_ns);
  const auto [level, sample_size] = inference_level();
  TopKResult result;
  result.inference_level = level;
  result.sample_size = sample_size;
  const double scale =
      std::ldexp(correction_factor(level, sample_size), level);
  const auto entries = heaps_[static_cast<std::size_t>(level)].top_k(k);
  result.entries.reserve(entries.size());
  for (const auto& e : entries)
    result.entries.push_back(
        {e.key, static_cast<std::uint64_t>(
                    std::llround(static_cast<double>(e.priority) * scale))});
  return result;
}

std::vector<TopKEntry> TrackingDcs::groups_above(std::uint64_t tau) const {
  const auto [level, sample_size] = inference_level();
  const double scale =
      std::ldexp(correction_factor(level, sample_size), level);
  const auto& heap = heaps_[static_cast<std::size_t>(level)];
  auto entries = heap.top_k(heap.size());
  std::vector<TopKEntry> out;
  for (const auto& e : entries) {
    const auto estimate = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(e.priority) * scale));
    if (estimate < tau) break;  // entries are descending
    out.push_back({e.key, estimate});
  }
  return out;
}

std::uint64_t TrackingDcs::estimate_distinct_pairs() const {
  const auto [level, sample_size] = inference_level();
  const double scale =
      std::ldexp(correction_factor(level, sample_size), level);
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(sample_size) * scale));
}

std::uint64_t TrackingDcs::estimate_frequency(Addr group) const {
  const auto [level, sample_size] = inference_level();
  const double scale =
      std::ldexp(correction_factor(level, sample_size), level);
  const std::int64_t in_sample =
      heaps_[static_cast<std::size_t>(level)].priority(group);
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(in_sample) * scale));
}

std::vector<TrackingDcs::SingletonMap> TrackingDcs::recompute_singletons()
    const {
  std::vector<SingletonMap> maps(singletons_.size());
  for (int l = 0; l <= params().max_level; ++l) {
    if (!sketch_.level_allocated(l)) continue;
    for (int j = 0; j < params().num_tables; ++j) {
      for (std::uint32_t b = 0; b < params().buckets_per_table; ++b) {
        const BucketClass cls = sketch_.classify_bucket(l, j, b);
        if (cls.state == BucketState::kSingleton)
          ++maps[static_cast<std::size_t>(l)][cls.key];
      }
    }
  }
  return maps;
}

void TrackingDcs::rebuild() {
  for (auto& map : singletons_) map.clear();
  heaps_.assign(heaps_.size(), {});
  for (auto& tables : occupancy_) std::fill(tables.begin(), tables.end(), 0);
  const std::size_t width = params().signature_width();
  for (int l = 0; l <= params().max_level; ++l) {
    if (!sketch_.level_allocated(l)) continue;
    const std::int64_t* signature =
        sketch_.levels_[static_cast<std::size_t>(l)].data();
    for (int j = 0; j < params().num_tables; ++j) {
      auto& occupancy =
          occupancy_[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)];
      for (std::uint32_t b = 0; b < params().buckets_per_table;
           ++b, signature += width) {
        const BucketClass cls =
            CountSignatureView(const_cast<std::int64_t*>(signature),
                               params().key_bits)
                .classify();
        if (cls.state != BucketState::kEmpty) ++occupancy;
        if (cls.state == BucketState::kSingleton) singleton_gained(l, cls.key);
      }
    }
  }
  pending_ = {};  // the counters count stream transitions, not a rebuild
}

void TrackingDcs::merge(const TrackingDcs& other) {
  merge_sketch(other.sketch_);
}

void TrackingDcs::merge_sketch(const DistinctCountSketch& delta) {
  if (!(params() == delta.params()))
    throw std::invalid_argument("TrackingDcs::merge: parameter/seed mismatch");
  const std::size_t width = params().signature_width();
  const std::size_t buckets =
      static_cast<std::size_t>(params().num_tables) *
      params().buckets_per_table;
  for (int l = 0; l <= params().max_level; ++l) {
    const auto& from = delta.levels_[static_cast<std::size_t>(l)];
    if (from.empty()) continue;
    sketch_.ensure_level(l);
    std::int64_t* counters = sketch_.levels_[static_cast<std::size_t>(l)].data();
    for (std::size_t bucket = 0; bucket < buckets; ++bucket) {
      const std::int64_t* add = from.data() + bucket * width;
      if (std::all_of(add, add + width, [](std::int64_t c) { return c == 0; }))
        continue;
      CountSignatureView signature(counters + bucket * width,
                                   params().key_bits);
      const BucketClass before = signature.classify();
      for (std::size_t k = 0; k < width; ++k)
        counters[bucket * width + k] += add[k];
      track(l, static_cast<int>(bucket / params().buckets_per_table), before,
            signature.classify());
    }
  }
  flush_tally();
}

void TrackingDcs::merge_sketch(const SketchBlob& delta) {
  if (!(params() == delta.params()))
    throw std::invalid_argument("TrackingDcs::merge: parameter/seed mismatch");
  const std::size_t width = params().signature_width();
  for (const BlobLevel& level : delta.levels()) {
    sketch_.ensure_level(level.level);
    std::int64_t* counters =
        sketch_.levels_[static_cast<std::size_t>(level.level)].data();
    const std::size_t bucket_bytes =
        width * static_cast<std::size_t>(level.width_bytes);
    const char* packed = level.payload.data();
    for (std::size_t w = 0; w < level.live.size(); ++w) {
      for (std::uint64_t bits = level.live[w]; bits != 0; bits &= bits - 1) {
        const std::size_t bucket =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        CountSignatureView signature(counters + bucket * width,
                                     params().key_bits);
        const BucketClass before = signature.classify();
        blob::add_bucket(packed, level.width_bytes, params(),
                         counters + bucket * width);
        packed += bucket_bytes;
        track(level.level,
              static_cast<int>(bucket / params().buckets_per_table), before,
              signature.classify());
      }
    }
  }
  flush_tally();
}

void TrackingDcs::serialize(BinaryWriter& writer) const {
  // The tracking state is derived; persisting the linear sketch suffices.
  sketch_.serialize(writer);
}

TrackingDcs TrackingDcs::deserialize(BinaryReader& reader) {
  return TrackingDcs(DistinctCountSketch::deserialize(reader));
}

bool TrackingDcs::check_invariants() const {
  const auto expected = recompute_singletons();
  for (std::size_t l = 0; l < singletons_.size(); ++l)
    if (singletons_[l] != expected[l]) return false;

  for (int l = 0; l <= params().max_level; ++l)
    for (int j = 0; j < params().num_tables; ++j)
      if (occupancy_[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)] !=
          sketch_.occupied_buckets(l, j))
        return false;

  // Heaps must hold exactly the cumulative group frequencies.
  std::unordered_map<Addr, std::int64_t> cumulative;
  for (int l = params().max_level; l >= 0; --l) {
    for (const auto& [key, tables] : expected[static_cast<std::size_t>(l)])
      ++cumulative[pair_group(key)];
    const auto& heap = heaps_[static_cast<std::size_t>(l)];
    if (!heap.validate()) return false;
    if (heap.size() != cumulative.size()) return false;
    for (const auto& [group, freq] : cumulative)
      if (heap.priority(group) != freq) return false;
  }
  return true;
}

std::size_t TrackingDcs::memory_bytes() const {
  std::size_t bytes = sketch_.memory_bytes();
  for (const auto& map : singletons_) {
    // unordered_map node overhead approximation: key+count+pointers.
    bytes += map.size() * (sizeof(PairKey) + sizeof(std::uint32_t) + 32);
    bytes += map.bucket_count() * sizeof(void*);
  }
  for (const auto& heap : heaps_) bytes += heap.memory_bytes();
  for (const auto& level : occupancy_)
    bytes += level.capacity() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace dcs

#include "query/engine.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <utility>

#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dcs::query {

QueryEngine::QueryEngine(QueryEngineConfig config)
    : config_(std::move(config)), store_(config_.publish_dir) {}

std::size_t QueryEngine::refresh() {
  const std::vector<std::uint64_t> on_disk = store_.generations();

  // Which generations are new? (Pointer reads only under the lock.)
  std::vector<std::uint64_t> to_load;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t generation : on_disk)
      if (loaded_.find(generation) == loaded_.end())
        to_load.push_back(generation);
  }

  // Decode + rebuild outside the lock: this is the expensive part
  // (O(sketch size) per generation) and must not stall readers.
  std::vector<std::shared_ptr<const LoadedSnapshot>> fresh;
  std::exception_ptr stale;
  for (const std::uint64_t generation : to_load) {
    obs::ScopedTimer timer(obs::QueryMetrics::get().load_ns);
    std::optional<QuerySnapshot> snapshot;
    try {
      snapshot = store_.load(generation);
    } catch (const StaleFormatError&) {
      // An older build's generation: skipped like a corrupt one, so the
      // rest still map and unmap; reported once this refresh is done.
      if (!stale) stale = std::current_exception();
    }
    if (!snapshot) {
      // Torn (publisher mid-rename is impossible — rename is atomic — so
      // this is a corrupt or vanished file): count and fall back to
      // whatever else is valid.
      if (obs::recording()) obs::QueryMetrics::get().reload_errors.inc();
      continue;
    }
    fresh.push_back(std::make_shared<const LoadedSnapshot>(
        std::move(*snapshot)));
    if (obs::recording()) obs::QueryMetrics::get().reloads.inc();
  }

  std::size_t mapped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& loaded : fresh) {
      loaded_[loaded->snapshot.generation] = std::move(loaded);
      ++mapped;
    }
    // Unmap generations pruned from disk (readers holding a shared_ptr
    // keep theirs alive; cache entries age out by LRU).
    for (auto it = loaded_.begin(); it != loaded_.end();) {
      const bool present =
          std::find(on_disk.begin(), on_disk.end(), it->first) !=
          on_disk.end();
      it = present ? std::next(it) : loaded_.erase(it);
    }
    if (obs::recording()) {
      auto& metrics = obs::QueryMetrics::get();
      metrics.loaded_generations.set(
          static_cast<std::int64_t>(loaded_.size()));
      if (!loaded_.empty()) {
        const std::uint64_t published =
            loaded_.rbegin()->second->snapshot.published_unix_ns;
        const std::uint64_t now = obs::unix_now_ns();
        metrics.stale_generation.set(static_cast<std::int64_t>(
            now > published ? (now - published) / 1'000'000 : 0));
      }
    }
  }
  if (stale) std::rethrow_exception(stale);
  return mapped;
}

std::shared_ptr<const LoadedSnapshot> QueryEngine::newest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (loaded_.empty()) return nullptr;
  return loaded_.rbegin()->second;
}

std::shared_ptr<const LoadedSnapshot> QueryEngine::at_generation(
    std::uint64_t generation) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = loaded_.find(generation);
  return it == loaded_.end() ? nullptr : it->second;
}

std::shared_ptr<const LoadedSnapshot> QueryEngine::at_epoch_at_most(
    std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<const LoadedSnapshot> best;
  for (const auto& [generation, loaded] : loaded_)
    if (loaded->snapshot.epoch_watermark <= epoch) best = loaded;
  return best;
}

std::vector<std::uint64_t> QueryEngine::loaded_generations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(loaded_.size());
  for (const auto& [generation, loaded] : loaded_) out.push_back(generation);
  return out;
}

std::string QueryEngine::cached(std::uint64_t generation,
                                const std::string& key,
                                const std::function<std::string()>& render) {
  const std::string full_key = std::to_string(generation) + ":" + key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_index_.find(full_key);
    if (it != cache_index_.end()) {
      // Move to front (most recently used).
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      if (obs::recording()) obs::QueryMetrics::get().cache_hits.inc();
      return it->second->second;
    }
  }
  if (obs::recording()) obs::QueryMetrics::get().cache_misses.inc();
  // Render outside the lock — answers must not serialize behind each
  // other. Two racing misses both render; last insert wins, both bodies
  // are identical (same immutable snapshot, deterministic renderer).
  std::string body = render();
  cache_put(full_key, body);
  return body;
}

void QueryEngine::cache_put(const std::string& full_key,
                            const std::string& body) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_index_.find(full_key);
  if (it != cache_index_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.emplace_front(full_key, body);
  cache_index_[full_key] = cache_lru_.begin();
  while (cache_lru_.size() > config_.cache_entries) {
    cache_index_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
  }
}

std::size_t QueryEngine::cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_lru_.size();
}

}  // namespace dcs::query

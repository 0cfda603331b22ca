// Query engine: immutable in-memory snapshots + a generation-keyed
// response cache. The read half of the query tier, below the HTTP layer.
//
// refresh() scans the publish directory and maps any generation it has not
// seen into a LoadedSnapshot: the decoded manifest plus a TrackingDcs
// rebuilt over the embedded sketch (O(sketch size), once per generation —
// by linearity the rebuilt tracking state is bit-identical to the
// collector's at the published watermark, so every answer computed from it
// equals the collector's answer exactly). Generations pruned from disk are
// unmapped; in-flight readers holding the shared_ptr keep theirs alive
// until they finish.
//
// Concurrency: the generation map and cache sit behind a plain mutex, held
// only for pointer copies and cache bookkeeping — never while decoding a
// snapshot or computing an answer. Readers work off const shared_ptr
// snapshots, so any number of them proceed without contending with each
// other or with refresh() beyond those short critical sections.
//
// The response cache is keyed (generation, route+query): a new publish
// invalidates exactly once — by changing the key — and an LRU bound caps
// memory. Time-travel answers cache under their own generation, so
// dashboards replaying history do not evict the hot head-of-stream entry.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/snapshot.hpp"
#include "sketch/tracking_dcs.hpp"

namespace dcs::query {

/// One mapped generation: the decoded snapshot plus the rebuilt tracking
/// state. Immutable after construction; shared by reference count. The
/// checkpoint's sketch is moved into `tracking`, so a generation holds one
/// dense copy: read it as `tracking.sketch()`, never through
/// `snapshot.checkpoint.sketch`, which is left moved-from.
struct LoadedSnapshot {
  QuerySnapshot snapshot;
  TrackingDcs tracking;

  explicit LoadedSnapshot(QuerySnapshot s)
      : snapshot(std::move(s)),
        tracking(std::move(snapshot.checkpoint.sketch)) {}
};

struct QueryEngineConfig {
  std::string publish_dir;
  /// Response-cache capacity (entries across all generations).
  std::size_t cache_entries = 256;
};

class QueryEngine {
 public:
  explicit QueryEngine(QueryEngineConfig config);

  /// Scan the publish directory: map new generations, unmap pruned ones,
  /// update the loaded/staleness gauges. Returns the number of
  /// generations newly mapped. Corrupt or torn files are counted and
  /// skipped (the newest valid one wins), never fatal. A generation an
  /// older build wrote is counted and skipped the same way, and once every
  /// other generation is mapped and every pruned one unmapped, the first
  /// such is rethrown as StaleFormatError.
  std::size_t refresh();

  /// Newest mapped generation (nullptr when none loaded yet).
  std::shared_ptr<const LoadedSnapshot> newest() const;
  /// Exact generation, nullptr when not mapped.
  std::shared_ptr<const LoadedSnapshot> at_generation(
      std::uint64_t generation) const;
  /// Newest mapped generation whose epoch watermark is <= `epoch`
  /// (the `?epoch<=E` time-travel form), nullptr when none qualifies.
  std::shared_ptr<const LoadedSnapshot> at_epoch_at_most(
      std::uint64_t epoch) const;

  /// Mapped generation ids, ascending.
  std::vector<std::uint64_t> loaded_generations() const;

  /// Serve `render()` through the response cache. The cache key is
  /// (generation, key); identical keys return the identical cached bytes.
  std::string cached(std::uint64_t generation, const std::string& key,
                     const std::function<std::string()>& render);

  /// Cache introspection for tests.
  std::size_t cache_size() const;

 private:
  void cache_put(const std::string& full_key, const std::string& body);

  QueryEngineConfig config_;
  SnapshotStore store_;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const LoadedSnapshot>> loaded_;
  /// LRU: most recent at the front; map values point into the list.
  std::list<std::pair<std::string, std::string>> cache_lru_;
  std::map<std::string,
           std::list<std::pair<std::string, std::string>>::iterator>
      cache_index_;
};

}  // namespace dcs::query

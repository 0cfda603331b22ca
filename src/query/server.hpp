// The query tier's HTTP surface: snapshot-backed JSON routes plus the
// generation watcher that keeps the engine current.
//
// Routes (all GET, all JSON):
//   /topk[?k=N]         precomputed ranking (k <= published k served from
//                       the manifest; larger k recomputed from tracking)
//   /frequency?key=K    distinct-member frequency of one group (key is
//                       decimal or 0x-prefixed hex)
//   /distinct_pairs     distinct net-positive pair estimate
//   /alerts             full alert event log at the watermark
//   /sites              per-site watermark census
//   /generations        mapped generations + watermarks (time-travel index)
//   /healthz            liveness + newest generation summary
//   /metrics[.json]     the process's own telemetry registry
//
// Time travel: every snapshot route accepts ?generation=G (exact retained
// generation) or ?epoch<=E (newest generation whose watermark is <= E).
// An unresolvable selector answers 404 — the generation was pruned or
// never existed, a condition the client must see, not be silently
// upgraded past.
//
// Answers are rendered deterministically from immutable snapshots and
// cached keyed by (generation, route+query): byte-identical responses
// until a new generation replaces the key.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "obs/http_export.hpp"
#include "query/engine.hpp"

namespace dcs::query {

struct QueryServerConfig {
  std::string publish_dir;
  /// Directory-watch poll interval; adds to the publish interval in the
  /// worst-case staleness bound.
  int watch_every_ms = 200;
  std::size_t cache_entries = 256;
  obs::HttpServerConfig http;
};

class QueryServer {
 public:
  explicit QueryServer(QueryServerConfig config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Load whatever the publish directory already holds, register routes,
  /// bind, and start the watcher. Throws std::runtime_error when the bind
  /// fails, and StaleFormatError when the directory holds a generation an
  /// older build published (docs/RUNBOOK.md).
  void start();
  void stop();

  std::uint16_t port() const noexcept { return http_.port(); }
  QueryEngine& engine() noexcept { return engine_; }

  /// One watcher pass (also called by the watch thread); exposed so tests
  /// and the smoke driver can force a refresh deterministically.
  void refresh() { engine_.refresh(); }

 private:
  void register_routes();
  void watch_loop();
  /// Resolve the snapshot a request addresses (newest, ?generation=, or
  /// ?epoch<=). Returns nullptr and fills `error` when unresolvable.
  std::shared_ptr<const LoadedSnapshot> resolve(
      const obs::HttpRequest& request, obs::HttpResponse* error);

  QueryServerConfig config_;
  QueryEngine engine_;
  obs::HttpServer http_;
  std::thread watch_thread_;
  std::atomic<bool> watching_{false};
};

}  // namespace dcs::query

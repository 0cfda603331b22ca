#include "query/server.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "detection/alert_log.hpp"
#include "obs/export.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"

namespace dcs::query {

namespace {

std::string hex_group(Addr group) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%08x", group);
  return buffer;
}

obs::HttpResponse json_response(std::string body) {
  obs::HttpResponse response;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

obs::HttpResponse json_error(int status, const std::string& detail) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\": \"" + detail + "\"}\n";
  return response;
}

/// Parse a non-negative integer query value (decimal or 0x-prefixed hex).
bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

/// Shared manifest prefix of every snapshot answer: which generation, at
/// which watermark, published when.
std::string manifest_fields(const QuerySnapshot& snapshot) {
  return "\"generation\": " + std::to_string(snapshot.generation) +
         ",\n  \"epoch_watermark\": " +
         std::to_string(snapshot.epoch_watermark) +
         ",\n  \"published_unix_ns\": " +
         std::to_string(snapshot.published_unix_ns);
}

std::string render_topk(const LoadedSnapshot& loaded, std::size_t k) {
  // The published ranking covers k values up to the publisher's k as a
  // prefix (the order is a deterministic total order, so top-j is the
  // first j rows of top-k). Larger k recomputes from the rebuilt
  // tracking state — identical to the collector's answer by linearity.
  TopKResult result;
  if (k <= loaded.snapshot.top_k.entries.size()) {
    result = loaded.snapshot.top_k;
    result.entries.resize(k);
  } else {
    result = loaded.tracking.top_k(k);
  }
  std::string out = "{\n  " + manifest_fields(loaded.snapshot) + ",\n";
  out += "  \"k\": " + std::to_string(k) + ",\n";
  out += "  \"inference_level\": " + std::to_string(result.inference_level) +
         ",\n";
  out += "  \"sample_size\": " + std::to_string(result.sample_size) + ",\n";
  out += "  \"entries\": [";
  bool first = true;
  for (const TopKEntry& entry : result.entries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"group\": \"" + hex_group(entry.group) +
           "\", \"estimate\": " + std::to_string(entry.estimate) + "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string render_frequency(const LoadedSnapshot& loaded, Addr key) {
  return "{\n  " + manifest_fields(loaded.snapshot) + ",\n  \"key\": \"" +
         hex_group(key) + "\",\n  \"estimate\": " +
         std::to_string(loaded.tracking.estimate_frequency(key)) + "\n}\n";
}

std::string render_distinct_pairs(const LoadedSnapshot& loaded) {
  return "{\n  " + manifest_fields(loaded.snapshot) +
         ",\n  \"deltas_merged\": " +
         std::to_string(loaded.snapshot.deltas_merged) +
         ",\n  \"distinct_pairs\": " +
         std::to_string(loaded.snapshot.distinct_pairs) + "\n}\n";
}

std::string render_alerts(const LoadedSnapshot& loaded) {
  return "{\n  " + manifest_fields(loaded.snapshot) +
         ",\n  \"active_alarms\": " +
         std::to_string(loaded.snapshot.active_alarms) +
         ",\n  \"alerts\": " + alerts_to_json(loaded.snapshot.alerts) + "}\n";
}

std::string render_sites(const LoadedSnapshot& loaded) {
  std::string out = "{\n  " + manifest_fields(loaded.snapshot) +
                    ",\n  \"sites\": [";
  bool first = true;
  for (const service::SiteWatermark& site : loaded.snapshot.checkpoint.sites) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"site_id\": " + std::to_string(site.site_id) +
           ", \"last_epoch\": " + std::to_string(site.last_epoch) +
           ", \"epochs_merged\": " + std::to_string(site.epochs_merged) +
           ", \"updates_merged\": " + std::to_string(site.updates_merged) +
           ", \"dropped_epochs\": " + std::to_string(site.dropped_epochs) +
           ", \"duplicate_deltas\": " +
           std::to_string(site.duplicate_deltas) + "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace

QueryServer::QueryServer(QueryServerConfig config)
    : config_(std::move(config)),
      engine_(QueryEngineConfig{config_.publish_dir, config_.cache_entries}),
      http_(config_.http) {}

QueryServer::~QueryServer() { stop(); }

void QueryServer::start() {
  if (watching_.load()) return;
  engine_.refresh();  // serve whatever is already published, immediately
  register_routes();
  http_.start();
  watching_.store(true, std::memory_order_relaxed);
  watch_thread_ = std::thread([this] { watch_loop(); });
}

void QueryServer::stop() {
  if (watching_.exchange(false)) {
    if (watch_thread_.joinable()) watch_thread_.join();
  }
  http_.stop();
}

void QueryServer::watch_loop() {
  while (watching_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.watch_every_ms));
    if (!watching_.load(std::memory_order_relaxed)) return;
    try {
      engine_.refresh();
    } catch (const StaleFormatError&) {
      // A generation from an older publisher still running beside this
      // one (start() refused any the directory held): refresh() mapped
      // every other generation, and only this one is not served.
    }
  }
}

std::shared_ptr<const LoadedSnapshot> QueryServer::resolve(
    const obs::HttpRequest& request, obs::HttpResponse* error) {
  // ?generation=G and ?epoch<=E ("epoch<" is the parsed key of the
  // literal epoch<=E form) select a retained generation; bare requests
  // read the newest. An unresolvable selector is the client's signal that
  // the generation aged out of retention — 404, never a silent upgrade.
  if (const std::string* text = request.param("generation")) {
    std::uint64_t generation = 0;
    if (!parse_u64(*text, &generation)) {
      *error = json_error(400, "bad generation: " + *text);
      return nullptr;
    }
    auto loaded = engine_.at_generation(generation);
    if (!loaded)
      *error = json_error(404, "generation not retained: " + *text);
    return loaded;
  }
  if (const std::string* text = request.param("epoch<")) {
    std::uint64_t epoch = 0;
    if (!parse_u64(*text, &epoch)) {
      *error = json_error(400, "bad epoch bound: " + *text);
      return nullptr;
    }
    auto loaded = engine_.at_epoch_at_most(epoch);
    if (!loaded)
      *error = json_error(404, "no retained generation at epoch<=" + *text);
    return loaded;
  }
  auto loaded = engine_.newest();
  if (!loaded) *error = json_error(404, "no snapshot published yet");
  return loaded;
}

void QueryServer::register_routes() {
  // Each snapshot route: resolve the addressed generation, then serve the
  // deterministic rendering through the (generation, route+query) cache.
  const auto cached_route = [this](const obs::HttpRequest& request,
                                   const std::function<std::string(
                                       const LoadedSnapshot&)>& render)
      -> obs::HttpResponse {
    if (obs::recording()) obs::QueryMetrics::get().requests.inc();
    obs::HttpResponse error;
    const auto loaded = resolve(request, &error);
    if (!loaded) return error;
    const std::string key = request.target + "?" + request.query_string;
    return json_response(engine_.cached(
        loaded->snapshot.generation, key,
        [&] { return render(*loaded); }));
  };

  http_.route("/topk", [this, cached_route](const obs::HttpRequest& request)
                           -> obs::HttpResponse {
    std::uint64_t k = 0;
    if (const std::string* text = request.param("k")) {
      if (!parse_u64(*text, &k) || k == 0)
        return json_error(400, "bad k: " + *text);
    }
    return cached_route(request, [k](const LoadedSnapshot& loaded) {
      const std::size_t effective =
          k == 0 ? loaded.snapshot.top_k.entries.size()
                 : static_cast<std::size_t>(k);
      return render_topk(loaded, effective);
    });
  });

  http_.route("/frequency",
              [this, cached_route](const obs::HttpRequest& request)
                  -> obs::HttpResponse {
                const std::string* text = request.param("key");
                if (!text) return json_error(400, "missing key parameter");
                std::uint64_t key = 0;
                if (!parse_u64(*text, &key) ||
                    key > 0xffffffffULL)
                  return json_error(400, "bad key: " + *text);
                return cached_route(
                    request, [key](const LoadedSnapshot& loaded) {
                      return render_frequency(loaded,
                                              static_cast<Addr>(key));
                    });
              });

  http_.route("/distinct_pairs",
              [cached_route](const obs::HttpRequest& request) {
                return cached_route(request, [](const LoadedSnapshot& l) {
                  return render_distinct_pairs(l);
                });
              });

  http_.route("/alerts", [cached_route](const obs::HttpRequest& request) {
    return cached_route(
        request, [](const LoadedSnapshot& l) { return render_alerts(l); });
  });

  http_.route("/sites", [cached_route](const obs::HttpRequest& request) {
    return cached_route(
        request, [](const LoadedSnapshot& l) { return render_sites(l); });
  });

  http_.route("/generations", [this]() -> obs::HttpResponse {
    if (obs::recording()) obs::QueryMetrics::get().requests.inc();
    std::string out = "{\n  \"generations\": [";
    bool first = true;
    for (const std::uint64_t generation : engine_.loaded_generations()) {
      const auto loaded = engine_.at_generation(generation);
      if (!loaded) continue;
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"generation\": " + std::to_string(generation) +
             ", \"epoch_watermark\": " +
             std::to_string(loaded->snapshot.epoch_watermark) +
             ", \"published_unix_ns\": " +
             std::to_string(loaded->snapshot.published_unix_ns) + "}";
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return json_response(std::move(out));
  });

  http_.route("/healthz", [this]() -> obs::HttpResponse {
    const auto loaded = engine_.newest();
    std::string out = "{\n  \"status\": \"ok\",\n";
    if (loaded) {
      out += "  " + manifest_fields(loaded->snapshot) + ",\n";
      const std::uint64_t now = obs::unix_now_ns();
      const std::uint64_t published = loaded->snapshot.published_unix_ns;
      out += "  \"staleness_ms\": " +
             std::to_string(now > published ? (now - published) / 1'000'000
                                            : 0) +
             ",\n";
    } else {
      out += "  \"generation\": 0,\n";
    }
    out += "  \"loaded_generations\": " +
           std::to_string(engine_.loaded_generations().size()) + "\n}\n";
    return json_response(std::move(out));
  });

  http_.route("/metrics", [] {
    obs::HttpResponse response;
    response.body = obs::to_prometheus(obs::Registry::global().snapshot());
    return response;
  });
  http_.route("/metrics.json", [] {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = obs::to_json(obs::Registry::global().snapshot());
    return response;
  });
}

}  // namespace dcs::query

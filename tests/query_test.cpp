// Query-tier tests: snapshot codec, retention, corruption fallback, the
// response cache, and the headline guarantee — every answer served from a
// published snapshot is bit-identical to the same query against the source
// collector at the published epoch watermark (sketch linearity: rebuilding
// TrackingDcs over the embedded sketch reproduces the collector's tracking
// state exactly).
//
// Also the HTTP error-path contract of the shared obs server (WireHttp*):
// every response — including 400/404/405 — carries an exact Content-Length
// and Connection: close, and non-GET methods answer 405 with Allow: GET.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/serialize.hpp"
#include "obs/http_export.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "query/engine.hpp"
#include "query/publisher.hpp"
#include "query/server.hpp"
#include "query/snapshot.hpp"
#include "service/agent.hpp"
#include "service/collector.hpp"
#include "service/socket.hpp"
#include "sketch/tracking_dcs.hpp"
#include "stream/generator.hpp"

namespace dcs::query {
namespace {

namespace fs = std::filesystem;

DcsParams small_params() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 17;
  return params;
}

/// Fresh scratch directory per test.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dcs_query_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

QuerySnapshot sample_snapshot(std::uint64_t generation) {
  QuerySnapshot snapshot;
  snapshot.generation = generation;
  snapshot.published_unix_ns = 1234567890ull + generation;
  snapshot.epoch_watermark = 40 + generation;
  snapshot.deltas_merged = 100 * generation;
  snapshot.active_alarms = 1;
  snapshot.distinct_pairs = 777;

  Alert raised;
  raised.kind = Alert::Kind::kRaised;
  raised.subject = 0xbeef;
  raised.estimated_frequency = 9000;
  raised.baseline = 12.5;
  raised.stream_position = 4096;
  raised.epoch = 7;
  raised.threshold = 512.0;
  Alert cleared = raised;
  cleared.kind = Alert::Kind::kCleared;
  cleared.epoch = 9;
  snapshot.alerts = {raised, cleared};

  snapshot.top_k.entries = {{0xbeef, 9000}, {0xcafe, 123}};
  snapshot.top_k.inference_level = 2;
  snapshot.top_k.sample_size = 4096;

  DistinctCountSketch sketch(small_params());
  for (std::uint32_t i = 0; i < 200; ++i)
    sketch.update(i % 7, i, +1);
  snapshot.checkpoint.generation = generation;
  snapshot.checkpoint.sketch = sketch;
  snapshot.checkpoint.sites = {{1, 42, 42, 21000, 0, 3}};
  snapshot.checkpoint.deltas_merged = 100 * generation;
  snapshot.checkpoint.detector_blob = "opaque-detector-bytes";
  return snapshot;
}

void expect_snapshot_equal(const QuerySnapshot& a, const QuerySnapshot& b) {
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.published_unix_ns, b.published_unix_ns);
  EXPECT_EQ(a.epoch_watermark, b.epoch_watermark);
  EXPECT_EQ(a.deltas_merged, b.deltas_merged);
  EXPECT_EQ(a.active_alarms, b.active_alarms);
  EXPECT_EQ(a.distinct_pairs, b.distinct_pairs);
  ASSERT_EQ(a.alerts.size(), b.alerts.size());
  for (std::size_t i = 0; i < a.alerts.size(); ++i) {
    EXPECT_EQ(a.alerts[i].kind, b.alerts[i].kind);
    EXPECT_EQ(a.alerts[i].subject, b.alerts[i].subject);
    EXPECT_EQ(a.alerts[i].estimated_frequency,
              b.alerts[i].estimated_frequency);
    EXPECT_EQ(a.alerts[i].baseline, b.alerts[i].baseline);
    EXPECT_EQ(a.alerts[i].stream_position, b.alerts[i].stream_position);
    EXPECT_EQ(a.alerts[i].epoch, b.alerts[i].epoch);
    EXPECT_EQ(a.alerts[i].threshold, b.alerts[i].threshold);
  }
  ASSERT_EQ(a.top_k.entries.size(), b.top_k.entries.size());
  for (std::size_t i = 0; i < a.top_k.entries.size(); ++i) {
    EXPECT_EQ(a.top_k.entries[i].group, b.top_k.entries[i].group);
    EXPECT_EQ(a.top_k.entries[i].estimate, b.top_k.entries[i].estimate);
  }
  EXPECT_EQ(a.top_k.inference_level, b.top_k.inference_level);
  EXPECT_EQ(a.top_k.sample_size, b.top_k.sample_size);
  EXPECT_EQ(a.checkpoint.generation, b.checkpoint.generation);
  EXPECT_TRUE(a.checkpoint.sketch == b.checkpoint.sketch);
  EXPECT_EQ(a.checkpoint.detector_blob, b.checkpoint.detector_blob);
  ASSERT_EQ(a.checkpoint.sites.size(), b.checkpoint.sites.size());
  for (std::size_t i = 0; i < a.checkpoint.sites.size(); ++i) {
    EXPECT_EQ(a.checkpoint.sites[i].site_id, b.checkpoint.sites[i].site_id);
    EXPECT_EQ(a.checkpoint.sites[i].last_epoch,
              b.checkpoint.sites[i].last_epoch);
  }
}

// --- codec ------------------------------------------------------------------

TEST(QueryCodec, RoundTripsEveryField) {
  const QuerySnapshot original = sample_snapshot(3);
  const std::string bytes = SnapshotStore::encode(original);
  const QuerySnapshot back = SnapshotStore::decode(bytes);
  expect_snapshot_equal(original, back);
}

TEST(QueryCodec, RejectsCorruptBytesEverywhere) {
  // A snapshot must decode entirely or not at all: flipping a byte makes
  // decode throw (header checks or the CRC footer), never a partial or
  // garbled snapshot. The sketch blob makes the file big, so probe a dense
  // prefix (header + manifest), a sample across the body, and the tail —
  // the CRC covers every byte identically.
  const std::string bytes = SnapshotStore::encode(sample_snapshot(1));
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < 96 && i < bytes.size(); ++i)
    positions.push_back(i);
  for (std::size_t i = 96; i < bytes.size(); i += bytes.size() / 64 + 1)
    positions.push_back(i);
  for (std::size_t i = 1; i <= 8 && i <= bytes.size(); ++i)
    positions.push_back(bytes.size() - i);
  for (const std::size_t i : positions) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x20;
    EXPECT_THROW(SnapshotStore::decode(corrupt), SerializeError) << i;
  }
  EXPECT_THROW(SnapshotStore::decode(bytes + "x"), SerializeError);
  EXPECT_THROW(SnapshotStore::decode(bytes.substr(0, bytes.size() - 1)),
               SerializeError);
}

TEST(QueryCodec, LoadRejectsFileNameGenerationMismatch) {
  // A snapshot renamed to another generation's slot must not impersonate
  // it — the payload's generation is authoritative.
  SnapshotStore store(scratch_dir("name_mismatch"));
  store.write(sample_snapshot(1));
  fs::rename(store.path(1), store.path(9));
  EXPECT_FALSE(store.load(9).has_value());
}

// --- store: listing, retention, fallback ------------------------------------

TEST(QueryStore, ListsWritesAndPrunesByRetention) {
  SnapshotStore store(scratch_dir("retention"), /*retain=*/3);
  for (std::uint64_t generation = 1; generation <= 5; ++generation) {
    store.write(sample_snapshot(generation));
    store.prune_retained(generation);
  }
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(store.max_generation(), 5u);

  // Exact boundary: retain=3 with newest=3 keeps 1..3 (nothing below 1).
  SnapshotStore boundary(scratch_dir("retention_boundary"), /*retain=*/3);
  for (std::uint64_t generation = 1; generation <= 3; ++generation)
    boundary.write(sample_snapshot(generation));
  boundary.prune_retained(3);
  EXPECT_EQ(boundary.generations(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(QueryStore, RejectsZeroRetention) {
  EXPECT_THROW(SnapshotStore(scratch_dir("zero_retain"), 0),
               std::invalid_argument);
}

TEST(QueryStore, LoadLatestWalksBackOverCorruptNewest) {
  SnapshotStore store(scratch_dir("fallback"));
  store.write(sample_snapshot(1));
  store.write(sample_snapshot(2));
  {
    // Torn newest: truncate to half, as if the publisher died mid-write
    // and something other than the atomic rename path produced the file.
    std::fstream file(store.path(2),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    file.put('\x7f');
  }
  std::uint64_t corrupt_skipped = 0;
  const auto latest = store.load_latest(&corrupt_skipped);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, 1u);
  EXPECT_EQ(corrupt_skipped, 1u);
}

// --- engine: mapping, fallback, cache ---------------------------------------

TEST(QueryEngineTest, MapsNewGenerationsAndUnmapsPruned) {
  const std::string dir = scratch_dir("engine_map");
  SnapshotStore store(dir, /*retain=*/2);
  QueryEngine engine(QueryEngineConfig{dir, 16});

  store.write(sample_snapshot(1));
  EXPECT_EQ(engine.refresh(), 1u);
  EXPECT_EQ(engine.refresh(), 0u);  // idempotent: nothing new
  ASSERT_TRUE(engine.newest());
  EXPECT_EQ(engine.newest()->snapshot.generation, 1u);

  store.write(sample_snapshot(2));
  store.write(sample_snapshot(3));
  store.prune_retained(3);  // deletes generation 1
  EXPECT_EQ(engine.refresh(), 2u);
  EXPECT_EQ(engine.loaded_generations(),
            (std::vector<std::uint64_t>{2, 3}));
  EXPECT_FALSE(engine.at_generation(1));
  EXPECT_EQ(engine.newest()->snapshot.generation, 3u);

  // Time travel by epoch watermark (sample watermark = 40 + generation).
  ASSERT_TRUE(engine.at_epoch_at_most(42));
  EXPECT_EQ(engine.at_epoch_at_most(42)->snapshot.generation, 2u);
  EXPECT_FALSE(engine.at_epoch_at_most(1));
}

TEST(QueryEngineTest, CorruptNewestFallsBackToPreviousGeneration) {
  const std::string dir = scratch_dir("engine_fallback");
  SnapshotStore store(dir);
  store.write(sample_snapshot(1));
  store.write(sample_snapshot(2));
  {
    std::fstream file(store.path(2),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(52);
    file.put('\x55');
  }
  QueryEngine engine(QueryEngineConfig{dir, 16});
  engine.refresh();
  ASSERT_TRUE(engine.newest());
  EXPECT_EQ(engine.newest()->snapshot.generation, 1u);
}

TEST(QueryEngineTest, CacheReturnsIdenticalBytesAndInvalidatesByGeneration) {
  obs::set_enabled(true);
  const std::string dir = scratch_dir("engine_cache");
  QueryEngine engine(QueryEngineConfig{dir, /*cache_entries=*/2});

  std::atomic<int> renders{0};
  const auto render = [&renders] {
    ++renders;
    return std::string("body-v") + std::to_string(renders.load());
  };

  const std::string first = engine.cached(1, "/topk?k=3", render);
  const std::string again = engine.cached(1, "/topk?k=3", render);
  EXPECT_EQ(first, "body-v1");
  EXPECT_EQ(again, first);  // identical bytes, render ran once
  EXPECT_EQ(renders.load(), 1);

  // A new generation is a new key — the old entry stays byte-stable.
  const std::string next = engine.cached(2, "/topk?k=3", render);
  EXPECT_EQ(next, "body-v2");
  EXPECT_EQ(engine.cached(1, "/topk?k=3", render), first);
  EXPECT_EQ(renders.load(), 2);

  // LRU bound: capacity 2, inserting a third key evicts the oldest.
  engine.cached(3, "/topk?k=3", render);
  EXPECT_EQ(engine.cache_size(), 2u);
}

// --- publisher + engine against a live collector ----------------------------

/// Drive a real collector over loopback, publish, and check the headline
/// guarantee: every answer computed from the snapshot equals the same
/// query against the live collector, bit for bit.
TEST(QueryLiveEquivalence, SnapshotAnswersMatchCollectorExactly) {
  service::CollectorConfig config;
  config.params = small_params();
  config.io_timeout_ms = 50;
  service::Collector collector(config);
  collector.start();

  ZipfWorkloadConfig workload;
  workload.u_pairs = 4000;
  workload.num_destinations = 40;
  workload.skew = 1.3;
  workload.seed = 23;
  const auto updates = ZipfWorkload(workload).updates();

  service::SiteAgentConfig agent_config;
  agent_config.site_id = 1;
  agent_config.collector_port = collector.port();
  agent_config.params = small_params();
  agent_config.epoch_updates = 500;
  agent_config.io_timeout_ms = 1000;
  service::SiteAgent agent(agent_config);
  agent.start();
  for (const auto& update : updates) agent.ingest(update);
  ASSERT_TRUE(agent.flush(10000));
  agent.stop();
  ASSERT_TRUE(collector.wait_for_deltas(updates.size() / 500, 10000));

  const std::string dir = scratch_dir("live_equivalence");
  SnapshotPublisherConfig publish_config;
  publish_config.publish_dir = dir;
  publish_config.top_k = 5;
  SnapshotPublisher publisher(
      publish_config,
      [&collector](std::size_t k) { return collector.query_publish_state(k); });
  const std::uint64_t generation = publisher.publish_now();
  ASSERT_GT(generation, 0u);

  QueryEngine engine(QueryEngineConfig{dir, 16});
  ASSERT_EQ(engine.refresh(), 1u);
  const auto loaded = engine.newest();
  ASSERT_TRUE(loaded);

  // Bit-for-bit: the rebuilt sketch state IS the collector's.
  EXPECT_TRUE(loaded->tracking.sketch() == collector.merged_sketch());

  // Top-k at the published depth and beyond it (recomputed path).
  for (const std::size_t k : {std::size_t{3}, std::size_t{5}, std::size_t{9}}) {
    const TopKResult live = collector.top_k(k);
    const TopKResult served = loaded->tracking.top_k(k);
    ASSERT_EQ(served.entries.size(), live.entries.size()) << "k=" << k;
    for (std::size_t i = 0; i < live.entries.size(); ++i) {
      EXPECT_EQ(served.entries[i].group, live.entries[i].group);
      EXPECT_EQ(served.entries[i].estimate, live.entries[i].estimate);
    }
    EXPECT_EQ(served.inference_level, live.inference_level);
    EXPECT_EQ(served.sample_size, live.sample_size);
  }

  // Point frequencies for every destination in the workload.
  for (std::uint32_t dest = 0; dest < 40; ++dest)
    EXPECT_EQ(loaded->tracking.estimate_frequency(dest),
              collector.estimate_frequency(dest))
        << "dest=" << dest;

  // Manifest answers captured under the same lock acquisition.
  EXPECT_EQ(loaded->snapshot.distinct_pairs,
            TrackingDcs(collector.merged_sketch()).estimate_distinct_pairs());
  EXPECT_EQ(loaded->snapshot.alerts.size(), collector.alerts().size());
  EXPECT_EQ(loaded->snapshot.active_alarms, collector.active_alarm_count());
  EXPECT_EQ(loaded->snapshot.deltas_merged, collector.stats().deltas_merged);
  EXPECT_EQ(loaded->snapshot.epoch_watermark,
            collector.site_stats().at(0).last_epoch);

  collector.stop();
}

TEST(QueryPublisherTest, ResumesNumberingAboveExistingGenerations) {
  const std::string dir = scratch_dir("publisher_resume");
  const auto provider = [](std::size_t k) {
    service::QueryPublishState state;
    state.checkpoint.sketch = DistinctCountSketch(small_params());
    state.top_k.entries.resize(0);
    (void)k;
    return state;
  };
  SnapshotPublisherConfig config;
  config.publish_dir = dir;
  {
    SnapshotPublisher publisher(config, provider);
    EXPECT_EQ(publisher.publish_now(), 1u);
    EXPECT_EQ(publisher.publish_now(), 2u);
  }
  {
    // Restarted publisher continues above what is on disk.
    SnapshotPublisher publisher(config, provider);
    EXPECT_EQ(publisher.publish_now(), 3u);
  }
}

// --- HTTP routes end to end -------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& request) {
  auto socket = service::tcp_connect("127.0.0.1", port, 2000);
  if (!socket) return {};
  socket->set_timeouts(2000, 2000);
  if (!socket->send_all(request)) return {};
  std::string response;
  char buffer[4096];
  for (;;) {
    const auto got = socket->recv_some(buffer, sizeof buffer);
    if (got.bytes == 0) break;
    response.append(buffer, got.bytes);
  }
  return response;
}

std::string get_path(std::uint16_t port, const std::string& path) {
  return http_get(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

/// Header value, or "" when absent.
std::string header_value(const std::string& response, const std::string& name) {
  const std::string needle = "\r\n" + name + ": ";
  const auto at = response.find(needle);
  if (at == std::string::npos) return {};
  const auto start = at + needle.size();
  return response.substr(start, response.find("\r\n", start) - start);
}

std::string body_of(const std::string& response) {
  const auto at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string{} : response.substr(at + 4);
}

TEST(QueryServerHttp, ServesEveryRouteWithTimeTravel) {
  const std::string dir = scratch_dir("server_routes");
  SnapshotStore store(dir);
  store.write(sample_snapshot(1));  // watermark 41
  store.write(sample_snapshot(2));  // watermark 42

  QueryServerConfig config;
  config.publish_dir = dir;
  config.watch_every_ms = 50;
  QueryServer server(std::move(config));
  server.start();
  ASSERT_GT(server.port(), 0);

  // Newest wins by default; the manifest names the generation.
  const std::string topk = get_path(server.port(), "/topk");
  EXPECT_NE(topk.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(topk.find("\"generation\": 2"), std::string::npos);
  EXPECT_NE(topk.find("\"group\": \"0000beef\", \"estimate\": 9000"),
            std::string::npos);

  // k larger than the published depth recomputes from the sketch.
  const std::string deep = get_path(server.port(), "/topk?k=4");
  EXPECT_NE(deep.find("\"k\": 4"), std::string::npos);

  const std::string frequency =
      get_path(server.port(), "/frequency?key=0xbeef");
  EXPECT_NE(frequency.find("\"key\": \"0000beef\""), std::string::npos);
  EXPECT_NE(frequency.find("\"estimate\": "), std::string::npos);

  const std::string pairs = get_path(server.port(), "/distinct_pairs");
  EXPECT_NE(pairs.find("\"distinct_pairs\": 777"), std::string::npos);

  const std::string alerts = get_path(server.port(), "/alerts");
  EXPECT_NE(alerts.find("\"active_alarms\": 1"), std::string::npos);
  EXPECT_NE(alerts.find("\"kind\":\"raised\""), std::string::npos);

  const std::string sites = get_path(server.port(), "/sites");
  EXPECT_NE(sites.find("\"site_id\": 1"), std::string::npos);

  const std::string generations = get_path(server.port(), "/generations");
  EXPECT_NE(generations.find("\"generation\": 1"), std::string::npos);
  EXPECT_NE(generations.find("\"generation\": 2"), std::string::npos);

  const std::string healthz = get_path(server.port(), "/healthz");
  EXPECT_NE(healthz.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(healthz.find("\"loaded_generations\": 2"), std::string::npos);

  const std::string metrics = get_path(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);

  // Time travel: exact generation, epoch bound, and both error shapes.
  const std::string old_gen = get_path(server.port(), "/topk?generation=1");
  EXPECT_NE(old_gen.find("\"generation\": 1"), std::string::npos);
  const std::string by_epoch = get_path(server.port(), "/alerts?epoch<=41");
  EXPECT_NE(by_epoch.find("\"generation\": 1"), std::string::npos);
  const std::string pruned = get_path(server.port(), "/topk?generation=9");
  EXPECT_NE(pruned.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(pruned.find("not retained"), std::string::npos);
  const std::string too_early = get_path(server.port(), "/topk?epoch<=1");
  EXPECT_NE(too_early.find("HTTP/1.1 404"), std::string::npos);
  const std::string bad_k = get_path(server.port(), "/topk?k=banana");
  EXPECT_NE(bad_k.find("HTTP/1.1 400"), std::string::npos);
  const std::string no_key = get_path(server.port(), "/frequency");
  EXPECT_NE(no_key.find("HTTP/1.1 400"), std::string::npos);

  // Identical requests serve identical bytes (cache contract over HTTP).
  EXPECT_EQ(body_of(get_path(server.port(), "/topk?k=2")),
            body_of(get_path(server.port(), "/topk?k=2")));

  server.stop();
}

TEST(QueryServerHttp, EmptyDirectoryAnswers404UntilFirstPublish) {
  const std::string dir = scratch_dir("server_empty");
  QueryServerConfig config;
  config.publish_dir = dir;
  config.watch_every_ms = 20;
  QueryServer server(std::move(config));
  server.start();

  const std::string early = get_path(server.port(), "/topk");
  EXPECT_NE(early.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(early.find("no snapshot published yet"), std::string::npos);
  // /healthz stays 200 — the process is alive, just empty.
  EXPECT_NE(get_path(server.port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);

  SnapshotStore store(dir);
  store.write(sample_snapshot(1));
  server.refresh();
  EXPECT_NE(get_path(server.port(), "/topk").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

/// Recompute the CRC-32 footer that ends `bytes`.
void recompute_crc(std::string& bytes) {
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
}

/// Publish generation `generation` as a build before the compact sketch
/// blob wrote it: a valid snapshot whose embedded sketch blob is marked
/// version 2, the checkpoint's and the file's CRCs recomputed so only the
/// version tells it apart. Written under another name and renamed into
/// place, as the publisher does, so a watching server never reads it
/// half-written.
void publish_stale_generation(const SnapshotStore& store,
                              std::uint64_t generation) {
  const QuerySnapshot snapshot = sample_snapshot(generation);
  std::string bytes = SnapshotStore::encode(snapshot);
  std::string checkpoint =
      service::CheckpointStore::encode(snapshot.checkpoint);
  std::string blob;
  {
    BinaryWriter writer(blob);
    snapshot.checkpoint.sketch.serialize(writer);
  }
  const std::size_t checkpoint_at = bytes.find(checkpoint);
  const std::size_t blob_at = checkpoint.find(blob);
  ASSERT_NE(checkpoint_at, std::string::npos);
  ASSERT_NE(blob_at, std::string::npos);
  checkpoint[blob_at + 4] = 2;
  recompute_crc(checkpoint);
  bytes.replace(checkpoint_at, checkpoint.size(), checkpoint);
  recompute_crc(bytes);
  const std::string staged = store.dir() + "/stale.partial";
  {
    std::ofstream out(staged, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  fs::rename(staged, store.path(generation));
}

TEST(QueryServerHttp, StartRefusesAGenerationOfAnOlderBuild) {
  const std::string dir = scratch_dir("server_stale_start");
  SnapshotStore store(dir);
  store.write(sample_snapshot(1));
  publish_stale_generation(store, 2);
  QueryServerConfig config;
  config.publish_dir = dir;
  QueryServer server(std::move(config));
  EXPECT_THROW(server.start(), StaleFormatError);
}

TEST(QueryServerHttp, WatcherServesGenerationsPublishedAfterAStaleOne) {
  const std::string dir = scratch_dir("server_stale_watch");
  SnapshotStore store(dir);
  store.write(sample_snapshot(1));
  QueryServerConfig config;
  config.publish_dir = dir;
  config.watch_every_ms = 10;
  QueryServer server(std::move(config));
  server.start();
  ASSERT_EQ(server.engine().newest()->snapshot.generation, 1u);

  // An older publisher beside this one writes generation 2; this build's
  // publisher then writes 3, and generation 1 is pruned.
  publish_stale_generation(store, 2);
  store.write(sample_snapshot(3));
  fs::remove(store.path(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.engine().loaded_generations() !=
             std::vector<std::uint64_t>{3} &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.engine().loaded_generations(),
            std::vector<std::uint64_t>{3});
  EXPECT_NE(get_path(server.port(), "/topk").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(get_path(server.port(), "/topk?generation=3").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(get_path(server.port(), "/topk?generation=2").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_THROW(server.refresh(), StaleFormatError);
  server.stop();
}

// --- concurrency (TSan coverage) --------------------------------------------

TEST(QueryConcurrency, ReadersRefreshAndPublisherRaceCleanly) {
  obs::set_enabled(true);
  const std::string dir = scratch_dir("concurrency");
  const auto provider = [](std::size_t) {
    service::QueryPublishState state;
    state.checkpoint.sketch = DistinctCountSketch(small_params());
    state.epoch_watermark = 1;
    return state;
  };
  SnapshotPublisherConfig publish_config;
  publish_config.publish_dir = dir;
  publish_config.retain = 4;
  SnapshotPublisher publisher(publish_config, provider);
  publisher.publish_now();

  QueryEngine engine(QueryEngineConfig{dir, 32});
  engine.refresh();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 30; ++i) publisher.publish_now();
    stop.store(true);
  });
  std::thread refresher([&] {
    while (!stop.load()) engine.refresh();
    engine.refresh();
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&, r] {
      while (!stop.load()) {
        const auto loaded = engine.newest();
        if (!loaded) continue;
        const std::string body = engine.cached(
            loaded->snapshot.generation, "/topk?r=" + std::to_string(r),
            [&loaded] {
              return std::to_string(loaded->snapshot.generation) + ":" +
                     std::to_string(loaded->tracking.top_k(3).entries.size());
            });
        EXPECT_FALSE(body.empty());
      }
    });
  writer.join();
  refresher.join();
  for (auto& reader : readers) reader.join();

  ASSERT_TRUE(engine.newest());
  EXPECT_EQ(engine.newest()->snapshot.generation, 31u);
}

// --- shared HTTP server error-path contract ---------------------------------

std::size_t parsed_content_length(const std::string& response) {
  const std::string text = header_value(response, "Content-Length");
  return text.empty() ? static_cast<std::size_t>(-1) : std::stoul(text);
}

TEST(WireHttpErrors, ErrorResponsesCarryExactContentLengthAndClose) {
  obs::set_enabled(true);
  obs::HttpServer server;
  server.route("/ok", [] {
    obs::HttpResponse response;
    response.body = "fine\n";
    return response;
  });
  server.start();

  // 404: unknown route.
  const std::string missing = get_path(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_EQ(header_value(missing, "Connection"), "close");
  EXPECT_EQ(parsed_content_length(missing), body_of(missing).size());
  EXPECT_FALSE(body_of(missing).empty());

  // 400: malformed request line.
  const std::string garbage = http_get(server.port(), "nonsense\r\n\r\n");
  EXPECT_NE(garbage.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_EQ(header_value(garbage, "Connection"), "close");
  EXPECT_EQ(parsed_content_length(garbage), body_of(garbage).size());

  // 200 for reference: the same invariants hold on the happy path.
  const std::string ok = get_path(server.port(), "/ok");
  EXPECT_EQ(parsed_content_length(ok), body_of(ok).size());
  EXPECT_EQ(header_value(ok, "Connection"), "close");

  server.stop();
}

TEST(WireHttpErrors, NonGetIs405WithAllowHeader) {
  obs::HttpServer server;
  server.route("/ok", [] { return obs::HttpResponse{}; });
  server.start();
  for (const char* method : {"POST", "PUT", "DELETE", "HEAD"}) {
    const std::string response = http_get(
        server.port(), std::string(method) + " /ok HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos) << method;
    EXPECT_EQ(header_value(response, "Allow"), "GET") << method;
    EXPECT_EQ(parsed_content_length(response), body_of(response).size())
        << method;
  }
  server.stop();
}

TEST(WireHttpParsing, UrlDecodeAndQueryParams) {
  EXPECT_EQ(obs::url_decode("a%20b+c"), "a b c");
  EXPECT_EQ(obs::url_decode("%2Fpath%3Fx"), "/path?x");
  EXPECT_EQ(obs::url_decode("100%"), "100%");    // malformed passes through
  EXPECT_EQ(obs::url_decode("%zz"), "%zz");

  const auto params = obs::parse_query_params("k=5&key=0xbeef&epoch%3C=7&flag");
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].first, "k");
  EXPECT_EQ(params[0].second, "5");
  EXPECT_EQ(params[1].first, "key");
  EXPECT_EQ(params[1].second, "0xbeef");
  // %3C decodes to '<': the ?epoch<=E time-travel form, URL-encoded.
  EXPECT_EQ(params[2].first, "epoch<");
  EXPECT_EQ(params[2].second, "7");
  EXPECT_EQ(params[3].first, "flag");
  EXPECT_EQ(params[3].second, "");

  obs::HttpRequest request;
  request.params = params;
  ASSERT_NE(request.param("epoch<"), nullptr);
  EXPECT_EQ(*request.param("epoch<"), "7");
  EXPECT_EQ(request.param("absent"), nullptr);
}

}  // namespace
}  // namespace dcs::query

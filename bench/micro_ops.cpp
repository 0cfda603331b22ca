// Microbenchmarks (google-benchmark): the primitive operations whose costs
// compose into the paper's Table 2 — count-signature updates, bucket
// classification, per-update sketch maintenance (basic vs tracking), top-k
// queries, and heap operations — plus the sketch-delta codec that ships
// them (CRC-32, and one serialize -> frame -> decode -> deserialize hop).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "common/serialize.hpp"
#include "net/exporter.hpp"
#include "service/agent.hpp"
#include "service/wire.hpp"
#include "sketch/count_signature.hpp"
#include "sketch/sliding_window.hpp"
#include "sketch/distinct_count_sketch.hpp"
#include "sketch/epoch_sketch.hpp"
#include "sketch/sketch_hashes.hpp"
#include "sketch/indexed_heap.hpp"
#include "sketch/tracking_dcs.hpp"
#include "stream/generator.hpp"

namespace {

using namespace dcs;

DcsParams bench_params(std::uint32_t s = 128) {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = s;
  params.seed = 99;
  return params;
}

std::vector<FlowUpdate> bench_updates(std::size_t count) {
  ZipfWorkloadConfig config;
  config.u_pairs = count;
  config.num_destinations = 10'000;
  config.skew = 1.5;
  config.seed = 31;
  return ZipfWorkload(config).updates();
}

void BM_SignatureAdd(benchmark::State& state) {
  std::vector<std::int64_t> counters(65, 0);
  CountSignatureView sig(counters.data(), 64);
  Xoshiro256 rng(1);
  std::uint64_t key = rng();
  for (auto _ : state) {
    sig.add(key, +1);
    key = key * 6364136223846793005ULL + 1;
    benchmark::DoNotOptimize(counters.data());
  }
}
BENCHMARK(BM_SignatureAdd);

void BM_SignatureAdd16(benchmark::State& state) {
  // The agent's int16 epoch-counter signature add (EpochSketch): one
  // 64-byte-aligned block of 64 bit counters; compare with BM_SignatureAdd.
  // Arg = index into detail::dense_add16_variants() (0 is the dispatched
  // kernel, the last the portable loop); variants this CPU lacks are skipped.
  // Counters wrap freely here: the bench times the add, not its range.
  const auto variants = detail::dense_add16_variants();
  const auto index = static_cast<std::size_t>(state.range(0));
  if (index >= variants.size()) {
    state.SkipWithError("variant not available on this CPU");
    return;
  }
  state.SetLabel(variants[index].name);
  const detail::DenseAdd16Fn add = variants[index].fn;
  struct alignas(64) Block {
    std::int16_t counts[64] = {};
  } block;
  Xoshiro256 rng(1);
  std::uint64_t key = rng();
  for (auto _ : state) {
    add(block.counts, key, +1);
    key = key * 6364136223846793005ULL + 1;
    benchmark::DoNotOptimize(block.counts);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SignatureAdd16)->DenseRange(0, 2);

void BM_SketchHashBlock(benchmark::State& state) {
  // The block hash of EpochSketch and DistinctCountSketch::update_batch:
  // mix64, the level and the r = 3 bucket hashes of 64 keys per call.
  // Arg = index into detail::hash_block_variants() (0 is the dispatched
  // kernel, the last the portable per-key loop); variants this CPU lacks
  // are skipped. Reports keys/s.
  const auto variants = detail::hash_block_variants();
  const auto index = static_cast<std::size_t>(state.range(0));
  if (index >= variants.size()) {
    state.SkipWithError("variant not available on this CPU");
    return;
  }
  state.SetLabel(variants[index].name);
  const detail::HashBlockFn hash = variants[index].fn;
  const DcsParams params = bench_params();
  const SketchHashes hashes(params);
  constexpr std::size_t kKeys = EpochSketch::kBlock;
  std::uint64_t keys[kKeys];
  Xoshiro256 rng(1);
  for (std::uint64_t& key : keys) key = rng();
  std::uint8_t levels[kKeys];
  std::uint32_t buckets[3 * kKeys];
  for (auto _ : state) {
    hash(hashes, keys, kKeys, levels, buckets, kKeys);
    benchmark::DoNotOptimize(levels);
    benchmark::DoNotOptimize(buckets);
    keys[0] += 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_SketchHashBlock)->DenseRange(0, 1);

void BM_SignatureClassify(benchmark::State& state) {
  std::vector<std::int64_t> counters(65, 0);
  CountSignatureView sig(counters.data(), 64);
  sig.add(0x123456789abcdef0ULL, +1);
  for (auto _ : state) {
    const BucketClass cls = sig.classify();
    benchmark::DoNotOptimize(cls);
  }
}
BENCHMARK(BM_SignatureClassify);

void BM_BasicUpdate(benchmark::State& state) {
  const auto updates = bench_updates(100'000);
  DistinctCountSketch sketch(bench_params());
  std::size_t i = 0;
  for (auto _ : state) {
    const FlowUpdate& u = updates[i];
    sketch.update(u.dest, u.source, u.delta);
    if (++i == updates.size()) i = 0;
  }
}
BENCHMARK(BM_BasicUpdate);

void BM_BasicUpdateBatch(benchmark::State& state) {
  // Same stream as BM_BasicUpdate through the batched path; Arg = caller
  // block size. Compare ns/op directly against BM_BasicUpdate.
  const auto updates = bench_updates(100'000);
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  DistinctCountSketch sketch(bench_params());
  const std::span<const FlowUpdate> all(updates);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(block, all.size() - i);
    sketch.update_batch(all.subspan(i, n));
    i = (i + n) % all.size();
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(n));
  }
}
BENCHMARK(BM_BasicUpdateBatch)->Arg(64)->Arg(256)->Arg(1024);

void BM_TrackingUpdate(benchmark::State& state) {
  const auto updates = bench_updates(100'000);
  TrackingDcs sketch(bench_params());
  std::size_t i = 0;
  for (auto _ : state) {
    const FlowUpdate& u = updates[i];
    sketch.update(u.dest, u.source, u.delta);
    if (++i == updates.size()) i = 0;
  }
}
BENCHMARK(BM_TrackingUpdate);

void BM_TrackingUpdateBatch(benchmark::State& state) {
  const auto updates = bench_updates(100'000);
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  TrackingDcs sketch(bench_params());
  const std::span<const FlowUpdate> all(updates);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(block, all.size() - i);
    sketch.update_batch(all.subspan(i, n));
    i = (i + n) % all.size();
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(n));
  }
}
BENCHMARK(BM_TrackingUpdateBatch)->Arg(64)->Arg(1024);

void BM_BasicTopK(benchmark::State& state) {
  const auto updates = bench_updates(200'000);
  DistinctCountSketch sketch(
      bench_params(static_cast<std::uint32_t>(state.range(0))));
  for (const FlowUpdate& u : updates) sketch.update(u.dest, u.source, u.delta);
  for (auto _ : state) {
    const TopKResult result = sketch.top_k(10);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BasicTopK)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_TrackingTopK(benchmark::State& state) {
  const auto updates = bench_updates(200'000);
  TrackingDcs sketch(bench_params(static_cast<std::uint32_t>(state.range(0))));
  for (const FlowUpdate& u : updates) sketch.update(u.dest, u.source, u.delta);
  for (auto _ : state) {
    const TopKResult result = sketch.top_k(10);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TrackingTopK)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_HeapAdd(benchmark::State& state) {
  IndexedMaxHeap<Addr> heap;
  Xoshiro256 rng(2);
  for (Addr k = 0; k < 10'000; ++k)
    heap.add(k, static_cast<std::int64_t>(rng.bounded(1000)) + 1);
  for (auto _ : state) {
    const Addr key = static_cast<Addr>(rng.bounded(10'000));
    heap.add(key, +1);
    benchmark::DoNotOptimize(heap);
  }
}
BENCHMARK(BM_HeapAdd);

void BM_HeapTopK(benchmark::State& state) {
  IndexedMaxHeap<Addr> heap;
  Xoshiro256 rng(2);
  for (Addr k = 0; k < 100'000; ++k)
    heap.add(k, static_cast<std::int64_t>(rng.bounded(1'000'000)) + 1);
  for (auto _ : state) {
    const auto top = heap.top_k(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(top);
  }
}
BENCHMARK(BM_HeapTopK)->Arg(1)->Arg(10)->Arg(100);

void BM_SlidingWindowUpdate(benchmark::State& state) {
  SlidingWindowSketch::Config config;
  config.sketch = bench_params();
  config.epoch_updates = 16'384;
  config.window_epochs = static_cast<std::size_t>(state.range(0));
  SlidingWindowSketch window(config);
  const auto updates = bench_updates(100'000);
  std::size_t i = 0;
  for (auto _ : state) {
    const FlowUpdate& u = updates[i];
    window.update(u.dest, u.source, u.delta);
    if (++i == updates.size()) i = 0;
  }
}
BENCHMARK(BM_SlidingWindowUpdate)->Arg(2)->Arg(8);

void BM_ExporterObserve(benchmark::State& state) {
  // Exporter throughput on a SYN/ACK mix.
  dcs::FlowUpdateExporter exporter;
  Xoshiro256 rng(3);
  std::uint64_t tick = 0;
  std::uint64_t sink_count = 0;
  for (auto _ : state) {
    const Packet packet{tick++, static_cast<Addr>(rng.bounded(100'000)),
                        static_cast<Addr>(rng.bounded(1000)),
                        rng.bounded(2) ? PacketType::kSyn : PacketType::kAck};
    exporter.observe(packet,
                     [&sink_count](const FlowUpdate&) { ++sink_count; });
  }
  benchmark::DoNotOptimize(sink_count);
}
BENCHMARK(BM_ExporterObserve);

void BM_SketchMerge(benchmark::State& state) {
  // Steady-state collector workload: a long-lived global sketch absorbing
  // per-site epoch deltas. Cost is pure counter addition over the
  // r x s x levels grid (the first merge allocates any missing levels; the
  // loop then measures the allocation-free path). Args: {r, s}.
  DcsParams params = bench_params(static_cast<std::uint32_t>(state.range(1)));
  params.num_tables = static_cast<int>(state.range(0));

  const auto updates = bench_updates(50'000);
  DistinctCountSketch delta(params);
  for (const auto& u : updates) delta.update(u.dest, u.source, u.delta);

  DistinctCountSketch global(params);
  global.merge(delta);  // pre-allocate every level the delta carries
  for (auto _ : state) {
    global.merge(delta);
    benchmark::DoNotOptimize(global);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchMerge)
    ->Args({3, 64})
    ->Args({3, 256})
    ->Args({3, 1024})
    ->Args({5, 256});

void BM_TrackingMergeRebuild(benchmark::State& state) {
  // What the collector actually pays per shipped epoch: merge the delta
  // into the tracking sketch *and* rebuild the singleton maps and heaps.
  DcsParams params = bench_params(static_cast<std::uint32_t>(state.range(1)));
  params.num_tables = static_cast<int>(state.range(0));

  const auto updates = bench_updates(50'000);
  DistinctCountSketch delta(params);
  for (const auto& u : updates) delta.update(u.dest, u.source, u.delta);

  TrackingDcs global(params);
  for (auto _ : state) {
    global.merge_sketch(delta);
    benchmark::DoNotOptimize(global);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackingMergeRebuild)->Args({3, 64})->Args({3, 256});

void BM_Crc32(benchmark::State& state) {
  // The checksum every frame, blob footer and journal record runs: 4 MiB,
  // about one paper-sized sketch delta. Reports bytes/s.
  const std::string bytes(4u << 20, '\x5a');
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32(bytes.data(), bytes.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32);

void BM_DeltaCodecRoundTrip(benchmark::State& state) {
  // One hop of the delta path for one paper-sized epoch (the paper's 6.1
  // Zipf workload, 131072 updates over 50k destinations, default
  // parameters: a ~330 KB compact blob): serialize the agent's epoch
  // sketch, frame it, decode the frame at the collector and deserialize
  // the blob. Reports blob bytes/s.
  ZipfWorkloadConfig config;
  config.u_pairs = 131'072;
  config.num_destinations = 50'000;
  config.skew = 1.5;
  config.seed = 31;
  const ZipfWorkload workload(config);
  DistinctCountSketch sketch(DcsParams{});
  for (const auto& u : workload.updates())
    sketch.update(u.dest, u.source, u.delta);
  std::size_t blob_bytes = 0;
  for (auto _ : state) {
    std::string blob;
    BinaryWriter writer(blob);
    sketch.serialize(writer);
    blob_bytes = blob.size();
    service::SnapshotDeltaView delta;
    delta.site_id = 1;
    delta.epoch = 1;
    delta.sketch_blob = blob;
    const std::string frame = delta.encode_frame();
    service::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    const auto view = decoder.next_view();
    BinaryReader reader(
        service::SnapshotDeltaView::decode(view->payload).sketch_blob);
    benchmark::DoNotOptimize(DistinctCountSketch::deserialize(reader));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob_bytes));
}
BENCHMARK(BM_DeltaCodecRoundTrip)->Unit(benchmark::kMillisecond);

/// The paper's 6.1 stream (Zipf z=1.5 over 50k destinations), one
/// 131072-update epoch per site.
std::vector<std::vector<FlowUpdate>> paper_epochs(int sites) {
  std::vector<std::vector<FlowUpdate>> streams;
  for (int site = 0; site < sites; ++site) {
    ZipfWorkloadConfig config;
    config.u_pairs = 131'072;
    config.num_destinations = 50'000;
    config.skew = 1.5;
    config.seed = 31 + static_cast<std::uint64_t>(site);
    streams.push_back(ZipfWorkload(config).updates());
  }
  return streams;
}

/// A stream as the parallel key and delta arrays EpochSketch takes.
void split(const std::vector<FlowUpdate>& stream, std::vector<PairKey>& keys,
           std::vector<int>& deltas) {
  for (const FlowUpdate& u : stream) {
    keys.push_back(pack_pair(u.dest, u.source));
    deltas.push_back(u.delta);
  }
}

void BM_EpochIngest(benchmark::State& state) {
  // The agent's sketch-thread ingest for paper-sized epochs (default
  // parameters), seal excluded (BM_EpochSeal times it). Arg 0: the former
  // path, an int64 DistinctCountSketch, replaced by a fresh one per epoch.
  // Arg n >= 1: n EpochSketches (block-hashed int16 counters), one site
  // each, fed the agent's 4096-update handoff blocks in turn, so n sites'
  // staging compete for one core's cache. Reports updates/s over all sites.
  const int sites = static_cast<int>(state.range(0));
  const auto streams = paper_epochs(std::max(sites, 1));
  const std::size_t epoch_updates = streams.front().size();
  const DcsParams params;
  DistinctCountSketch sketch(params);
  std::vector<EpochSketch> epochs;
  std::vector<std::vector<PairKey>> keys(static_cast<std::size_t>(sites));
  std::vector<std::vector<int>> deltas(keys.size());
  for (std::size_t site = 0; site < keys.size(); ++site) {
    epochs.emplace_back(params);
    split(streams[site], keys[site], deltas[site]);
  }
  constexpr std::size_t kHandoff = 4096;
  for (auto _ : state) {
    if (sites == 0) {
      for (const auto& u : streams.front())
        sketch.update(u.dest, u.source, u.delta);
      benchmark::DoNotOptimize(sketch);
      state.PauseTiming();
      sketch = DistinctCountSketch(params);
      state.ResumeTiming();
      continue;
    }
    for (std::size_t at = 0; at < epoch_updates; at += kHandoff) {
      const std::size_t n = std::min(kHandoff, epoch_updates - at);
      for (std::size_t site = 0; site < epochs.size(); ++site)
        epochs[site].update_batch({keys[site].data() + at, n},
                                  {deltas[site].data() + at, n});
    }
    benchmark::ClobberMemory();
    state.PauseTiming();
    for (EpochSketch& epoch : epochs) benchmark::DoNotOptimize(epoch.seal());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(epoch_updates) *
                          std::max(sites, 1));
}
BENCHMARK(BM_EpochIngest)->Arg(0)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SiteAgentIngest(benchmark::State& state) {
  // What SiteAgent::ingest costs its caller for one paper-sized epoch
  // (default parameters, no sender started): check the key, append it to
  // a handoff block, hand full blocks and the epoch close to the agent's
  // sketch thread. The caller waits whenever that thread is four blocks
  // behind, so this is the slower of the two threads per update. The
  // ingest_stalls counter is those waits per epoch.
  const auto streams = paper_epochs(1);
  const auto& stream = streams.front();
  service::SiteAgentConfig config;
  config.epoch_updates = stream.size();
  config.spool_epochs = 1;  // nothing ships; keep one blob
  service::SiteAgent agent(config);
  for (auto _ : state)
    for (const FlowUpdate& u : stream) agent.ingest(u);
  agent.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
  state.counters["ingest_stalls"] =
      static_cast<double>(agent.stats().ingest_stalls) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
}
BENCHMARK(BM_SiteAgentIngest)->Unit(benchmark::kMillisecond);

void BM_EpochSeal(benchmark::State& state) {
  // The agent's seal of one paper-sized epoch (see BM_EpochIngest; ingest
  // untimed): levels 0 and 1 folded into the int64 spill, every touched
  // level packed into the compact blob. Arg 0: the former path's
  // serialize of the int64 epoch sketch; arg 1: EpochSketch::seal. Both
  // write the same blob; its size is the blob_bytes counter.
  const bool epoch_form = state.range(0) == 1;
  const auto streams = paper_epochs(1);
  std::vector<PairKey> keys;
  std::vector<int> deltas;
  split(streams.front(), keys, deltas);
  const DcsParams params;
  EpochSketch epoch(params);
  std::size_t blob_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    DistinctCountSketch sketch(params);
    if (epoch_form) {
      epoch.update_batch(keys, deltas);
    } else {
      sketch.update_batch(streams.front());
    }
    state.ResumeTiming();
    std::string blob;
    if (epoch_form) {
      blob = epoch.seal();
    } else {
      BinaryWriter writer(blob);
      sketch.serialize(writer);
    }
    blob_bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  state.counters["blob_bytes"] = static_cast<double>(blob_bytes);
}
BENCHMARK(BM_EpochSeal)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

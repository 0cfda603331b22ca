#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "detection/baseline_detector.hpp"
#include "service/checkpoint.hpp"
#include "service/epoch_journal.hpp"
#include "service/wire.hpp"
#include "sketch/tracking_dcs.hpp"

namespace e2e {

using namespace dcs;
using namespace dcs::service;

namespace {

/// Journal appends per tier. Each one writes a whole sealed epoch and
/// fsyncs it; the count is kept small because deleting the journal
/// afterwards costs ~40 ms per MB on a disk mounted with `discard`.
constexpr std::uint64_t kJournalAppendsPerTier = 8;

/// One collector's replay state: the tracker built from its final merged
/// sketch, a detector, and a journal in the state directory.
struct Tier {
  const char* name;
  TrackingDcs tracking;
  BaselineDetector detector;
  EpochJournal journal;
  std::uint64_t merges = 0;
};

template <typename F>
auto timed(SpanLog& log, Span span, F&& call) {
  span.start_ns = now_ns();
  auto result = call();
  span.end_ns = now_ns();
  log.push_back(span);
  return result;
}

std::uint64_t median(std::vector<std::uint64_t> values) {
  if (values.empty()) return 0;
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// The collector side of one hop: decode, deserialize, journal, merge,
/// detect. Returns the decoded delta (its blob is what a leaf relays).
SnapshotDelta receive(SpanLog& log, Tier& tier, std::uint64_t& tier_appends,
                      int site, std::uint64_t epoch, const std::string& frame) {
  Span span{.name = "wire.decode_ms", .parent = "replay", .tier = tier.name,
            .site = site, .epoch = epoch};
  SnapshotDelta delta = timed(log, span, [&] {
    FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    const auto decoded = decoder.next();
    if (!decoded) throw std::runtime_error("replay: frame did not decode");
    return SnapshotDelta::decode(decoded->payload, decoded->version);
  });
  span.name = "sketch.deserialize_ms";
  const DistinctCountSketch sketch = timed(log, span, [&] {
    std::istringstream in(delta.sketch_blob, std::ios::binary);
    BinaryReader reader(in);
    return DistinctCountSketch::deserialize(reader);
  });
  if (tier_appends < kJournalAppendsPerTier) {
    ++tier_appends;
    span.name = "journal.append_ms";
    timed(log, span, [&] {
      tier.journal.append(
          {delta.site_id, delta.epoch, delta.updates, delta.sketch_blob});
      return 0;
    });
  }
  span.name = "sketch.merge_rebuild_ms";
  timed(log, span, [&] {
    tier.tracking.merge_sketch(sketch);
    return 0;
  });
  span.name = "detection.observe_us";
  timed(log, span, [&] {
    return tier.detector.observe(tier.tracking.top_k(10).entries,
                                 ++tier.merges);
  });
  return delta;
}

std::string encode_delta(SpanLog& log, const char* tier, int site,
                         const SnapshotDelta& delta) {
  Span span{.name = "wire.encode_ms", .parent = "replay", .tier = tier,
            .site = site, .epoch = delta.epoch};
  return timed(log, span, [&] {
    return encode_frame(MsgType::kSnapshotDelta, delta.encode());
  });
}

}  // namespace

ReplayResult run_replay(const ReplayInput& input) {
  ReplayResult result;
  SpanLog& log = result.spans;
  std::filesystem::create_directories(input.state_dir);

  // One Tier per distinct collector, built from its final merged sketch.
  std::map<const Collector*, std::unique_ptr<Tier>> tiers;
  const auto tier_of = [&](const Collector* collector, const char* name) {
    auto& slot = tiers[collector];
    if (!slot) {
      const std::string path = input.state_dir + "/replay-" +
                               std::to_string(tiers.size()) + ".dcsj";
      slot.reset(new Tier{name, TrackingDcs(collector->merged_sketch()),
                          BaselineDetector(),
                          EpochJournal::open(path, /*fsync_each=*/true)});
    }
    return slot.get();
  };
  const char* first_name = input.federated ? "leaf" : "collector";
  std::uint64_t first_appends = 0;
  std::uint64_t root_appends = 0;

  std::vector<std::uint64_t> blob_sizes;
  std::vector<std::uint64_t> frame_sizes;
  std::vector<FlowUpdate> updates;
  const std::size_t sites = input.streams->size();
  for (std::uint64_t epoch = 1; epoch <= input.epochs_per_site; ++epoch) {
    for (std::size_t s = 0; s < sites; ++s) {
      const auto& points = (*input.seal_points)[s];
      if (epoch > points.size()) continue;
      const std::uint64_t begin = epoch == 1 ? 0 : points[epoch - 2];
      const std::uint64_t count = points[epoch - 1] - begin;
      DistinctCountSketch sketch;  // the agent's epoch, rebuilt off the clock
      (*input.streams)[s].next(updates, count);
      if (updates.size() != count)
        throw std::runtime_error("replay: site stream ended early");
      sketch.update_batch(updates);

      const int site = static_cast<int>(s);
      const std::uint64_t chain_start = now_ns();
      Span span{.name = "sketch.serialize_ms", .parent = "replay",
                .tier = "agent", .site = site, .epoch = epoch};
      SnapshotDelta delta;
      delta.site_id = s + 1;
      delta.epoch = epoch;
      delta.updates = count;
      delta.sketch_blob = timed(log, span, [&] {
        std::ostringstream out(std::ios::binary);
        BinaryWriter writer(out);
        sketch.serialize(writer);
        return std::move(out).str();
      });
      blob_sizes.push_back(delta.sketch_blob.size());
      const std::string frame = encode_delta(log, "agent", site, delta);
      frame_sizes.push_back(frame.size());
      log.push_back({.name = "replay", .tier = "agent", .site = site,
                     .epoch = epoch, .start_ns = chain_start,
                     .end_ns = now_ns()});

      Tier* first = tier_of(input.first_hop[s], first_name);
      const std::uint64_t first_start = now_ns();
      const SnapshotDelta received =
          receive(log, *first, first_appends, site, epoch, frame);
      std::string relay;
      if (input.federated) relay = encode_delta(log, "leaf", site, received);
      log.push_back({.name = "replay", .tier = first_name, .site = site,
                     .epoch = epoch, .start_ns = first_start,
                     .end_ns = now_ns()});
      if (!input.federated) continue;

      Tier* root = tier_of(input.root, "root");
      const std::uint64_t root_start = now_ns();
      receive(log, *root, root_appends, site, epoch, relay);
      log.push_back({.name = "replay", .tier = "root", .site = site,
                     .epoch = epoch, .start_ns = root_start,
                     .end_ns = now_ns()});
    }
  }
  result.blob_bytes = median(blob_sizes);
  result.frame_bytes = median(frame_sizes);
  return result;
}

SpanLog time_checkpoints(const Collector& root, const std::string& state_dir,
                         int times) {
  SpanLog log;
  {
    std::filesystem::create_directories(state_dir);
    CheckpointState state = root.query_publish_state(10).checkpoint;
    state.generation = 1;
    CheckpointStore(state_dir).write(state);
    CollectorConfig config;
    config.state_dir = state_dir;
    Collector durable(config);  // recovers the root's state from disk
    for (int i = 0; i < times; ++i) {
      Span span{.name = "journal.checkpoint_ms", .tier = "root",
                .epoch = static_cast<std::uint64_t>(i + 1)};
      timed(log, span, [&] { return durable.checkpoint_now(); });
    }
  }
  std::filesystem::remove_all(state_dir);
  return log;
}

}  // namespace e2e

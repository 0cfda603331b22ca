// The traced run's replay: after the live window, the first epochs of every
// site are rebuilt from the seed and pushed through each layer's public
// function, one span per call, once per tier:
//
//   agent      DistinctCountSketch::serialize, SnapshotDelta::encode +
//              encode_frame
//   leaf/root  FrameDecoder + SnapshotDelta::decode,
//   (or the    DistinctCountSketch::deserialize, EpochJournal::append
//   collector) (fsync on), TrackingDcs::merge_sketch into a tracker built
//              from that collector's final merged sketch, top_k(10) +
//              BaselineDetector::observe; a leaf then re-encodes the delta
//              for its uplink, as LeafUplink does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/collector.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace e2e {

struct ReplayInput {
  bool federated = false;
  /// Per site: a fresh stream of the site's offered updates, and the
  /// cumulative update count at each seal (seal_points[s][e-1] ends epoch e).
  std::vector<SiteStream>* streams = nullptr;
  const std::vector<std::vector<std::uint64_t>>* seal_points = nullptr;
  /// Per site: the collector that site ships to; and the root (the same
  /// collector when not federated).
  std::vector<const dcs::service::Collector*> first_hop;
  const dcs::service::Collector* root = nullptr;
  /// Directory inside the checkout for the journal and checkpoints.
  std::string state_dir;
  std::size_t epochs_per_site = 64;
};

struct ReplayResult {
  SpanLog spans;
  std::uint64_t blob_bytes = 0;   ///< median sealed-epoch blob
  std::uint64_t frame_bytes = 0;  ///< median delta frame
};

ReplayResult run_replay(const ReplayInput& input);

/// Times Collector::checkpoint_now() `times` times on a durable collector
/// recovered from `root`'s state, under `state_dir`. One span per call.
SpanLog time_checkpoints(const dcs::service::Collector& root,
                         const std::string& state_dir, int times);

}  // namespace e2e

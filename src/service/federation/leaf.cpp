#include "service/federation/leaf.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace dcs::service {

LeafUplink::LeafUplink(LeafUplinkConfig config)
    : config_(std::move(config)),
      // A distinct jitter stream per leaf spreads a fleet of leaves
      // reconnecting to a restarted root.
      sender_({.id = config_.leaf_id,
               .host = config_.root_host,
               .port = config_.root_port,
               .heartbeat_interval_ms = config_.heartbeat_interval_ms,
               .jitter_seed = 0x1eafULL ^ config_.leaf_id},
              {.hello = [this](const DeltaSender::Spool&) {
                Hello hello;
                hello.role = PeerRole::kLeaf;
                hello.params_fingerprint = config_.params.fingerprint();
                // first_epoch stays 1: a spooled origin epoch here would
                // book a gap of dropped epochs against the leaf id.
                return hello;
              }}) {
  if (config_.leaf_id == 0)
    throw std::invalid_argument("LeafUplink: leaf_id must be non-zero");
  if (config_.spool_deltas == 0)
    throw std::invalid_argument("LeafUplink: spool_deltas must be > 0");
  metrics_source_ = obs::Registry::global().add_source(
      {{"leaf", std::to_string(config_.leaf_id)}},
      [this](obs::SampleWriter& out) { export_stats(out); });
}

bool LeafUplink::offer(const SnapshotDeltaView& delta, bool force) {
  DeltaSender::Entry entry;
  entry.site_id = delta.site_id;  // origin site, not the leaf id
  entry.epoch = delta.epoch;
  entry.updates = delta.updates;
  entry.seal_unix_ns = delta.seal_unix_ns;
  entry.seal_steady_ns = delta.seal_steady_ns;
  entry.spool_unix_ns = delta.spool_unix_ns;
  // Copied before locking so the sender thread never waits on the copy.
  entry.blob = std::make_shared<const std::string>(delta.sketch_blob);
  return sender_.update([&](DeltaSender::Spool& spool) {
    // Backpressure, not loss: the collector NACKs the agent kRetryLater
    // (and counts the shed) while the delta stays in the agent's spool.
    if (!force && spool.size() >= config_.spool_deltas) return false;
    spool.push_back(std::move(entry));
    ++relayed_;
    return true;
  });
}

LeafUplink::Stats LeafUplink::stats() const {
  Stats s;
  sender_.inspect([&](const DeltaSender::Spool& spool,
                      const DeltaSender::Stats& link) {
    static_cast<DeltaSender::Stats&>(s) = link;
    s.relayed = relayed_;
    s.spool_depth = spool.size();
  });
  return s;
}

void LeafUplink::export_stats(obs::SampleWriter& out) const {
  const Stats s = stats();
  out.counter("dcs_leaf_uplink_relayed_total",
              "Deltas enqueued on the leaf uplink spool for relay to the root",
              s.relayed);
  out.counter("dcs_leaf_uplink_acked_total",
              "Relayed deltas acknowledged by the root (kOk or kDuplicate)",
              s.acked + s.duplicates);
  out.counter("dcs_leaf_uplink_nacks_total",
              "Relayed deltas NACKed kRetryLater by the root (re-shipped)",
              s.nacks);
  out.counter("dcs_leaf_uplink_reconnects_total",
              "Leaf uplink reconnect attempts to the root", s.reconnects);
  out.gauge("dcs_leaf_uplink_spool_depth",
            "Relayed deltas spooled on the leaf uplink awaiting a root ack "
            "(leaf lag)",
            static_cast<std::int64_t>(s.spool_depth));
}

namespace {

CollectorConfig wire_leaf_collector(CollectorConfig config,
                                    LeafUplink& uplink) {
  // The tap and the gate are the two hooks that make a Collector a leaf:
  // every accepted delta is relayed, and the journal outlives the relays.
  config.delta_tap = [&uplink](const SnapshotDeltaView& delta, bool replay) {
    return uplink.offer(delta, /*force=*/replay);
  };
  config.checkpoint_gate = [&uplink] { return uplink.drained(); };
  return config;
}

LeafUplinkConfig uplink_config_of(const LeafCollectorConfig& config) {
  LeafUplinkConfig uplink;
  uplink.leaf_id = config.collector.leaf_id;
  uplink.root_host = config.root_host;
  uplink.root_port = config.root_port;
  uplink.params = config.collector.params;
  uplink.spool_deltas = config.uplink_spool;
  uplink.heartbeat_interval_ms = config.uplink_heartbeat_interval_ms;
  return uplink;
}

}  // namespace

LeafCollector::LeafCollector(LeafCollectorConfig config)
    : uplink_(uplink_config_of(config)),
      collector_(wire_leaf_collector(std::move(config.collector), uplink_)) {}

void LeafCollector::start() {
  // Uplink first: crash recovery in the collector's ctor may already have
  // re-offered journal records, and they should start draining before the
  // listener admits new load.
  uplink_.start();
  collector_.start();
}

void LeafCollector::stop(int drain_timeout_ms) {
  collector_.stop();
  uplink_.stop(drain_timeout_ms);
  // With the uplink drained the checkpoint gate opens: fold the journal
  // into a final checkpoint so the next start replays nothing.
  if (uplink_.drained()) collector_.checkpoint_now();
}

}  // namespace dcs::service

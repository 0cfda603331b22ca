#include "service/agent.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace dcs::service {

SiteAgent::SiteAgent(SiteAgentConfig config)
    : config_(std::move(config)),
      current_epoch_(config_.first_epoch),
      current_(config_.params),
      trace_ring_(config_.trace_capacity),
      sender_({.id = config_.site_id,
               .host = config_.collector_host,
               .port = config_.collector_port,
               .shard_map = config_.shard_map,
               .backoff_initial_ms = config_.backoff_initial_ms,
               .backoff_max_ms = config_.backoff_max_ms,
               .backoff_jitter = config_.backoff_jitter,
               .heartbeat_interval_ms = config_.heartbeat_interval_ms,
               .io_timeout_ms = config_.io_timeout_ms,
               .jitter_seed = config_.jitter_seed},
              {.hello = [this](const DeltaSender::Spool& spool) {
                 return hello_locked(spool);
               },
               .heartbeat = [this] { return heartbeat_locked(); },
               .on_send =
                   [](const SnapshotDeltaView& delta) {
                     if (obs::recording())
                       obs::TraceMetrics::get().observe_span(
                           obs::TraceStage::kShipped, delta.spool_unix_ns,
                           delta.ship_unix_ns);
                   },
               .on_ack = [this](const SnapshotDeltaView& delta) {
                 trace_shipped(delta);
               }}) {
  // Eager registration so an agent-side scrape lists every stage family
  // before any epoch is sealed.
  obs::TraceMetrics::get();
  if (config_.epoch_updates == 0)
    throw std::invalid_argument("SiteAgent: epoch_updates must be > 0");
  if (config_.spool_epochs == 0)
    throw std::invalid_argument("SiteAgent: spool_epochs must be > 0");
  if (config_.first_epoch == 0)
    throw std::invalid_argument("SiteAgent: first_epoch must be >= 1");
  stats_.current_epoch = current_epoch_;
  metrics_source_ = obs::Registry::global().add_source(
      {{"site", std::to_string(config_.site_id)}},
      [this](obs::SampleWriter& out) { export_stats(out); });
}

SiteAgent::~SiteAgent() {
  // Abrupt: the sender's destructor sends no Bye, so the collector sees a
  // vanished peer, exactly like a crashed agent. The churn test relies on
  // this.
  stop_sketch(/*drain=*/false);
}

void SiteAgent::start() { sender_.start(); }

void SiteAgent::stop(int drain_timeout_ms) {
  if (sender_.running()) seal_epoch();
  sender_.stop(drain_timeout_ms);
  stop_sketch(/*drain=*/true);
}

void SiteAgent::reject_key() {
  throw std::invalid_argument("SiteAgent: key does not fit in key_bits");
}

void SiteAgent::first_block() {
  ring_ = std::make_unique<HandoffBlock[]>(kHandoffRing);
  fill_ = &ring_[0];
}

void SiteAgent::hand_off(std::uint64_t seals) {
  fill_->seals = seals;
  {
    std::unique_lock<std::mutex> lock(handoff_mutex_);
    if (handed_ - applied_ == kHandoffDepth) {
      ingest_stalls_.fetch_add(1, std::memory_order_relaxed);
      space_cv_.wait(lock, [&] {
        return handed_ - applied_ < kHandoffDepth || sketch_error_;
      });
    }
    // The sketch thread failed (out of memory): the epoch state is lost.
    if (sketch_error_) std::rethrow_exception(sketch_error_);
    if (!sketch_.joinable()) {
      sketch_drain_ = false;
      sketch_ = std::thread([this] { sketch_loop(); });
    }
    ++handed_;
  }
  work_cv_.notify_one();
  // At most kHandoffDepth slots are in flight, so this one is free.
  fill_ = &ring_[handed_ % kHandoffRing];
  fill_->size = 0;
}

void SiteAgent::sketch_loop() {
  try {
    std::unique_lock<std::mutex> lock(handoff_mutex_);
    for (;;) {
      work_cv_.wait(lock, [&] {
        return applied_ < handed_ || sketch_drain_ || sketch_discard_;
      });
      if (sketch_discard_ || applied_ == handed_) return;
      const HandoffBlock& block = ring_[applied_ % kHandoffRing];
      lock.unlock();
      current_.update_batch({block.keys.data(), block.size},
                            {block.deltas.data(), block.size});
      if (block.seals != 0) seal_sketch(block.seals);
      lock.lock();
      ++applied_;
      space_cv_.notify_one();
    }
  } catch (...) {
    // Only an allocation can fail here (every key was checked at ingest);
    // the caller's next handoff rethrows it.
    std::lock_guard<std::mutex> lock(handoff_mutex_);
    sketch_error_ = std::current_exception();
    space_cv_.notify_one();
  }
}

void SiteAgent::seal_sketch(std::uint64_t epoch) {
  const std::uint64_t seal_start_ns = obs::steady_now_ns();
  auto blob = std::make_shared<const std::string>(current_.seal());
  // Origin stamps: the wall clock rides the wire so the collector can
  // subtract across processes; the steady stamp is for agent-local spans.
  const std::uint64_t seal_unix_ns = obs::unix_now_ns();
  const std::uint64_t seal_steady_ns = obs::steady_now_ns();
  if (obs::recording())
    obs::TraceMetrics::get()
        .stage(obs::TraceStage::kSealed)
        .observe(seal_steady_ns - seal_start_ns);
  sender_.update([&](DeltaSender::Spool& spool) {
    // The caller may have dropped the entry meanwhile (a full spool, or a
    // resume watermark that covers it); the seal still reset the sketch.
    const auto entry = std::find_if(
        spool.begin(), spool.end(),
        [&](const DeltaSender::Entry& e) { return e.epoch == epoch; });
    if (entry == spool.end()) return false;
    entry->blob = std::move(blob);
    entry->seal_unix_ns = seal_unix_ns;
    entry->seal_steady_ns = seal_steady_ns;
    entry->spool_unix_ns = obs::unix_now_ns();
    if (obs::recording())
      obs::TraceMetrics::get().observe_span(obs::TraceStage::kSpooled,
                                            seal_unix_ns, entry->spool_unix_ns);
    return true;
  });
}

void SiteAgent::stop_sketch(bool drain) {
  {
    std::lock_guard<std::mutex> lock(handoff_mutex_);
    (drain ? sketch_drain_ : sketch_discard_) = true;
  }
  work_cv_.notify_one();
  if (sketch_.joinable()) sketch_.join();
}

void SiteAgent::seal_epoch() {
  if (current_updates_ == 0) return;
  const std::uint64_t epoch = current_epoch_;
  DeltaSender::Entry entry;
  entry.site_id = config_.site_id;
  entry.epoch = epoch;
  entry.updates = current_updates_;
  current_updates_ = 0;
  ++current_epoch_;
  // No wake: the sender has nothing to ship until the sketch thread fills
  // the entry in.
  sender_.update([&](DeltaSender::Spool& spool) {
    if (spool.size() >= config_.spool_epochs) {
      // Collector unreachable for too long: shed the *oldest* epoch — the
      // newest data matters most for detection — and account the loss.
      spool.pop_front();
      ++stats_.epochs_dropped;
    }
    spool.push_back(std::move(entry));
    ++stats_.epochs_sealed;
    stats_.current_epoch = current_epoch_;
    return false;
  });
  // After the push, so the sketch thread finds the entry to fill.
  hand_off(epoch);
}

bool SiteAgent::flush(int timeout_ms) {
  seal_epoch();
  return sender_.flush(timeout_ms);
}

SiteAgent::Stats SiteAgent::stats() const {
  Stats s;
  sender_.inspect([&](const DeltaSender::Spool& spool,
                      const DeltaSender::Stats& link) {
    s = stats_;
    static_cast<DeltaSender::Stats&>(s) = link;
    s.epochs_shipped = link.acked + link.duplicates + link.resume_skips;
    s.spool_depth = spool.size();
  });
  s.ingest_stalls = ingest_stalls_.load(std::memory_order_relaxed);
  return s;
}

Hello SiteAgent::hello_locked(const DeltaSender::Spool& spool) const {
  Hello hello;
  hello.role = PeerRole::kSite;
  hello.params_fingerprint = config_.params.fingerprint();
  hello.epoch_updates = config_.epoch_updates;
  hello.first_epoch =
      spool.empty() ? stats_.current_epoch : spool.front().epoch;
  hello.dropped_epochs = stats_.epochs_dropped;
  return hello;
}

Heartbeat SiteAgent::heartbeat_locked() const {
  Heartbeat beat;
  beat.current_epoch = stats_.current_epoch;
  beat.dropped_epochs = stats_.epochs_dropped;
  return beat;
}

void SiteAgent::trace_shipped(const SnapshotDeltaView& delta) {
  if (!obs::recording()) return;
  obs::EpochTrace trace;
  trace.site_id = config_.site_id;
  trace.epoch = delta.epoch;
  trace.updates = delta.updates;
  trace.bytes = delta.sketch_blob.size();
  trace.stamp(obs::TraceStage::kSealed) = delta.seal_unix_ns;
  trace.stamp(obs::TraceStage::kSpooled) = delta.spool_unix_ns;
  trace.stamp(obs::TraceStage::kShipped) = delta.ship_unix_ns;
  trace_ring_.push(trace);
}

void SiteAgent::export_stats(obs::SampleWriter& out) const {
  const Stats s = stats();
  out.counter("dcs_agent_epochs_sealed_total",
              "Epoch sketch deltas sealed and spooled by site agents",
              s.epochs_sealed);
  out.counter("dcs_agent_epochs_shipped_total",
              "Epoch deltas acknowledged by a collector", s.epochs_shipped);
  out.counter("dcs_agent_epochs_dropped_total",
              "Epoch deltas evicted from a full spool (degraded mode)",
              s.epochs_dropped);
  out.counter("dcs_agent_reconnects_total",
              "Collector connection attempts after the first", s.reconnects);
  out.counter("dcs_agent_io_errors_total",
              "Send/receive failures that dropped a collector connection",
              s.io_errors);
  out.counter("dcs_agent_resume_skips_total",
              "Spooled epochs dropped without re-shipping because the "
              "collector's Hello ack watermark already covered them",
              s.resume_skips);
  out.gauge("dcs_agent_spool_depth", "Epoch deltas awaiting collector ack",
            static_cast<std::int64_t>(s.spool_depth));
  out.counter("dcs_agent_nacks_total",
              "kRetryLater NACKs received from collector admission control "
              "(epoch kept spooled; next ship delayed by retry_after_ms)",
              s.nacks);
  out.counter("dcs_agent_rehomes_total",
              "Agent re-homes: connections moved to another leaf after a "
              "kWrongShard ack or a pushed shard map",
              s.rehomes);
  out.counter("dcs_agent_ingest_stalls_total",
              "Times ingest waited because the sketch thread already had "
              "its bound of handoff blocks queued",
              s.ingest_stalls);
  out.histogram("dcs_agent_heartbeat_rtt_ns",
                "Heartbeat send to Ack receipt round-trip time (collectors "
                "ack heartbeats; a free network-health probe)",
                sender_.heartbeat_rtt());
}

}  // namespace dcs::service

#include "service/agent.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"

namespace dcs::service {

SiteAgent::SiteAgent(SiteAgentConfig config)
    : config_(std::move(config)),
      current_epoch_(config_.first_epoch),
      current_(config_.params),
      jitter_(config_.jitter_seed),
      trace_ring_(config_.trace_capacity) {
  // Eager registration so an agent-side scrape lists every stage family
  // before any epoch is sealed.
  obs::TraceMetrics::get();
  if (config_.epoch_updates == 0)
    throw std::invalid_argument("SiteAgent: epoch_updates must be > 0");
  if (config_.spool_epochs == 0)
    throw std::invalid_argument("SiteAgent: spool_epochs must be > 0");
  if (config_.first_epoch == 0)
    throw std::invalid_argument("SiteAgent: first_epoch must be >= 1");
  if (config_.backoff_jitter < 0.0 || config_.backoff_jitter > 1.0)
    throw std::invalid_argument("SiteAgent: backoff_jitter must be in [0,1]");
  stats_.current_epoch = current_epoch_;
  shard_map_ = config_.shard_map;
  stats_.map_version = shard_map_.version();
  metrics_source_ = obs::Registry::global().add_source(
      {{"site", std::to_string(config_.site_id)}},
      [this](obs::SampleWriter& out) { export_stats(out); });
}

SiteAgent::~SiteAgent() {
  // Abrupt: no Bye, no drain — the collector sees a vanished peer, exactly
  // like a crashed agent. The churn test relies on this.
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (sender_.joinable()) sender_.join();
  stop_sketch(/*drain=*/false);
}

void SiteAgent::start() {
  if (running_.load(std::memory_order_acquire)) return;
  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  sender_ = std::thread([this] { sender_loop(); });
}

void SiteAgent::stop(int drain_timeout_ms) {
  if (running_.load(std::memory_order_acquire)) {
    flush(drain_timeout_ms);
    stopping_.store(true, std::memory_order_release);
    cv_.notify_all();
    // Give the sender a moment to send Bye, then cut it off.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(drain_timeout_ms),
                   [&] { return !running_.load(std::memory_order_acquire); });
    }
    running_.store(false, std::memory_order_release);
    cv_.notify_all();
    if (sender_.joinable()) sender_.join();
  }
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The caller may have dropped the entry meanwhile (a full spool, or a
    // resume watermark that covers it); the seal still reset the sketch.
    const auto entry =
        std::find_if(spool_.begin(), spool_.end(),
                     [&](const SpooledEpoch& e) { return e.epoch == epoch; });
    if (entry == spool_.end()) return;
    entry->blob = std::move(blob);
    entry->seal_unix_ns = seal_unix_ns;
    entry->seal_steady_ns = seal_steady_ns;
    entry->spool_unix_ns = obs::unix_now_ns();
    if (obs::recording())
      obs::TraceMetrics::get().observe_span(obs::TraceStage::kSpooled,
                                            seal_unix_ns, entry->spool_unix_ns);
  }
  cv_.notify_all();
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
  SpooledEpoch entry;
  entry.epoch = epoch;
  entry.updates = current_updates_;
  current_updates_ = 0;
  ++current_epoch_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spool_.size() >= config_.spool_epochs) {
      // Collector unreachable for too long: shed the *oldest* epoch — the
      // newest data matters most for detection — and account the loss.
      spool_.pop_front();
      ++stats_.epochs_dropped;
    }
    spool_.push_back(std::move(entry));
    ++stats_.epochs_sealed;
    stats_.spool_depth = spool_.size();
    stats_.current_epoch = current_epoch_;
  }
  // After the push, so the sketch thread finds the entry to fill.
  hand_off(epoch);
}

bool SiteAgent::flush(int timeout_ms) {
  seal_epoch();
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return spool_.empty() || stats_.rejected ||
           !running_.load(std::memory_order_acquire);
  }) && spool_.empty();
}

SiteAgent::Stats SiteAgent::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.ingest_stalls = ingest_stalls_.load(std::memory_order_relaxed);
  return s;
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
                heartbeat_rtt_ns_);
}

std::uint64_t SiteAgent::next_backoff_ms() {
  backoff_ms_ = backoff_ms_ == 0
                    ? config_.backoff_initial_ms
                    : std::min(backoff_ms_ * 2, config_.backoff_max_ms);
  // Symmetric jitter: delay * (1 ± jitter), so a fleet of agents spreads
  // its reconnect attempts instead of stampeding in sync.
  const double spread = 1.0 + config_.backoff_jitter * (2.0 * jitter_.uniform() - 1.0);
  return static_cast<std::uint64_t>(static_cast<double>(backoff_ms_) * spread);
}

void SiteAgent::sender_loop() {
  bool first_attempt = true;
  while (running_.load(std::memory_order_acquire)) {
    if (!first_attempt) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.reconnects;
      }
      const auto delay = std::chrono::milliseconds(next_backoff_ms());
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, delay,
                   [&] { return !running_.load(std::memory_order_acquire); });
      if (!running_.load(std::memory_order_acquire)) break;
    }
    first_attempt = false;
    if (!run_connection()) {
      // Parameter mismatch: retrying can never succeed.
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.rejected = true;
      cv_.notify_all();
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
  }
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
}

void SiteAgent::pick_target(std::string& host, std::uint16_t& port) {
  host = config_.collector_host;
  port = config_.collector_port;
  if (shard_map_.empty()) return;
  if (connect_failures_ >= kSeedFallbackAfter) return;  // seed fallback
  const LeafEndpoint leaf = shard_map_.endpoint_for(config_.site_id);
  host = leaf.host;
  port = leaf.port;
}

bool SiteAgent::adopt_map(const Ack& ack) {
  if (ack.map_blob.empty() || ack.map_version <= shard_map_.version())
    return false;
  ShardMap updated;
  try {
    updated = ShardMap::decode(ack.map_blob);
  } catch (const SerializeError&) {
    return false;  // corrupt push — keep the map we have
  }
  const bool had_map = !shard_map_.empty();
  const LeafEndpoint before =
      had_map ? shard_map_.endpoint_for(config_.site_id) : LeafEndpoint{};
  shard_map_ = updated;
  const LeafEndpoint after = shard_map_.endpoint_for(config_.site_id);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.map_version = shard_map_.version();
  }
  return !had_map || !(before == after);
}

bool SiteAgent::run_connection() {
  std::string target_host;
  std::uint16_t target_port = 0;
  pick_target(target_host, target_port);
  auto socket = tcp_connect(target_host, target_port, config_.io_timeout_ms);
  if (!socket) {
    ++connect_failures_;  // enough of these and pick_target tries the seed
    return true;          // unreachable — back off and retry
  }
  socket->set_timeouts(static_cast<std::uint64_t>(config_.io_timeout_ms),
                       static_cast<std::uint64_t>(config_.io_timeout_ms));

  FrameDecoder decoder;
  char buffer[16 * 1024];
  const auto io_error = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.io_errors;
    stats_.connected = false;
    return true;  // transient — retry with backoff
  };

  /// Block until one Ack arrives (or timeout/error). nullopt = connection
  /// is dead.
  const auto await_ack = [&]() -> std::optional<Ack> {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(config_.io_timeout_ms);
    for (;;) {
      if (auto frame = decoder.next()) {
        if (frame->type != MsgType::kAck)
          throw WireError("agent: expected Ack");
        return Ack::decode(frame->payload);
      }
      if (!running_.load(std::memory_order_acquire) ||
          std::chrono::steady_clock::now() >= deadline)
        return std::nullopt;
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) return std::nullopt;
      if (got.bytes > 0) decoder.feed(buffer, got.bytes);
    }
  };

  try {
    Hello hello;
    hello.site_id = config_.site_id;
    hello.role = PeerRole::kSite;
    hello.params_fingerprint = config_.params.fingerprint();
    hello.epoch_updates = config_.epoch_updates;
    hello.map_version = shard_map_.version();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hello.first_epoch =
          spool_.empty() ? stats_.current_epoch : spool_.front().epoch;
      hello.dropped_epochs = stats_.epochs_dropped;
    }
    if (!socket->send_all(encode_frame(MsgType::kHello, hello.encode())))
      return io_error();
    const auto hello_ack = await_ack();
    if (!hello_ack) return io_error();
    if (hello_ack->status == AckStatus::kRejected) return false;
    if (hello_ack->status == AckStatus::kWrongShard) {
      // This leaf no longer (or never did) own our shard. Its ack carries
      // the authoritative map: adopt it, drop this connection, and go
      // straight to the right leaf. The spool rides along untouched.
      adopt_map(*hello_ack);
      connect_failures_ = 0;
      backoff_ms_ = 0;  // re-home fast — this is redirection, not failure
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.rehomes;
      }
      return true;
    }
    connect_failures_ = 0;
    // A sharded leaf piggybacks the current map on every Hello ack when
    // ours is stale; a moved shard re-homes us on the next reconnect.
    adopt_map(*hello_ack);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.connected = true;
      // The Hello ack carries the collector's resume watermark: everything
      // at or below it is already durably merged (the collector restarted
      // from its checkpoint after our ack was lost with the connection).
      // Prune instead of re-shipping — the bytes would only come back
      // kDuplicate.
      while (!spool_.empty() && spool_.front().epoch <= hello_ack->epoch) {
        spool_.pop_front();
        ++stats_.epochs_shipped;
        ++stats_.resume_skips;
      }
      stats_.spool_depth = spool_.size();
    }
    cv_.notify_all();
    backoff_ms_ = 0;  // healthy connection resets the backoff schedule

    while (running_.load(std::memory_order_acquire)) {
      // Peek (don't pop) the oldest spooled epoch: it stays queued until
      // the collector acks it, so a drop mid-flight retransmits. The copy
      // shares the immutable blob, so no bytes move under the lock.
      std::optional<SpooledEpoch> head;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        // Epochs seal in order, so a head still sealing has nothing
        // shippable behind it.
        const auto head_sealed = [&] {
          return !spool_.empty() && spool_.front().blob != nullptr;
        };
        if (!head_sealed()) {
          if (spool_.empty() && stopping_.load(std::memory_order_acquire))
            break;
          const bool woke = cv_.wait_for(
              lock, std::chrono::milliseconds(config_.heartbeat_interval_ms),
              [&] {
                return head_sealed() ||
                       !running_.load(std::memory_order_acquire) ||
                       (spool_.empty() &&
                        stopping_.load(std::memory_order_acquire));
              });
          if (!woke) {
            // Idle: snapshot the fields under the lock, send outside it.
            Heartbeat beat;
            beat.site_id = config_.site_id;
            beat.current_epoch = stats_.current_epoch;
            beat.spooled_epochs = 0;
            beat.dropped_epochs = stats_.epochs_dropped;
            lock.unlock();
            const std::uint64_t sent_ns = obs::steady_now_ns();
            if (!socket->send_all(
                    encode_frame(MsgType::kHeartbeat, beat.encode())))
              return io_error();
            // The collector acks heartbeats (epoch 0), turning frames we
            // already exchange into a free network-RTT probe.
            const auto beat_ack = await_ack();
            if (!beat_ack) return io_error();
            if (beat_ack->epoch != 0)
              throw WireError("agent: heartbeat ack carries an epoch");
            heartbeat_rtt_ns_.observe(obs::steady_now_ns() - sent_ns);
          }
          continue;
        }
        head = spool_.front();
      }

      SnapshotDeltaView delta;
      delta.site_id = config_.site_id;
      delta.epoch = head->epoch;
      delta.updates = head->updates;
      delta.seal_unix_ns = head->seal_unix_ns;
      delta.seal_steady_ns = head->seal_steady_ns;
      delta.spool_unix_ns = head->spool_unix_ns;
      delta.ship_unix_ns = obs::unix_now_ns();  // fresh per send attempt
      delta.sketch_blob = *head->blob;
      if (obs::recording())
        obs::TraceMetrics::get().observe_span(obs::TraceStage::kShipped,
                                              delta.spool_unix_ns,
                                              delta.ship_unix_ns);
      if (!socket->send_all(delta.encode_frame()))
        return io_error();
      const auto ack = await_ack();
      if (!ack) return io_error();
      if (ack->status == AckStatus::kRejected) return false;
      if (ack->epoch != head->epoch)
        throw WireError("agent: ack for unexpected epoch");
      if (ack->status == AckStatus::kWrongShard) {
        // A reshard moved our shard away mid-connection. The delta stays
        // spooled (NOT popped); adopt the pushed map and reconnect to the
        // new owner, which re-ships it there.
        adopt_map(*ack);
        connect_failures_ = 0;
        backoff_ms_ = 0;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.rehomes;
          stats_.connected = false;
        }
        return true;
      }
      if (ack->status == AckStatus::kRetryLater) {
        // The collector shed this delta under overload. Honor the
        // retry_after contract: keep the epoch at the head of the spool
        // (nothing is lost) and wait before re-shipping. The hint is
        // clamped so a byzantine collector can neither make us spin
        // (floor 1 ms) nor wedge us forever (ceiling backoff_max_ms),
        // and the wait wakes immediately on stop().
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.nacks;
        }
        const std::uint64_t wait_ms = std::min<std::uint64_t>(
            std::max<std::uint32_t>(ack->retry_after_ms, 1),
            config_.backoff_max_ms);
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                     [&] { return !running_.load(std::memory_order_acquire); });
        continue;
      }
      if (obs::recording()) {
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
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!spool_.empty() && spool_.front().epoch == head->epoch)
          spool_.pop_front();
        ++stats_.epochs_shipped;
        stats_.spool_depth = spool_.size();
      }
      cv_.notify_all();
    }

    if (stopping_.load(std::memory_order_acquire)) {
      Bye bye;
      bye.site_id = config_.site_id;
      socket->send_all(encode_frame(MsgType::kBye, bye.encode()));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.connected = false;
    return true;
  } catch (const WireError&) {
    // Garbage from the collector side: drop the connection and retry.
    return io_error();
  }
}

}  // namespace dcs::service

#include "service/federation/leaf.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"

namespace dcs::service {

LeafUplink::LeafUplink(LeafUplinkConfig config)
    : config_(std::move(config)), jitter_(config_.jitter_seed) {
  if (config_.leaf_id == 0)
    throw std::invalid_argument("LeafUplink: leaf_id must be non-zero");
  if (config_.spool_deltas == 0)
    throw std::invalid_argument("LeafUplink: spool_deltas must be > 0");
  metrics_source_ = obs::Registry::global().add_source(
      {{"leaf", std::to_string(config_.leaf_id)}},
      [this](obs::SampleWriter& out) { export_stats(out); });
}

LeafUplink::~LeafUplink() {
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (sender_.joinable()) sender_.join();
}

void LeafUplink::start() {
  if (running_.load(std::memory_order_acquire)) return;
  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  sender_ = std::thread([this] { sender_loop(); });
}

void LeafUplink::stop(int drain_timeout_ms) {
  if (!running_.load(std::memory_order_acquire)) return;
  flush(drain_timeout_ms);
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::milliseconds(drain_timeout_ms),
                 [&] { return !running_.load(std::memory_order_acquire); });
  }
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (sender_.joinable()) sender_.join();
}

bool LeafUplink::offer(std::uint64_t site_id, std::uint64_t epoch,
                       std::uint64_t updates, std::string_view sketch_blob,
                       bool force) {
  // Copied before locking so the sender thread never waits on the copy.
  auto blob = std::make_shared<const std::string>(sketch_blob);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Backpressure, not loss: the collector NACKs the agent kRetryLater
    // (and counts the shed) while the delta stays in the agent's spool.
    if (!force && spool_.size() >= config_.spool_deltas) return false;
    spool_.push_back({site_id, epoch, updates, std::move(blob)});
    ++stats_.relayed;
    stats_.spool_depth = spool_.size();
  }
  cv_.notify_all();
  return true;
}

bool LeafUplink::flush(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return spool_.empty() || stats_.rejected ||
           !running_.load(std::memory_order_acquire);
  }) && spool_.empty();
}

bool LeafUplink::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spool_.empty();
}

LeafUplink::Stats LeafUplink::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void LeafUplink::export_stats(obs::SampleWriter& out) const {
  const Stats s = stats();
  out.counter("dcs_leaf_uplink_relayed_total",
              "Deltas enqueued on the leaf uplink spool for relay to the root",
              s.relayed);
  out.counter("dcs_leaf_uplink_acked_total",
              "Relayed deltas acknowledged by the root (kOk or kDuplicate)",
              s.root_acks + s.root_duplicates);
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

std::uint64_t LeafUplink::next_backoff_ms() {
  backoff_ms_ = backoff_ms_ == 0
                    ? config_.backoff_initial_ms
                    : std::min(backoff_ms_ * 2, config_.backoff_max_ms);
  const double spread =
      1.0 + config_.backoff_jitter * (2.0 * jitter_.uniform() - 1.0);
  return static_cast<std::uint64_t>(static_cast<double>(backoff_ms_) * spread);
}

void LeafUplink::sender_loop() {
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
      // Parameter mismatch at the root: retrying can never succeed.
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

bool LeafUplink::run_connection() {
  auto socket = tcp_connect(config_.root_host, config_.root_port,
                            config_.io_timeout_ms);
  if (!socket) return true;  // unreachable — back off and retry
  socket->set_timeouts(static_cast<std::uint64_t>(config_.io_timeout_ms),
                       static_cast<std::uint64_t>(config_.io_timeout_ms));

  FrameDecoder decoder;
  char buffer[16 * 1024];
  const auto io_error = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.io_errors;
    stats_.connected = false;
    return true;
  };

  const auto await_ack = [&]() -> std::optional<Ack> {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(config_.io_timeout_ms);
    for (;;) {
      if (auto frame = decoder.next()) {
        if (frame->type != MsgType::kAck)
          throw WireError("leaf uplink: expected Ack");
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
    hello.site_id = config_.leaf_id;
    hello.role = PeerRole::kLeaf;
    hello.params_fingerprint = config_.params.fingerprint();
    if (!socket->send_all(encode_frame(MsgType::kHello, hello.encode())))
      return io_error();
    const auto hello_ack = await_ack();
    if (!hello_ack) return io_error();
    if (hello_ack->status == AckStatus::kRejected) return false;
    // The Hello-ack resume watermark is meaningless for a multiplexed
    // uplink (it would be the *leaf id's* watermark, not any origin
    // site's): everything spooled is re-shipped and the root's per-site
    // dedup answers kDuplicate for what it already merged.

    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.connected = true;
    }
    backoff_ms_ = 0;

    while (running_.load(std::memory_order_acquire)) {
      std::optional<Relayed> head;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (spool_.empty()) {
          if (stopping_.load(std::memory_order_acquire)) break;
          const bool woke = cv_.wait_for(
              lock, std::chrono::milliseconds(config_.heartbeat_interval_ms),
              [&] {
                return !spool_.empty() ||
                       !running_.load(std::memory_order_acquire) ||
                       stopping_.load(std::memory_order_acquire);
              });
          if (!woke) {
            Heartbeat beat;
            beat.site_id = config_.leaf_id;
            lock.unlock();
            if (!socket->send_all(
                    encode_frame(MsgType::kHeartbeat, beat.encode())))
              return io_error();
            const auto beat_ack = await_ack();
            if (!beat_ack) return io_error();
            if (beat_ack->epoch != 0)
              throw WireError("leaf uplink: heartbeat ack carries an epoch");
          }
          continue;
        }
        head = spool_.front();
      }

      SnapshotDeltaView delta;
      delta.site_id = head->site_id;  // origin site, not the leaf id
      delta.epoch = head->epoch;
      delta.updates = head->updates;
      delta.ship_unix_ns = obs::unix_now_ns();
      delta.sketch_blob = *head->blob;
      if (!socket->send_all(delta.encode_frame()))
        return io_error();
      const auto ack = await_ack();
      if (!ack) return io_error();
      if (ack->status == AckStatus::kRejected) return false;
      if (ack->epoch != head->epoch)
        throw WireError("leaf uplink: ack for unexpected epoch");
      if (ack->status == AckStatus::kWrongShard)
        throw WireError("leaf uplink: root answered kWrongShard");
      if (ack->status == AckStatus::kRetryLater) {
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
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!spool_.empty() && spool_.front().epoch == head->epoch &&
            spool_.front().site_id == head->site_id)
          spool_.pop_front();
        if (ack->status == AckStatus::kDuplicate)
          ++stats_.root_duplicates;
        else
          ++stats_.root_acks;
        stats_.spool_depth = spool_.size();
      }
      cv_.notify_all();
    }

    if (stopping_.load(std::memory_order_acquire)) {
      Bye bye;
      bye.site_id = config_.leaf_id;
      socket->send_all(encode_frame(MsgType::kBye, bye.encode()));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.connected = false;
    return true;
  } catch (const WireError&) {
    return io_error();
  }
}

namespace {

CollectorConfig wire_leaf_collector(CollectorConfig config,
                                    LeafUplink& uplink) {
  // The tap and the gate are the two hooks that make a Collector a leaf:
  // every accepted delta is relayed, and the journal outlives the relays.
  config.delta_tap = [&uplink](std::uint64_t site_id, std::uint64_t epoch,
                               std::uint64_t updates, std::string_view blob,
                               bool replay) {
    return uplink.offer(site_id, epoch, updates, blob, /*force=*/replay);
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
  uplink.io_timeout_ms = static_cast<int>(config.uplink_io_timeout_ms);
  uplink.heartbeat_interval_ms = config.uplink_heartbeat_interval_ms;
  // Distinct jitter stream per leaf so a fleet of leaves reconnecting to a
  // restarted root spreads out.
  uplink.jitter_seed = 0x1eafULL ^ config.collector.leaf_id;
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

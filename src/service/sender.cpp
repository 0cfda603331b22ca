#include "service/sender.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "service/socket.hpp"

namespace dcs::service {

DeltaSender::DeltaSender(Link link, Hooks hooks)
    : link_(std::move(link)),
      hooks_(std::move(hooks)),
      jitter_(link_.jitter_seed),
      shard_map_(link_.shard_map) {
  if (link_.backoff_jitter < 0.0 || link_.backoff_jitter > 1.0)
    throw std::invalid_argument("DeltaSender: backoff_jitter must be in [0,1]");
  stats_.map_version = shard_map_.version();
}

DeltaSender::~DeltaSender() {
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DeltaSender::start() {
  if (running()) return;
  // A thread that ended on its own (a rejected Hello) is joined first.
  if (thread_.joinable()) thread_.join();
  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { sender_loop(); });
}

void DeltaSender::stop(int drain_timeout_ms) {
  if (!running()) return;
  flush(drain_timeout_ms);
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  // Give the sender a moment to send Bye, then cut it off.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::milliseconds(drain_timeout_ms),
                 [&] { return !running(); });
  }
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool DeltaSender::flush(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return spool_.empty() || stats_.rejected || !running();
  }) && spool_.empty();
}

bool DeltaSender::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spool_.empty();
}

std::uint64_t DeltaSender::next_backoff_ms() {
  backoff_ms_ = backoff_ms_ == 0
                    ? link_.backoff_initial_ms
                    : std::min(backoff_ms_ * 2, link_.backoff_max_ms);
  // Symmetric jitter: delay * (1 ± jitter), so a fleet spreads its
  // reconnect attempts instead of stampeding in sync.
  const double spread =
      1.0 + link_.backoff_jitter * (2.0 * jitter_.uniform() - 1.0);
  return static_cast<std::uint64_t>(static_cast<double>(backoff_ms_) * spread);
}

void DeltaSender::sender_loop() {
  bool first_attempt = true;
  while (running()) {
    if (!first_attempt) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.reconnects;
      }
      const auto delay = std::chrono::milliseconds(next_backoff_ms());
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, delay, [&] { return !running(); });
      if (!running()) break;
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

void DeltaSender::pick_target(std::string& host, std::uint16_t& port) {
  host = link_.host;
  port = link_.port;
  if (shard_map_.empty()) return;
  if (connect_failures_ >= kSeedFallbackAfter) return;  // seed fallback
  const LeafEndpoint leaf = shard_map_.endpoint_for(link_.id);
  host = leaf.host;
  port = leaf.port;
}

void DeltaSender::adopt_map(const Ack& ack) {
  if (ack.map_blob.empty() || ack.map_version <= shard_map_.version()) return;
  ShardMap updated;
  try {
    updated = ShardMap::decode(ack.map_blob);
  } catch (const SerializeError&) {
    return;  // corrupt push — keep the map we have
  }
  shard_map_ = std::move(updated);
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.map_version = shard_map_.version();
}

void DeltaSender::rehome(const Ack& ack) {
  // This leaf does not own our shard (any more). Its ack carries the
  // authoritative map: adopt it and go straight to the right leaf. The
  // spool rides along untouched; the root's per-site dedup absorbs any
  // cross-leaf re-ship.
  adopt_map(ack);
  connect_failures_ = 0;
  backoff_ms_ = 0;  // re-home fast — this is redirection, not failure
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.rehomes;
  stats_.connected = false;
}

bool DeltaSender::run_connection() {
  std::string target_host;
  std::uint16_t target_port = 0;
  pick_target(target_host, target_port);
  auto socket = tcp_connect(target_host, target_port, link_.io_timeout_ms);
  if (!socket) {
    ++connect_failures_;  // enough of these and pick_target tries the seed
    return true;          // unreachable — back off and retry
  }
  socket->set_timeouts(static_cast<std::uint64_t>(link_.io_timeout_ms),
                       static_cast<std::uint64_t>(link_.io_timeout_ms));

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
                          std::chrono::milliseconds(link_.io_timeout_ms);
    for (;;) {
      if (auto frame = decoder.next()) {
        if (frame->type != MsgType::kAck)
          throw WireError("sender: expected Ack");
        return Ack::decode(frame->payload);
      }
      if (!running() || std::chrono::steady_clock::now() >= deadline)
        return std::nullopt;
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) return std::nullopt;
      if (got.bytes > 0) decoder.feed(buffer, got.bytes);
    }
  };

  try {
    Hello hello;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hello = hooks_.hello(spool_);
    }
    hello.site_id = link_.id;
    hello.map_version = shard_map_.version();
    if (!socket->send_all(encode_frame(MsgType::kHello, hello.encode())))
      return io_error();
    const auto hello_ack = await_ack();
    if (!hello_ack) return io_error();
    if (hello_ack->status == AckStatus::kRejected) return false;
    if (hello_ack->status == AckStatus::kWrongShard) {
      rehome(*hello_ack);
      return true;
    }
    connect_failures_ = 0;
    // A sharded leaf piggybacks the current map on every Hello ack when
    // ours is stale; a moved shard re-homes us on the next reconnect.
    adopt_map(*hello_ack);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.connected = true;
      // The Hello ack carries the collector's resume watermark for the
      // Hello id: our entries at or below it are already durably merged
      // (the collector restarted from its checkpoint after our ack was
      // lost with the connection). Prune instead of re-shipping — the
      // bytes would only come back kDuplicate. Relayed entries carry other
      // ids and are never pruned here.
      while (!spool_.empty() && spool_.front().site_id == link_.id &&
             spool_.front().epoch <= hello_ack->epoch) {
        spool_.pop_front();
        ++stats_.resume_skips;
      }
    }
    cv_.notify_all();
    backoff_ms_ = 0;  // healthy connection resets the backoff schedule

    while (running()) {
      // Peek (don't pop) the head: it stays queued until the collector
      // acks it, so a drop mid-flight retransmits. The copy shares the
      // immutable blob, so no bytes move under the lock.
      std::optional<Entry> head;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto head_sealed = [&] {
          return !spool_.empty() && spool_.front().blob != nullptr;
        };
        if (!head_sealed()) {
          const auto drained_for_stop = [&] {
            return spool_.empty() && stopping_.load(std::memory_order_acquire);
          };
          if (drained_for_stop()) break;
          const bool woke = cv_.wait_for(
              lock, std::chrono::milliseconds(link_.heartbeat_interval_ms),
              [&] { return head_sealed() || !running() || drained_for_stop(); });
          if (!woke) {
            // Idle: build the beat under the lock, send outside it.
            Heartbeat beat = hooks_.heartbeat ? hooks_.heartbeat() : Heartbeat{};
            beat.site_id = link_.id;
            lock.unlock();
            const std::uint64_t sent_ns = obs::steady_now_ns();
            if (!socket->send_all(
                    encode_frame(MsgType::kHeartbeat, beat.encode())))
              return io_error();
            const auto beat_ack = await_ack();
            if (!beat_ack) return io_error();
            if (beat_ack->epoch != 0)
              throw WireError("sender: heartbeat ack carries an epoch");
            heartbeat_rtt_.observe(obs::steady_now_ns() - sent_ns);
          }
          continue;
        }
        head = spool_.front();
      }

      SnapshotDeltaView delta;
      delta.site_id = head->site_id;
      delta.epoch = head->epoch;
      delta.updates = head->updates;
      delta.seal_unix_ns = head->seal_unix_ns;
      delta.seal_steady_ns = head->seal_steady_ns;
      delta.spool_unix_ns = head->spool_unix_ns;
      delta.ship_unix_ns = obs::unix_now_ns();  // fresh per send attempt
      delta.sketch_blob = *head->blob;
      if (hooks_.on_send) hooks_.on_send(delta);
      if (!socket->send_all(delta.encode_frame())) return io_error();
      const auto ack = await_ack();
      if (!ack) return io_error();
      if (ack->status == AckStatus::kRejected) return false;
      if (ack->epoch != head->epoch)
        throw WireError("sender: ack for unexpected epoch");
      if (ack->status == AckStatus::kWrongShard) {
        // A reshard moved our shard away mid-connection: the entry stays
        // spooled (NOT popped) and the new owner gets it.
        rehome(*ack);
        return true;
      }
      if (ack->status == AckStatus::kRetryLater) {
        // Shed under overload. Honor the retry_after contract: keep the
        // entry at the head (nothing is lost) and wait before re-shipping.
        // The hint is clamped so a byzantine collector can neither make us
        // spin (floor 1 ms) nor wedge us forever (ceiling backoff_max_ms),
        // and the wait wakes immediately on stop().
        const std::uint64_t wait_ms = std::min<std::uint64_t>(
            std::max<std::uint32_t>(ack->retry_after_ms, 1),
            link_.backoff_max_ms);
        std::unique_lock<std::mutex> lock(mutex_);
        ++stats_.nacks;
        cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                     [&] { return !running(); });
        continue;
      }
      if (hooks_.on_ack) hooks_.on_ack(delta);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!spool_.empty() && spool_.front().epoch == head->epoch &&
            spool_.front().site_id == head->site_id)
          spool_.pop_front();
        if (ack->status == AckStatus::kDuplicate)
          ++stats_.duplicates;
        else
          ++stats_.acked;
      }
      cv_.notify_all();
    }

    if (stopping_.load(std::memory_order_acquire)) {
      Bye bye;
      bye.site_id = link_.id;
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

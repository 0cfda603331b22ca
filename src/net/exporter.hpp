// FlowUpdateExporter — the simulated NetFlow/GigaScope probe.
//
// Tracks the TCP handshake state of each (client, server) pair it observes
// and emits the paper's flow updates on state transitions:
//   * first SYN of a pair            -> (source, dest, +1)   half-open opened
//   * client ACK completing the
//     handshake, or an RST abort     -> (source, dest, -1)   half-open closed
// Duplicate SYNs, data packets and FINs after establishment produce no
// updates, so the downstream sketch counts exactly the *currently half-open*
// distinct sources per destination — the paper's DDoS indicator.
//
// The exporter also aggregates per-interval SYN and FIN/RST counts for the
// Wang-style SYN-FIN CUSUM baseline.
//
// Interval contract: intervals_ holds one entry per *completed* interval.
// Callers that drive observe() directly (rather than through run(), which
// does this for them) must call finish_interval() at end of stream to flush
// the trailing partial interval, or the last interval's SYN/FIN aggregates
// are silently dropped. finish_interval() is idempotent — a second call with
// no packets observed in between is a no-op — so defensive flushing is safe.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "stream/flow_update.hpp"

namespace dcs {

/// Aggregate control-packet counts for one observation interval.
struct IntervalCounts {
  std::uint64_t syn = 0;
  std::uint64_t fin = 0;  // FIN + RST

  friend bool operator==(const IntervalCounts&, const IntervalCounts&) = default;
};

class FlowUpdateExporter {
 public:
  using UpdateSink = std::function<void(const FlowUpdate&)>;
  /// Sink receiving blocks of flow updates, sized for the batched sketch
  /// ingest path (DistinctCountSketch/TrackingDcs::update_batch).
  using BatchSink = std::function<void(std::span<const FlowUpdate>)>;

  /// `interval_ticks` controls the granularity of the SYN/FIN aggregates.
  /// `half_open_timeout` (0 = disabled) models the server's SYN-RECEIVED
  /// timer: a half-open entry older than this emits a `-1` update when the
  /// clock passes its deadline, mirroring backlog reaping. A duplicate SYN
  /// refreshes the timer (SYN retransmission keeps the slot alive).
  explicit FlowUpdateExporter(std::uint64_t interval_ticks = 1000,
                              std::uint64_t half_open_timeout = 0);

  /// Observe one packet; emits zero or one flow update through `sink`.
  void observe(const Packet& packet, const UpdateSink& sink);

  /// Convenience: run a whole packet stream and collect the updates.
  /// Flushes the trailing partial interval (see the interval contract above).
  std::vector<FlowUpdate> run(const std::vector<Packet>& packets);

  /// Observe a packet stream, delivering the emitted flow updates to `sink`
  /// in blocks of up to `block_updates` — the batch-sink bridge between the
  /// packet layer and the batched sketch ingest path. The final (possibly
  /// short) block and the trailing partial interval are flushed before
  /// returning. Returns the number of flow updates emitted.
  std::size_t run_batched(std::span<const Packet> packets,
                          const BatchSink& sink,
                          std::size_t block_updates = 256);

  /// Number of (client, server) pairs currently in the half-open state.
  std::size_t half_open_pairs() const noexcept { return half_open_.size(); }

  /// Completed SYN/FIN aggregates, one entry per elapsed interval.
  const std::vector<IntervalCounts>& intervals() const noexcept {
    return intervals_;
  }

  /// Flush the in-progress interval into intervals(). Part of the observe()
  /// contract: call once at end of stream when driving observe() directly
  /// (run()/run_batched() do it internally). Idempotent: a no-op unless at
  /// least one packet has been observed since the last interval boundary.
  void finish_interval();

  /// Expire half-open entries whose deadline is <= `now`, emitting their
  /// `-1` updates through `sink`. Called implicitly by observe(); exposed
  /// for end-of-stream cleanup in timeout mode.
  void expire_before(std::uint64_t now, const UpdateSink& sink);

 private:
  void roll_intervals(std::uint64_t timestamp);

  std::uint64_t interval_ticks_;
  std::uint64_t half_open_timeout_;
  std::uint64_t current_interval_start_ = 0;
  IntervalCounts current_;
  /// True once any packet lands in the current interval; gates
  /// finish_interval() so repeated end-of-stream flushes are no-ops.
  bool interval_dirty_ = false;
  std::vector<IntervalCounts> intervals_;
  /// Pairs that sent a SYN and have not completed/aborted, with the time the
  /// half-open state was (last) opened; established pairs are removed (a
  /// later SYN would legitimately reopen).
  std::unordered_map<PairKey, std::uint64_t> half_open_;
  /// FIFO of (opened_time, key) for timeout sweeps; entries whose time no
  /// longer matches half_open_ are stale (completed or refreshed) and are
  /// skipped.
  std::deque<std::pair<std::uint64_t, PairKey>> expiry_queue_;
};

}  // namespace dcs

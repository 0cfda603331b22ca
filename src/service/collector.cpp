#include "service/collector.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "service/reactor.hpp"
#include "service/wire.hpp"

namespace dcs::service {

namespace {

std::string ack_frame(const Ack& ack) {
  return encode_frame(MsgType::kAck, ack.encode());
}

}  // namespace

Collector::Collector(CollectorConfig config)
    : config_(std::move(config)),
      admission_(config_.admission),
      merged_(config_.params),
      detector_(config_.detection),
      trace_ring_(config_.trace_capacity) {
  // Register every trace-stage histogram family up front: a scrape of a
  // collector that has merged nothing yet must still list all pipeline
  // stages (at count 0), not grow families as traffic arrives.
  obs::TraceMetrics::get();
  if (config_.detection_top_k == 0)
    throw std::invalid_argument("Collector: detection_top_k must be > 0");
  if (config_.federation_root && config_.leaf_id != 0)
    throw std::invalid_argument(
        "Collector: a collector is a root or a leaf, not both (deeper "
        "trees are not supported)");
  shard_map_ = config_.shard_map;
  if (config_.checkpoint_every == 0)
    throw std::invalid_argument("Collector: checkpoint_every must be > 0");
  if (config_.reactor_workers < 1)
    throw std::invalid_argument("Collector: reactor_workers must be >= 1");
  if (config_.admission.max_inflight_bytes != 0) {
    // A single frame larger than the whole budget could never admit and
    // would be NACKed forever — a livelock the operator must resolve by
    // raising the budget or lowering the frame cap.
    const std::uint64_t frame_cap =
        config_.max_frame_bytes != 0 &&
                config_.max_frame_bytes < kMaxPayloadBytes
            ? config_.max_frame_bytes
            : kMaxPayloadBytes;
    if (frame_cap > config_.admission.max_inflight_bytes)
      throw std::invalid_argument(
          "Collector: admission.max_inflight_bytes must cover at least one "
          "max-size frame (raise the budget or lower max_frame_bytes)");
  }
  if (!config_.state_dir.empty()) recover();
}

Collector::~Collector() { stop(); }

void Collector::start() {
  if (running_.load(std::memory_order_acquire)) return;
  auto listener = TcpListener::listen(config_.bind_address, config_.port);
  if (!listener)
    throw std::runtime_error("Collector: cannot bind " +
                             config_.bind_address + ":" +
                             std::to_string(config_.port));
  listener_ = std::move(*listener);
  listener_.set_nonblocking(true);
  running_.store(true, std::memory_order_release);
  ReactorConfig reactor_config;
  reactor_config.workers = config_.reactor_workers;
  reactor_config.tick_ms = config_.io_timeout_ms;
  reactor_config.frame_deadline_ms = config_.frame_deadline_ms;
  reactor_config.idle_timeout_ms = config_.idle_timeout_ms;
  reactor_config.max_frame_bytes = config_.max_frame_bytes;
  reactor_ = std::make_unique<Reactor>(reactor_config,
                                       static_cast<FrameHandler&>(*this));
  reactor_->start(listener_);
  // Re-registered on every start: a restart may bind another port.
  metrics_source_ = obs::Registry::global().add_source(
      {{"collector",
        config_.bind_address + ":" + std::to_string(listener_.port())}},
      [this](obs::SampleWriter& out) { export_stats(out); });
}

void Collector::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  reactor_->stop();
  reactor_.reset();
  listener_.close();
  // Clean shutdown: fold the journal tail into a final checkpoint so the
  // next start replays nothing. Best-effort — the journal already holds
  // every acked delta, so a failed write here loses no data.
  if (store_) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (deltas_since_checkpoint_ > 0) {
      try {
        write_checkpoint_locked();
      } catch (const std::exception&) {
        // keep the journal; recovery will replay it
      }
    }
  }
}

bool Collector::running() const {
  return running_.load(std::memory_order_acquire);
}

std::uint16_t Collector::port() const { return listener_.port(); }

void Collector::on_frame_error() {
  frame_errors_.fetch_add(1, std::memory_order_relaxed);
}

void Collector::on_deadline_drop() {
  deadline_drops_.fetch_add(1, std::memory_order_relaxed);
}

void Collector::on_idle_reap() {
  idle_reaped_.fetch_add(1, std::memory_order_relaxed);
}

void Collector::on_disconnect(PeerState& peer) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (peer.hello_ok) {
    auto it = sites_.find(peer.site_id);
    if (it != sites_.end() && it->second.connected) {
      it->second.connected = false;
      --totals_.connected_sites;
    }
  }
  state_cv_.notify_all();
}

std::string Collector::on_frame(PeerState& peer, MsgType type,
                                std::string_view payload) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  switch (type) {
    case MsgType::kHello: {
      const Hello hello = Hello::decode(payload);
      Ack ack;
      ack.epoch = 0;
      // A leaf uplink relays deltas whose site ids differ from the Hello
      // id; only a federation root is prepared to account those, so
      // anywhere else the connection is refused outright.
      if (hello.params_fingerprint != config_.params.fingerprint() ||
          (hello.role == PeerRole::kLeaf && !config_.federation_root)) {
        ack.status = AckStatus::kRejected;
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++totals_.rejected_hellos;
        return ack_frame(ack);
      }
      peer.site_id = hello.site_id;
      peer.role = hello.role;
      std::lock_guard<std::mutex> lock(state_mutex_);
      // Leaf shard enforcement: a site the current map assigns to another
      // leaf is re-homed with kWrongShard + the map.
      if (config_.leaf_id != 0 && hello.role == PeerRole::kSite &&
          !shard_map_.empty() &&
          shard_map_.leaf_for(hello.site_id) != config_.leaf_id)
        return wrong_shard_ack_locked(0);
      // Leaf ids and site ids are both keys of sites_: an id already booked
      // under the other role is refused, or the two would share one ledger.
      const auto [booked, first] =
          peer_roles_.try_emplace(hello.site_id, hello.role);
      if (!first && booked->second != hello.role) {
        ack.status = AckStatus::kRejected;
        ++totals_.rejected_hellos;
        return ack_frame(ack);
      }
      peer.hello_ok = true;
      SiteStats& site = sites_[hello.site_id];
      site.site_id = hello.site_id;
      if (!site.connected) {
        site.connected = true;
        ++totals_.connected_sites;
      }
      // A fresh agent resuming above last_epoch+1 (e.g. restart with a new
      // first_epoch) is an epoch gap; account it like any other drop.
      if (hello.first_epoch > site.last_epoch + 1) {
        const std::uint64_t gap = hello.first_epoch - site.last_epoch - 1;
        site.dropped_epochs += gap;
        totals_.dropped_epochs += gap;
        // Advance last_epoch past the gap so the first delta of the new
        // connection does not count the same missing epochs again.
        site.last_epoch = hello.first_epoch - 1;
      }
      // Resume watermark: the highest epoch already durable/merged for this
      // site. The agent prunes spooled epochs at or below it instead of
      // re-shipping them after a collector restart.
      ack.epoch = site.last_epoch;
      // Push the shard map to site agents holding a stale version — map
      // distribution rides the handshake, no side channel needed.
      if (!shard_map_.empty() && hello.role == PeerRole::kSite) {
        ack.map_version = shard_map_.version();
        if (hello.map_version < shard_map_.version())
          ack.map_blob = shard_map_.encode();
      }
      state_cv_.notify_all();
      return ack_frame(ack);
    }
    case MsgType::kSnapshotDelta:
      return handle_delta(peer, payload);
    case MsgType::kHeartbeat:
      Heartbeat::decode(payload);  // validation; liveness is implicit
      // Acked with epoch 0: the site times it as a network RTT probe.
      return ack_frame(Ack{});
    case MsgType::kAck:
      throw WireError("collector: unexpected Ack from site");
    case MsgType::kBye: {
      Bye::decode(payload);
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++totals_.byes;
      state_cv_.notify_all();
      return {};
    }
  }
  throw WireError("collector: unhandled message type");
}

std::string Collector::handle_delta(PeerState& peer,
                                    std::string_view payload) {
  // The blob stays a view into the frame payload: validation, tap, journal
  // and merge all read it in place.
  const SnapshotDeltaView delta = SnapshotDeltaView::decode(payload);
  if (!peer.hello_ok) throw WireError("collector: delta before Hello");
  // A leaf uplink relays deltas for every site its shard owns: the delta
  // carries the *origin* site id, which legitimately differs from the
  // Hello id (the leaf's own). Everywhere else a mismatch is an attack.
  if (delta.site_id != peer.site_id &&
      !(peer.role == PeerRole::kLeaf && config_.federation_root))
    throw WireError("collector: delta site_id does not match Hello");
  if (delta.epoch == 0) throw WireError("collector: delta epoch must be >= 1");

  // Start this epoch's trace. The agent-side stamps arrived on the wire
  // (zero when the sender had none — those cross-process spans simply
  // don't record); every collector-side stage stamps as the delta moves
  // through.
  obs::EpochTrace trace;
  trace.site_id = delta.site_id;
  trace.epoch = delta.epoch;
  trace.updates = delta.updates;
  trace.bytes = delta.sketch_blob.size();
  trace.stamp(obs::TraceStage::kSealed) = delta.seal_unix_ns;
  trace.stamp(obs::TraceStage::kSpooled) = delta.spool_unix_ns;
  trace.stamp(obs::TraceStage::kShipped) = delta.ship_unix_ns;
  trace.stamp(obs::TraceStage::kReceived) = obs::unix_now_ns();
  if (obs::recording())
    obs::TraceMetrics::get().observe_span(
        obs::TraceStage::kReceived, delta.ship_unix_ns,
        trace.stamp(obs::TraceStage::kReceived));

  Ack ack;
  ack.epoch = delta.epoch;

  // Duplicate pre-check before admission: a retransmit costs nothing to
  // ack and must never be shed — post-recovery re-ships have to drain even
  // when the collector is saturated, or reconnect storms wedge on a full
  // budget.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // Reshard enforcement mid-connection: the Hello passed under an older
    // map, but this site has since moved to another leaf. Nothing is
    // merged; the attached map re-homes the agent with its spool intact.
    if (config_.leaf_id != 0 && peer.role == PeerRole::kSite &&
        !shard_map_.empty() &&
        shard_map_.leaf_for(delta.site_id) != config_.leaf_id)
      return wrong_shard_ack_locked(delta.epoch);
    SiteStats& site = sites_[delta.site_id];
    site.site_id = delta.site_id;
    if (already_merged_locked(site, delta.epoch)) {
      // Retransmit after a reconnect — already merged; ack so the site can
      // drop it from its spool. Exactly-once merging from at-least-once
      // delivery.
      ack.status = AckStatus::kDuplicate;
      ++site.duplicate_deltas;
      ++totals_.duplicate_deltas;
      const auto watermark = recovered_watermarks_.find(delta.site_id);
      if (watermark != recovered_watermarks_.end() &&
          delta.epoch <= watermark->second) {
        // A pre-crash epoch re-shipped after our restart: the watermark
        // dedup working as designed. Counted separately as the double-merge
        // oracle.
        ++totals_.post_recovery_duplicates;
      }
      return ack_frame(ack);
    }
  }

  // Admission: charge the frame's bytes against the global in-flight
  // budget and the site's token bucket before the expensive deserialize.
  // A shed is an honest NACK — the epoch stays in the site's spool and
  // returns after retry_after_ms; nothing is merged, nothing is lost.
  const AdmissionDecision decision = admission_.try_admit(
      peer.site_id, payload.size(), std::chrono::steady_clock::now());
  if (!decision.admitted) {
    ack.status = AckStatus::kRetryLater;
    ack.retry_after_ms = decision.retry_after_ms;
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++totals_.shed_deltas;
    totals_.shed_bytes += payload.size();
    ++sites_[delta.site_id].shed_deltas;
    return ack_frame(ack);
  }
  // Released on every exit from here (ack sent, duplicate race, or a
  // throw on a bad blob) — the budget can never leak.
  InflightCharge charge(&admission_, payload.size());
  trace.stamp(obs::TraceStage::kAdmitted) = obs::unix_now_ns();
  if (obs::recording())
    obs::TraceMetrics::get().observe_span(
        obs::TraceStage::kAdmitted, trace.stamp(obs::TraceStage::kReceived),
        trace.stamp(obs::TraceStage::kAdmitted));

  // Validate the whole blob (CRC, canonical form, parameters) before taking
  // the state lock; a corrupt blob must never leave a half-merged global
  // sketch.
  const SketchBlob blob = [&] {
    try {
      return SketchBlob::parse(delta.sketch_blob);
    } catch (const SerializeError& error) {
      throw WireError(std::string("collector: bad sketch blob: ") +
                      error.what());
    }
  }();
  if (blob.params().fingerprint() != config_.params.fingerprint())
    throw WireError("collector: delta sketch parameters mismatch");

  std::lock_guard<std::mutex> lock(state_mutex_);
  SiteStats& site = sites_[delta.site_id];
  if (already_merged_locked(site, delta.epoch)) {
    // Lost the race with another connection of the same site between the
    // pre-check and here (admitted but already merged): dedup, never
    // double-merge. The charge guard releases the admitted bytes.
    ack.status = AckStatus::kDuplicate;
    ++site.duplicate_deltas;
    ++totals_.duplicate_deltas;
    return ack_frame(ack);
  }
  // Leaf uplink tap, before the durability barrier: if the uplink spool
  // cannot take the delta, shed honestly — the agent keeps it spooled and
  // re-ships, so backpressure propagates to the edge instead of dropping
  // relays (the root would see a permanent gap).
  if (config_.delta_tap && !config_.delta_tap(delta, /*replay=*/false)) {
    ack.status = AckStatus::kRetryLater;
    ack.retry_after_ms = config_.tap_retry_after_ms;
    ++totals_.tap_shed_deltas;
    ++site.shed_deltas;
    return ack_frame(ack);
  }
  // Durability barrier: the delta must hit the journal (fsync'd) BEFORE it
  // is merged or acked. If the append fails the connection is dropped
  // without an ack, the agent keeps the epoch spooled, and no state moved.
  if (store_) {
    try {
      std::uint64_t fsync_ns = 0;
      journal_.append(delta.site_id, delta.epoch, delta.updates,
                      delta.sketch_blob, &fsync_ns);
      ++totals_.journal_records;
      fsync_ns_.observe(fsync_ns);
    } catch (const std::runtime_error& error) {
      throw WireError(std::string("collector: journal append failed: ") +
                      error.what());
    }
  }
  // Journaled stamp: with durability off the stage is a pass-through (the
  // stamp keeps the trace complete; the span histogram only records when a
  // journal append actually happened).
  trace.stamp(obs::TraceStage::kJournaled) = obs::unix_now_ns();
  if (store_ && obs::recording())
    obs::TraceMetrics::get().observe_span(
        obs::TraceStage::kJournaled, trace.stamp(obs::TraceStage::kAdmitted),
        trace.stamp(obs::TraceStage::kJournaled));
  merge_delta_locked(delta.site_id, delta.epoch, delta.updates, blob,
                     &trace);
  if (peer.role == PeerRole::kLeaf) ++totals_.relayed_deltas;
  if (obs::recording()) trace_ring_.push(trace);
  if (store_ && ++deltas_since_checkpoint_ >= config_.checkpoint_every) {
    try {
      write_checkpoint_locked();
    } catch (const std::exception&) {
      // A failed checkpoint is not fatal and must not fail the delta (it is
      // already durable in the journal): keep journaling, retry at the next
      // merge.
    }
  }
  state_cv_.notify_all();
  return ack_frame(ack);
}

bool Collector::already_merged_locked(const SiteStats& site,
                                      std::uint64_t epoch) const {
  if (epoch > site.last_epoch) return false;
  if (!config_.federation_root) return true;
  // Root mode: an epoch below the watermark is new iff it fills a recorded
  // gap — after a leaf kill + reshard, the new leaf relays a site's later
  // epochs before the old leaf's drained journal delivers the earlier
  // ones, and both paths may deliver the same epoch.
  const auto gaps = gap_epochs_.find(site.site_id);
  return gaps == gap_epochs_.end() ||
         gaps->second.find(epoch) == gaps->second.end();
}

std::string Collector::wrong_shard_ack_locked(std::uint64_t epoch) {
  Ack ack;
  ack.epoch = epoch;
  ack.status = AckStatus::kWrongShard;
  ack.map_version = shard_map_.version();
  ack.map_blob = shard_map_.encode();
  ++totals_.wrong_shard_acks;
  return ack_frame(ack);
}

void Collector::set_shard_map(const ShardMap& map) {
  if (map.empty())
    throw std::invalid_argument("Collector::set_shard_map: empty map");
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (!shard_map_.empty() && map.version() <= shard_map_.version())
    throw std::invalid_argument(
        "Collector::set_shard_map: version must be strictly newer (a "
        "delayed push must never roll the topology back)");
  shard_map_ = map;
  ++totals_.reshards;
  state_cv_.notify_all();
}

ShardMap Collector::shard_map() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return shard_map_;
}

void Collector::merge_delta_locked(std::uint64_t site_id, std::uint64_t epoch,
                                   std::uint64_t updates,
                                   const SketchBlob& blob,
                                   obs::EpochTrace* trace) {
  SiteStats& site = sites_[site_id];
  site.site_id = site_id;
  peer_roles_.try_emplace(site_id, PeerRole::kSite);
  const bool gap_fill = config_.federation_root && epoch <= site.last_epoch;
  if (gap_fill) {
    // Filling a previously recorded gap (already_merged_locked vetted
    // membership before this call): the watermark does not move.
    auto gaps = gap_epochs_.find(site_id);
    gaps->second.erase(epoch);
    if (gaps->second.empty()) gap_epochs_.erase(gaps);
    ++totals_.gap_fills;
  } else if (epoch > site.last_epoch + 1) {
    const std::uint64_t gap = epoch - site.last_epoch - 1;
    if (config_.federation_root) {
      // Not (yet) a loss: with multiple relay paths the missing epochs may
      // simply be in flight on another leaf. Record them as pending gaps;
      // a bounded set per site keeps a buggy epoch jump from ballooning
      // memory — the oldest epochs beyond the bound are accounted as
      // dropped, and counted apart as gap-ledger overflow.
      auto& gaps = gap_epochs_[site_id];
      const std::uint64_t room =
          kMaxTrackedGapEpochs -
          std::min<std::uint64_t>(kMaxTrackedGapEpochs, gaps.size());
      std::uint64_t first_tracked = site.last_epoch + 1;
      if (gap > room) {
        const std::uint64_t overflow = gap - room;
        site.dropped_epochs += overflow;
        totals_.dropped_epochs += overflow;
        totals_.gap_overflow_epochs += overflow;
        first_tracked += overflow;
      }
      for (std::uint64_t e = first_tracked; e < epoch; ++e) gaps.insert(e);
      if (gaps.empty()) gap_epochs_.erase(site_id);
    } else {
      site.dropped_epochs += gap;
      totals_.dropped_epochs += gap;
    }
  }
  {
    obs::ScopedTimer timer(merge_ns_);
    merged_.merge_sketch(blob);
    if (trace) {
      trace->stamp(obs::TraceStage::kMerged) = obs::unix_now_ns();
      if (obs::recording())
        obs::TraceMetrics::get().observe_span(
            obs::TraceStage::kMerged,
            trace->stamp(obs::TraceStage::kJournaled),
            trace->stamp(obs::TraceStage::kMerged));
    }
    BaselineDetector::Outcome outcome;
    if (config_.run_detection)
      outcome =
          detector_.observe(merged_.top_k(config_.detection_top_k).entries,
                            totals_.deltas_merged + 1);
    if (trace) {
      // This is the moment an alert for this epoch's data exists (or
      // provably does not) — the far edge of the freshness SLO.
      const std::uint64_t verdict_ns = obs::unix_now_ns();
      trace->stamp(obs::TraceStage::kDetectorEvaluated) = verdict_ns;
      trace->alerts_raised = outcome.raised;
      const std::uint64_t seal_ns = trace->stamp(obs::TraceStage::kSealed);
      if (seal_ns != 0) {
        trace->freshness_ns =
            verdict_ns >= seal_ns ? verdict_ns - seal_ns : 0;
        site.last_seal_unix_ns = seal_ns;
        site.last_freshness_ns = trace->freshness_ns;
        if (obs::recording()) {
          auto& tm = obs::TraceMetrics::get();
          tm.observe_span(obs::TraceStage::kDetectorEvaluated,
                          trace->stamp(obs::TraceStage::kMerged),
                          verdict_ns);
          tm.detection_freshness_ns.observe(trace->freshness_ns);
        }
      } else if (obs::recording()) {
        obs::TraceMetrics::get().observe_span(
            obs::TraceStage::kDetectorEvaluated,
            trace->stamp(obs::TraceStage::kMerged), verdict_ns);
      }
    }
  }
  if (epoch > site.last_epoch) site.last_epoch = epoch;
  ++site.epochs_merged;
  site.updates_merged += updates;
  ++totals_.deltas_merged;
}

void Collector::recover() {
  store_ = std::make_unique<CheckpointStore>(config_.state_dir,
                                             config_.checkpoint_retain);
  std::lock_guard<std::mutex> lock(state_mutex_);

  std::uint64_t corrupt_skipped = 0;
  auto loaded = store_->load_latest(&corrupt_skipped);
  totals_.corrupt_generations_skipped = corrupt_skipped;

  bool restored = false;
  std::uint64_t replay_from = 0;
  if (loaded) {
    if (loaded->sketch.params().fingerprint() != config_.params.fingerprint())
      throw std::runtime_error(
          "Collector: checkpoint in state_dir was written with different "
          "sketch parameters");
    generation_ = loaded->generation;
    replay_from = loaded->generation;
    merged_ = TrackingDcs(std::move(loaded->sketch));
    totals_.deltas_merged = loaded->deltas_merged;
    totals_.duplicate_deltas = loaded->duplicate_deltas;
    totals_.dropped_epochs = loaded->dropped_epochs;
    totals_.byes = loaded->byes;
    for (const SiteWatermark& watermark : loaded->sites) {
      SiteStats site;
      site.site_id = watermark.site_id;
      site.last_epoch = watermark.last_epoch;
      site.epochs_merged = watermark.epochs_merged;
      site.updates_merged = watermark.updates_merged;
      site.dropped_epochs = watermark.dropped_epochs;
      site.duplicate_deltas = watermark.duplicate_deltas;
      sites_[watermark.site_id] = site;
    }
    if (!loaded->detector_blob.empty()) {
      BinaryReader reader(loaded->detector_blob);
      detector_ = BaselineDetector::deserialize(reader, config_.detection);
    }
    restored = true;
  }

  // Replay every journal generation at or after the loaded checkpoint, in
  // order. Records at or below a site's watermark were already covered by a
  // newer checkpoint (possible when falling back a generation) — dedup,
  // never double-merge. Replaying through merge_delta_locked re-runs the
  // detector over the exact observe() sequence of the uninterrupted run.
  for (const std::uint64_t gen : store_->journal_generations()) {
    if (gen < replay_from) continue;
    const auto replayed = EpochJournal::replay(store_->journal_path(gen));
    for (const EpochJournal::Record& record : replayed.records) {
      SiteStats& site = sites_[record.site_id];
      site.site_id = record.site_id;
      // Gap-aware in root mode: the journal records gap fills in append
      // order, so replay re-runs the exact out-of-order merge sequence.
      if (already_merged_locked(site, record.epoch)) {
        ++totals_.replay_deduped;
        continue;
      }
      // The record CRC already verified the blob byte-for-byte, and only
      // validated blobs are journaled, so a blob that does not parse was
      // written by an older format version (StaleFormatError, which
      // propagates: the state dir must be drained by the build that wrote
      // it) or is garbage, skipped like a torn tail.
      std::optional<SketchBlob> blob;
      try {
        blob = SketchBlob::parse(record.sketch_blob);
      } catch (const StaleFormatError&) {
        throw;
      } catch (const SerializeError&) {
      }
      if (!blob || blob->params().fingerprint() != config_.params.fingerprint())
        continue;
      merge_delta_locked(record.site_id, record.epoch, record.updates, *blob,
                         /*trace=*/nullptr);
      // Drain mode: re-offer every replayed record to the uplink. Records
      // the root already merged come back as cheap duplicate acks; records
      // lost with the pre-crash uplink spool are exactly the ones this
      // replay re-forwards — the leaf-kill recovery path (the checkpoint
      // gate guarantees the journal still holds everything un-acked).
      // replay=true makes the spool accept past its soft bound: shedding a
      // replayed record would turn recovery into loss. The journal keeps no
      // origin stamps, so a replayed relay carries none.
      if (config_.delta_tap) {
        SnapshotDeltaView replayed;
        replayed.site_id = record.site_id;
        replayed.epoch = record.epoch;
        replayed.updates = record.updates;
        replayed.sketch_blob = record.sketch_blob;
        config_.delta_tap(replayed, /*replay=*/true);
      }
      ++totals_.replayed_epochs;
      restored = true;
    }
  }

  if (restored) ++totals_.recoveries;
  for (const auto& [site_id, site] : sites_) {
    recovered_watermarks_[site_id] = site.last_epoch;
    if (site.last_epoch > 0) peer_roles_.try_emplace(site_id, PeerRole::kSite);
  }

  // Make the recovered state durable immediately: the journal tail folds
  // into a fresh checkpoint generation and a clean journal, so a crash loop
  // can never replay the same journal into divergent states.
  write_checkpoint_locked();
}

CheckpointState Collector::build_checkpoint_state_locked() const {
  CheckpointState state;
  state.sketch = merged_.sketch();
  for (const auto& [site_id, site] : sites_)
    state.sites.push_back({site_id, site.last_epoch, site.epochs_merged,
                           site.updates_merged, site.dropped_epochs,
                           site.duplicate_deltas});
  state.deltas_merged = totals_.deltas_merged;
  state.duplicate_deltas = totals_.duplicate_deltas;
  state.dropped_epochs = totals_.dropped_epochs;
  state.byes = totals_.byes;
  if (config_.run_detection) {
    BinaryWriter writer(state.detector_blob);
    detector_.serialize(writer);
  }
  return state;
}

void Collector::write_checkpoint_locked() {
  if (!store_) return;
  if (config_.checkpoint_gate && !config_.checkpoint_gate()) {
    // Gated (leaf uplink not drained): rotating the journal into a
    // checkpoint now would prune the uplink's only crash-replay source.
    // Keep appending to the current generation's journal — O_APPEND means
    // reopening after recovery just extends it — and retry at the next
    // merge / stop().
    if (!journal_.is_open())
      journal_ = EpochJournal::open(store_->journal_path(generation_),
                                    config_.journal_fsync);
    return;
  }
  obs::ScopedTimer timer(checkpoint_write_ns_);

  CheckpointState state = build_checkpoint_state_locked();
  // Number above every file present — even a corrupt newer generation —
  // so a fallback recovery never overwrites evidence or reuses a name.
  state.generation = std::max(generation_, store_->max_generation()) + 1;

  std::uint64_t fsync_ns = 0;
  const std::uint64_t bytes = store_->write(state, &fsync_ns);
  // Only after the checkpoint is durable: rotate to its journal and drop
  // generations older than the previous one (kept as the corruption
  // fallback).
  journal_.close();
  generation_ = state.generation;
  journal_ = EpochJournal::open(store_->journal_path(generation_),
                                config_.journal_fsync);
  deltas_since_checkpoint_ = 0;
  ++totals_.checkpoints_written;
  totals_.checkpoint_bytes_written += bytes;
  store_->prune_retained(generation_);
  fsync_ns_.observe(fsync_ns);
}

bool Collector::checkpoint_now() {
  if (!store_) return false;
  std::lock_guard<std::mutex> lock(state_mutex_);
  write_checkpoint_locked();
  return true;
}

std::uint64_t Collector::checkpoint_generation() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return generation_;
}

TopKResult Collector::top_k(std::size_t k) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return merged_.top_k(k);
}

std::uint64_t Collector::estimate_frequency(Addr group) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return merged_.estimate_frequency(group);
}

DistinctCountSketch Collector::merged_sketch() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return merged_.sketch();
}

std::vector<Alert> Collector::alerts() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return detector_.alerts();
}

std::size_t Collector::active_alarm_count() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return detector_.active_alarm_count();
}

Collector::Stats Collector::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  Stats out = totals_;
  out.frames = frames_.load(std::memory_order_relaxed);
  out.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  out.deadline_drops = deadline_drops_.load(std::memory_order_relaxed);
  out.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  for (const auto& [site_id, gaps] : gap_epochs_)
    out.pending_gap_epochs += gaps.size();
  return out;
}

void Collector::export_stats(obs::SampleWriter& out) const {
  const Stats s = stats();
  out.counter("dcs_collector_frames_total",
              "Wire frames decoded by sketch-shipping collectors", s.frames);
  out.counter("dcs_collector_frame_errors_total",
              "Malformed frames or payloads rejected (connection dropped)",
              s.frame_errors);
  out.counter("dcs_collector_deltas_total",
              "Per-epoch sketch deltas merged into the global tracker",
              s.deltas_merged);
  out.counter("dcs_collector_duplicate_deltas_total",
              "Retransmitted deltas deduplicated by per-site epoch tracking",
              s.duplicate_deltas);
  out.counter("dcs_collector_dropped_epochs_total",
              "Site epochs lost to spool overflow or agent restarts (gaps in "
              "the per-site epoch sequence)",
              s.dropped_epochs);
  out.counter("dcs_collector_rejected_hellos_total",
              "Handshakes rejected: sketch-parameter mismatch, an id already "
              "booked under the other role, or a leaf uplink at a non-root "
              "collector",
              s.rejected_hellos);
  out.gauge("dcs_collector_connected_sites", "Site agents currently connected",
            static_cast<std::int64_t>(s.connected_sites));
  out.histogram("dcs_collector_merge_latency_ns",
                "Delta merge + detection check latency, ns",
                merge_ns_);
  out.counter("dcs_collector_shed_deltas_total",
              "Deltas NACKed kRetryLater by admission control (re-shipped by "
              "the site later; shed, not lost)",
              s.shed_deltas);
  out.counter("dcs_collector_shed_bytes_total",
              "Payload bytes of deltas shed by admission control",
              s.shed_bytes);
  out.counter("dcs_collector_deadline_drops_total",
              "Connections dropped for holding a partial frame past the frame "
              "deadline (slow-loris defense)",
              s.deadline_drops);
  out.counter("dcs_collector_idle_reaped_total",
              "Connections reaped after the idle timeout with no traffic",
              s.idle_reaped);
  out.gauge("dcs_collector_inflight_bytes",
            "Delta bytes admitted but not yet merged and released (bounded "
            "by the admission budget)",
            static_cast<std::int64_t>(inflight_bytes()));

  out.counter("dcs_checkpoint_generations_total",
              "Checkpoint generations written durably by collectors",
              s.checkpoints_written);
  out.counter("dcs_checkpoint_bytes_written_total",
              "Bytes of checkpoint state written (before journal rotation)",
              s.checkpoint_bytes_written);
  out.counter("dcs_checkpoint_journal_records_total",
              "Delta records appended to the epoch journal (fsync'd before "
              "ack)",
              s.journal_records);
  out.counter("dcs_checkpoint_recoveries_total",
              "Collector starts that restored state from a "
              "checkpoint/journal",
              s.recoveries);
  out.counter("dcs_checkpoint_corrupt_generations_total",
              "Checkpoint generations skipped at recovery (CRC or decode "
              "failure; fell back to an older generation)",
              s.corrupt_generations_skipped);
  out.counter("dcs_checkpoint_replayed_epochs_total",
              "Journaled epoch deltas re-merged during recovery",
              s.replayed_epochs);
  out.counter("dcs_checkpoint_replay_deduped_total",
              "Journaled records skipped during replay (already covered by "
              "the loaded checkpoint's watermarks)",
              s.replay_deduped);
  out.counter("dcs_checkpoint_post_recovery_duplicates_total",
              "Re-shipped pre-crash epochs acked-but-not-merged after a "
              "recovery (watermark dedup; nonzero means agents "
              "retransmitted, zero double-merges)",
              s.post_recovery_duplicates);
  out.histogram("dcs_checkpoint_write_latency_ns",
                "Checkpoint encode + atomic publish latency, ns",
                checkpoint_write_ns_);
  out.histogram("dcs_checkpoint_fsync_latency_ns",
                "fsync latency for journal appends and checkpoint publishes, "
                "ns",
                fsync_ns_);

  out.counter("dcs_collector_wrong_shard_acks_total",
              "Hellos/deltas answered kWrongShard because the site hashes to "
              "another leaf under the current shard map (re-home churn)",
              s.wrong_shard_acks);
  out.counter("dcs_collector_reshards_total",
              "Shard-map version bumps accepted via set_shard_map",
              s.reshards);
  out.counter("dcs_root_gap_fills_total",
              "Out-of-order epochs merged into a previously recorded gap at "
              "the federation root (exactly-once across relay paths)",
              s.gap_fills);
  out.gauge("dcs_root_pending_gap_epochs",
            "Epochs below a site watermark the root is still awaiting "
            "(drains to 0 once every leaf journal is re-forwarded)",
            static_cast<std::int64_t>(s.pending_gap_epochs));
  out.counter("dcs_root_gap_overflow_epochs_total",
              "Epochs of a site jump beyond the root's per-site gap-ledger "
              "bound, booked as dropped without being awaited",
              s.gap_overflow_epochs);
  out.counter("dcs_root_relayed_deltas_total",
              "Deltas merged from role=leaf uplink connections at the root",
              s.relayed_deltas);
  out.counter("dcs_leaf_uplink_shed_total",
              "Deltas NACKed kRetryLater because the leaf uplink spool was "
              "full (backpressure to the agent, not loss)",
              s.tap_shed_deltas);
}

std::size_t Collector::connection_count() const {
  return reactor_ ? reactor_->connection_count() : 0;
}

std::uint64_t Collector::inflight_bytes() const {
  return admission_.inflight_bytes();
}

QueryPublishState Collector::query_publish_state(std::size_t top_k) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  QueryPublishState state;
  state.checkpoint = build_checkpoint_state_locked();
  state.alerts = detector_.alerts();
  state.active_alarms = detector_.active_alarm_count();
  state.top_k = merged_.top_k(top_k);
  state.distinct_pairs = merged_.estimate_distinct_pairs();
  for (const auto& [site_id, site] : sites_)
    state.epoch_watermark = std::max(state.epoch_watermark, site.last_epoch);
  state.deltas_merged = totals_.deltas_merged;
  return state;
}

std::vector<Collector::SiteStats> Collector::site_stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<SiteStats> out;
  out.reserve(sites_.size());
  for (const auto& [id, site] : sites_) out.push_back(site);
  return out;
}

bool Collector::wait_for_deltas(std::uint64_t count, int timeout_ms) const {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return totals_.deltas_merged >= count; });
}

bool Collector::wait_for_byes(std::uint64_t count, int timeout_ms) const {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return totals_.byes >= count; });
}

}  // namespace dcs::service

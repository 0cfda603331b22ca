// Fleet end-to-end benchmark: one workload per process.
//
//   e2e_fleet --workload fleet_steady --seed 1 --seconds 10
//             [--trace 0|1] [--out DIR] [--run-id ID]
//
// One process builds the real deployment (fleet.hpp), offers seeded traffic
// from ONE generator thread — the single producer for all four agents — and
// watches the root only through its public calls (wait_for_deltas,
// site_stats, alerts, merged_sketch, query_publish_state). A run is:
//
//   setup x 21     (median is setup_s; the last fleet is kept)
//   warm-up 3 s    (excluded; staggers the sites' epoch boundaries once;
//                   half the window when the window is under 6 s)
//   window         (--seconds; every end-to-end sample comes from here)
//   drain <= 10 s  (partial epochs sealed; root must merge every epoch)
//   oracle         (root sketch + top-10 vs a single-sketch reference)
//   replay         (--trace 1 only; see replay.hpp)
//
// A verdict for epoch e of site s exists once the root's site_stats() shows
// last_epoch >= e: merge_delta_locked raises that watermark only after the
// detector ran over the merged state. Its latency runs from the due time of
// the packet whose update completed the epoch (open loop) or from the
// sealing ingest call (closed loop).
//
// With --trace 1, odd seconds of the window record bench-side spans (even
// seconds stay untraced, so the overhead is the difference between the two
// halves of one run) and the observer also polls the first-hop collectors.
//
// Prints `workload metric value unit` per metric, then one JSON line
// {"correct", "attempted", "failed", "e2e": {...}, "layer": {...}} that
// run.py reads. Exits 1 when the oracle, the epoch ledger or the detector
// check fails, and then reports no timing.
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_report.hpp"
#include "common/options.hpp"
#include "fleet.hpp"
#include "query/engine.hpp"
#include "query/publisher.hpp"
#include "replay.hpp"
#include "sketch/tracking_dcs.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using namespace dcs;
using namespace dcs::service;

constexpr std::size_t kMaxEpochs = 1 << 16;
constexpr std::uint64_t kSliceNs = 1'000'000'000;
constexpr std::size_t kBatchCalls = 256;
/// Set-ups per run; setup_s is their median. The fleets stay up together,
/// so this also sets how many idle fleets the process holds for a moment.
constexpr int kSetups = 21;
constexpr double kWarmupS = 3.0;
constexpr int kDrainMs = 10'000;
constexpr std::uint64_t kPublishEveryNs = 250'000'000;
constexpr std::uint64_t kRefreshEveryNs = 200'000'000;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Nearest-rank percentile; +inf samples (never completed) sort last.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return kNaN;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// The process's lifetime peak resident set (VmHWM), in bytes.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stoull(line.substr(6)) * 1024;
  return 0;
}

std::string filesystem_of(const std::string& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xef53ul: return "ext4";
    case 0x794c7630ul: return "overlay";
    case 0x58465342ul: return "xfs";
    case 0x9123683eul: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

std::string serialize(const DistinctCountSketch& sketch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

/// Epoch start times, written by the generator and read live by the
/// observer and the reader (staleness), hence atomics in a fixed array.
class EpochBook {
 public:
  EpochBook() : start_ns_(kSites * kMaxEpochs) {}

  void sealed(std::size_t site, std::uint64_t epoch, std::uint64_t start_ns) {
    if (epoch >= kMaxEpochs)
      throw std::runtime_error("e2e: more epochs than the book holds");
    start_ns_[site * kMaxEpochs + epoch].store(start_ns,
                                               std::memory_order_relaxed);
    sealed_[site].store(epoch, std::memory_order_release);
  }
  std::uint64_t sealed(std::size_t site) const {
    return sealed_[site].load(std::memory_order_acquire);
  }
  std::uint64_t start(std::size_t site, std::uint64_t epoch) const {
    return start_ns_[site * kMaxEpochs + epoch].load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<std::uint64_t>> start_ns_;
  std::array<std::atomic<std::uint64_t>, kSites> sealed_{};
};

struct SiteState {
  std::uint64_t fill = 0;      ///< Updates in the open epoch.
  std::uint64_t epoch = 1;     ///< Open epoch number (agents start at 1).
  std::uint64_t ingested = 0;  ///< Updates offered so far.
  bool staggered = false;
  std::vector<std::uint64_t> seal_points;  ///< `ingested` at each seal.
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bench::Direction dir;
};

class Run {
 public:
  Run(const WorkloadSpec& spec, RunShape shape, bool traced,
      std::string out_dir, std::string run_id)
      : spec_(spec),
        shape_(shape),
        traced_(traced),
        out_dir_(std::move(out_dir)),
        run_id_(std::move(run_id)),
        state_dir_(out_dir_ + "/state-" + std::to_string(getpid())) {
    for (std::size_t s = 0; s < kSites; ++s)
      ingest_spans_.emplace_back(Span{.name = "agent.ingest_ns_per_update",
                                      .tier = "agent",
                                      .site = static_cast<int>(s)});
  }

  int execute();

 private:
  bool traced_at(std::uint64_t now) const {
    return traced_ && now >= t_w0_ && now < t_w1_ &&
           ((now - t_w0_) / kSliceNs) % 2 == 1;
  }
  /// 0 = warm-up/drain, 1 = untraced window second, 2 = traced second.
  int group_of(std::uint64_t t) const {
    if (t < t_w0_ || t >= t_w1_) return 0;
    return traced_at(t) ? 2 : 1;
  }
  void sample_rss() {
    peak_rss_ = std::max(peak_rss_, rss_bytes());
  }

  void set_up();
  void generate();
  void generate_open_loop();
  void generate_closed_loop();
  void offer(std::size_t site, std::span<const FlowUpdate> updates,
             std::span<const std::uint64_t> due, bool traced);
  void record_seal(std::size_t site, std::uint64_t start_ns);
  void sample_merged(std::uint64_t now);
  void drain();
  void observe_loop();
  void reader_loop();
  SiteStream stream_of(std::size_t site) const;
  void check_oracle();
  void collect_counters();
  void replay();
  std::vector<Metric> end_to_end_metrics();
  SpanLog epoch_spans(const std::function<bool(std::uint64_t)>& keep) const;
  std::vector<Metric> layer_metrics();
  int report();

  const WorkloadSpec& spec_;
  const RunShape shape_;
  const bool traced_;
  const std::string out_dir_;
  const std::string run_id_;
  const std::string state_dir_;

  // Inputs.
  PacketTraffic traffic_;
  std::unique_ptr<ZipfPool> pool_;

  // Deployment.
  std::unique_ptr<Fleet> fleet_;
  std::vector<double> setup_s_;
  std::uint64_t rss_before_ = 0;
  std::uint64_t hwm_before_ = 0;
  std::uint64_t peak_rss_ = 0;

  // Clock (steady ns): run start, window start/end.
  std::uint64_t t0_ = 0, t_w0_ = 0, t_w1_ = 0;

  // Generator state.
  std::array<SiteState, kSites> sites_;
  EpochBook book_;
  /// Sized (and touched) before setup, so recording lags moves no RSS.
  std::vector<std::uint64_t> gen_lag_ns_;
  std::size_t gen_lags_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged_samples_;
  std::size_t next_boundary_ = 0;
  std::vector<std::uint64_t> boundaries_;
  std::uint64_t spool_max_ = 0;
  SpanLog gen_spans_;
  SpanBatcher exporter_spans_{
      Span{.name = "net.exporter_ns_per_packet", .tier = "agent"}};
  std::vector<SpanBatcher> ingest_spans_;

  // Observer state (observer thread only until joined).
  std::atomic<bool> stop_observer_{false};
  std::vector<std::uint64_t> verdict_ns_;       // [site * kMaxEpochs + epoch]
  std::vector<std::uint64_t> leaf_verdict_ns_;  // traced seconds only
  std::map<Addr, std::uint64_t> first_raised_ns_;
  std::uint64_t inflight_max_ = 0;
  std::uint64_t uplink_spool_max_ = 0;

  // Reader state (reader thread only until joined).
  std::atomic<bool> stop_reader_{false};
  std::vector<double> staleness_ms_;
  SpanLog reader_spans_;

  // Results.
  bool drained_ = false;
  std::uint64_t sealed_total_ = 0;
  std::uint64_t lost_ = 0;
  int oracle_mismatches_ = 0;
  std::size_t missed_attacks_ = 0;
  std::size_t false_alerts_ = 0;
  std::uint64_t alerts_raised_ = 0;
  std::uint64_t agent_retries_ = 0, agent_dropped_ = 0;
  std::uint64_t sheds_ = 0, duplicates_ = 0, frame_errors_ = 0;
  std::uint64_t uplink_retries_ = 0;
  ReplayResult replay_;
  SpanLog checkpoint_spans_;
  SpanLog epoch_spans_;
};

void Run::set_up() {
  rss_before_ = rss_bytes();
  hwm_before_ = peak_rss_bytes();
  peak_rss_ = rss_before_;
  // Every fleet stays up, idle, until all are measured: stopping one waits
  // out an accept poll (~250 ms) and its teardown disturbs the next
  // set-up. Then all but the last go down together.
  std::vector<std::unique_ptr<Fleet>> fleets;
  for (int i = 0; i < kSetups; ++i) {
    fleets.push_back(
        std::make_unique<Fleet>(spec_.federated, spec_.epoch_updates));
    setup_s_.push_back(fleets.back()->setup_seconds());
  }
  sample_rss();
  fleet_ = std::move(fleets.back());
  fleets.pop_back();
  std::vector<std::thread> stopping;
  for (auto& fleet : fleets)
    stopping.emplace_back([&fleet] { fleet.reset(); });
  for (auto& thread : stopping) thread.join();
}

void Run::record_seal(std::size_t site, std::uint64_t start_ns) {
  SiteState& st = sites_[site];
  st.seal_points.push_back(st.ingested);
  book_.sealed(site, st.epoch, start_ns);
  ++st.epoch;
  st.fill = 0;
}

/// Offer `updates` to one site in order. Non-sealing calls are timed per
/// run of up to kBatchCalls; the sealing call is timed on its own.
void Run::offer(std::size_t site, std::span<const FlowUpdate> updates,
                std::span<const std::uint64_t> due, bool traced) {
  SiteAgent& agent = fleet_->agent(site);
  SiteState& st = sites_[site];
  const std::uint64_t epoch_updates = spec_.epoch_updates;
  std::size_t k = 0;
  while (k < updates.size()) {
    // Warm-up stagger: site s seals its first epoch early, at s/4 of an
    // epoch, so the four sites do not seal in lockstep.
    const std::uint64_t stagger_at =
        !st.staggered && site > 0 ? site * epoch_updates / kSites : 0;
    std::uint64_t run = std::min<std::uint64_t>(
        {updates.size() - k, epoch_updates - st.fill - 1, kBatchCalls});
    if (stagger_at > st.fill) run = std::min(run, stagger_at - st.fill);
    if (run > 0) {
      const std::uint64_t start = traced ? now_ns() : 0;
      for (std::size_t j = 0; j < run; ++j) agent.ingest(updates[k + j]);
      if (traced)
        ingest_spans_[site].add(gen_spans_, st.epoch, start, now_ns(),
                                static_cast<std::uint32_t>(run));
      st.fill += run;
      st.ingested += run;
      k += run;
      if (st.fill == stagger_at) {
        agent.seal_epoch();
        record_seal(site, now_ns());
        st.staggered = true;
      }
      continue;
    }
    const std::uint64_t start = now_ns();
    agent.ingest(updates[k]);
    const std::uint64_t end = now_ns();
    ++st.ingested;
    if (traced)
      gen_spans_.push_back({.name = "agent.seal_ms", .tier = "agent",
                            .site = static_cast<int>(site), .epoch = st.epoch,
                            .start_ns = start, .end_ns = end});
    record_seal(site, due.empty() ? start : due[k]);
    spool_max_ = std::max<std::uint64_t>(spool_max_, agent.stats().spool_depth);
    ++k;
  }
}

/// At each window-second boundary passed by `now`, record the updates the
/// root has merged so far (throughput, overall and per second).
void Run::sample_merged(std::uint64_t now) {
  if (next_boundary_ == boundaries_.size() ||
      now < boundaries_[next_boundary_])
    return;
  while (next_boundary_ < boundaries_.size() &&
         now >= boundaries_[next_boundary_])
    ++next_boundary_;
  std::uint64_t merged = 0;
  for (const auto& site : fleet_->root().site_stats())
    if (site.site_id >= 1 && site.site_id <= kSites)
      merged += site.updates_merged;
  merged_samples_.push_back({now, merged});
}

void Run::generate() {
  if (spec_.open_loop)
    generate_open_loop();
  else
    generate_closed_loop();
  exporter_spans_.flush(gen_spans_);
  for (SpanBatcher& batcher : ingest_spans_) batcher.flush(gen_spans_);
}

void Run::generate_open_loop() {
  const std::vector<Packet>& packets = traffic_.packets;
  std::vector<FlowUpdateExporter> exporters;
  for (std::size_t s = 0; s < kSites; ++s) exporters.push_back(make_exporter());
  std::array<std::vector<FlowUpdate>, kSites> burst;
  std::array<std::vector<std::uint64_t>, kSites> burst_due;
  std::size_t site = 0;
  std::uint64_t due = 0;
  const FlowUpdateExporter::UpdateSink sink = [&](const FlowUpdate& update) {
    burst[site].push_back(update);
    burst_due[site].push_back(due);
  };
  const auto due_of = [&](std::size_t i) {
    return t0_ + packets[i].timestamp * 1000;
  };

  std::size_t i = 0;
  for (;;) {
    std::uint64_t now = now_ns();
    sample_merged(now);
    if (now >= t_w1_) break;
    std::uint64_t wake = t_w1_;
    if (next_boundary_ < boundaries_.size())
      wake = std::min(wake, boundaries_[next_boundary_]);
    if (i < packets.size()) wake = std::min(wake, due_of(i));
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
      continue;
    }
    // Every packet due by now, up to kBatchCalls, through its site's probe;
    // then each site's updates, in order, into its agent.
    const bool traced = traced_at(now);
    const std::size_t first = i;
    while (i < packets.size() && i - first < kBatchCalls &&
           (due = due_of(i)) <= now) {
      if (due >= t_w0_ && gen_lags_ < gen_lag_ns_.size())
        gen_lag_ns_[gen_lags_++] = now - due;
      site = traffic_.site[i];
      exporters[site].observe(packets[i], sink);
      ++i;
    }
    if (traced)
      exporter_spans_.add(gen_spans_, 0, now, now_ns(),
                          static_cast<std::uint32_t>(i - first));
    for (std::size_t s = 0; s < kSites; ++s) {
      offer(s, burst[s], burst_due[s], traced);
      burst[s].clear();
      burst_due[s].clear();
    }
  }
}

void Run::generate_closed_loop() {
  std::vector<FlowUpdate> batch;
  for (;;) {
    const std::uint64_t now = now_ns();
    sample_merged(now);
    if (now >= t_w1_) break;
    const bool traced = traced_at(now);
    bool offered = false;
    for (std::size_t s = 0; s < kSites; ++s) {
      // Closed loop: a site waits while two sealed epochs are unacked.
      if (fleet_->agent(s).stats().spool_depth >= 2) continue;
      pool_->fill(s, sites_[s].ingested, kBatchCalls, batch);
      offer(s, batch, {}, traced);
      offered = true;
    }
    if (!offered) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void Run::drain() {
  for (std::size_t s = 0; s < kSites; ++s) {
    if (sites_[s].fill == 0) continue;
    fleet_->agent(s).seal_epoch();
    record_seal(s, now_ns());
  }
  for (std::size_t s = 0; s < kSites; ++s)
    sealed_total_ += book_.sealed(s);
  drained_ = fleet_->root().wait_for_deltas(sealed_total_, kDrainMs);
}

void Run::observe_loop() {
  Collector& root = fleet_->root();
  std::array<std::uint64_t, kSites> last{};
  std::map<const Collector*, std::array<std::uint64_t, kSites>> hop_last;
  std::uint64_t merged = 0;
  std::size_t alerts_seen = 0;
  std::uint64_t last_rss_ns = 0;
  const auto record = [](const std::vector<Collector::SiteStats>& stats,
                         std::array<std::uint64_t, kSites>& seen,
                         std::vector<std::uint64_t>& out, std::uint64_t now) {
    std::uint64_t deltas = 0;
    for (const auto& site : stats) {
      deltas += site.epochs_merged;
      if (site.site_id < 1 || site.site_id > kSites) continue;
      const std::size_t s = site.site_id - 1;
      for (std::uint64_t e = seen[s] + 1;
           e <= site.last_epoch && e < kMaxEpochs; ++e)
        out[s * kMaxEpochs + e] = now;
      seen[s] = std::max(seen[s], site.last_epoch);
    }
    return deltas;
  };
  for (;;) {
    const bool stopping = stop_observer_.load(std::memory_order_acquire);
    const bool traced = traced_at(now_ns());
    root.wait_for_deltas(merged + 1, traced ? 5 : 20);
    const std::uint64_t now = now_ns();
    merged = record(root.site_stats(), last, verdict_ns_, now);
    if (spec_.floods) {
      const std::vector<Alert> alerts = root.alerts();
      for (; alerts_seen < alerts.size(); ++alerts_seen)
        if (alerts[alerts_seen].kind == Alert::Kind::kRaised)
          first_raised_ns_.try_emplace(alerts[alerts_seen].subject, now);
    }
    if (traced) {
      // Leaf verdicts and shipping-path gauges, polled at each wake.
      for (Collector* hop : fleet_->first_hops()) {
        if (spec_.federated)
          record(hop->site_stats(), hop_last[hop], leaf_verdict_ns_, now_ns());
        inflight_max_ = std::max(inflight_max_, hop->inflight_bytes());
      }
      for (const auto& leaf : fleet_->leaves())
        uplink_spool_max_ = std::max<std::uint64_t>(
            uplink_spool_max_, leaf->uplink().stats().spool_depth);
    }
    if (now - last_rss_ns >= 10'000'000) {
      sample_rss();
      last_rss_ns = now;
    }
    if (stopping) break;
  }
}

void Run::reader_loop() {
  const std::string dir = state_dir_ + "/publish";
  query::SnapshotPublisherConfig publisher_config;
  publisher_config.publish_dir = dir;
  publisher_config.publish_every_ms =
      static_cast<int>(kPublishEveryNs / 1'000'000);
  Collector& root = fleet_->root();
  query::SnapshotPublisher publisher(
      publisher_config,
      [&root](std::size_t k) { return root.query_publish_state(k); });
  query::QueryEngineConfig engine_config;
  engine_config.publish_dir = dir;
  query::QueryEngine engine(engine_config);

  std::uint64_t next_publish = now_ns();
  std::uint64_t next_refresh = next_publish;
  std::uint64_t reads = 0;
  while (!stop_reader_.load(std::memory_order_acquire)) {
    std::uint64_t now = now_ns();
    bool traced = traced_at(now);
    if (now >= next_publish) {
      publisher.publish_now();
      const std::uint64_t end = now_ns();
      if (traced)
        reader_spans_.push_back({.name = "query.publish_ms", .tier = "root",
                                 .start_ns = now, .end_ns = end});
      next_publish = std::max(next_publish + kPublishEveryNs, end);
      now = end;
      traced = traced_at(now);
    }
    if (now >= next_refresh) {
      engine.refresh();
      const std::uint64_t end = now_ns();
      if (traced)
        reader_spans_.push_back({.name = "query.refresh_ms", .tier = "query",
                                 .start_ns = now, .end_ns = end});
      next_refresh = std::max(next_refresh + kRefreshEveryNs, end);
      now = end;
      traced = traced_at(now);
    }
    if (const auto snapshot = engine.newest()) {
      const TopKResult top = snapshot->tracking.top_k(10);
      for (const TopKEntry& entry : top.entries)
        snapshot->tracking.estimate_frequency(entry.group);
      const std::uint64_t end = now_ns();
      if (traced)
        reader_spans_.push_back({.name = "query.read_us", .tier = "query",
                                 .epoch = ++reads, .start_ns = now,
                                 .end_ns = end});
      // Staleness: how old the oldest site's newest served epoch is.
      std::uint64_t oldest = 0;
      bool complete = snapshot->snapshot.checkpoint.sites.size() >= kSites;
      for (const auto& site : snapshot->snapshot.checkpoint.sites) {
        if (site.site_id < 1 || site.site_id > kSites) continue;
        if (site.last_epoch == 0) complete = false;
        const std::uint64_t start =
            book_.start(site.site_id - 1, site.last_epoch);
        if (oldest == 0 || start < oldest) oldest = start;
      }
      if (complete && oldest != 0 && end >= t_w0_ && end < t_w1_)
        staleness_ms_.push_back(static_cast<double>(end - oldest) / 1e6);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

SiteStream Run::stream_of(std::size_t site) const {
  return spec_.open_loop ? SiteStream(traffic_, site)
                         : SiteStream(*pool_, site);
}

void Run::check_oracle() {
  // Per site, off the clock and in parallel: a reference sketch over every
  // update the site was offered; linearity makes their merge the
  // single-sketch reference for the whole fleet.
  std::vector<DistinctCountSketch> references(kSites);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSites; ++s) {
    threads.emplace_back([&, s] {
      SiteStream stream = stream_of(s);
      std::vector<FlowUpdate> chunk;
      std::uint64_t left = sites_[s].ingested;
      while (left > 0) {
        const std::size_t got = stream.next(
            chunk,
            static_cast<std::size_t>(std::min<std::uint64_t>(left, 1 << 16)));
        if (got == 0) break;
        references[s].update_batch(chunk);
        left -= got;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  DistinctCountSketch reference;
  for (const auto& site_reference : references) reference.merge(site_reference);

  Collector& root = fleet_->root();
  if (serialize(root.merged_sketch()) != serialize(reference))
    ++oracle_mismatches_;
  const TopKResult got = root.top_k(10);
  const TopKResult want = TrackingDcs(reference).top_k(10);
  if (got.entries != want.entries) ++oracle_mismatches_;
}

void Run::collect_counters() {
  std::map<std::uint64_t, std::uint64_t> merged;  // root epochs per site
  for (const auto& site : fleet_->root().site_stats())
    merged[site.site_id] = site.epochs_merged;
  for (std::size_t s = 0; s < kSites; ++s) {
    const std::uint64_t sealed = book_.sealed(s);
    const std::uint64_t got = merged[Fleet::site_id(s)];
    lost_ += sealed > got ? sealed - got : 0;
    const auto agent = fleet_->agent(s).stats();
    agent_retries_ += agent.nacks + agent.reconnects;
    agent_dropped_ += agent.epochs_dropped;
  }
  std::vector<Collector*> collectors = fleet_->first_hops();
  if (spec_.federated) collectors.push_back(&fleet_->root());
  for (const Collector* collector : collectors) {
    const auto stats = collector->stats();
    sheds_ += stats.shed_deltas + stats.tap_shed_deltas;
    duplicates_ += stats.duplicate_deltas;
    frame_errors_ += stats.frame_errors;
  }
  for (const auto& leaf : fleet_->leaves()) {
    const auto stats = leaf->uplink().stats();
    uplink_retries_ += stats.nacks + stats.reconnects;
  }

  // Detection: every victim raised, nothing else raised (packet workloads).
  std::set<Addr> raised;
  for (const Alert& alert : fleet_->root().alerts())
    if (alert.kind == Alert::Kind::kRaised) {
      raised.insert(alert.subject);
      ++alerts_raised_;
    }
  std::set<Addr> victims;
  for (const Flood& flood : traffic_.floods) victims.insert(flood.victim);
  for (const Addr victim : victims)
    missed_attacks_ += raised.count(victim) == 0;
  for (const Addr subject : raised)
    false_alerts_ += victims.count(subject) == 0;
}

void Run::replay() {
  std::vector<SiteStream> streams;
  std::vector<std::vector<std::uint64_t>> seal_points;
  ReplayInput input;
  input.federated = spec_.federated;
  for (std::size_t s = 0; s < kSites; ++s) {
    streams.push_back(stream_of(s));
    seal_points.push_back(sites_[s].seal_points);
    input.first_hop.push_back(&fleet_->first_hop(s));
  }
  input.streams = &streams;
  input.seal_points = &seal_points;
  input.root = &fleet_->root();
  input.state_dir = state_dir_ + "/replay";
  replay_ = run_replay(input);
  checkpoint_spans_ =
      time_checkpoints(fleet_->root(), state_dir_ + "/checkpoint", 5);
}

/// Runs `body` on a thread; the destructor asks it to stop and joins it,
/// so an exception on the generator's path cannot leave it running. An
/// exception inside `body` is kept and rethrown by finish().
class Worker {
 public:
  template <typename F>
  explicit Worker(std::atomic<bool>& stop, F&& body) : stop_(stop) {
    thread_ = std::thread([this, body = std::forward<F>(body)] {
      try {
        body();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }
  ~Worker() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void finish() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::atomic<bool>& stop_;
  std::exception_ptr error_;
  std::thread thread_;
};

int Run::execute() {
  // Wall time of each phase, printed to stderr: the time budget of a run.
  std::vector<std::pair<const char*, std::uint64_t>> phases{{"", now_ns()}};
  const auto phase = [&](const char* name) {
    phases.push_back({name, now_ns()});
  };
  std::filesystem::create_directories(state_dir_);
  if (spec_.open_loop) {
    traffic_ = make_packet_traffic(spec_, shape_);
    const std::uint64_t window_start_us =
        static_cast<std::uint64_t>(shape_.warmup_s * 1e6);
    gen_lag_ns_.assign(static_cast<std::size_t>(std::count_if(
                           traffic_.packets.begin(), traffic_.packets.end(),
                           [&](const Packet& packet) {
                             return packet.timestamp >= window_start_us;
                           })),
                       0);
  } else {
    pool_ = std::make_unique<ZipfPool>(shape_.seed);
  }
  verdict_ns_.assign(kSites * kMaxEpochs, 0);
  leaf_verdict_ns_.assign(kSites * kMaxEpochs, 0);
  phase("inputs");

  set_up();
  phase("setup");
  t0_ = now_ns();
  t_w0_ = t0_ + static_cast<std::uint64_t>(shape_.warmup_s * 1e9);
  t_w1_ = t_w0_ + static_cast<std::uint64_t>(shape_.window_s * 1e9);
  for (std::uint64_t t = t_w0_; t < t_w1_; t += kSliceNs)
    boundaries_.push_back(t);
  boundaries_.push_back(t_w1_);
  {
    Worker observer(stop_observer_, [this] { observe_loop(); });
    {
      std::unique_ptr<Worker> reader;
      if (spec_.reader)
        reader = std::make_unique<Worker>(stop_reader_,
                                          [this] { reader_loop(); });
      generate();
      if (reader) reader->finish();
    }
    phase("warmup+window");
    drain();
    observer.finish();
    phase("drain");
  }
  // The kernel's high-water mark is exact, but only once the run has
  // outgrown input generation; until then the 10 ms samples stand in.
  if (const std::uint64_t hwm = peak_rss_bytes(); hwm > hwm_before_)
    peak_rss_ = std::max(peak_rss_, hwm);

  collect_counters();
  check_oracle();
  phase("oracle");
  if (traced_) {
    replay();
    phase("replay");
  }
  fleet_.reset();
  std::filesystem::remove_all(state_dir_);
  phase("teardown");
  std::fprintf(stderr, "e2e: %s phases (s):", spec_.name);
  for (std::size_t i = 1; i < phases.size(); ++i)
    std::fprintf(stderr, " %s %.2f", phases[i].first,
                 static_cast<double>(phases[i].second - phases[i - 1].second) /
                     1e9);
  std::fprintf(stderr, "\n");
  return report();
}

// --- reporting --------------------------------------------------------------

std::vector<double> latencies_ms(
    const EpochBook& book, const std::vector<std::uint64_t>& end_ns,
    const std::array<SiteState, kSites>& sites,
    const std::function<bool(std::uint64_t)>& keep) {
  std::vector<double> out;
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::uint64_t e = 1; e < sites[s].epoch; ++e) {
      const std::uint64_t start = book.start(s, e);
      if (!keep(start)) continue;
      const std::uint64_t end = end_ns[s * kMaxEpochs + e];
      out.push_back(end == 0 ? kInf : static_cast<double>(end - start) / 1e6);
    }
  }
  return out;
}

std::vector<Metric> Run::end_to_end_metrics() {
  using bench::Direction;
  std::vector<Metric> m;
  const auto in_window = [&](std::uint64_t t) { return group_of(t) != 0; };
  const std::vector<double> verdict =
      latencies_ms(book_, verdict_ns_, sites_, in_window);
  double merged_per_s = kNaN;
  if (merged_samples_.size() >= 2)
    merged_per_s =
        static_cast<double>(merged_samples_.back().second -
                            merged_samples_.front().second) /
        (static_cast<double>(merged_samples_.back().first -
                             merged_samples_.front().first) /
         1e9);
  m.push_back({"setup_s", percentile(setup_s_, 0.5), "s",
               Direction::kLowerIsBetter});
  m.push_back({"verdict_p50_ms", percentile(verdict, 0.50), "ms",
               Direction::kLowerIsBetter});
  m.push_back({"verdict_p95_ms", percentile(verdict, 0.95), "ms",
               Direction::kLowerIsBetter});
  m.push_back({"verdict_p99_ms", percentile(verdict, 0.99), "ms",
               Direction::kLowerIsBetter});
  m.push_back({"merged_updates_per_s", merged_per_s, "1/s",
               Direction::kHigherIsBetter});
  if (spec_.open_loop) {
    std::vector<double> lag(gen_lag_ns_.begin(),
                            gen_lag_ns_.begin() + gen_lags_);
    m.push_back({"gen_lag_p99_ms", percentile(lag, 0.99) / 1e6, "ms",
                 Direction::kLowerIsBetter});
  }
  if (spec_.floods) {
    std::vector<double> to_alert;
    for (const Flood& flood : traffic_.floods) {
      const auto it = first_raised_ns_.find(flood.victim);
      const std::uint64_t start = t0_ + flood.start_us * 1000;
      to_alert.push_back(it == first_raised_ns_.end() || it->second < start
                             ? kInf
                             : static_cast<double>(it->second - start) / 1e6);
    }
    m.push_back({"time_to_alert_p50_ms", percentile(to_alert, 0.5), "ms",
                 Direction::kLowerIsBetter});
  }
  if (spec_.open_loop) {
    m.push_back({"missed_attacks", static_cast<double>(missed_attacks_),
                 "count", Direction::kLowerIsBetter});
    m.push_back({"false_alerts", static_cast<double>(false_alerts_), "count",
                 Direction::kLowerIsBetter});
  }
  if (spec_.reader) {
    m.push_back({"staleness_p50_ms", percentile(staleness_ms_, 0.5), "ms",
                 Direction::kLowerIsBetter});
    m.push_back({"staleness_p99_ms", percentile(staleness_ms_, 0.99), "ms",
                 Direction::kLowerIsBetter});
  }
  m.push_back({"epochs_lost", static_cast<double>(lost_), "count",
               Direction::kLowerIsBetter});
  m.push_back({"oracle_mismatches", static_cast<double>(oracle_mismatches_),
               "count", Direction::kLowerIsBetter});
  m.push_back({"peak_rss_mb",
               static_cast<double>(peak_rss_ - rss_before_) / (1 << 20), "MB",
               Direction::kLowerIsBetter});
  return m;
}

/// p50 of the self times of spans named `name` (and run on `tier`, if set).
double self_p50(const SpanLog& spans, const std::vector<double>& self,
                const char* name, const char* tier = nullptr,
                double scale = 1.0) {
  std::vector<double> values;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (std::string_view(spans[i].name) == name &&
        (!tier || std::string_view(spans[i].tier) == tier))
      values.push_back(self[i] * scale);
  return percentile(values, 0.5);
}

/// One trace per epoch sealed in a traced second: the verdict span, split
/// into the first hop's verdict and (federated) the relay to the root.
SpanLog Run::epoch_spans(const std::function<bool(std::uint64_t)>& keep) const {
  SpanLog spans;
  const char* first_tier = spec_.federated ? "leaf" : "collector";
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::uint64_t e = 1; e < sites_[s].epoch; ++e) {
      const std::uint64_t start = book_.start(s, e);
      const std::uint64_t root = verdict_ns_[s * kMaxEpochs + e];
      // Without federation the first hop is the root itself.
      const std::uint64_t hop =
          spec_.federated ? leaf_verdict_ns_[s * kMaxEpochs + e] : root;
      if (!keep(start) || root == 0) continue;
      const int site = static_cast<int>(s);
      spans.push_back({.name = "verdict_p50_ms", .tier = "root", .site = site,
                       .epoch = e, .start_ns = start, .end_ns = root});
      if (hop == 0 || hop > root) continue;
      spans.push_back({.name = "collector.leaf_verdict_p50_ms",
                       .parent = "verdict_p50_ms", .tier = first_tier,
                       .site = site, .epoch = e, .start_ns = start,
                       .end_ns = hop});
      if (spec_.federated)
        spans.push_back({.name = "federation.relay_p50_ms",
                         .parent = "verdict_p50_ms", .tier = "root",
                         .site = site, .epoch = e, .start_ns = hop,
                         .end_ns = root});
    }
  }
  return spans;
}

std::vector<Metric> Run::layer_metrics() {
  using bench::Direction;
  const Direction info = Direction::kInfo;
  std::vector<Metric> m;
  const auto per_call_ns = [&](const char* name) {
    double ns = 0, calls = 0;
    for (const Span& span : gen_spans_)
      if (std::string_view(span.name) == name) {
        ns += static_cast<double>(span.busy());
        calls += span.calls;
      }
    return calls > 0 ? ns / calls : kNaN;
  };
  std::vector<double> seals;
  for (const Span& span : gen_spans_)
    if (std::string_view(span.name) == "agent.seal_ms")
      seals.push_back(span.ms());

  const SpanLog& replay = replay_.spans;
  const std::vector<double> self = self_ms(replay);
  const char* first_tier = spec_.federated ? "leaf" : "collector";

  // Verdicts by second: traced (odd) vs untraced (even) seconds.
  const auto traced_group = [&](std::uint64_t t) { return group_of(t) == 2; };
  const auto plain_group = [&](std::uint64_t t) { return group_of(t) == 1; };
  const double verdict_traced = percentile(
      latencies_ms(book_, verdict_ns_, sites_, traced_group), 0.5);
  const double verdict_plain = percentile(
      latencies_ms(book_, verdict_ns_, sites_, plain_group), 0.5);
  epoch_spans_ = epoch_spans(traced_group);
  const auto span_p50 = [&](const char* name) {
    std::vector<double> values;
    for (const Span& span : epoch_spans_)
      if (std::string_view(span.name) == name) values.push_back(span.ms());
    return percentile(values, 0.5);
  };
  // Throughput by second from the generator's boundary samples.
  double merged_traced = 0, merged_plain = 0, s_traced = 0, s_plain = 0;
  for (std::size_t i = 1; i < merged_samples_.size(); ++i) {
    const auto [t_a, n_a] = merged_samples_[i - 1];
    const auto [t_b, n_b] = merged_samples_[i];
    const double seconds = static_cast<double>(t_b - t_a) / 1e9;
    if (group_of(t_a) == 2) {
      merged_traced += static_cast<double>(n_b - n_a);
      s_traced += seconds;
    } else if (group_of(t_a) == 1) {
      merged_plain += static_cast<double>(n_b - n_a);
      s_plain += seconds;
    }
  }
  const double throughput_overhead =
      s_traced > 0 && s_plain > 0 && merged_plain > 0
          ? 100.0 * (1.0 - (merged_traced / s_traced) /
                               (merged_plain / s_plain))
          : kNaN;
  const double verdict_overhead =
      100.0 * (verdict_traced / verdict_plain - 1.0);

  // Blocking-path budget: p50 self time of each layer on each tier.
  struct Step { const char* tier; const char* name; };
  std::vector<Step> path = {{"agent", "sketch.serialize_ms"},
                            {"agent", "wire.encode_ms"},
                            {first_tier, "wire.decode_ms"},
                            {first_tier, "sketch.deserialize_ms"},
                            {first_tier, "sketch.merge_rebuild_ms"},
                            {first_tier, "detection.observe_us"}};
  if (spec_.federated) {
    path.push_back({"leaf", "wire.encode_ms"});
    for (const char* name : {"wire.decode_ms", "sketch.deserialize_ms",
                             "sketch.merge_rebuild_ms", "detection.observe_us"})
      path.push_back({"root", name});
  }
  double budget_sum = 0;
  std::printf("\n%s per-layer budget (p50 self ms, blocking path)\n",
              spec_.name);
  for (const Step& step : path) {
    const double ms = self_p50(replay, self, step.name, step.tier);
    budget_sum += ms;
    std::printf("  %-9s %-24s %10.4f\n", step.tier, step.name, ms);
  }
  const double unattributed = verdict_traced - budget_sum;
  std::printf("  %-34s %10.4f\n", "sum of layer self times", budget_sum);
  std::printf("  %-34s %10.4f\n", "budget.unattributed_ms", unattributed);
  std::printf("  %-34s %10.4f\n", "verdict_p50_ms (traced seconds)",
              verdict_traced);
  std::printf("  off the live path (durability off): journal.append_ms "
              "%.4f per tier\n\n",
              self_p50(replay, self, "journal.append_ms"));

  if (spec_.open_loop)
    m.push_back({"net.exporter_ns_per_packet",
                 per_call_ns("net.exporter_ns_per_packet"), "ns", info});
  m.push_back({"agent.ingest_ns_per_update",
               per_call_ns("agent.ingest_ns_per_update"), "ns", info});
  m.push_back({"agent.seal_p50_ms", percentile(seals, 0.5), "ms", info});
  m.push_back({"agent.seal_p99_ms", percentile(seals, 0.99), "ms", info});
  m.push_back({"agent.spool_depth_max", static_cast<double>(spool_max_),
               "count", info});
  m.push_back({"agent.retries", static_cast<double>(agent_retries_), "count",
               info});
  m.push_back({"agent.epochs_dropped", static_cast<double>(agent_dropped_),
               "count", info});
  m.push_back({"sketch.blob_bytes", static_cast<double>(replay_.blob_bytes),
               "bytes", info});
  m.push_back({"sketch.serialize_ms",
               self_p50(replay, self, "sketch.serialize_ms"), "ms", info});
  m.push_back({"sketch.deserialize_ms",
               self_p50(replay, self, "sketch.deserialize_ms"), "ms", info});
  m.push_back({"sketch.merge_rebuild_ms",
               self_p50(replay, self, "sketch.merge_rebuild_ms"), "ms", info});
  m.push_back({"wire.frame_bytes", static_cast<double>(replay_.frame_bytes),
               "bytes", info});
  m.push_back({"wire.encode_ms", self_p50(replay, self, "wire.encode_ms"),
               "ms", info});
  m.push_back({"wire.decode_ms", self_p50(replay, self, "wire.decode_ms"),
               "ms", info});
  m.push_back({"journal.append_ms",
               self_p50(replay, self, "journal.append_ms"), "ms", info});
  std::vector<double> checkpoints;
  for (const Span& span : checkpoint_spans_) checkpoints.push_back(span.ms());
  m.push_back({"journal.checkpoint_ms", percentile(checkpoints, 0.5), "ms",
               info});
  m.push_back({"collector.leaf_verdict_p50_ms",
               span_p50("collector.leaf_verdict_p50_ms"), "ms", info});
  m.push_back({"collector.sheds", static_cast<double>(sheds_), "count", info});
  m.push_back({"collector.duplicates", static_cast<double>(duplicates_),
               "count", info});
  m.push_back({"collector.frame_errors", static_cast<double>(frame_errors_),
               "count", info});
  m.push_back({"collector.inflight_bytes_max",
               static_cast<double>(inflight_max_), "bytes", info});
  if (spec_.federated) {
    m.push_back({"federation.relay_p50_ms", span_p50("federation.relay_p50_ms"),
                 "ms", info});
    m.push_back({"federation.uplink_spool_max",
                 static_cast<double>(uplink_spool_max_), "count", info});
    m.push_back({"federation.uplink_retries",
                 static_cast<double>(uplink_retries_), "count", info});
  }
  m.push_back({"detection.observe_us",
               self_p50(replay, self, "detection.observe_us", nullptr, 1e3),
               "us", info});
  m.push_back({"detection.alerts_raised", static_cast<double>(alerts_raised_),
               "count", info});
  if (spec_.reader) {
    std::vector<double> publish, refresh, reads;
    for (const Span& span : reader_spans_) {
      const std::string_view name = span.name;
      if (name == "query.publish_ms") publish.push_back(span.ms());
      if (name == "query.refresh_ms") refresh.push_back(span.ms());
      if (name == "query.read_us") reads.push_back(span.ms() * 1e3);
    }
    m.push_back({"query.publish_ms", percentile(publish, 0.5), "ms", info});
    m.push_back({"query.refresh_ms", percentile(refresh, 0.5), "ms", info});
    m.push_back({"query.read_p50_us", percentile(reads, 0.5), "us", info});
    m.push_back({"query.read_p99_us", percentile(reads, 0.99), "us", info});
  }
  m.push_back({"budget.unattributed_ms", unattributed, "ms", info});
  m.push_back({"budget.trace_overhead_pct",
               std::max(verdict_overhead, throughput_overhead), "%", info});
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

int Run::report() {
  const bool detection_ok =
      !spec_.open_loop || (missed_attacks_ == 0 && false_alerts_ == 0);
  const bool correct =
      drained_ && lost_ == 0 && oracle_mismatches_ == 0 && detection_ok;
  std::vector<Metric> e2e = end_to_end_metrics();
  std::vector<Metric> layer;
  if (traced_) layer = layer_metrics();

  if (!correct) {
    // No timing from a run that lost, corrupted or misjudged data.
    for (const Metric& metric : e2e) {
      const std::string_view name = metric.name;
      if (name == "epochs_lost" || name == "oracle_mismatches" ||
          name == "missed_attacks" || name == "false_alerts")
        std::printf("%s %s %s %s\n", spec_.name, metric.name.c_str(),
                    json_number(metric.value).c_str(), metric.unit);
    }
    std::fprintf(stderr,
                 "e2e: %s seed %llu failed: drained=%d lost=%llu "
                 "oracle_mismatches=%d missed=%zu false=%zu\n",
                 spec_.name, static_cast<unsigned long long>(shape_.seed),
                 drained_ ? 1 : 0, static_cast<unsigned long long>(lost_),
                 oracle_mismatches_, missed_attacks_, false_alerts_);
    return 1;
  }

  bench::JsonReport report(std::string("e2e_") + spec_.name);
  report.set_run_id(run_id_);
  report.meta("workload", spec_.name);
  report.meta("seed", static_cast<double>(shape_.seed));
  report.meta("window_s", shape_.window_s);
  report.meta("warmup_s", shape_.warmup_s);
  report.meta("traced", traced_ ? 1.0 : 0.0);
  report.meta("nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.meta("state_fs", filesystem_of(out_dir_));
  report.meta("durability", "off");
  std::string e2e_json, layer_json;
  const auto emit = [&](const Metric& metric, const char* section,
                        std::string& json) {
    std::printf("%s %s %s %s\n", spec_.name, metric.name.c_str(),
                json_number(metric.value).c_str(), metric.unit);
    report.metric(section, metric.name,
                  std::isfinite(metric.value) ? metric.value : 0.0, metric.dir);
    if (!json.empty()) json += ",";
    json += "\"" + metric.name + "\":{\"value\":" + json_number(metric.value) +
            ",\"unit\":\"" + metric.unit + "\"}";
  };
  for (const Metric& metric : e2e) emit(metric, "e2e", e2e_json);
  for (const Metric& metric : layer) emit(metric, "layer", layer_json);
  report.write(out_dir_);
  if (traced_) {
    const std::string path = out_dir_ + "/spans_" + spec_.name + "_s" +
                             std::to_string(shape_.seed) + ".jsonl";
    write_spans(path, spec_.name,
                {&gen_spans_, &epoch_spans_, &reader_spans_,
                 &replay_.spans, &checkpoint_spans_});
  }
  std::printf("{\"correct\":true,\"attempted\":%llu,\"failed\":%llu,"
              "\"e2e\":{%s},\"layer\":{%s}}\n",
              static_cast<unsigned long long>(sealed_total_),
              static_cast<unsigned long long>(lost_), e2e_json.c_str(),
              layer_json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const dcs::Options options(argc, argv);
  const std::string name = options.str("workload", "");
  const WorkloadSpec* spec = find_workload(name);
  if (!spec) {
    std::fprintf(stderr, "e2e_fleet: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  RunShape shape;
  shape.seed = static_cast<std::uint64_t>(options.integer("seed", 1));
  shape.window_s = options.real("seconds", 10.0);
  // A short (smoke) window gets a short warm-up, so the whole run shrinks.
  shape.warmup_s = std::min(kWarmupS, shape.window_s / 2);
  const std::int64_t trace = options.integer("trace", 0);
  if (shape.window_s <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "e2e_fleet: bad --seconds or --trace\n");
    return 2;
  }
  const std::string out_dir = options.str("out", ".");
  try {
    std::filesystem::create_directories(out_dir);
    Run run(*spec, shape, trace == 1, out_dir,
            options.str("run-id", ""));
    const int status = run.execute();
    std::fflush(stdout);
    return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2e_fleet: %s\n", error.what());
    return 3;
  }
}

// Federation tests (docs/FEDERATION.md): the versioned Maglev shard map,
// the wire v4 payload additions, the root's gap-filling per-(site, epoch)
// dedup, and the two-tier relay differential — a multi-leaf federation's
// root sketch must be bit-identical to a single collector that saw every
// site directly. The full kill/reshard/drain soak lives in dcs_chaos
// --federation (the federation_smoke ctest entry); these tests pin each
// layer in isolation so a soak failure has a named culprit.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs_series.hpp"
#include "service/agent.hpp"
#include "service/collector.hpp"
#include "service/federation/leaf.hpp"
#include "service/federation/shard_map.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"
#include "sketch/distinct_count_sketch.hpp"

namespace {

using namespace dcs;
using namespace dcs::service;

DcsParams small_params() {
  DcsParams params;
  params.num_tables = 3;
  params.buckets_per_table = 64;
  params.seed = 17;
  return params;
}

std::vector<LeafEndpoint> make_leaves(std::size_t n,
                                      std::uint16_t base_port = 7000) {
  std::vector<LeafEndpoint> leaves;
  for (std::size_t i = 0; i < n; ++i)
    leaves.push_back(LeafEndpoint{
        1001 + i, "127.0.0.1", static_cast<std::uint16_t>(base_port + i)});
  return leaves;
}

obs::Labels collector_label(const Collector& collector) {
  return {{"collector", "127.0.0.1:" + std::to_string(collector.port())}};
}

std::string serialize_sketch(const DistinctCountSketch& sketch) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  sketch.serialize(writer);
  return std::move(out).str();
}

// --- shard map ---------------------------------------------------------------

TEST(FederationShardMap, BuildIsDeterministicAndOrderInsensitive) {
  auto leaves = make_leaves(5);
  const ShardMap a = ShardMap::build(3, leaves);
  std::reverse(leaves.begin(), leaves.end());
  const ShardMap b = ShardMap::build(3, leaves);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.encode(), b.encode());
  // And a pure function: rebuilding yields the identical table.
  EXPECT_TRUE(a == ShardMap::build(3, make_leaves(5)));
}

TEST(FederationShardMap, SlotsAreBalanced) {
  for (std::size_t n : {2u, 3u, 5u, 8u}) {
    const ShardMap map = ShardMap::build(1, make_leaves(n));
    const std::uint32_t ideal = map.table_size() / static_cast<std::uint32_t>(n);
    for (const LeafEndpoint& leaf : map.leaves()) {
      EXPECT_GE(map.slots_of(leaf.leaf_id), ideal > 2 ? ideal - 2 : 0u)
          << "n=" << n;
      EXPECT_LE(map.slots_of(leaf.leaf_id), ideal + 2) << "n=" << n;
    }
  }
}

TEST(FederationShardMap, RemovalRemapsAboutOneNth) {
  // The Maglev selling point: losing one of N leaves moves ~1/N of the
  // slots, not all of them. Pin a 2/N ceiling for every removable leaf.
  const std::size_t n = 5;
  const ShardMap before = ShardMap::build(1, make_leaves(n));
  for (std::size_t removed = 0; removed < n; ++removed) {
    std::vector<LeafEndpoint> rest;
    for (std::size_t i = 0; i < n; ++i)
      if (i != removed) rest.push_back(make_leaves(n)[i]);
    const ShardMap after = ShardMap::build(2, rest);
    const double moved = ShardMap::remap_fraction(before, after);
    EXPECT_GE(moved, 1.0 / static_cast<double>(n) - 0.05) << removed;
    EXPECT_LE(moved, 2.0 / static_cast<double>(n)) << removed;
  }
  // Naive modulo would move ~(n-1)/n; make sure we are nowhere near it.
  EXPECT_LT(ShardMap::remap_fraction(
                before, ShardMap::build(2, make_leaves(n - 1))),
            0.5);
}

TEST(FederationShardMap, LookupResolvesToAMemberLeaf) {
  const ShardMap map = ShardMap::build(1, make_leaves(4));
  for (std::uint64_t site = 1; site <= 500; ++site) {
    const std::uint64_t owner = map.leaf_for(site);
    const LeafEndpoint& endpoint = map.endpoint_for(site);
    EXPECT_EQ(endpoint.leaf_id, owner);
    EXPECT_EQ(map.endpoint_of(owner).port, endpoint.port);
  }
  EXPECT_THROW(map.endpoint_of(42), std::invalid_argument);
  EXPECT_THROW(ShardMap().leaf_for(1), std::logic_error);
}

TEST(FederationShardMap, BuildRejectsInvalidInput) {
  EXPECT_THROW(ShardMap::build(0, make_leaves(2)), std::invalid_argument);
  EXPECT_THROW(ShardMap::build(1, {}), std::invalid_argument);
  auto dup = make_leaves(2);
  dup[1].leaf_id = dup[0].leaf_id;
  EXPECT_THROW(ShardMap::build(1, dup), std::invalid_argument);
  EXPECT_THROW(ShardMap::build(1, make_leaves(2), 250),  // not prime
               std::invalid_argument);
}

TEST(FederationShardMap, EncodeDecodeRoundTripsExactly) {
  const ShardMap map = ShardMap::build(7, make_leaves(3));
  const ShardMap back = ShardMap::decode(map.encode());
  EXPECT_TRUE(map == back);
  EXPECT_EQ(back.version(), 7u);
  // The receiver rebuilt the table; every lookup must agree.
  for (std::uint64_t site = 1; site <= 100; ++site)
    EXPECT_EQ(map.leaf_for(site), back.leaf_for(site));
}

TEST(FederationShardMap, EveryCorruptByteIsRejected) {
  const std::string blob = ShardMap::build(2, make_leaves(3)).encode();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    EXPECT_THROW(ShardMap::decode(bad), SerializeError) << "byte " << i;
  }
  for (std::size_t len = 0; len < blob.size(); ++len)
    EXPECT_THROW(ShardMap::decode(blob.substr(0, len)), SerializeError)
        << "truncated to " << len;
}

TEST(FederationShardMap, FileRoundTripIsAtomicAndExact) {
  const auto dir = std::filesystem::temp_directory_path() / "dcs_fed_map_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "map.bin").string();
  const ShardMap map = ShardMap::build(4, make_leaves(2));
  map.save_file(path);
  EXPECT_TRUE(ShardMap::load_file(path) == map);
  EXPECT_THROW(ShardMap::load_file((dir / "missing.bin").string()),
               SerializeError);
  std::filesystem::remove_all(dir);
}

TEST(FederationShardMap, CollectorOnlyAcceptsStrictlyNewerMaps) {
  CollectorConfig config;
  config.params = small_params();
  config.leaf_id = 1001;
  Collector collector(config);
  collector.set_shard_map(ShardMap::build(2, make_leaves(2)));
  EXPECT_EQ(collector.shard_map().version(), 2u);
  // Same and older versions are a rollback — refused, not applied.
  EXPECT_THROW(collector.set_shard_map(ShardMap::build(2, make_leaves(3))),
               std::invalid_argument);
  EXPECT_THROW(collector.set_shard_map(ShardMap::build(1, make_leaves(3))),
               std::invalid_argument);
  EXPECT_THROW(collector.set_shard_map(ShardMap()), std::invalid_argument);
  collector.set_shard_map(ShardMap::build(3, make_leaves(3)));
  EXPECT_EQ(collector.shard_map().version(), 3u);
  EXPECT_EQ(collector.stats().reshards, 2u);
}

// --- federation wire fields --------------------------------------------------

TEST(FederationWire, HelloCarriesRoleAndMapVersionAtV4Only) {
  Hello hello;
  hello.site_id = 9;
  hello.role = PeerRole::kLeaf;
  hello.map_version = 5;
  const Hello back = Hello::decode(hello.encode());
  EXPECT_EQ(back.role, PeerRole::kLeaf);
  EXPECT_EQ(back.map_version, 5u);
}

TEST(FederationWire, AckCarriesTheShardMapAtV4Only) {
  Ack ack;
  ack.epoch = 3;
  ack.status = AckStatus::kWrongShard;
  ack.map_version = 2;
  ack.map_blob = ShardMap::build(2, make_leaves(3)).encode();
  const Ack back = Ack::decode(ack.encode());
  EXPECT_EQ(back.status, AckStatus::kWrongShard);
  EXPECT_EQ(back.map_version, 2u);
  const ShardMap pushed = ShardMap::decode(back.map_blob);
  EXPECT_EQ(pushed.version(), 2u);
  EXPECT_EQ(pushed.leaves().size(), 3u);
  // Without a map attached the ack stays small — delta acks on the hot
  // path carry only the empty map fields.
  Ack plain = ack;
  plain.status = AckStatus::kOk;
  plain.map_blob.clear();
  EXPECT_LT(plain.encode().size(), ack.encode().size());
  EXPECT_TRUE(Ack::decode(plain.encode()).map_blob.empty());
}

// --- root gap ledger ---------------------------------------------------------

/// A raw leaf-uplink peer: Hello with role = kLeaf, then deltas carrying
/// *origin* site ids, exactly what LeafUplink speaks — but hand-driven so
/// the test controls delivery order.
struct RawLeafPeer {
  std::optional<TcpSocket> socket;
  FrameDecoder decoder;
  char buffer[4096];

  bool hello(std::uint16_t port, std::uint64_t leaf_id,
             const DcsParams& params, PeerRole role = PeerRole::kLeaf) {
    socket = tcp_connect("127.0.0.1", port, 5000);
    if (!socket) return false;
    socket->set_timeouts(10000, 10000);
    Hello hello;
    hello.site_id = leaf_id;
    hello.role = role;
    hello.params_fingerprint = params.fingerprint();
    if (!socket->send_all(encode_frame(MsgType::kHello, hello.encode())))
      return false;
    const auto ack = read_ack();
    return ack.has_value() && ack->status == AckStatus::kOk;
  }

  std::optional<Ack> ship(const DcsParams& params, std::uint64_t site,
                          std::uint64_t epoch) {
    DistinctCountSketch sketch(params);
    sketch.update(static_cast<Addr>(site), static_cast<Addr>(epoch * 7919),
                  +1);
    SnapshotDelta delta;
    delta.site_id = site;
    delta.epoch = epoch;
    delta.updates = 1;
    delta.sketch_blob = serialize_sketch(sketch);
    if (!socket->send_all(
            encode_frame(MsgType::kSnapshotDelta, delta.encode())))
      return std::nullopt;
    return read_ack();
  }

  std::optional<Ack> read_ack() {
    for (;;) {
      if (auto frame = decoder.next()) {
        if (frame->type != MsgType::kAck) return std::nullopt;
        return Ack::decode(frame->payload);
      }
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.bytes == 0) return std::nullopt;
      decoder.feed(buffer, got.bytes);
    }
  }
};

TEST(FederationRoot, GapLedgerFillsOutOfOrderEpochsExactlyOnce) {
  CollectorConfig config;
  config.params = small_params();
  config.federation_root = true;
  config.run_detection = false;
  config.io_timeout_ms = 50;
  Collector root(config);
  root.start();

  RawLeafPeer peer;
  ASSERT_TRUE(peer.hello(root.port(), 1001, config.params));

  // Epoch 3 first: two gaps (1, 2) recorded as pending — awaited, not lost.
  auto ack = peer.ship(config.params, 7, 3);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  EXPECT_EQ(root.stats().pending_gap_epochs, 2u);
  EXPECT_EQ(root.stats().dropped_epochs, 0u);

  // A second relay path (the drained journal) delivers 1 and 2: both fill
  // their gaps, the ledger drains, nothing is double-merged.
  ack = peer.ship(config.params, 7, 1);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  ack = peer.ship(config.params, 7, 2);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  EXPECT_EQ(root.stats().pending_gap_epochs, 0u);
  EXPECT_EQ(root.stats().gap_fills, 2u);

  // Re-delivery of a filled epoch is a duplicate, not a merge.
  ack = peer.ship(config.params, 7, 2);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kDuplicate);

  const auto stats = root.stats();
  EXPECT_EQ(stats.deltas_merged, 3u);
  EXPECT_EQ(stats.relayed_deltas, 3u);
  EXPECT_EQ(stats.duplicate_deltas, 1u);
  root.stop();

  // The merged sketch equals ingesting epochs 1..3 in order — gap-filling
  // is invisible to the linear merge.
  DistinctCountSketch reference(config.params);
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch)
    reference.update(static_cast<Addr>(7), static_cast<Addr>(epoch * 7919),
                     +1);
  EXPECT_EQ(serialize_sketch(root.merged_sketch()),
            serialize_sketch(reference));
}

/// A relayed site that jumps further ahead than the root's gap ledger can
/// track: the newest kMaxTrackedGapEpochs missing epochs are awaited, the
/// older ones are booked as dropped and counted apart as ledger overflow.
TEST(FederationRoot, GapLedgerOverflowIsCountedApart) {
  CollectorConfig config;
  config.params = small_params();
  config.federation_root = true;
  config.run_detection = false;
  config.io_timeout_ms = 50;
  Collector root(config);
  root.start();
  const obs::Labels label = collector_label(root);
  const auto series = [&](const char* name) {
    return test::counter_value(obs::Registry::global().snapshot(), name,
                               label);
  };

  RawLeafPeer peer;
  ASSERT_TRUE(peer.hello(root.port(), 1001, config.params));
  auto ack = peer.ship(config.params, 7, 1);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);

  constexpr std::uint64_t kOverflow = 10;
  const std::uint64_t jump_to =
      1 + Collector::kMaxTrackedGapEpochs + kOverflow + 1;
  ack = peer.ship(config.params, 7, jump_to);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  auto stats = root.stats();
  EXPECT_EQ(stats.pending_gap_epochs, Collector::kMaxTrackedGapEpochs);
  EXPECT_EQ(stats.gap_overflow_epochs, kOverflow);
  EXPECT_EQ(stats.dropped_epochs, kOverflow);
  EXPECT_EQ(series("dcs_root_gap_overflow_epochs_total"), kOverflow);
  EXPECT_EQ(series("dcs_collector_dropped_epochs_total"), kOverflow);

  // The oldest tracked epoch still fills its gap; an overflowed one was
  // given up on, so it is answered as a duplicate and never merged.
  ack = peer.ship(config.params, 7, 2 + kOverflow);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  ack = peer.ship(config.params, 7, 2);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kDuplicate);

  stats = root.stats();
  EXPECT_EQ(stats.deltas_merged, 3u);
  EXPECT_EQ(stats.gap_fills, 1u);
  EXPECT_EQ(stats.pending_gap_epochs, Collector::kMaxTrackedGapEpochs - 1);
  EXPECT_EQ(stats.gap_overflow_epochs, kOverflow);
  EXPECT_EQ(stats.dropped_epochs, kOverflow);
  EXPECT_EQ(series("dcs_root_gap_fills_total"), 1u);
  EXPECT_EQ(series("dcs_root_gap_overflow_epochs_total"), kOverflow);
  root.stop();
}

/// The pending-gap gauge is read from the root's ledger at scrape time, so
/// it is right in a scrape that no stats() call preceded.
TEST(FederationRoot, PendingGapGaugeIsLiveWithoutAStatsCall) {
  CollectorConfig config;
  config.params = small_params();
  config.federation_root = true;
  config.run_detection = false;
  config.io_timeout_ms = 50;
  Collector root(config);
  root.start();
  const auto pending = [&] {
    return test::gauge_value(obs::Registry::global().snapshot(),
                             "dcs_root_pending_gap_epochs",
                             collector_label(root));
  };

  RawLeafPeer peer;
  ASSERT_TRUE(peer.hello(root.port(), 1001, config.params));
  ASSERT_EQ(peer.ship(config.params, 7, 1)->status, AckStatus::kOk);
  ASSERT_EQ(peer.ship(config.params, 7, 5)->status, AckStatus::kOk);
  EXPECT_EQ(pending(), 3);  // epochs 2..4 awaited
  ASSERT_EQ(peer.ship(config.params, 7, 3)->status, AckStatus::kOk);
  EXPECT_EQ(pending(), 2);
  root.stop();
}

/// Leaf ids and site ids are both keys of the root's per-site ledger. A
/// Hello for an id already booked under the other role is refused, in
/// either connect order, so a leaf never shares a site's accounting.
TEST(FederationRoot, LeafAndSiteIdsDoNotShareALedger) {
  CollectorConfig config;
  config.params = small_params();
  config.federation_root = true;
  config.run_detection = false;
  config.io_timeout_ms = 50;
  Collector root(config);
  root.start();

  // Site first: site 7 connects, then a leaf claiming id 7 is refused.
  RawLeafPeer site;
  ASSERT_TRUE(site.hello(root.port(), 7, config.params, PeerRole::kSite));
  RawLeafPeer leaf_as_site;
  EXPECT_FALSE(leaf_as_site.hello(root.port(), 7, config.params));
  EXPECT_EQ(root.stats().rejected_hellos, 1u);

  // Leaf first: leaf 1001 connects, then a site claiming id 1001 is refused.
  RawLeafPeer leaf;
  ASSERT_TRUE(leaf.hello(root.port(), 1001, config.params));
  RawLeafPeer site_as_leaf;
  EXPECT_FALSE(site_as_leaf.hello(root.port(), 1001, config.params,
                                  PeerRole::kSite));
  EXPECT_EQ(root.stats().rejected_hellos, 2u);

  // The booked peers keep working: site 7 ships its epoch, the leaf relays
  // one for origin site 9, and each lands in its own site's ledger.
  auto ack = site.ship(config.params, 7, 1);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);
  ack = leaf.ship(config.params, 9, 1);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kOk);

  // A relayed origin site is booked as a site too; the same role may
  // Hello again.
  RawLeafPeer leaf_as_relayed;
  EXPECT_FALSE(leaf_as_relayed.hello(root.port(), 9, config.params));
  RawLeafPeer site_again;
  EXPECT_TRUE(site_again.hello(root.port(), 7, config.params, PeerRole::kSite));
  RawLeafPeer leaf_again;
  EXPECT_TRUE(leaf_again.hello(root.port(), 1001, config.params));

  const auto stats = root.stats();
  EXPECT_EQ(stats.rejected_hellos, 3u);
  EXPECT_EQ(stats.deltas_merged, 2u);
  for (const Collector::SiteStats& booked : root.site_stats()) {
    EXPECT_EQ(booked.epochs_merged, booked.site_id == 1001 ? 0u : 1u)
        << "site " << booked.site_id;
  }
  root.stop();
}

TEST(FederationRoot, NonRootCollectorRefusesLeafUplinks) {
  CollectorConfig config;
  config.params = small_params();
  config.run_detection = false;
  config.io_timeout_ms = 50;
  Collector collector(config);
  collector.start();

  RawLeafPeer peer;
  EXPECT_FALSE(peer.hello(collector.port(), 1001, config.params));
  collector.stop();
}

TEST(FederationRoot, ShardedLeafBouncesForeignSitesWithTheMap) {
  CollectorConfig config;
  config.params = small_params();
  config.run_detection = false;
  config.io_timeout_ms = 50;
  config.leaf_id = 1001;
  Collector leaf(config);
  const ShardMap map = ShardMap::build(1, make_leaves(3));
  leaf.set_shard_map(map);
  leaf.start();

  // Find one site this leaf owns and one it does not.
  std::uint64_t owned = 0, foreign = 0;
  for (std::uint64_t site = 1; owned == 0 || foreign == 0; ++site) {
    (map.leaf_for(site) == 1001 ? owned : foreign) = site;
  }

  RawLeafPeer peer;  // role is set per call below via a plain Hello
  peer.socket = tcp_connect("127.0.0.1", leaf.port(), 5000);
  ASSERT_TRUE(peer.socket.has_value());
  peer.socket->set_timeouts(10000, 10000);
  Hello hello;
  hello.site_id = foreign;
  hello.params_fingerprint = config.params.fingerprint();
  ASSERT_TRUE(
      peer.socket->send_all(encode_frame(MsgType::kHello, hello.encode())));
  const auto ack = peer.read_ack();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, AckStatus::kWrongShard);
  EXPECT_EQ(ack->map_version, 1u);
  const ShardMap pushed = ShardMap::decode(ack->map_blob);
  EXPECT_NE(pushed.leaf_for(foreign), 1001u);
  EXPECT_EQ(leaf.stats().wrong_shard_acks, 1u);

  RawLeafPeer owned_peer;
  owned_peer.socket = tcp_connect("127.0.0.1", leaf.port(), 5000);
  ASSERT_TRUE(owned_peer.socket.has_value());
  owned_peer.socket->set_timeouts(10000, 10000);
  Hello ok_hello;
  ok_hello.site_id = owned;
  ok_hello.params_fingerprint = config.params.fingerprint();
  ASSERT_TRUE(owned_peer.socket->send_all(
      encode_frame(MsgType::kHello, ok_hello.encode())));
  const auto ok_ack = owned_peer.read_ack();
  ASSERT_TRUE(ok_ack.has_value());
  EXPECT_EQ(ok_ack->status, AckStatus::kOk);
  leaf.stop();
}

// --- leaf uplink -------------------------------------------------------------

/// A one-update delta for `site`'s `epoch`, as the delta tap hands it over.
SnapshotDeltaView relay(std::uint64_t site, std::uint64_t epoch,
                        std::string_view blob) {
  SnapshotDeltaView delta;
  delta.site_id = site;
  delta.epoch = epoch;
  delta.updates = 1;
  delta.sketch_blob = blob;
  return delta;
}

/// Each uplink exports its own spool depth, labelled by leaf id; two leaves
/// in one process no longer overwrite one process-wide gauge.
TEST(FederationLeaf, TwoLeavesExportTwoSpoolDepths) {
  std::vector<std::unique_ptr<LeafUplink>> uplinks;
  for (const std::uint64_t leaf_id : {1001ull, 1002ull}) {
    LeafUplinkConfig config;
    config.leaf_id = leaf_id;
    config.root_port = 1;  // never started: offers stay spooled
    config.params = small_params();
    uplinks.push_back(std::make_unique<LeafUplink>(config));
  }
  ASSERT_TRUE(uplinks[0]->offer(relay(7, 1, "a"), false));
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch)
    ASSERT_TRUE(uplinks[1]->offer(relay(8, epoch, "b"), false));

  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  EXPECT_EQ(test::series_count(snapshot.gauges, "dcs_leaf_uplink_spool_depth"),
            2u);
  EXPECT_EQ(test::gauge_value(snapshot, "dcs_leaf_uplink_spool_depth",
                              {{"leaf", "1001"}}),
            1);
  EXPECT_EQ(test::gauge_value(snapshot, "dcs_leaf_uplink_spool_depth",
                              {{"leaf", "1002"}}),
            3);
  EXPECT_EQ(test::counter_value(snapshot, "dcs_leaf_uplink_relayed_total",
                                {{"leaf", "1002"}}),
            3u);
}

/// The tap-shed path: a leaf whose uplink spool (1 delta) is full because
/// the root is unreachable NACKs the next agent delta kRetryLater. The shed
/// is counted once, in the leaf collector's Stats and its labelled series,
/// and the delta merges once the spool drains into a root that came up.
TEST(FederationLeaf, FullUplinkSpoolShedsTheAgentDeltaOnce) {
  const DcsParams params = small_params();
  // Reserve a port for the root, then leave it closed: unreachable.
  std::uint16_t root_port = 0;
  {
    auto probe = TcpListener::listen("127.0.0.1", 0);
    ASSERT_TRUE(probe.has_value());
    root_port = probe->port();
  }
  LeafCollectorConfig leaf_config;
  leaf_config.collector.params = params;
  leaf_config.collector.io_timeout_ms = 25;
  leaf_config.collector.run_detection = false;
  leaf_config.collector.leaf_id = 1001;
  leaf_config.root_port = root_port;
  leaf_config.uplink_spool = 1;
  LeafCollector leaf(leaf_config);
  leaf.start();
  const obs::Labels label = collector_label(leaf.collector());

  RawLeafPeer site;
  ASSERT_TRUE(site.hello(leaf.collector().port(), 7, params, PeerRole::kSite));
  EXPECT_EQ(site.ship(params, 7, 1)->status, AckStatus::kOk);
  const auto shed = site.ship(params, 7, 2);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, AckStatus::kRetryLater);
  EXPECT_EQ(shed->retry_after_ms, leaf_config.collector.tap_retry_after_ms);

  auto stats = leaf.collector().stats();
  EXPECT_EQ(stats.tap_shed_deltas, 1u);
  EXPECT_EQ(stats.deltas_merged, 1u);
  EXPECT_EQ(test::counter_value(obs::Registry::global().snapshot(),
                                "dcs_leaf_uplink_shed_total", label),
            1u);

  CollectorConfig root_config;
  root_config.params = params;
  root_config.federation_root = true;
  root_config.run_detection = false;
  root_config.io_timeout_ms = 25;
  root_config.port = root_port;
  Collector root(root_config);
  root.start();
  ASSERT_TRUE(leaf.uplink().flush(15000));

  EXPECT_EQ(site.ship(params, 7, 2)->status, AckStatus::kOk);
  ASSERT_TRUE(root.wait_for_deltas(2, 15000));
  stats = leaf.collector().stats();
  EXPECT_EQ(stats.tap_shed_deltas, 1u);
  EXPECT_EQ(stats.deltas_merged, 2u);
  EXPECT_EQ(test::counter_value(obs::Registry::global().snapshot(),
                                "dcs_leaf_uplink_shed_total", label),
            1u);
  leaf.stop();
  root.stop();
}

/// A hand-driven root for one uplink connection: reads the uplink's frames
/// and answers them, so a test controls every ack.
struct FakeRoot {
  std::optional<TcpListener> listener = TcpListener::listen("127.0.0.1", 0);
  std::optional<TcpSocket> socket;
  FrameDecoder decoder;
  char buffer[4096];

  Frame read() {
    for (;;) {
      if (auto frame = decoder.next())
        return Frame{frame->type, frame->version, std::string(frame->payload)};
      const RecvResult got = socket->recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) return Frame{MsgType::kBye, 0, {}};
      decoder.feed(buffer, got.bytes);
    }
  }
  void ack(const Ack& ack) {
    socket->send_all(encode_frame(MsgType::kAck, ack.encode()));
  }
};

/// The two hazards of a sender shared with site agents, pinned at the
/// uplink: its Hello announces first_epoch 1 whatever origin epochs are
/// spooled (else the root books a gap against the leaf id), and a Hello-ack
/// watermark above every spooled epoch prunes no relay (it is the leaf
/// id's watermark, not an origin site's).
TEST(FederationLeaf, UplinkHelloIgnoresSpooledOriginEpochs) {
  FakeRoot root;
  ASSERT_TRUE(root.listener.has_value());
  LeafUplinkConfig config;
  config.leaf_id = 1001;
  config.root_port = root.listener->port();
  config.params = small_params();
  LeafUplink uplink(config);
  ASSERT_TRUE(uplink.offer(relay(7, 5, "a"), false));
  ASSERT_TRUE(uplink.offer(relay(8, 3, "b"), false));
  uplink.start();

  root.socket = root.listener->accept(5000);
  ASSERT_TRUE(root.socket.has_value());
  root.socket->set_timeouts(5000, 5000);
  const Frame hello_frame = root.read();
  ASSERT_EQ(hello_frame.type, MsgType::kHello);
  const Hello hello = Hello::decode(hello_frame.payload);
  EXPECT_EQ(hello.site_id, 1001u);
  EXPECT_EQ(hello.role, PeerRole::kLeaf);
  EXPECT_EQ(hello.first_epoch, 1u);
  Ack hello_ack;
  hello_ack.epoch = 100;  // above every spooled origin epoch
  root.ack(hello_ack);

  for (const auto& [site, epoch] : {std::pair{7u, 5u}, std::pair{8u, 3u}}) {
    const Frame frame = root.read();
    ASSERT_EQ(frame.type, MsgType::kSnapshotDelta);
    const SnapshotDelta delta = SnapshotDelta::decode(frame.payload);
    EXPECT_EQ(delta.site_id, site);
    EXPECT_EQ(delta.epoch, epoch);
    Ack ack;
    ack.epoch = delta.epoch;
    root.ack(ack);
  }
  ASSERT_TRUE(uplink.flush(5000));
  EXPECT_EQ(uplink.stats().acked, 2u);
  uplink.stop();
}

// --- two-tier relay differential --------------------------------------------

TEST(FederationRelay, MultiLeafRootEqualsSingleCollectorBitForBit) {
  const DcsParams params = small_params();
  const std::uint64_t sites = 5;
  const std::uint64_t epochs = 6;

  CollectorConfig root_config;
  root_config.params = params;
  root_config.federation_root = true;
  root_config.run_detection = false;
  root_config.io_timeout_ms = 25;
  Collector root(root_config);
  root.start();

  std::vector<std::unique_ptr<LeafCollector>> leaves;
  std::vector<LeafEndpoint> endpoints;
  for (std::uint64_t id : {1001ull, 1002ull}) {
    LeafCollectorConfig leaf_config;
    leaf_config.collector.params = params;
    leaf_config.collector.io_timeout_ms = 25;
    leaf_config.collector.run_detection = false;
    leaf_config.collector.leaf_id = id;
    leaf_config.root_host = "127.0.0.1";
    leaf_config.root_port = root.port();
    leaves.push_back(std::make_unique<LeafCollector>(leaf_config));
    leaves.back()->start();
    endpoints.push_back(
        LeafEndpoint{id, "127.0.0.1", leaves.back()->collector().port()});
  }
  const ShardMap map = ShardMap::build(1, endpoints);
  for (auto& leaf : leaves) leaf->set_shard_map(map);

  DistinctCountSketch reference(params);
  std::vector<std::unique_ptr<SiteAgent>> agents;
  for (std::uint64_t site = 1; site <= sites; ++site) {
    SiteAgentConfig agent_config;
    agent_config.site_id = site;
    agent_config.collector_host = "127.0.0.1";
    agent_config.collector_port = endpoints[0].port;  // seed; map overrides
    agent_config.params = params;
    agent_config.epoch_updates = 50;
    agent_config.io_timeout_ms = 2000;
    agent_config.heartbeat_interval_ms = 100;
    agent_config.jitter_seed = site;
    agent_config.shard_map = map;
    agents.push_back(std::make_unique<SiteAgent>(agent_config));
    agents.back()->start();
    for (std::uint64_t i = 0; i < epochs * 50; ++i) {
      const Addr dest = static_cast<Addr>(site * 11 + i % 9);
      const Addr source = static_cast<Addr>(site * 100000 + i);
      agents.back()->ingest(FlowUpdate{.source = source, .dest = dest});
      reference.update(dest, source, +1);
    }
  }
  std::uint64_t total_sealed = 0;
  for (auto& agent : agents) {
    ASSERT_TRUE(agent->flush(15000));
    agent->stop(15000);
    total_sealed += agent->stats().epochs_sealed;
    EXPECT_EQ(agent->stats().epochs_dropped, 0u);
  }
  for (auto& leaf : leaves) leaf->stop(15000);

  ASSERT_TRUE(root.wait_for_deltas(total_sealed, 15000));
  const auto stats = root.stats();
  root.stop();
  EXPECT_EQ(stats.deltas_merged, total_sealed);
  EXPECT_EQ(stats.relayed_deltas, total_sealed);
  EXPECT_EQ(stats.dropped_epochs, 0u);
  EXPECT_EQ(stats.pending_gap_epochs, 0u);

  // The tentpole invariant: two tiers of linear merges are invisible.
  EXPECT_EQ(serialize_sketch(root.merged_sketch()),
            serialize_sketch(reference));
  const auto topk = root.top_k(8);
  const auto ref_topk = TrackingDcs(reference).top_k(8);
  ASSERT_EQ(topk.entries.size(), ref_topk.entries.size());
  for (std::size_t i = 0; i < topk.entries.size(); ++i) {
    EXPECT_EQ(topk.entries[i].group, ref_topk.entries[i].group);
    EXPECT_EQ(topk.entries[i].estimate, ref_topk.entries[i].estimate);
  }
}

// --- relay stamps, root shedding and root restarts ---------------------------

CollectorConfig root_config_for(const DcsParams& params) {
  CollectorConfig config;
  config.params = params;
  config.federation_root = true;
  config.run_detection = false;
  config.io_timeout_ms = 25;
  return config;
}

LeafCollectorConfig leaf_config_for(const DcsParams& params,
                                    std::uint16_t root_port) {
  LeafCollectorConfig config;
  config.collector.params = params;
  config.collector.io_timeout_ms = 25;
  config.collector.run_detection = false;
  config.collector.leaf_id = 1001;
  config.root_port = root_port;
  return config;
}

SiteAgentConfig relay_agent_config(const DcsParams& params, std::uint64_t site,
                                   std::uint16_t leaf_port) {
  SiteAgentConfig config;
  config.site_id = site;
  config.collector_port = leaf_port;
  config.params = params;
  config.epoch_updates = 50;
  config.jitter_seed = site;
  return config;
}

const Collector::SiteStats* find_site(
    const std::vector<Collector::SiteStats>& sites, std::uint64_t site_id) {
  for (const auto& site : sites)
    if (site.site_id == site_id) return &site;
  return nullptr;
}

/// The relay carries each delta's origin seal and spool stamps, so the
/// root measures seal-to-verdict freshness for relayed epochs too.
TEST(FederationRelay, RootFreshnessCoversRelayedEpochs) {
  obs::set_enabled(true);  // the agent keeps traces only while recording
  const DcsParams params = small_params();
  Collector root(root_config_for(params));
  root.start();
  LeafCollector leaf(leaf_config_for(params, root.port()));
  leaf.start();
  SiteAgent agent(relay_agent_config(params, 3, leaf.collector().port()));
  agent.start();
  for (std::uint64_t i = 0; i < 150; ++i)
    agent.ingest(static_cast<Addr>(i % 7), static_cast<Addr>(1000 + i), +1);
  ASSERT_TRUE(agent.flush(15000));
  agent.stop();
  leaf.stop(15000);
  const std::uint64_t sealed = agent.stats().epochs_sealed;
  ASSERT_TRUE(root.wait_for_deltas(sealed, 15000));
  const auto sites = root.site_stats();
  root.stop();

  const auto traces = agent.traces();
  ASSERT_EQ(traces.size(), sealed);
  const auto* site = find_site(sites, 3);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->last_epoch, traces.back().epoch);
  EXPECT_EQ(site->last_seal_unix_ns,
            traces.back().stamp(obs::TraceStage::kSealed));
  EXPECT_GT(site->last_freshness_ns, 0u);
}

/// A root whose admission budget sheds the leaf's relays NACKs the uplink
/// kRetryLater; the uplink keeps each relay spooled and re-ships it, so
/// every sealed epoch still merges exactly once and the root sketch equals
/// a single sketch fed every update.
TEST(FederationRelay, RootShedRelaysAreReshippedAndMergeOnce) {
  const DcsParams params = small_params();
  CollectorConfig root_config = root_config_for(params);
  // Admission is keyed by the connection's Hello id: the leaf's relays all
  // draw from one bucket.
  root_config.admission.site_rate_per_sec = 50;
  root_config.admission.site_burst = 1;
  Collector root(root_config);
  root.start();
  LeafCollector leaf(leaf_config_for(params, root.port()));
  leaf.start();

  DistinctCountSketch reference(params);
  std::vector<std::unique_ptr<SiteAgent>> agents;
  for (std::uint64_t site = 1; site <= 3; ++site) {
    agents.push_back(std::make_unique<SiteAgent>(
        relay_agent_config(params, site, leaf.collector().port())));
    agents.back()->start();
    for (std::uint64_t i = 0; i < 200; ++i) {
      const Addr dest = static_cast<Addr>(site * 11 + i % 5);
      const Addr source = static_cast<Addr>(site * 100000 + i);
      agents.back()->ingest(dest, source, +1);
      reference.update(dest, source, +1);
    }
  }
  std::uint64_t sealed = 0;
  for (auto& agent : agents) {
    ASSERT_TRUE(agent->flush(15000));
    agent->stop();
    sealed += agent->stats().epochs_sealed;
  }
  leaf.stop(15000);
  ASSERT_TRUE(root.wait_for_deltas(sealed, 15000));
  const auto stats = root.stats();
  const auto sites = root.site_stats();
  const std::string merged = serialize_sketch(root.merged_sketch());
  root.stop();

  EXPECT_GT(leaf.uplink().stats().nacks, 0u);
  EXPECT_GT(stats.shed_deltas, 0u);
  EXPECT_EQ(stats.deltas_merged, sealed);
  EXPECT_EQ(stats.dropped_epochs, 0u);
  EXPECT_EQ(stats.pending_gap_epochs, 0u);
  for (const auto& agent : agents) {
    const auto* site = find_site(sites, agent->config().site_id);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->epochs_merged, agent->stats().epochs_sealed);
    EXPECT_EQ(site->last_epoch, agent->stats().epochs_sealed);
  }
  EXPECT_EQ(merged, serialize_sketch(reference));
}

/// A root restart while relays of origin epochs > 1 sit in the uplink
/// spool: the reconnecting uplink books nothing against the leaf id and
/// re-ships every spooled relay, none pruned by the Hello-ack watermark.
TEST(FederationRelay, UplinkReconnectWithSpooledRelaysBooksNothing) {
  const DcsParams params = small_params();
  const std::string state_dir =
      ::testing::TempDir() + "FederationRelay.UplinkReconnect.state";
  std::filesystem::remove_all(state_dir);
  CollectorConfig root_config = root_config_for(params);
  root_config.state_dir = state_dir;
  auto root = std::make_unique<Collector>(root_config);
  root->start();
  root_config.port = root->port();  // the restart listens where the leaf dials
  LeafCollector leaf(leaf_config_for(params, root->port()));
  leaf.start();

  DistinctCountSketch reference(params);
  RawLeafPeer sites[2];
  for (std::uint64_t i = 0; i < 2; ++i)
    ASSERT_TRUE(
        sites[i].hello(leaf.collector().port(), 7 + i, params, PeerRole::kSite));
  const auto ship = [&](std::uint64_t site, std::uint64_t epoch) {
    const auto ack = sites[site - 7].ship(params, site, epoch);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->status, AckStatus::kOk);
    reference.update(static_cast<Addr>(site), static_cast<Addr>(epoch * 7919),
                     +1);
  };
  ship(7, 1);
  ship(7, 2);
  ship(8, 1);
  ASSERT_TRUE(leaf.uplink().flush(15000));

  root.reset();  // the root goes down; the next relays stay spooled
  ship(7, 3);
  ship(8, 2);
  EXPECT_EQ(leaf.uplink().stats().spool_depth, 2u);

  root = std::make_unique<Collector>(root_config);
  root->start();
  ASSERT_TRUE(leaf.uplink().flush(15000));
  const auto uplink = leaf.uplink().stats();
  const auto stats = root->stats();
  const auto rows = root->site_stats();
  const std::string merged = serialize_sketch(root->merged_sketch());
  leaf.stop();
  root->stop();

  EXPECT_EQ(uplink.relayed, 5u);
  EXPECT_EQ(uplink.acked + uplink.duplicates, uplink.relayed);
  EXPECT_EQ(stats.dropped_epochs, 0u);
  EXPECT_EQ(stats.pending_gap_epochs, 0u);
  const auto* leaf_row = find_site(rows, 1001);
  ASSERT_NE(leaf_row, nullptr);
  EXPECT_EQ(leaf_row->dropped_epochs, 0u);
  EXPECT_EQ(leaf_row->last_epoch, 0u);
  EXPECT_EQ(find_site(rows, 7)->last_epoch, 3u);
  EXPECT_EQ(find_site(rows, 8)->last_epoch, 2u);
  EXPECT_EQ(merged, serialize_sketch(reference));
  std::filesystem::remove_all(state_dir);
}

}  // namespace

// Distributed deployment: eight edge routers each run a site agent over
// their slice of the traffic and ship every sealed epoch sketch over TCP to
// one collector, which merges the (linear) sketches and queries the
// network-wide top-k. Demonstrates that the merged view equals a single
// monitor over the union stream.
//
//   build/examples/distributed_isp
#include <cstdio>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "net/exporter.hpp"
#include "net/scenarios.hpp"
#include "service/agent.hpp"
#include "service/collector.hpp"

int main() {
  using namespace dcs;

  // Traffic: background plus two concurrent floods at different victims.
  Timeline timeline(808);
  BackgroundTrafficConfig background;
  background.sessions = 10'000;
  add_background_traffic(timeline, background);
  SynFloodConfig flood_a;
  flood_a.victim = 0x0a0000fe;
  flood_a.spoofed_sources = 12'000;
  add_syn_flood(timeline, flood_a);
  SynFloodConfig flood_b;
  flood_b.victim = 0x0a0000aa;
  flood_b.spoofed_sources = 6000;
  flood_b.spoof_seed = 4242;
  add_syn_flood(timeline, flood_b);

  FlowUpdateExporter exporter;
  const auto updates = exporter.run(timeline.finalize());

  DcsParams params;
  params.seed = 1001;  // every router must share parameters AND seed

  // The collector, on an ephemeral loopback port.
  service::CollectorConfig collector_config;
  collector_config.params = params;
  service::Collector collector(collector_config);
  collector.start();

  constexpr std::size_t kRouters = 8;
  std::vector<std::unique_ptr<service::SiteAgent>> routers;
  for (std::size_t i = 0; i < kRouters; ++i) {
    service::SiteAgentConfig agent_config;
    agent_config.site_id = i + 1;
    agent_config.collector_port = collector.port();
    agent_config.params = params;
    routers.push_back(std::make_unique<service::SiteAgent>(agent_config));
    routers.back()->start();
  }

  // Egress monitoring pins a (source, dest) pair to one router.
  DistinctCountSketch reference(params);  // what one central box would build
  for (const FlowUpdate& u : updates) {
    routers[mix64(pack_pair(u.dest, u.source)) % kRouters]->ingest(u);
    reference.update(u.dest, u.source, u.delta);
  }
  // Each router ships its last epoch and says Bye.
  std::uint64_t epochs = 0;
  for (const auto& router : routers) {
    router->stop(10'000);
    epochs += router->stats().epochs_shipped;
  }
  const bool all_byes = collector.wait_for_byes(kRouters, 10'000);
  collector.stop();

  const auto stats = collector.stats();
  std::printf("%zu routers observed %zu updates and shipped %llu epoch "
              "sketches; the collector merged %llu\n",
              kRouters, updates.size(), static_cast<unsigned long long>(epochs),
              static_cast<unsigned long long>(stats.deltas_merged));

  std::printf("\nnetwork-wide top-3 (merged at collector):\n");
  for (const TopKEntry& e : collector.top_k(3).entries) {
    const char* tag = e.group == flood_a.victim   ? " <- victim A"
                      : e.group == flood_b.victim ? " <- victim B"
                                                  : "";
    std::printf("  dest=%08x half-open-sources~%llu%s\n", e.group,
                static_cast<unsigned long long>(e.estimate), tag);
  }

  const bool merged_matches =
      all_byes && collector.merged_sketch() == reference;
  std::printf("\nmerged sketch identical to single-monitor sketch: %s\n",
              merged_matches ? "yes" : "NO");
  return merged_matches ? 0 : 1;
}

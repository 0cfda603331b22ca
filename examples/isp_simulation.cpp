// Full-stack demonstration: an event-driven ISP simulation in which the
// attack dynamics *emerge* from protocol behavior, monitored exactly as the
// paper's Fig. 1 prescribes.
//
//   hosts (clients / servers / zombies)
//     -> packets routed hop-by-hop over a core-ring topology
//     -> per-edge-router NetFlow exporters (ingress taps)
//     -> per-router site agents (one seed, shared params), each shipping
//        its sealed epoch sketches over TCP
//     -> central collector: linear merge -> TrackingDcs -> top-k / alerts
//
//   build/examples/isp_simulation [--zombies-sources 15000] [--clients 8000]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/options.hpp"
#include "net/exporter.hpp"
#include "service/agent.hpp"
#include "service/collector.hpp"
#include "sim/agents.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

int main(int argc, char** argv) {
  using namespace dcs;
  using namespace dcs::sim;
  const Options options(argc, argv);
  const auto spoofed_sources = static_cast<std::uint64_t>(
      options.integer("zombies-sources", 15'000));
  const auto num_clients =
      static_cast<std::uint64_t>(options.integer("clients", 8000));

  // --- The network: 6 core routers in a ring, 6 edge routers. -------------
  Topology topology;
  const auto edges = make_isp_topology(topology, 6);

  constexpr Addr kVictim = 0x0a0000fe;        // server on edge 0
  constexpr Addr kPopularSite = 0x0a000001;   // server on edge 1
  topology.attach_host(kVictim, edges[0]);
  topology.attach_host(kPopularSite, edges[1]);

  // Legitimate clients spread across edges 2-5.
  std::vector<Addr> clients;
  for (std::uint64_t i = 0; i < num_clients; ++i) {
    const Addr client = 0xc0a80000 + static_cast<Addr>(i);
    topology.attach_host(client, edges[2 + (i % 4)]);
    clients.push_back(client);
  }

  Simulator simulator(std::move(topology));

  // --- Behaviors. ----------------------------------------------------------
  auto victim_server = std::make_unique<ServerBehavior>(
      ServerBehavior::Config{.address = kVictim, .backlog_limit = 4096});
  auto* victim_ptr = victim_server.get();
  simulator.set_behavior(kVictim, std::move(victim_server));

  auto popular_server = std::make_unique<ServerBehavior>(
      ServerBehavior::Config{.address = kPopularSite});
  auto* popular_ptr = popular_server.get();
  simulator.set_behavior(kPopularSite, std::move(popular_server));

  for (const Addr client : clients)
    simulator.set_behavior(client, std::make_unique<ClientBehavior>(
                                       ClientBehavior::Config{.address = client}));

  // --- Monitoring: one exporter + site agent per edge router, shipping to
  // one collector on an ephemeral loopback port. -------------------------
  DcsParams params;
  params.seed = 2026;  // all routers share parameters and seed
  service::CollectorConfig collector_config;
  collector_config.params = params;
  service::Collector collector(collector_config);
  collector.start();
  std::vector<std::unique_ptr<service::SiteAgent>> agents;
  std::vector<std::unique_ptr<FlowUpdateExporter>> exporters;
  DistinctCountSketch reference(params);  // what one central box would build
  for (std::size_t i = 0; i < edges.size(); ++i) {
    service::SiteAgentConfig agent_config;
    agent_config.site_id = i + 1;
    agent_config.collector_port = collector.port();
    agent_config.params = params;
    agents.push_back(std::make_unique<service::SiteAgent>(agent_config));
    agents.back()->start();
    exporters.push_back(std::make_unique<FlowUpdateExporter>(5000));
    FlowUpdateExporter* exporter = exporters.back().get();
    service::SiteAgent* agent = agents.back().get();
    simulator.add_ingress_tap(
        edges[i], [exporter, agent, &reference](RouterId, std::uint64_t,
                                                const Packet& packet) {
          exporter->observe(packet, [&](const FlowUpdate& update) {
            agent->ingest(update);
            reference.update(update.dest, update.source, update.delta);
          });
        });
  }

  // --- Traffic. -------------------------------------------------------------
  Xoshiro256 rng(7);
  // Legitimate load on the popular site throughout [0, 100k).
  for (std::uint64_t s = 0; s < num_clients; ++s)
    launch_session(simulator, rng.bounded(100'000),
                   clients[s % clients.size()], kPopularSite);
  // Zombies at edges 4 and 5 flood the victim from tick 60k.
  launch_spoofed_flood(simulator, edges[4], kVictim, 60'000, 25'000,
                       spoofed_sources / 2, 0xabcd, rng);
  launch_spoofed_flood(simulator, edges[5], kVictim, 60'000, 25'000,
                       spoofed_sources - spoofed_sources / 2, 0x1234, rng);

  simulator.run();
  // Each router ships its last epoch and says Bye.
  std::uint64_t epochs = 0;
  for (const auto& agent : agents) {
    agent->stop(10'000);
    epochs += agent->stats().epochs_shipped;
  }
  const bool all_byes = collector.wait_for_byes(agents.size(), 10'000);
  collector.stop();

  // --- Results. ---------------------------------------------------------------
  const SimStats& stats = simulator.stats();
  std::printf("simulation: %llu packets sent, %llu delivered, %llu black-holed, %llu hops\n",
              static_cast<unsigned long long>(stats.packets_sent),
              static_cast<unsigned long long>(stats.packets_delivered),
              static_cast<unsigned long long>(stats.packets_dropped),
              static_cast<unsigned long long>(stats.hops_traversed));
  std::printf("victim server: %zu half-open, %llu SYNs rejected (backlog full)\n",
              victim_ptr->half_open(),
              static_cast<unsigned long long>(victim_ptr->rejected_syns()));
  std::printf("popular site:  %zu half-open, %llu established\n\n",
              popular_ptr->half_open(),
              static_cast<unsigned long long>(popular_ptr->established()));

  std::printf("collector top-3 by distinct half-open sources:\n");
  for (const TopKEntry& e : collector.top_k(3).entries) {
    const char* tag = e.group == kVictim        ? " <- the victim"
                      : e.group == kPopularSite ? " (popular site)"
                                                : "";
    std::printf("  dest=%08x ~%llu%s\n", e.group,
                static_cast<unsigned long long>(e.estimate), tag);
  }
  std::printf("%zu routers shipped %llu epoch sketches; the collector "
              "merged %llu\n",
              agents.size(), static_cast<unsigned long long>(epochs),
              static_cast<unsigned long long>(
                  collector.stats().deltas_merged));

  const bool identical = all_byes && collector.merged_sketch() == reference;
  std::printf("merged sketch identical to single-monitor sketch: %s\n",
              identical ? "yes" : "NO");
  const auto top = collector.top_k(1).entries;
  const bool correct = !top.empty() && top[0].group == kVictim;
  std::printf("\nverdict: %s\n", correct
                                     ? "victim correctly identified at the collector"
                                     : "FAILED to identify the victim");
  return identical && correct ? 0 : 1;
}

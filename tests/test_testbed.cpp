// Tests for the Testbed's node-indexed build (DESIGN.md §14): the plain and
// the sharded constructor wire the same fabric, every lookup keeps its miss
// result, and a one-data-partition engine gives the flows the same schedule
// as the plain constructor, one extra event per control hop.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/collector.hpp"
#include "fault/fault_injector.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

namespace planck::workload {
namespace {

net::TopologyGraph k4() {
  return net::make_fat_tree(
      4, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
}

/// The same k=4 fabric built both ways: `plain` on one Simulation, `sharded`
/// on the pod partitions of make_partition_map.
struct BothBeds {
  explicit BothBeds(TestbedConfig cfg = {})
      : graph(k4()),
        map(net::make_partition_map(graph)),
        engine(map.num_partitions, map.lookahead(), 1),
        plain(sim, graph, cfg),
        sharded(engine, map, graph, cfg) {}

  net::TopologyGraph graph;
  net::PartitionMap map;
  sim::Simulation sim;
  sim::ParallelEngine engine;
  Testbed plain;
  Testbed sharded;
};

TEST(Testbed, NodeLookupsAgreeAcrossConstructors) {
  BothBeds b;
  ASSERT_GT(b.map.num_partitions, 1);
  int boundary = 0;
  for (int node = 0; node < b.graph.num_nodes(); ++node) {
    for (int port = 0; port < b.graph.num_ports(node); ++port) {
      const net::PortRef peer = b.graph.peer(node, port);
      if (!peer.valid()) continue;
      net::Link* a = b.plain.link_out(node, port);
      net::Link* s = b.sharded.link_out(node, port);
      ASSERT_NE(a, nullptr) << node << ":" << port;
      ASSERT_NE(s, nullptr) << node << ":" << port;
      EXPECT_EQ(a->rate(), s->rate()) << node << ":" << port;
      EXPECT_FALSE(a->crosses_partition()) << node << ":" << port;
      EXPECT_EQ(s->crosses_partition(), b.map.cross(node, peer.node))
          << node << ":" << port;
      if (s->crosses_partition()) ++boundary;
    }
    if (b.graph.is_host(node)) continue;
    // The monitor cable: same skewed rate, never a boundary (the collector
    // sits on its switch's partition).
    const int monitor = b.graph.num_ports(node);
    ASSERT_NE(b.plain.link_out(node, monitor), nullptr);
    ASSERT_NE(b.sharded.link_out(node, monitor), nullptr);
    EXPECT_EQ(b.plain.link_out(node, monitor)->rate(),
              b.sharded.link_out(node, monitor)->rate());
    EXPECT_FALSE(b.sharded.link_out(node, monitor)->crosses_partition());
    EXPECT_EQ(b.plain.switch_by_node(node)->name(),
              b.sharded.switch_by_node(node)->name());
    ASSERT_NE(b.sharded.collector_by_node(node), nullptr);
    EXPECT_EQ(b.sharded.collector_by_node(node)->switch_node(), node);
  }
  EXPECT_EQ(boundary, b.map.cross_links);

  // switch_nodes(): every switch once, ascending node order.
  const auto nodes = b.sharded.switch_nodes();
  ASSERT_EQ(static_cast<int>(nodes.size()), b.sharded.num_switches());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_FALSE(b.graph.is_host(nodes[i].first));
    EXPECT_EQ(nodes[i].second, b.sharded.switch_by_node(nodes[i].first));
    if (i > 0) {
      EXPECT_LT(nodes[i - 1].first, nodes[i].first);
    }
  }
}

TEST(Testbed, LookupMissesKeepTheirResults) {
  BothBeds b;
  const int host = b.graph.host_node(0);
  const int sw = b.graph.switch_node(0);
  const int past_end = b.graph.num_nodes();
  for (Testbed* bed : {&b.plain, &b.sharded}) {
    EXPECT_THROW(bed->switch_by_node(host), std::out_of_range);
    EXPECT_THROW(bed->switch_by_node(-1), std::out_of_range);
    EXPECT_THROW(bed->switch_by_node(past_end), std::out_of_range);
    EXPECT_EQ(bed->collector_by_node(host), nullptr);
    EXPECT_EQ(bed->collector_by_node(-1), nullptr);
    EXPECT_EQ(bed->collector_by_node(past_end), nullptr);
    EXPECT_NE(bed->link_out(host, 0), nullptr);
    EXPECT_EQ(bed->link_out(host, 1), nullptr);  // a host has one port
    EXPECT_EQ(bed->link_out(host, -1), nullptr);
    EXPECT_EQ(bed->link_out(sw, b.graph.num_ports(sw) + 1), nullptr);
    EXPECT_EQ(bed->link_out(sw, -1), nullptr);
    EXPECT_EQ(bed->link_out(-1, 0), nullptr);
    EXPECT_EQ(bed->link_out(past_end, 0), nullptr);
    EXPECT_THROW(bed->set_collector_online(host, false), std::out_of_range);

    core::Collector* collector = bed->collector_by_node(sw);
    ASSERT_NE(collector, nullptr);
    EXPECT_EQ(collector->link_utilization_bps(-1), 0.0);
    EXPECT_EQ(collector->link_utilization_bps(b.graph.num_ports(sw) + 7),
              0.0);
  }

  // Without Planck there is no monitor port and no collector.
  TestbedConfig cfg;
  cfg.enable_planck = false;
  BothBeds bare(cfg);
  for (Testbed* bed : {&bare.plain, &bare.sharded}) {
    EXPECT_EQ(bed->collector_by_node(sw), nullptr);
    EXPECT_EQ(bed->link_out(sw, bare.graph.num_ports(sw)), nullptr);
    EXPECT_THROW(bed->set_collector_online(sw, false), std::out_of_range);
  }
}

TEST(Testbed, QueryToNonSwitchNodeReachesFailure) {
  sim::Simulation sim;
  const net::TopologyGraph graph = k4();
  Testbed bed(sim, graph, TestbedConfig{});
  int replies = 0;
  int failures = 0;
  for (int node : {graph.host_node(0), -1, graph.num_nodes()}) {
    bed.controller().query_link_utilization(
        node, 0, [&](double) { ++replies; }, [&] { ++failures; });
  }
  sim.run_until(sim::milliseconds(10));
  EXPECT_EQ(replies, 0);
  EXPECT_EQ(failures, 3);
}

TEST(Testbed, FaultInjectorDepthLookupsMissOutsideTheFabric) {
  sim::Simulation sim;
  const net::TopologyGraph graph = k4();
  Testbed bed(sim, graph, TestbedConfig{});
  fault::FaultInjector inj(sim, bed, 1);
  const int sw = graph.switch_node(0);
  inj.crash_switch(sw);
  inj.crash_collector(sw);
  EXPECT_TRUE(inj.switch_down(sw));
  EXPECT_TRUE(inj.collector_down(sw));
  for (int node : {-1, graph.num_nodes(), graph.host_node(0)}) {
    EXPECT_FALSE(inj.switch_down(node));
    EXPECT_FALSE(inj.collector_down(node));
  }
  EXPECT_THROW(inj.crash_switch(graph.num_nodes()), std::out_of_range);
}

// --- one data partition vs the plain constructor --------------------------

struct HalfShiftRun {
  std::vector<sim::Time> completed_at;  // by source host
  std::uint64_t reroutes = 0;
  std::uint64_t te_events = 0;
  std::uint64_t relayed_hops = 0;  // congestion events the collectors fired
  std::uint64_t events = 0;
};

/// k=4, every host sends 4 MiB to the host half the fabric away, under
/// PlanckTE, for 200 ms: on the plain constructor, or (`sharded`) on a
/// one-data-partition engine holding every node.
HalfShiftRun run_half_shift(bool sharded) {
  const net::TopologyGraph graph = k4();
  net::PartitionMap one;
  one.node_partition.assign(static_cast<std::size_t>(graph.num_nodes()), 0);
  sim::Simulation plain_sim;
  sim::ParallelEngine engine(1, one.lookahead(), 1);
  std::unique_ptr<Testbed> bed =
      sharded ? std::make_unique<Testbed>(engine, one, graph, TestbedConfig{})
              : std::make_unique<Testbed>(plain_sim, graph, TestbedConfig{});
  te::PlanckTe te(bed->sim(), bed->controller(), te::PlanckTeConfig{});

  HalfShiftRun out;
  const int hosts = graph.num_hosts();
  out.completed_at.assign(static_cast<std::size_t>(hosts), 0);
  for (int src = 0; src < hosts; ++src) {
    bed->host(src)->start_flow(
        net::host_ip((src + hosts / 2) % hosts), 5001, 4 * 1024 * 1024,
        [&out, src](const tcp::FlowStats& s) {
          out.completed_at[static_cast<std::size_t>(src)] = s.completed_at;
        });
  }
  const sim::Time horizon = sim::milliseconds(200);
  if (sharded) {
    engine.run_until(horizon);
    out.events = engine.events_executed();
  } else {
    plain_sim.run_until(horizon);
    out.events = plain_sim.events_executed();
  }
  out.reroutes = te.reroutes();
  out.te_events = te.events_processed();
  for (const auto& collector : bed->collectors()) {
    out.relayed_hops += collector->events_fired();
  }
  return out;
}

TEST(Testbed, OnePartitionEngineGivesFlowsThePlainSchedule) {
  const HalfShiftRun plain = run_half_shift(false);
  const HalfShiftRun sharded = run_half_shift(true);
  for (std::size_t h = 0; h < plain.completed_at.size(); ++h) {
    EXPECT_GT(plain.completed_at[h], 0) << "flow " << h << " unfinished";
    EXPECT_EQ(sharded.completed_at[h], plain.completed_at[h]) << "flow " << h;
  }
  EXPECT_GT(plain.reroutes, 0u);
  EXPECT_EQ(sharded.reroutes, plain.reroutes);
  EXPECT_EQ(sharded.te_events, plain.te_events);
  // Not event-identical: each congestion event takes one extra event, its
  // hop from the data partition to the control partition.
  ASSERT_GT(sharded.relayed_hops, 0u);
  EXPECT_EQ(sharded.relayed_hops, plain.relayed_hops);
  EXPECT_EQ(sharded.events - plain.events, sharded.relayed_hops);
}

}  // namespace
}  // namespace planck::workload

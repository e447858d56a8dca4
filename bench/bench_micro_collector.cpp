// Microbenchmarks (google-benchmark): raw processing rates of the pieces
// the paper's collector must run at line rate — the burst rate estimator,
// collector sample intake, switch forwarding, and the event queue. A
// 10 GbE monitor port delivers at most ~812 kpps of full-size frames; the
// per-sample budget is therefore ~1.2 us, and these benches verify the
// simulated collector's logic is far under it.

#include <benchmark/benchmark.h>

#include "core/collector.hpp"
#include "core/rate_estimator.hpp"
#include "net/link.hpp"
#include "net/route_info.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "switchsim/switch.hpp"

using namespace planck;

namespace {

void BM_BurstEstimatorAddSample(benchmark::State& state) {
  core::BurstRateEstimator est;
  std::uint64_t seq = 0;
  sim::Time t = 0;
  for (auto _ : state) {
    est.add_sample(t, seq, 1460);
    seq += 1460;
    t += 1231;
  }
  benchmark::DoNotOptimize(est.rate_bps());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BurstEstimatorAddSample);

void BM_CollectorHandleSample(benchmark::State& state) {
  // A 2-host star: flow 0->1 enters by port 0 and leaves by port 1.
  const net::TopologyGraph graph = net::make_star(2, net::LinkSpec{});
  const int node = graph.switch_node(0);
  sim::Simulation simulation;
  core::CollectorConfig cfg;
  core::Collector collector(simulation, "bench", node, cfg);
  collector.update_route_view(net::SwitchRouteView(graph, node));
  collector.set_link_capacity(1, 10'000'000'000);

  net::Packet p;
  p.src_mac = net::host_mac(0);
  p.dst_mac = net::host_mac(1);
  p.src_ip = net::host_ip(0);
  p.dst_ip = net::host_ip(1);
  p.src_port = 10000;
  p.dst_port = 5001;
  p.payload = 1460;
  for (auto _ : state) {
    collector.handle_packet(p, 0);
    p.seq += 1460;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CollectorHandleSample);

void BM_CollectorManyFlows(benchmark::State& state) {
  // A 16-host star: flow f runs f%16 -> (f+1)%16, entering by port f%16.
  const net::TopologyGraph graph = net::make_star(16, net::LinkSpec{});
  const int node = graph.switch_node(0);
  sim::Simulation simulation;
  core::Collector collector(simulation, "bench", node,
                            core::CollectorConfig{});
  const int flows = static_cast<int>(state.range(0));
  std::vector<net::Packet> packets;
  for (int f = 0; f < flows; ++f) {
    net::Packet p;
    p.src_mac = net::host_mac(f % 16);
    p.dst_mac = net::host_mac((f + 1) % 16);
    p.src_ip = net::host_ip(f % 16);
    p.dst_ip = net::host_ip((f + 1) % 16);
    p.src_port = static_cast<std::uint16_t>(10000 + f);
    p.dst_port = 5001;
    p.payload = 1460;
    packets.push_back(p);
  }
  collector.update_route_view(net::SwitchRouteView(graph, node));
  std::size_t i = 0;
  for (auto _ : state) {
    net::Packet& p = packets[i % packets.size()];
    collector.handle_packet(p, 0);
    p.seq += 1460;
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CollectorManyFlows)->Arg(16)->Arg(256)->Arg(4096);

void BM_SwitchForward(benchmark::State& state) {
  sim::Simulation simulation;
  switchsim::Switch sw(simulation, "bench", 4, switchsim::SwitchConfig{});
  net::Link link(simulation, sim::gigabits_per_sec(10), 0);
  struct Sink : net::Node {
    void handle_packet(const net::Packet&, int) override {}
  } sink;
  link.connect(&sink, 0);
  sw.attach_link(1, &link);
  switchsim::RuleActions a;
  a.out_port = 1;
  sw.rules().set_mac_rule(net::host_mac(1), a);

  net::Packet p;
  p.dst_mac = net::host_mac(1);
  p.src_ip = net::host_ip(0);
  p.dst_ip = net::host_ip(1);
  p.payload = 1460;
  sim::Time t = 0;
  for (auto _ : state) {
    sw.handle_packet(p, 0);
    t += 1231;
    simulation.run_until(t);  // drain the port queue as we go
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwitchForward);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Time t = 0;
  int sink = 0;
  for (auto _ : state) {
    q.push(t + 500, [&sink] { ++sink; });
    q.push(t + 1000, [&sink] { ++sink; });
    q.run_top();
    q.run_top();
    t += 1500;  // keep schedule times monotonic past the last pop
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_EventQueuePushPop);

}  // namespace

BENCHMARK_MAIN();

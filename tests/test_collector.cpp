// Tests for the Planck collector: flow-table maintenance, in/out-port
// inference from the controller-shared routing view (§3.2.1), link
// utilization aggregation, congestion events with flow annotations (§3.3),
// queries, and the raw-sample ring.

#include <gtest/gtest.h>

#include <vector>

#include "core/collector.hpp"
#include "core/flow_table.hpp"
#include "core/opensample.hpp"
#include "net/route_info.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace planck::core {
namespace {

using net::FlowKey;
using net::Packet;

Packet make_data(int src, int dst, std::uint64_t seq, int tree = 0,
                 std::uint32_t payload = 1460) {
  Packet p;
  p.src_mac = net::host_mac(src);
  p.dst_mac = net::host_mac(dst, tree);
  p.src_ip = net::host_ip(src);
  p.dst_ip = net::host_ip(dst);
  p.src_port = 10000;
  p.dst_port = 5001;
  p.proto = net::Protocol::kTcp;
  p.seq = seq;
  p.payload = payload;
  return p;
}

// The collector watches edge switch (pod 0, edge 0) of a k=4 fat-tree and
// samples host 0 -> host 4 (pod 1). Host 4's base tree runs through core 2
// (aggregation switch 1, edge uplink port 3); its shadow tree 2 through
// core 0 (aggregation switch 0, uplink port 2). Host 0 hangs off port 0.
constexpr int kSrc = 0;
constexpr int kDst = 4;
constexpr int kInPort = 0;
constexpr int kBasePort = 3;
constexpr int kShadowPort = 2;

struct Fixture {
  explicit Fixture(CollectorConfig cfg = {})
      : graph(net::make_fat_tree(4, net::LinkSpec{})),
        node(graph.switch_node(0)),
        collector(sim, "c0", node, cfg) {
    collector.update_route_view(net::SwitchRouteView(graph, node));
    collector.set_link_capacity(kBasePort, 10'000'000'000);
    collector.set_link_capacity(kShadowPort, 10'000'000'000);
  }

  /// Feeds a CBR sample stream for flow kSrc -> kDst on `tree`.
  void feed(double rate_bps, sim::Duration duration, int tree = 0) {
    const double interval = 1460 * 8.0 / rate_bps * 1e9;
    const sim::Time start = sim.now();
    for (double t = 0; t < static_cast<double>(duration); t += interval) {
      sim.schedule_at(start + static_cast<sim::Time>(t), [this, tree] {
        collector.handle_packet(make_data(kSrc, kDst, seqs_[tree], tree),
                                kInPort);
        seqs_[tree] += 1460;
      });
    }
    sim.run_until(start + duration);
  }

  net::TopologyGraph graph;
  int node;
  sim::Simulation sim;
  Collector collector;
  std::uint64_t seqs_[4] = {};
};

TEST(Collector, TracksFlowsAndSamples) {
  Fixture f;
  f.feed(5e9, sim::milliseconds(2));
  EXPECT_GT(f.collector.samples_received(), 100u);
  EXPECT_EQ(f.collector.flow_table().size(), 1u);
  const FlowRecord* rec =
      f.collector.flow_table().find(make_data(kSrc, kDst, 0).flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->samples, 100u);
}

TEST(Collector, InfersPortsFromRouteView) {
  Fixture f;
  f.feed(5e9, sim::milliseconds(1));
  const FlowRecord* rec =
      f.collector.flow_table().find(make_data(kSrc, kDst, 0).flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->in_port, kInPort);
  EXPECT_EQ(rec->out_port, kBasePort);
  EXPECT_EQ(f.collector.inference_misses(), 0u);
}

TEST(Collector, InferenceMatchesOracleMetadata) {
  Fixture f;
  // The mirrored replica carries oracle ports; inference must agree.
  Packet p = make_data(kSrc, kDst, 0);
  p.oracle_in_port = kInPort;
  p.oracle_out_port = kBasePort;
  f.collector.handle_packet(p, kInPort);
  const FlowRecord* rec = f.collector.flow_table().find(p.flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->in_port, p.oracle_in_port);
  EXPECT_EQ(rec->out_port, p.oracle_out_port);
}

TEST(Collector, CountsInferenceMissWithoutRouteInfo) {
  Fixture f;
  // Host 16 is past the 16-host fabric: no route to it crosses the switch.
  Packet p = make_data(5, 16, 0);
  f.collector.handle_packet(p, 0);
  EXPECT_EQ(f.collector.inference_misses(), 1u);
  const FlowRecord* rec = f.collector.flow_table().find(p.flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->out_port, -1);
}

TEST(Collector, LinkUtilizationTracksFlowRate) {
  Fixture f;
  f.feed(6e9, sim::milliseconds(3));
  EXPECT_NEAR(f.collector.link_utilization_bps(kBasePort), 6e9, 6e8);
  EXPECT_EQ(f.collector.link_utilization_bps(kShadowPort), 0.0);
}

TEST(Collector, UtilizationGoesStaleAfterFlowStops) {
  Fixture f;
  f.feed(6e9, sim::milliseconds(3));
  EXPECT_GT(f.collector.link_utilization_bps(kBasePort), 1e9);
  // Advance past the staleness window with no traffic; sweeps run on.
  f.sim.run_until(f.sim.now() + sim::milliseconds(20));
  EXPECT_EQ(f.collector.link_utilization_bps(kBasePort), 0.0);
}

TEST(Collector, IdleFlowsEvicted) {
  CollectorConfig cfg;
  cfg.flow_idle_timeout = sim::milliseconds(10);
  Fixture f(cfg);
  f.feed(5e9, sim::milliseconds(1));
  EXPECT_EQ(f.collector.flow_table().size(), 1u);
  f.sim.run_until(f.sim.now() + sim::milliseconds(50));
  EXPECT_EQ(f.collector.flow_table().size(), 0u);
}

TEST(Collector, EvictionReleasesEveryContribution) {
  // Regression for the contributing_bps unwind: every record returned by
  // FlowTable::evict_idle must be subtracted from its port aggregate, and
  // once the last contributor leaves, the aggregate must read exactly 0.0
  // — not FP dust from the add/subtract round trips.
  CollectorConfig cfg;
  cfg.flow_idle_timeout = sim::milliseconds(10);
  Fixture f(cfg);
  f.feed(6e9, sim::milliseconds(2));
  EXPECT_GT(f.collector.link_utilization_bps(kBasePort), 1e9);
  EXPECT_EQ(f.collector.evictions(), 0u);
  f.sim.run_until(f.sim.now() + sim::milliseconds(50));
  EXPECT_EQ(f.collector.flow_table().size(), 0u);
  EXPECT_GT(f.collector.evictions(), 0u);
  EXPECT_EQ(f.collector.link_utilization_bps(kBasePort), 0.0);
}

TEST(Collector, TreeChangeLeavesNoResidualUtilization) {
  Fixture f;
  f.feed(6e9, sim::milliseconds(2), /*tree=*/0);
  EXPECT_GT(f.collector.link_utilization_bps(kBasePort), 4e9);
  // The dst MAC moves to shadow tree 2 (kShadowPort): the old port's
  // aggregate must return to exactly zero the moment the flow migrates,
  // without waiting for the staleness sweep.
  f.seqs_[2] = f.seqs_[0];
  f.feed(6e9, sim::milliseconds(2), /*tree=*/2);
  EXPECT_EQ(f.collector.link_utilization_bps(kBasePort), 0.0);
  EXPECT_GT(f.collector.link_utilization_bps(kShadowPort), 4e9);
}

TEST(Collector, UtilizationMovesWithReroute) {
  Fixture f;
  f.feed(6e9, sim::milliseconds(2), /*tree=*/0);
  EXPECT_GT(f.collector.link_utilization_bps(kBasePort), 4e9);
  // The flow switches to shadow tree 2 (kShadowPort): contributions move.
  f.seqs_[2] = f.seqs_[0];  // sequence continues
  f.feed(6e9, sim::milliseconds(2), /*tree=*/2);
  EXPECT_GT(f.collector.link_utilization_bps(kShadowPort), 4e9);
  f.sim.run_until(f.sim.now() + sim::milliseconds(20));
  EXPECT_EQ(f.collector.link_utilization_bps(kBasePort), 0.0);
}

TEST(Collector, CongestionEventFiresAboveThreshold) {
  Fixture f;
  std::vector<CongestionEvent> events;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent& e) { events.push_back(e); });
  f.feed(9.4e9, sim::milliseconds(3));
  ASSERT_FALSE(events.empty());
  const CongestionEvent& e = events.front();
  EXPECT_EQ(e.switch_node, f.node);
  EXPECT_EQ(e.out_port, kBasePort);
  EXPECT_GT(e.utilization_bps, 0.9 * 10e9);
  EXPECT_EQ(e.capacity_bps, 10'000'000'000);
  ASSERT_EQ(e.flows.size(), 1u);
  EXPECT_NEAR(e.flows[0].rate_bps, 9.4e9, 5e8);
  EXPECT_EQ(e.flows[0].src_mac, net::host_mac(kSrc));
}

TEST(Collector, NoEventBelowThreshold) {
  Fixture f;
  int events = 0;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent&) { ++events; });
  f.feed(5e9, sim::milliseconds(3));
  EXPECT_EQ(events, 0);
}

TEST(Collector, EventsDebounced) {
  CollectorConfig cfg;
  cfg.event_debounce = sim::milliseconds(1);
  Fixture f(cfg);
  int events = 0;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent&) { ++events; });
  f.feed(9.4e9, sim::milliseconds(10));
  // At most ~one per debounce interval.
  EXPECT_LE(events, 12);
  EXPECT_GE(events, 5);
}

TEST(Collector, EventThresholdConfigurable) {
  CollectorConfig cfg;
  cfg.congestion_threshold = 0.5;
  Fixture f(cfg);
  int events = 0;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent&) { ++events; });
  f.feed(6e9, sim::milliseconds(3));
  EXPECT_GT(events, 0);
}

TEST(Collector, FlowsOnLinkSortedByRate) {
  Fixture f;
  // Two flows on the base uplink: 0->4 fast, 1->4 slow. Host 1 shares host
  // 0's edge switch (port 1), and routing to host 4 is destination-based.
  std::uint64_t seq_a = 0;
  std::uint64_t seq_b = 0;
  for (int i = 0; i < 4000; ++i) {
    f.sim.schedule_at(i * 2000, [&f, &seq_a, i] {
      f.collector.handle_packet(make_data(kSrc, kDst, seq_a), kInPort);
      seq_a += 1460;
    });
    if (i % 4 == 0) {
      f.sim.schedule_at(i * 2000 + 500, [&f, &seq_b] {
        f.collector.handle_packet(make_data(1, kDst, seq_b), 1);
        seq_b += 1460;
      });
    }
  }
  f.sim.run_until(4000 * 2000);
  const auto flows = f.collector.flows_on_link(kBasePort);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_GT(flows[0].rate_bps, flows[1].rate_bps);
  EXPECT_EQ(flows[0].src_mac, net::host_mac(kSrc));
}

TEST(Collector, RawSampleRingBounded) {
  CollectorConfig cfg;
  cfg.sample_ring_capacity = 64;
  Fixture f(cfg);
  f.feed(9e9, sim::milliseconds(1));
  const std::vector<Sample> ring = f.collector.raw_samples();
  ASSERT_GT(f.collector.samples_received(), 64u);  // the ring has wrapped
  EXPECT_EQ(ring.size(), 64u);
  // Oldest first, newest last, across the wrap point.
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_GE(ring[i].received_at, ring[i - 1].received_at) << i;
  }
  EXPECT_GT(ring.back().received_at, ring.front().received_at);
}

TEST(Collector, SampleHookSeesEverySample) {
  Fixture f;
  int hooked = 0;
  f.collector.set_sample_hook([&](const Sample&) { ++hooked; });
  f.feed(5e9, sim::milliseconds(1));
  EXPECT_EQ(static_cast<std::uint64_t>(hooked),
            f.collector.samples_received());
}

TEST(Collector, RawSampleRingOffByDefault) {
  Fixture f;
  int hooked = 0;
  f.collector.set_sample_hook([&](const Sample&) { ++hooked; });
  f.feed(5e9, sim::milliseconds(1));
  ASSERT_GT(f.collector.samples_received(), 0u);
  EXPECT_TRUE(f.collector.raw_samples().empty());
  EXPECT_EQ(static_cast<std::uint64_t>(hooked),
            f.collector.samples_received());
}

TEST(Collector, ArpSamplesRecordedButNotTracked) {
  CollectorConfig cfg;
  cfg.sample_ring_capacity = 16;
  Fixture f(cfg);
  Packet arp;
  arp.proto = net::Protocol::kArp;
  arp.arp_op = net::ArpOp::kRequest;
  f.collector.handle_packet(arp, 0);
  EXPECT_EQ(f.collector.samples_received(), 1u);
  EXPECT_EQ(f.collector.flow_table().size(), 0u);
  EXPECT_EQ(f.collector.raw_samples().size(), 1u);
}

TEST(Collector, PureAcksTrackedWithoutRate) {
  Fixture f;
  Packet ack = make_data(kSrc, kDst, 0, 0, 0);
  ack.flags = net::kAck;
  ack.ack = 123456;
  for (int i = 0; i < 100; ++i) f.collector.handle_packet(ack, 0);
  EXPECT_EQ(f.collector.flow_table().size(), 1u);
  const FlowRecord* rec = f.collector.flow_table().find(ack.flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->estimator.has_estimate());
  EXPECT_EQ(f.collector.link_utilization_bps(kBasePort), 0.0);
}


// OpenSample baseline estimator (§2.1): sparse control-plane samples with
// sequence numbers.

TEST(OpenSample, EstimatesRateFromSparseSamples) {
  OpenSampleEstimator est;
  Packet p = make_data(0, 1, 0);
  // 10 samples, 10 ms apart, of a 2 Gbps flow: seq advances 2.5 MB per gap.
  for (int i = 0; i < 10; ++i) {
    p.seq = static_cast<std::uint64_t>(i) * 2'500'000;
    est.add_sample(i * sim::milliseconds(10), p);
  }
  const auto* fs = est.find(p.flow_key());
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->samples, 10u);
  EXPECT_NEAR(fs->rate_bps(), 2e9, 4e7);
  EXPECT_EQ(fs->window(), 9 * sim::milliseconds(10));
}

TEST(OpenSample, SingleSampleHasNoRate) {
  OpenSampleEstimator est;
  est.add_sample(0, make_data(0, 1, 0));
  const auto* fs = est.find(make_data(0, 1, 0).flow_key());
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->rate_bps(), 0.0);
}

TEST(OpenSample, IgnoresRetransmissionsAndAcks) {
  OpenSampleEstimator est;
  Packet p = make_data(0, 1, 100'000);
  est.add_sample(0, p);
  p.seq = 0;  // retransmission: behind the high-water mark
  est.add_sample(sim::milliseconds(1), p);
  Packet ack = make_data(0, 1, 0, 0, 0);
  est.add_sample(sim::milliseconds(2), ack);
  const auto* fs = est.find(p.flow_key());
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->samples, 1u);
}

TEST(OpenSample, TracksMultipleFlows) {
  OpenSampleEstimator est;
  est.add_sample(0, make_data(0, 1, 0));
  est.add_sample(0, make_data(2, 3, 0));
  EXPECT_EQ(est.flows_tracked(), 2u);
  EXPECT_EQ(est.samples_seen(), 2u);
}

// FlowTable unit tests.

TEST(FlowTable, UpsertCreatesOnce) {
  FlowTable table;
  FlowKey k = make_data(0, 1, 0).flow_key();
  FlowRecord& a = table.upsert(k, 100);
  a.samples = 7;
  FlowRecord& b = table.upsert(k, 200);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.samples, 7u);
  EXPECT_EQ(b.first_seen, 100);
  EXPECT_EQ(b.last_seen, 200);
}

TEST(FlowTable, EvictIdleReturnsRecords) {
  FlowTable table;
  table.upsert(make_data(0, 1, 0).flow_key(), 100);
  table.upsert(make_data(0, 2, 0).flow_key(), 500);
  const auto evicted = table.evict_idle(300);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].last_seen, 100);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, EvictIdleCutoffIsClosed) {
  // Regression: the eviction boundary is a closed interval. A flow last
  // seen *exactly* at the cutoff (idle for exactly idle_timeout) is
  // evicted on this sweep, not deferred to the next one; a flow one tick
  // newer survives.
  FlowTable table;
  table.upsert(make_data(0, 1, 0).flow_key(), 300);  // exactly at cutoff
  table.upsert(make_data(0, 2, 0).flow_key(), 301);  // one tick newer
  const auto evicted = table.evict_idle(300);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].last_seen, 300);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_NE(table.find(make_data(0, 2, 0).flow_key()), nullptr);
}

TEST(FlowTable, FindMissingReturnsNull) {
  FlowTable table;
  EXPECT_EQ(table.find(make_data(0, 1, 0).flow_key()), nullptr);
}

}  // namespace
}  // namespace planck::core

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "controller/controller.hpp"
#include "core/collector.hpp"
#include "net/link.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "switchsim/switch.hpp"
#include "tcp/host.hpp"

namespace planck::sim {
class ParallelEngine;
}  // namespace planck::sim

namespace planck::workload {

struct TestbedConfig {
  switchsim::SwitchConfig switch_config;
  tcp::HostConfig host_config;
  controller::ControllerConfig controller_config;
  core::CollectorConfig collector_config;
  /// Give every switch a monitor port (one extra port beyond the graph's
  /// data ports) wired to its own collector, and enable mirroring.
  bool enable_planck = true;
  /// Link used for monitor-port cables (defaults to the data-link spec of
  /// the graph's first host link).
  sim::Duration monitor_propagation = sim::microseconds(1);

  /// Per-link clock tolerance, applied as a random rate skew of up to
  /// +/- this many parts per million (IEEE 802.3 allows +/-100 ppm).
  /// Without it the simulation is pathologically synchronous: e.g. a
  /// saturated flow's arrival rate exactly equals a port's drain rate, the
  /// queue freezes at the drop threshold, and a competing flow's
  /// retransmissions lose the admission race forever. Real oscillators
  /// drift; so do these.
  double link_rate_ppm = 50.0;
  std::uint64_t seed = 42;
};

/// Instantiates a running network from a TopologyGraph: switches (with an
/// extra monitor port per switch when Planck is enabled), hosts, cables,
/// per-switch collectors, and the controller, fully wired and with routes
/// installed. This is the simulated equivalent of the paper's testbed
/// (§7.1).
///
/// Every per-node fact — the Simulation the node runs on, its switch, its
/// collector, its outgoing cables — lives in one table indexed by graph
/// node id. The two constructors differ only in how they fill the
/// node -> Simulation column; the build itself is one path.
class Testbed {
 public:
  /// Unsharded: every node, and the controller stack, on `simulation`.
  Testbed(sim::Simulation& simulation, const net::TopologyGraph& graph,
          const TestbedConfig& config);

  /// Sharded flavor (DESIGN.md §14): every node's state is instantiated on
  /// the partition `map` assigns it, boundary cables are wired through the
  /// engine mailbox, and the controller/TE stack lives on the engine's
  /// control partition (which sim() then returns). `map.num_partitions`
  /// must equal `engine.data_partitions()`. With one data partition the
  /// flows see the same schedule as under the plain constructor (equal
  /// completion times and reroutes), but the run is not event-identical:
  /// every congestion or port-status notification takes one extra event,
  /// its hop to the control partition, so the digests differ.
  Testbed(sim::ParallelEngine& engine, const net::PartitionMap& map,
          const net::TopologyGraph& graph, const TestbedConfig& config);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// The control-plane simulation: the only one under the plain
  /// constructor; the engine's control partition under the sharded one.
  sim::Simulation& sim() { return sim_; }
  const net::TopologyGraph& graph() const { return graph_; }
  controller::Controller& controller() { return *controller_; }

  tcp::Host* host(int host_index) {
    return hosts_[static_cast<std::size_t>(host_index)].get();
  }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }

  /// Throws std::out_of_range when `graph_node` is not a switch.
  switchsim::Switch* switch_by_node(int graph_node);
  switchsim::Switch* switch_by_index(int switch_index) {
    return switches_[static_cast<std::size_t>(switch_index)].get();
  }
  int num_switches() const { return static_cast<int>(switches_.size()); }

  /// nullptr when Planck is disabled or `graph_node` is not a switch.
  core::Collector* collector_by_node(int graph_node) {
    const NodeSlot* s = slot(graph_node);
    return s == nullptr ? nullptr : s->collector;
  }
  const std::vector<std::unique_ptr<core::Collector>>& collectors() const {
    return collectors_;
  }

  /// All switches as (graph node, pointer) pairs in node order — what
  /// PollTe polls.
  std::vector<std::pair<int, switchsim::Switch*>> switch_nodes();

  // --- fault-plane hooks --------------------------------------------------
  /// The Link transmitting out of (node, port); monitor cables live at
  /// (switch node, monitor port). nullptr when unwired.
  net::Link* link_out(int node, int port) {
    const NodeSlot* s = slot(node);
    const auto p = static_cast<std::size_t>(port);
    return s == nullptr || p >= s->link_out.size() ? nullptr : s->link_out[p];
  }
  /// Cuts or restores the whole cable attached to (node, port): both
  /// directions go down. A switch end goes through set_port_admin (so the
  /// loss-of-signal notification reaches the controller); a host end just
  /// kills the link (hosts don't speak the control protocol).
  void set_link_state(int node, int port, bool up);
  /// Crash/restore a whole switch (wedged data plane; see Switch).
  void set_switch_online(int graph_node, bool online);
  /// Crash/restore one collector process.
  void set_collector_online(int graph_node, bool online);

 private:
  /// What the testbed knows about one graph node.
  struct NodeSlot {
    sim::Simulation* sim = nullptr;        // the partition it lives on
    tcp::Host* host = nullptr;             // null for switches
    switchsim::Switch* sw = nullptr;       // null for hosts
    core::Collector* collector = nullptr;  // null for hosts, or no Planck
    std::vector<net::Link*> link_out;      // by port; null when unwired
  };

  /// The one build path; the constructors have filled nodes_[n].sim.
  void build();
  /// nullptr outside the fabric (a negative id wraps past the end).
  const NodeSlot* slot(int node) const {
    const auto i = static_cast<std::size_t>(node);
    return i < nodes_.size() ? &nodes_[i] : nullptr;
  }
  net::Link* make_link(sim::Simulation& source_sim, sim::BitsPerSec rate,
                       sim::Duration propagation);
  void set_direction_state(int node, int port, bool up);

  sim::Simulation& sim_;
  net::TopologyGraph graph_;
  TestbedConfig config_;
  sim::Rng link_rng_{42};

  std::vector<NodeSlot> nodes_;  // by graph node
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<tcp::Host>> hosts_;
  std::vector<std::unique_ptr<switchsim::Switch>> switches_;
  std::vector<std::unique_ptr<core::Collector>> collectors_;
  std::unique_ptr<controller::Controller> controller_;
};

}  // namespace planck::workload

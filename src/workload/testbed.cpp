#include "workload/testbed.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/parallel.hpp"

namespace planck::workload {

Testbed::Testbed(sim::Simulation& simulation, const net::TopologyGraph& graph,
                 const TestbedConfig& config)
    : sim_(simulation), graph_(graph), config_(config),
      link_rng_(config.seed),
      nodes_(static_cast<std::size_t>(graph.num_nodes())) {
  for (NodeSlot& slot : nodes_) slot.sim = &simulation;
  build();
}

Testbed::Testbed(sim::ParallelEngine& engine, const net::PartitionMap& map,
                 const net::TopologyGraph& graph, const TestbedConfig& config)
    : sim_(engine.control()), graph_(graph), config_(config),
      link_rng_(config.seed),
      nodes_(static_cast<std::size_t>(graph.num_nodes())) {
  assert(map.num_partitions == engine.data_partitions());
  for (int node = 0; node < graph_.num_nodes(); ++node) {
    nodes_[static_cast<std::size_t>(node)].sim =
        &engine.partition(map.partition_of(node));
  }
  build();
}

void Testbed::build() {
  // Instantiate hosts and switches, each on its node's partition.
  for (int node = 0; node < graph_.num_nodes(); ++node) {
    NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
    int ports = graph_.num_ports(node);
    if (graph_.is_host(node)) {
      const int idx = graph_.host_index(node);
      if (static_cast<int>(hosts_.size()) <= idx) {
        hosts_.resize(static_cast<std::size_t>(idx) + 1);
      }
      hosts_[static_cast<std::size_t>(idx)] =
          std::make_unique<tcp::Host>(*slot.sim, idx, config_.host_config);
      slot.host = hosts_[static_cast<std::size_t>(idx)].get();
    } else {
      if (config_.enable_planck) ++ports;  // the monitor port
      switchsim::SwitchConfig sw_config = config_.switch_config;
      sw_config.seed ^= static_cast<std::uint64_t>(
          0x100001 * (graph_.switch_index(node) + 1));
      switches_.push_back(std::make_unique<switchsim::Switch>(
          *slot.sim, "sw" + std::to_string(graph_.switch_index(node)), ports,
          sw_config));
      slot.sw = switches_.back().get();
    }
    slot.link_out.assign(static_cast<std::size_t>(ports), nullptr);
  }

  // Wire the data plane: one unidirectional Link per cable direction. A
  // link lives on its *transmitter's* partition; when the receiver sits on
  // another one, connect() records the destination simulation and
  // deliveries ride the engine mailbox (net::Link::transmit).
  for (int node = 0; node < graph_.num_nodes(); ++node) {
    NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
    for (int port = 0; port < graph_.num_ports(node); ++port) {
      const net::PortRef peer = graph_.peer(node, port);
      if (!peer.valid()) continue;
      const net::LinkSpec& spec = graph_.link_spec(node, port);
      net::Link* out = make_link(*slot.sim, spec.rate, spec.propagation);
      slot.link_out[static_cast<std::size_t>(port)] = out;
      const NodeSlot& rx = nodes_[static_cast<std::size_t>(peer.node)];
      net::Node* receiver = rx.host;
      if (receiver == nullptr) receiver = rx.sw;
      out->connect(receiver, peer.port, rx.sim);
      if (slot.host != nullptr) {
        slot.host->attach_link(out);
      } else {
        slot.sw->attach_link(port, out);
      }
    }
  }

  // Controller + Planck collectors. The controller stack binds to sim_ —
  // the only simulation when unsharded, the engine's control partition
  // when sharded.
  controller_ = std::make_unique<controller::Controller>(
      sim_, graph_, config_.controller_config);
  for (int h = 0; h < num_hosts(); ++h) {
    controller_->attach_host(h, hosts_[static_cast<std::size_t>(h)].get());
  }
  // Node-index order: collector construction order decides link_rng_
  // draws (monitor-cable skew) and controller attachment order.
  for (int node = 0; node < graph_.num_nodes(); ++node) {
    NodeSlot& slot = nodes_[static_cast<std::size_t>(node)];
    switchsim::Switch* sw = slot.sw;
    if (sw == nullptr) continue;
    sim::Simulation* sw_sim = slot.sim;
    int monitor_port = -1;
    if (config_.enable_planck) {
      monitor_port = graph_.num_ports(node);  // the extra port
      // The collector is pinned to its switch's partition: the whole
      // sample path (mirror, monitor cable, intake) stays intra-partition.
      auto collector = std::make_unique<core::Collector>(
          *sw_sim, "collector-" + sw->name(), node, config_.collector_config);
      // Monitor cable: same rate as the switch's first data link.
      sim::BitsPerSec rate = sim::gigabits_per_sec(10);
      for (int p = 0; p < graph_.num_ports(node); ++p) {
        if (graph_.wired(node, p)) {
          rate = graph_.link_spec(node, p).rate;
          break;
        }
      }
      net::Link* monitor_link =
          make_link(*sw_sim, rate, config_.monitor_propagation);
      monitor_link->connect(collector.get(), 0);
      sw->attach_link(monitor_port, monitor_link);
      slot.link_out[static_cast<std::size_t>(monitor_port)] = monitor_link;
      controller_->attach_collector(node, collector.get());
      slot.collector = collector.get();
      collectors_.push_back(std::move(collector));
    }
    controller_->attach_switch(node, sw, monitor_port);
    // Loss-of-signal notifications flow to the controller over its (lossy)
    // control channel, after the hop from the switch's partition to the
    // control partition (none when unsharded).
    sw->set_port_status_handler([this, node, sw_sim](int port, bool up) {
      sw_sim->relay(sim_, [this, node, port, up] {
        controller_->notify_port_status(node, port, up);
      });
    });
  }

  controller_->install_routes();
}

switchsim::Switch* Testbed::switch_by_node(int graph_node) {
  const NodeSlot* s = slot(graph_node);
  if (s == nullptr || s->sw == nullptr) {
    throw std::out_of_range("Testbed::switch_by_node: not a switch node");
  }
  return s->sw;
}

void Testbed::set_link_state(int node, int port, bool up) {
  set_direction_state(node, port, up);
  const net::PortRef peer = graph_.peer(node, port);
  if (peer.valid()) set_direction_state(peer.node, peer.port, up);
}

void Testbed::set_direction_state(int node, int port, bool up) {
  if (!graph_.is_host(node)) {
    switch_by_node(node)->set_port_admin(port, up);
    return;
  }
  // Host end: no admin plane, just the PHY.
  net::Link* link = link_out(node, port);
  if (link != nullptr) link->set_admin_up(up);
}

void Testbed::set_switch_online(int graph_node, bool online) {
  switch_by_node(graph_node)->set_online(online);
}

void Testbed::set_collector_online(int graph_node, bool online) {
  core::Collector* collector = collector_by_node(graph_node);
  if (collector == nullptr) {
    throw std::out_of_range("Testbed::set_collector_online: no collector");
  }
  collector->set_online(online);
}

net::Link* Testbed::make_link(sim::Simulation& source_sim,
                              sim::BitsPerSec rate,
                              sim::Duration propagation) {
  // Clock-tolerance skew (see TestbedConfig::link_rate_ppm).
  if (config_.link_rate_ppm > 0) {
    const double skew = link_rng_.uniform(-config_.link_rate_ppm,
                                          config_.link_rate_ppm) *
                        1e-6;
    rate = sim::BitsPerSec{static_cast<std::int64_t>(
        static_cast<double>(rate.count()) * (1.0 + skew))};
  }
  links_.push_back(
      std::make_unique<net::Link>(source_sim, rate, propagation));
  return links_.back().get();
}

std::vector<std::pair<int, switchsim::Switch*>> Testbed::switch_nodes() {
  std::vector<std::pair<int, switchsim::Switch*>> out;
  out.reserve(switches_.size());
  for (int node = 0; node < graph_.num_nodes(); ++node) {
    switchsim::Switch* sw = nodes_[static_cast<std::size_t>(node)].sw;
    if (sw != nullptr) out.emplace_back(node, sw);
  }
  return out;
}

}  // namespace planck::workload

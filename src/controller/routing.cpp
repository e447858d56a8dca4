#include "controller/routing.hpp"

#include <stdexcept>

namespace planck::controller {

Routing::Routing(const net::TopologyGraph& graph)
    : graph_(graph),
      num_trees_(graph.shape().provisioned_trees),
      num_hosts_(graph.num_hosts()) {
  if (graph.shape().kind == net::FabricKind::kUnknown) {
    throw std::invalid_argument(
        "Routing needs a graph built by net::make_fat_tree, "
        "net::make_leaf_spine, or net::make_star");
  }
}

std::vector<net::DirectedLink> Routing::links_on_path(
    const net::RoutePath& p) const {
  std::vector<net::DirectedLink> links;
  links.reserve(p.hops.size());
  for (const net::PathHop& hop : p.hops) {
    links.push_back(net::DirectedLink{hop.switch_node, hop.out_port});
  }
  return links;
}

}  // namespace planck::controller

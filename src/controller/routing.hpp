#pragma once

#include <cassert>
#include <vector>

#include "net/route_info.hpp"
#include "net/topology.hpp"

namespace planck::controller {

/// Offline multipath route computation (§6.2): PAST-style per-address
/// spanning trees. On a k-ary fat-tree each core switch defines one
/// spanning tree, giving up to (k/2)^2 pre-installable paths per
/// destination (the base tree plus shadow-MAC trees, capped by the
/// fabric's provisioned-trees knob). On a leaf-spine each spine defines a
/// tree; on a star topology there is a single trivial tree. Paths are
/// closed-form in the fabric's shape (net::route_path) and computed on
/// demand; nothing is stored per path.
class Routing {
 public:
  /// The graph must carry a TopologyShape from one of the net::make_*
  /// builders (fat-tree, leaf-spine, or star); hand-wired graphs are
  /// rejected.
  explicit Routing(const net::TopologyGraph& graph);

  /// See net::base_core: the absolute core used by (dst, tree) is
  /// (base_core(dst, num_cores) + tree) % num_cores.
  static int base_core(int dst_host, int num_cores) {
    return net::base_core(dst_host, num_cores);
  }

  int num_trees() const { return num_trees_; }
  int num_hosts() const { return num_hosts_; }

  /// The path from src to dst (host indices) on `tree`. Paths between a
  /// host and itself are empty.
  net::RoutePath path(int src_host, int dst_host, int tree) const {
    assert(src_host >= 0 && src_host < num_hosts_);
    assert(dst_host >= 0 && dst_host < num_hosts_);
    assert(tree >= 0 && tree < num_trees_);
    return net::route_path(graph_, src_host, dst_host, tree);
  }

  /// All switch nodes a path crosses share these links; used by TE for
  /// bottleneck computation. Directed links along the path, in order,
  /// including the final switch->host hop and excluding host->switch (hosts
  /// are the senders' own NICs).
  std::vector<net::DirectedLink> links_on_path(const net::RoutePath& p) const;

  const net::TopologyGraph& graph() const { return graph_; }

 private:
  const net::TopologyGraph& graph_;
  int num_trees_ = 1;
  int num_hosts_ = 0;
};

}  // namespace planck::controller

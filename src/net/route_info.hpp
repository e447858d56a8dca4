#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "net/addresses.hpp"
#include "net/topology.hpp"

namespace planck::net {

/// One switch traversal on a routed path.
struct PathHop {
  int switch_node = -1;  // TopologyGraph node id
  int in_port = -1;
  int out_port = -1;

  friend bool operator==(const PathHop&, const PathHop&) = default;
};

/// The switch traversals of one path, held inline. A fat-tree path crosses
/// at most five switches (edge, agg, core, agg, edge), a leaf-spine path
/// three and a star path one, so no path needs the heap.
class PathHops {
 public:
  static constexpr std::size_t kMaxHops = 5;

  void push_back(const PathHop& hop) {
    assert(size_ < kMaxHops);
    hops_[size_++] = hop;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const PathHop& operator[](std::size_t i) const {
    assert(i < size_);
    return hops_[i];
  }
  const PathHop& front() const { return (*this)[0]; }
  const PathHop& back() const { return (*this)[size_ - 1]; }
  const PathHop* begin() const { return hops_.data(); }
  const PathHop* end() const { return hops_.data() + size_; }

  friend bool operator==(const PathHops& a, const PathHops& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<PathHop, kMaxHops> hops_{};
  std::size_t size_ = 0;
};

/// A full host-to-host path on one routing tree.
struct RoutePath {
  int src_host = -1;  // host index
  int dst_host = -1;  // host index
  int tree = 0;       // 0 = base tree, >= 1 = shadow trees
  PathHops hops;

  friend bool operator==(const RoutePath&, const RoutePath&) = default;
};

/// A directed link in the topology, identified by its transmitting end
/// (the switch and output port that feed it). This is the unit at which
/// utilization is tracked and congestion reported.
struct DirectedLink {
  int node = -1;
  int port = -1;

  friend bool operator==(const DirectedLink&, const DirectedLink&) = default;
};

struct DirectedLinkHash {
  std::size_t operator()(const DirectedLink& l) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(l.node))
         << 32) |
        static_cast<std::uint32_t>(l.port));
  }
};

// --- closed-form routing (§6.2) ---------------------------------------------
//
// Routes are PAST-style per-destination spanning trees, one per core switch
// of a fat-tree (one per spine of a leaf-spine, a single one on a star).
// Every path is a closed-form function of the fabric's TopologyShape, so
// nothing here stores a path: the controller, its route views and TE all
// call route_path() when they need one.

/// Core (spine) carrying `dst_host`'s base tree. Tree indices are relative
/// to the destination: (dst, tree) uses core (base_core(dst, n) + tree) % n,
/// spreading base routes the way PAST/ECMP hashing does.
inline int base_core(int dst_host, int num_cores) {
  // splitmix64-style mix so consecutive hosts land on unrelated cores.
  std::uint64_t z = static_cast<std::uint64_t>(dst_host) +
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<int>((z ^ (z >> 31)) %
                          static_cast<std::uint64_t>(num_cores));
}

/// The path from host `src` to host `dst` on `tree`. The graph must carry a
/// fat-tree, leaf-spine or star shape, and tree < its provisioned_trees.
/// The path from a host to itself is empty.
RoutePath route_path(const TopologyGraph& graph, int src, int dst, int tree);

/// A host whose path to `dst` crosses switch `switch_index` on a tree
/// whenever any host's path to `dst` on that tree does, or -1 when no
/// path to `dst` can cross it. Routing is destination-based, so every path
/// to `dst` through a switch leaves it by the same port: this host's path
/// gives that port. For a host-facing switch (see
/// TopologyShape::num_ingress_switches) it is a host attached there.
int witness_source(const TopologyShape& shape, int switch_index, int dst);

/// The forwarding view of one switch, as shared by the controller with the
/// collectors (§3.2.1, §4.1). Because the network routes on destination
/// MAC, the output port is a function of the dst MAC alone and the input
/// port a function of the (src, dst) MAC pair. The view stores neither:
/// it decodes (src host, dst host, tree) from the MACs and walks the
/// closed-form path at lookup time. It is read-only and only points at
/// the graph, which must outlive it.
class SwitchRouteView {
 public:
  /// A view that knows no routes: every lookup misses.
  SwitchRouteView() = default;
  /// The view of `switch_node` in a fat-tree, leaf-spine or star graph.
  SwitchRouteView(const TopologyGraph& graph, int switch_node)
      : graph_(&graph),
        switch_node_(switch_node),
        num_trees_(graph.shape().provisioned_trees) {}

  /// Port a frame for `dst` leaves this switch by; -1 when no route to
  /// `dst` crosses the switch or `dst` is not a routed host MAC.
  int out_port(MacAddress dst) const;
  /// Port a frame from base MAC `src` to `dst` enters this switch by; -1
  /// when that pair's path does not cross the switch.
  int in_port(MacAddress src, MacAddress dst) const;

 private:
  /// Host id and tree of a routed destination MAC; false if it is none.
  bool decode_dst(MacAddress dst, int* host, int* tree) const;
  /// The hop of `path` at this switch, or nullptr.
  const PathHop* hop_here(const RoutePath& path) const;

  const TopologyGraph* graph_ = nullptr;
  int switch_node_ = -1;
  int num_trees_ = 0;
};

}  // namespace planck::net

#include "net/route_info.hpp"

namespace planck::net {

namespace {

RoutePath fat_tree_path(const TopologyGraph& graph, int src, int dst,
                        int tree) {
  const TopologyShape& sh = graph.shape();
  RoutePath p{src, dst, tree, {}};

  const int ps = sh.pod_of_host(src);
  const int pd = sh.pod_of_host(dst);
  const int es = sh.edge_of_host(src);
  const int ed = sh.edge_of_host(dst);
  const int leaf_s = sh.leaf_of_host(src);
  const int leaf_d = sh.leaf_of_host(dst);
  // Relative tree -> absolute core for this destination (PAST hashing).
  const int core_idx = (base_core(dst, sh.num_core) + tree) % sh.num_core;
  const int a = sh.agg_for_core(core_idx);

  const int edge_s = graph.switch_node(sh.edge_switch_index(ps, es));
  const int edge_d = graph.switch_node(sh.edge_switch_index(pd, ed));

  if (ps == pd && es == ed) {
    p.hops.push_back({edge_s, leaf_s, leaf_d});
    return p;
  }
  if (ps == pd) {
    const int agg = graph.switch_node(sh.agg_switch_index(ps, a));
    p.hops.push_back({edge_s, leaf_s, sh.edge_port_for_agg(a)});
    p.hops.push_back({agg, es, ed});
    p.hops.push_back({edge_d, sh.edge_port_for_agg(a), leaf_d});
    return p;
  }
  const int agg_s = graph.switch_node(sh.agg_switch_index(ps, a));
  const int agg_d = graph.switch_node(sh.agg_switch_index(pd, a));
  const int core = graph.switch_node(sh.core_switch_index(core_idx));
  p.hops.push_back({edge_s, leaf_s, sh.edge_port_for_agg(a)});
  p.hops.push_back({agg_s, es, sh.agg_port_for_core(core_idx)});
  p.hops.push_back({core, ps, pd});
  p.hops.push_back({agg_d, sh.agg_port_for_core(core_idx), ed});
  p.hops.push_back({edge_d, sh.edge_port_for_agg(a), leaf_d});
  return p;
}

RoutePath leaf_spine_path(const TopologyGraph& graph, int src, int dst,
                          int tree) {
  const TopologyShape& sh = graph.shape();
  RoutePath p{src, dst, tree, {}};

  const int ls = sh.leaf_of_ls_host(src);
  const int ld = sh.leaf_of_ls_host(dst);
  const int port_s = sh.leaf_port_of_ls_host(src);
  const int port_d = sh.leaf_port_of_ls_host(dst);
  const int leaf_s = graph.switch_node(sh.leaf_switch_index(ls));

  if (ls == ld) {
    p.hops.push_back({leaf_s, port_s, port_d});
    return p;
  }
  // Each spine defines one tree; the base spine is hashed per destination
  // exactly like fat-tree base cores.
  const int spine_idx =
      (base_core(dst, sh.num_spines) + tree) % sh.num_spines;
  const int leaf_d = graph.switch_node(sh.leaf_switch_index(ld));
  const int spine = graph.switch_node(sh.spine_switch_index(spine_idx));
  p.hops.push_back({leaf_s, port_s, sh.leaf_port_for_spine(spine_idx)});
  p.hops.push_back({spine, ls, ld});
  p.hops.push_back({leaf_d, sh.leaf_port_for_spine(spine_idx), port_d});
  return p;
}

RoutePath star_path(const TopologyGraph& graph, int src, int dst, int tree) {
  RoutePath p{src, dst, tree, {}};
  // Star wiring: host h occupies switch port h.
  p.hops.push_back({graph.switch_node(0), src, dst});
  return p;
}

}  // namespace

RoutePath route_path(const TopologyGraph& graph, int src, int dst,
                     int tree) {
  if (src == dst) return RoutePath{src, dst, tree, {}};
  switch (graph.shape().kind) {
    case FabricKind::kFatTree:
      return fat_tree_path(graph, src, dst, tree);
    case FabricKind::kLeafSpine:
      return leaf_spine_path(graph, src, dst, tree);
    case FabricKind::kStar:
      return star_path(graph, src, dst, tree);
    case FabricKind::kUnknown:
      break;
  }
  assert(false && "route_path needs a fat-tree, leaf-spine or star graph");
  return RoutePath{src, dst, tree, {}};
}

int witness_source(const TopologyShape& shape, int switch_index, int dst) {
  if (shape.num_hosts < 2) return -1;
  if (switch_index < shape.num_ingress_switches()) {
    // A host attached here other than dst. When dst is the only one, every
    // other host's path to it ends here.
    const int per = shape.hosts_per_ingress();
    const int first = switch_index * per;
    if (first != dst) return first;
    if (per > 1) return first + 1;
    return dst == 0 ? 1 : 0;
  }
  switch (shape.kind) {
    case FabricKind::kFatTree: {
      // The aggregation switches of a pod other than dst's carry that
      // pod's traffic up; dst's own aggregation switches and the cores
      // carry the other pods' traffic down.
      const int agg = switch_index - shape.num_ingress_switches();
      const int dst_pod = shape.pod_of_host(dst);
      if (agg < shape.num_pods * shape.agg_per_pod &&
          agg / shape.agg_per_pod != dst_pod) {
        return agg / shape.agg_per_pod * shape.hosts_per_pod();
      }
      return (dst_pod + 1) % shape.num_pods * shape.hosts_per_pod();
    }
    case FabricKind::kLeafSpine:
      // Spines carry only traffic between leaves.
      if (shape.num_leaves < 2) return -1;
      return (shape.leaf_of_ls_host(dst) + 1) % shape.num_leaves *
             shape.hosts_per_leaf;
    case FabricKind::kStar:
    case FabricKind::kUnknown:
      break;
  }
  return -1;
}

bool SwitchRouteView::decode_dst(MacAddress dst, int* host,
                                 int* tree) const {
  int t = 0;
  int h = -1;
  // A base MAC routes on tree 0.
  if (!is_shadow_mac(dst, &t, &h)) h = host_id_of_mac(dst);
  if (t >= num_trees_ || h < 0 || h >= graph_->num_hosts()) return false;
  *host = h;
  *tree = t;
  return true;
}

const PathHop* SwitchRouteView::hop_here(const RoutePath& path) const {
  for (const PathHop& hop : path.hops) {
    if (hop.switch_node == switch_node_) return &hop;
  }
  return nullptr;
}

int SwitchRouteView::out_port(MacAddress dst) const {
  int d = -1;
  int t = 0;
  if (!decode_dst(dst, &d, &t)) return -1;
  const int s =
      witness_source(graph_->shape(), graph_->switch_index(switch_node_), d);
  if (s < 0) return -1;
  const RoutePath path = route_path(*graph_, s, d, t);
  const PathHop* hop = hop_here(path);
  return hop == nullptr ? -1 : hop->out_port;
}

int SwitchRouteView::in_port(MacAddress src, MacAddress dst) const {
  int d = -1;
  int t = 0;
  if (!decode_dst(dst, &d, &t)) return -1;
  // Senders always source from their base MAC.
  const int s = host_id_of_mac(src);
  if (s < 0 || s >= graph_->num_hosts() || src != host_mac(s)) return -1;
  const RoutePath path = route_path(*graph_, s, d, t);
  const PathHop* hop = hop_here(path);
  return hop == nullptr ? -1 : hop->in_port;
}

}  // namespace planck::net

// Equivalence of the closed-form control plane with the hosts² × trees
// tables it replaced. The oracle below rebuilds those tables exactly as the
// controller used to: every (src, dst, tree) path materialised in one
// table, each switch's out-port/in-port lookup tables filled by walking
// every path, and every path hop writing its destination-keyed MAC rule.
// The closed form must agree with it everywhere, misses included: paths
// from Routing::path, collector port inference from SwitchRouteView, and
// the MAC tables the controller installs once per (dst, tree).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "controller/routing.hpp"
#include "net/addresses.hpp"
#include "net/route_info.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "switchsim/rule_table.hpp"
#include "workload/testbed.hpp"

namespace planck {
namespace {

using net::FabricKind;
using net::MacAddress;
using net::PathHop;
using net::TopologyGraph;
using net::TopologyShape;

// --- oracle: the table-driven control plane ---------------------------------

struct LegacyPath {
  int src = -1;
  int dst = -1;
  int tree = 0;
  std::vector<PathHop> hops;
};

int legacy_base_core(int dst_host, int num_cores) {
  std::uint64_t z = static_cast<std::uint64_t>(dst_host) +
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<int>((z ^ (z >> 31)) %
                          static_cast<std::uint64_t>(num_cores));
}

LegacyPath legacy_fat_tree_path(const TopologyGraph& g, int src, int dst,
                                int tree) {
  const TopologyShape& sh = g.shape();
  LegacyPath p{src, dst, tree, {}};
  const int ps = sh.pod_of_host(src);
  const int pd = sh.pod_of_host(dst);
  const int es = sh.edge_of_host(src);
  const int ed = sh.edge_of_host(dst);
  const int leaf_s = sh.leaf_of_host(src);
  const int leaf_d = sh.leaf_of_host(dst);
  const int core_idx =
      (legacy_base_core(dst, sh.num_core) + tree) % sh.num_core;
  const int a = sh.agg_for_core(core_idx);
  const int edge_s = g.switch_node(sh.edge_switch_index(ps, es));
  const int edge_d = g.switch_node(sh.edge_switch_index(pd, ed));
  if (ps == pd && es == ed) {
    p.hops.push_back({edge_s, leaf_s, leaf_d});
    return p;
  }
  if (ps == pd) {
    const int agg = g.switch_node(sh.agg_switch_index(ps, a));
    p.hops.push_back({edge_s, leaf_s, sh.edge_port_for_agg(a)});
    p.hops.push_back({agg, es, ed});
    p.hops.push_back({edge_d, sh.edge_port_for_agg(a), leaf_d});
    return p;
  }
  const int agg_s = g.switch_node(sh.agg_switch_index(ps, a));
  const int agg_d = g.switch_node(sh.agg_switch_index(pd, a));
  const int core = g.switch_node(sh.core_switch_index(core_idx));
  p.hops.push_back({edge_s, leaf_s, sh.edge_port_for_agg(a)});
  p.hops.push_back({agg_s, es, sh.agg_port_for_core(core_idx)});
  p.hops.push_back({core, ps, pd});
  p.hops.push_back({agg_d, sh.agg_port_for_core(core_idx), ed});
  p.hops.push_back({edge_d, sh.edge_port_for_agg(a), leaf_d});
  return p;
}

LegacyPath legacy_leaf_spine_path(const TopologyGraph& g, int src, int dst,
                                  int tree) {
  const TopologyShape& sh = g.shape();
  LegacyPath p{src, dst, tree, {}};
  const int ls = sh.leaf_of_ls_host(src);
  const int ld = sh.leaf_of_ls_host(dst);
  const int port_s = sh.leaf_port_of_ls_host(src);
  const int port_d = sh.leaf_port_of_ls_host(dst);
  const int leaf_s = g.switch_node(sh.leaf_switch_index(ls));
  if (ls == ld) {
    p.hops.push_back({leaf_s, port_s, port_d});
    return p;
  }
  const int spine_idx =
      (legacy_base_core(dst, sh.num_spines) + tree) % sh.num_spines;
  const int leaf_d = g.switch_node(sh.leaf_switch_index(ld));
  const int spine = g.switch_node(sh.spine_switch_index(spine_idx));
  p.hops.push_back({leaf_s, port_s, sh.leaf_port_for_spine(spine_idx)});
  p.hops.push_back({spine, ls, ld});
  p.hops.push_back({leaf_d, sh.leaf_port_for_spine(spine_idx), port_d});
  return p;
}

/// The hosts² × trees path table, and the per-switch state the controller
/// derived from it by walking every entry.
class LegacyTables {
 public:
  explicit LegacyTables(const TopologyGraph& g)
      : n_(g.num_hosts()),
        trees_(g.shape().kind == FabricKind::kStar
                   ? 1
                   : g.shape().provisioned_trees) {
    paths_.resize(static_cast<std::size_t>(n_) * n_ * trees_);
    for (int s = 0; s < n_; ++s) {
      for (int d = 0; d < n_; ++d) {
        for (int t = 0; t < trees_; ++t) {
          LegacyPath& slot = paths_[index(s, d, t)];
          if (s == d) {
            slot = LegacyPath{s, d, t, {}};
            continue;
          }
          switch (g.shape().kind) {
            case FabricKind::kFatTree:
              slot = legacy_fat_tree_path(g, s, d, t);
              break;
            case FabricKind::kLeafSpine:
              slot = legacy_leaf_spine_path(g, s, d, t);
              break;
            default:
              // Star wiring: host h occupies switch port h.
              slot = LegacyPath{s, d, t, {{g.switch_node(0), s, d}}};
              break;
          }
        }
      }
    }
  }

  int num_trees() const { return trees_; }
  const LegacyPath& path(int s, int d, int t) const {
    return paths_[index(s, d, t)];
  }

  /// One switch's route view as the old per-pair hash maps held it,
  /// flattened: out port by (dst, tree), in port by (src, dst, tree), -1
  /// where the maps had no entry. Filled in the old enumeration order, so
  /// the last write wins exactly as it did.
  struct ViewTables {
    std::vector<int> out_by_dt;
    std::vector<int> in_by_sdt;
  };
  ViewTables route_view(int node) const {
    ViewTables v;
    v.out_by_dt.assign(static_cast<std::size_t>(n_) * trees_, -1);
    v.in_by_sdt.assign(paths_.size(), -1);
    for (int s = 0; s < n_; ++s) {
      for (int d = 0; d < n_; ++d) {
        if (s == d) continue;
        for (int t = 0; t < trees_; ++t) {
          for (const PathHop& hop : path(s, d, t).hops) {
            if (hop.switch_node != node) continue;
            v.out_by_dt[static_cast<std::size_t>(d) * trees_ + t] =
                hop.out_port;
            v.in_by_sdt[index(s, d, t)] = hop.in_port;
          }
        }
      }
    }
    return v;
  }

  /// Every switch's MAC table after the old install: each hop of each
  /// (src, dst, tree) path (re)writes the rule for the routing MAC.
  std::map<int, std::map<MacAddress, switchsim::RuleActions>> mac_rules()
      const {
    std::map<int, std::map<MacAddress, switchsim::RuleActions>> rules;
    for (int s = 0; s < n_; ++s) {
      for (int d = 0; d < n_; ++d) {
        if (s == d) continue;
        for (int t = 0; t < trees_; ++t) {
          const LegacyPath& p = path(s, d, t);
          for (std::size_t i = 0; i < p.hops.size(); ++i) {
            switchsim::RuleActions actions;
            actions.out_port = p.hops[i].out_port;
            if (t != 0 && i + 1 == p.hops.size()) {
              actions.set_dst_mac = net::host_mac(d, 0);
            }
            rules[p.hops[i].switch_node][net::host_mac(d, t)] = actions;
          }
        }
      }
    }
    return rules;
  }

 private:
  std::size_t index(int s, int d, int t) const {
    return (static_cast<std::size_t>(s) * static_cast<std::size_t>(n_) +
            static_cast<std::size_t>(d)) *
               static_cast<std::size_t>(trees_) +
           static_cast<std::size_t>(t);
  }

  int n_;
  int trees_;
  std::vector<LegacyPath> paths_;
};

// --- fabrics under test -----------------------------------------------------

struct Fabric {
  std::string name;
  TopologyGraph (*build)();
};

std::ostream& operator<<(std::ostream& os, const Fabric& f) {
  return os << f.name;
}

class RouteEquivalence : public ::testing::TestWithParam<Fabric> {
 protected:
  RouteEquivalence()
      : graph(GetParam().build()), routing(graph), legacy(graph) {}
  TopologyGraph graph;
  controller::Routing routing;
  LegacyTables legacy;
};

TEST_P(RouteEquivalence, TreeCountsAgree) {
  EXPECT_EQ(routing.num_trees(), legacy.num_trees());
  EXPECT_EQ(routing.num_hosts(), graph.num_hosts());
}

TEST_P(RouteEquivalence, PathsMatchTheTable) {
  const int n = routing.num_hosts();
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      for (int t = 0; t < routing.num_trees(); ++t) {
        const net::RoutePath p = routing.path(s, d, t);
        const LegacyPath& want = legacy.path(s, d, t);
        ASSERT_EQ(p.src_host, want.src);
        ASSERT_EQ(p.dst_host, want.dst);
        ASSERT_EQ(p.tree, want.tree);
        ASSERT_EQ(p.hops.size(), want.hops.size())
            << "s=" << s << " d=" << d << " t=" << t;
        for (std::size_t i = 0; i < want.hops.size(); ++i) {
          ASSERT_EQ(p.hops[i], want.hops[i])
              << "s=" << s << " d=" << d << " t=" << t << " hop " << i;
        }
      }
    }
  }
}

TEST_P(RouteEquivalence, SwitchRouteViewMatchesTheTables) {
  const int n = graph.num_hosts();
  const int trees = legacy.num_trees();
  for (int node : graph.switches()) {
    const net::SwitchRouteView view(graph, node);
    const LegacyTables::ViewTables want = legacy.route_view(node);
    int mismatches = 0;
    for (int d = 0; d < n; ++d) {
      for (int t = 0; t < trees; ++t) {
        const MacAddress dst = net::host_mac(d, t);
        const int out = want.out_by_dt[static_cast<std::size_t>(d) * trees +
                                       static_cast<std::size_t>(t)];
        if (view.out_port(dst) != out) {
          ADD_FAILURE() << "out_port node=" << node << " d=" << d
                        << " t=" << t << ": " << view.out_port(dst)
                        << " != " << out;
          ++mismatches;
        }
        for (int s = 0; s < n; ++s) {
          const int in =
              want.in_by_sdt[(static_cast<std::size_t>(s) * n + d) * trees +
                             static_cast<std::size_t>(t)];
          if (view.in_port(net::host_mac(s), dst) != in) {
            ADD_FAILURE() << "in_port node=" << node << " s=" << s
                          << " d=" << d << " t=" << t << ": "
                          << view.in_port(net::host_mac(s), dst)
                          << " != " << in;
            ++mismatches;
          }
        }
        // The tables were keyed by base source MACs only.
        EXPECT_EQ(view.in_port(net::host_mac((d + 1) % n, 1), dst), -1);
        ASSERT_LT(mismatches, 10) << "giving up on node " << node;
      }
    }
    // MACs no table ever held: past the fabric's hosts or provisioned
    // trees, and non-host addresses.
    EXPECT_EQ(view.out_port(net::host_mac(n)), -1);
    EXPECT_EQ(view.in_port(net::host_mac(0), net::host_mac(n)), -1);
    EXPECT_EQ(view.in_port(net::host_mac(n), net::host_mac(0)), -1);
    if (trees < net::kMaxProvisionedTrees) {
      EXPECT_EQ(view.out_port(net::host_mac(0, trees)), -1);
      EXPECT_EQ(view.in_port(net::host_mac(1), net::host_mac(0, trees)), -1);
    }
    EXPECT_EQ(view.out_port(net::kMacBroadcast), -1);
    EXPECT_EQ(view.out_port(net::kMacNone), -1);
  }
}

TEST_P(RouteEquivalence, InstalledMacTablesMatchTheTables) {
  sim::Simulation sim;
  workload::Testbed bed(sim, graph, workload::TestbedConfig{});
  const auto want = legacy.mac_rules();
  for (int node : graph.switches()) {
    switchsim::RuleTable& table = bed.switch_by_node(node)->rules();
    const auto it = want.find(node);
    const std::size_t want_size = it == want.end() ? 0 : it->second.size();
    // Equal counts plus every wanted rule present: the same rule set.
    ASSERT_EQ(table.mac_rule_count(), want_size) << "node " << node;
    if (it == want.end()) continue;
    for (const auto& [mac, actions] : it->second) {
      const auto* got = table.find_mac(mac);
      ASSERT_NE(got, nullptr)
          << "node " << node << " mac " << net::mac_to_string(mac);
      EXPECT_EQ(got->actions.out_port, actions.out_port)
          << "node " << node << " mac " << net::mac_to_string(mac);
      EXPECT_EQ(got->actions.set_dst_mac, actions.set_dst_mac)
          << "node " << node << " mac " << net::mac_to_string(mac);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, RouteEquivalence,
    ::testing::Values(
        Fabric{"fat_tree_k2",
               [] { return net::make_fat_tree(2, net::LinkSpec{}); }},
        Fabric{"fat_tree_k4",
               [] { return net::make_fat_tree(4, net::LinkSpec{}); }},
        Fabric{"fat_tree_k6",
               [] { return net::make_fat_tree(6, net::LinkSpec{}); }},
        Fabric{"fat_tree_k8",
               [] { return net::make_fat_tree(8, net::LinkSpec{}); }},
        Fabric{"fat_tree_k6_5_trees",
               [] { return net::make_fat_tree(6, net::LinkSpec{}, 5); }},
        Fabric{"leaf_spine_4x3",
               [] {
                 return net::make_leaf_spine(4, 3, 3, net::LinkSpec{});
               }},
        Fabric{"leaf_spine_one_leaf",
               [] {
                 return net::make_leaf_spine(1, 2, 4, net::LinkSpec{});
               }},
        Fabric{"star_8", [] { return net::make_star(8, net::LinkSpec{}); }}),
    [](const ::testing::TestParamInfo<Fabric>& fabric) {
      return fabric.param.name;
    });

}  // namespace
}  // namespace planck

// Fixture: hash order leaking into reroute order through a container of
// unordered maps — the shape of a crash-recovery resync that keeps one
// acked-rule hash map per switch in a node-indexed vector and reinstalls
// the rules of one element in hash order (DESIGN.md section 7).

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace planck::controller {

struct Sim {
  void schedule(int delay);
};

struct Resync {
  Sim sim_;
  std::vector<std::unordered_map<int, std::uint64_t>> acked_by_node_;
  std::vector<std::map<int, std::uint64_t>> ordered_by_node_;
  std::vector<int> resyncs_by_node_;

  void reroute(int key) { sim_.schedule(key); }

  void resync_bound(int node) {
    auto& acked = acked_by_node_[static_cast<std::size_t>(node)];
    for (const auto& [key, epoch] : acked) {  // EXPECT-LINT: unordered-iteration
      reroute(key);
    }
    acked.clear();
  }

  void resync_element(int node) {
    for (const auto& [key, epoch] : acked_by_node_.at(node)) {  // EXPECT-LINT: unordered-iteration
      reroute(key);
    }
  }

  // Ordered elements and non-map bindings: must NOT be flagged.
  void resync_ordered(int node) {
    const auto& acked = ordered_by_node_[static_cast<std::size_t>(node)];
    for (const auto& [key, epoch] : acked) reroute(key);
    auto& resyncs = resyncs_by_node_[static_cast<std::size_t>(node)];
    for (int i = 0; i < resyncs; ++i) reroute(i);
  }
};

}  // namespace planck::controller

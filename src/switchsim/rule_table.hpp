#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/addresses.hpp"
#include "net/packet.hpp"
#include "sim/contract.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/units.hpp"

namespace planck::switchsim {

/// Forwarding actions attached to a rule.
struct RuleActions {
  /// Output port. For flow (reroute) rules this may be unset, in which case
  /// the switch re-resolves the output from the (possibly rewritten)
  /// destination MAC — the OpenFlow set-field + goto-table idiom the paper
  /// relies on at ingress switches.
  std::optional<int> out_port;
  /// Rewrite the destination MAC (shadow-MAC reroute at ingress, restore to
  /// base MAC at the egress switch, §6.2).
  std::optional<net::MacAddress> set_dst_mac;
};

/// Byte/packet counters, pollable by measurement baselines (§2.3: the
/// "flow counters" that Hedera/DevoFlow-style systems read).
struct RuleCounters {
  sim::Packets packets{0};
  sim::Bytes bytes{0};
};

/// The switch's match-action state: an exact-match L2 table (destination
/// MAC, the PAST routing state) plus a higher-priority exact-match flow
/// table (5-tuple, the OpenFlow reroute rules). Real switches use TCAMs;
/// exact-match tables give identical semantics for this workload.
///
/// Every MAC a route installs is a host MAC — base (tree 0) or shadow
/// (trees 1..kMaxProvisionedTrees-1) — so the MAC table is dense: one
/// index array per tree, indexed by the host id the address decodes to and
/// grown only for the trees a switch carries, points into a chunked slab of
/// entries. A lookup is a decode and two indexed loads, never a hash; a
/// 4-byte index per (host, tree) plus a packed entry per rule keeps the
/// table smaller than the hash map it replaced even on switches that
/// carry half the pairs. set_mac_rule refuses a MAC that decodes to no
/// host.
///
/// The MAC table is the PAST program, installed once and restored from
/// flash after a crash: one table, written only by the direct mutators.
/// No route program changes it — reroutes are 5-tuple rewrites (§6.2) —
/// so only the flow table is double-banked (DESIGN.md §10): the data
/// plane reads the *active* flow bank, while a controller-versioned route
/// program for epoch E is assembled in the *staging* flow bank (a copy of
/// the active one). commit_staged(E) flips the flow banks atomically, so a
/// partially-installed program is never served — the paper's rule-by-rule
/// TCAM updates are the transient-loop hazard this removes. planck-lint's
/// bank-swap check enforces that the flip primitive is only reachable
/// through the commit path here. The flip carries the live counters of
/// every rule the program keeps, so traffic counted while a program was
/// staged is not lost.
///
/// The direct mutators (set_mac_rule, set_flow_rule, ...) write the live
/// tables in place — and an open staging bank too, so a commit never
/// undoes them. They model out-of-band configuration (testbed setup, unit
/// tests); the controller's runtime updates go through staging.
class RuleTable {
 public:
  struct Entry {
    RuleActions actions;
    RuleCounters counters;
  };

  /// Installs/overwrites the L2 entry for `dst`. Throws
  /// std::invalid_argument unless `dst` is a host MAC (base or shadow).
  void set_mac_rule(net::MacAddress dst, RuleActions actions) {
    int tree = 0;
    int host = -1;
    if (!decode_mac(dst, &tree, &host)) {
      throw std::invalid_argument("set_mac_rule: " + net::mac_to_string(dst) +
                                  " is not a host MAC");
    }
    auto& index = mac_index_[tree];
    const auto at = static_cast<std::size_t>(host);
    if (at >= index.size()) index.resize(at + 1);
    if (index[at] == 0) index[at] = alloc_mac_entry() + 1;
    mac_entry(index[at] - 1).actions = actions;
  }
  bool erase_mac_rule(net::MacAddress dst) {
    std::uint32_t* ref = find_mac_ref(dst);
    if (ref == nullptr || *ref == 0) return false;
    free_mac_entries_.push_back(*ref - 1);
    *ref = 0;
    return true;
  }

  /// Installs/overwrites the flow entry for `key` (higher priority than
  /// any MAC entry).
  void set_flow_rule(const net::FlowKey& key, RuleActions actions) {
    active()[key].actions = actions;
    if (staging_) staged()[key].actions = actions;
  }
  /// Drops every 5-tuple reroute rule (controller soft state lost in a
  /// switch crash; the MAC program is config restored from flash).
  void clear_flow_rules() {
    active().clear();
    if (staging_) staged().clear();
  }

  Entry* find_mac(net::MacAddress dst) {
    const std::uint32_t* ref = find_mac_ref(dst);
    return ref == nullptr || *ref == 0 ? nullptr : &mac_entry(*ref - 1);
  }
  Entry* find_flow(const net::FlowKey& key) {
    auto& table = active();
    if (table.empty()) return nullptr;  // most switches hold no reroutes
    const auto it = table.find(key);
    return it == table.end() ? nullptr : &it->second;
  }

  std::size_t mac_rule_count() const {
    return mac_entries_ - free_mac_entries_.size();
  }
  std::size_t flow_rule_count() const { return active().size(); }

  // --- epoch'd route programs (DESIGN.md §10) ----------------------------
  /// Opens the staging flow bank for `epoch`'s route program, seeding it
  /// with a copy of the active flow bank. Returns false when the program
  /// is stale: `epoch` is not newer than the committed epoch, or a newer
  /// epoch is already being staged (newest wins — the loser's commit then
  /// fails and its controller falls back to last-good). Re-staging the
  /// epoch already open is an idempotent no-op (at-least-once RPC
  /// delivery).
  bool begin_staging(std::uint64_t epoch) {
    if (epoch <= committed_epoch_) return false;
    if (staging_) {
      if (staged_epoch_ == epoch) return true;  // duplicate delivery
      if (staged_epoch_ > epoch) return false;  // a newer program is staged
    }
    staged() = active();
    staging_ = true;
    staged_epoch_ = epoch;
    return true;
  }

  /// Mutators for the program being staged. Callers must hold an open
  /// staging for `epoch` (checked; stale writes are dropped).
  bool stage_flow_rule(std::uint64_t epoch, const net::FlowKey& key,
                       RuleActions actions) {
    if (!staging_ || staged_epoch_ != epoch) return false;
    staged()[key].actions = actions;
    return true;
  }
  bool stage_flow_erase(std::uint64_t epoch, const net::FlowKey& key) {
    if (!staging_ || staged_epoch_ != epoch) return false;
    staged().erase(key);
    return true;
  }

  /// Atomically flips the staged program live. Returns false (no flip)
  /// unless `epoch` is exactly the staged program; a duplicate commit of
  /// the already-committed epoch reports success idempotently. Rules the
  /// program kept take their live counters across the flip (the staged
  /// copies froze at begin_staging).
  bool commit_staged(std::uint64_t epoch) {
    if (committed_epoch_ == epoch) return true;  // duplicate delivery
    if (!staging_ || staged_epoch_ != epoch) return false;
    PLANCK_CONTRACT(epoch > committed_epoch_,
                    "per-switch epoch monotonicity: a committed route "
                    "program's epoch must exceed its predecessor's");
    FlowTable& next = staged();
    for (const auto& [key, live] : active()) {
      const auto kept = next.find(key);
      if (kept != next.end()) kept->second.counters = live.counters;
    }
    swap_banks();
    committed_epoch_ = epoch;
    staging_ = false;
    staged_epoch_ = 0;
    return true;
  }

  /// Discards whatever is staged (switch crash: staging lives in DRAM,
  /// only committed programs survive like flash config).
  void discard_staging() {
    staging_ = false;
    staged_epoch_ = 0;
  }

  bool staging() const { return staging_; }
  std::uint64_t staged_epoch() const { return staging_ ? staged_epoch_ : 0; }
  std::uint64_t committed_epoch() const { return committed_epoch_; }

 private:
  // Single-writer by design: rule churn comes only from the owning
  // switch's control-plane callbacks on its partition.
  PLANCK_PARTITION_OWNED;

  using FlowTable = std::unordered_map<net::FlowKey, Entry, net::FlowKeyHash>;

  /// The (tree, host) a host MAC decodes to; false for any other MAC.
  static bool decode_mac(net::MacAddress mac, int* tree, int* host) {
    if (net::is_shadow_mac(mac, tree, host)) return true;
    *tree = 0;
    *host = net::host_id_of_mac(mac);
    return *host >= 0;
  }
  /// The index cell of `mac` (slab index + 1, or 0 when no rule), or
  /// nullptr when it decodes to no host or lies past its tree's array.
  std::uint32_t* find_mac_ref(net::MacAddress mac) {
    int tree = 0;
    int host = -1;
    if (!decode_mac(mac, &tree, &host)) return nullptr;
    auto& index = mac_index_[tree];
    const auto at = static_cast<std::size_t>(host);
    return at < index.size() ? &index[at] : nullptr;
  }

  static constexpr std::uint32_t kMacChunkBits = 6;  // 64 entries a chunk
  static constexpr std::uint32_t kMacChunkSize = 1u << kMacChunkBits;

  Entry& mac_entry(std::uint32_t i) {
    return mac_chunks_[i >> kMacChunkBits][i & (kMacChunkSize - 1)];
  }
  /// A fresh (default) entry from the slab, reusing erased ones first.
  std::uint32_t alloc_mac_entry() {
    if (!free_mac_entries_.empty()) {
      const std::uint32_t i = free_mac_entries_.back();
      free_mac_entries_.pop_back();
      mac_entry(i) = Entry{};
      return i;
    }
    if ((mac_entries_ & (kMacChunkSize - 1)) == 0) {
      mac_chunks_.push_back(std::make_unique<Entry[]>(kMacChunkSize));
    }
    return mac_entries_++;
  }

  FlowTable& active() { return flow_banks_[active_]; }
  const FlowTable& active() const { return flow_banks_[active_]; }
  FlowTable& staged() { return flow_banks_[1 - active_]; }

  /// The flow-bank flip. Only commit_staged may call this — enforced by
  /// planck-lint's bank-swap check, which flags any other caller.
  void swap_banks() { active_ = 1 - active_; }

  // Per tree, indexed by host id: slab index + 1 of the rule, 0 for none.
  // Empty for trees this switch never carries.
  std::vector<std::uint32_t> mac_index_[net::kMaxProvisionedTrees];
  std::vector<std::unique_ptr<Entry[]>> mac_chunks_;  // the entry slab
  std::uint32_t mac_entries_ = 0;                     // slab slots used
  std::vector<std::uint32_t> free_mac_entries_;       // erased slots
  FlowTable flow_banks_[2];
  int active_ = 0;
  bool staging_ = false;
  std::uint64_t staged_epoch_ = 0;
  std::uint64_t committed_epoch_ = 0;
};

}  // namespace planck::switchsim

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

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
/// exact-match hash tables give identical semantics for this workload.
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
/// through the commit path here.
///
/// The direct mutators (set_mac_rule, set_flow_rule, ...) write the live
/// tables in place. They model out-of-band configuration (testbed setup,
/// unit tests); the controller's runtime updates go through staging.
class RuleTable {
 public:
  struct Entry {
    RuleActions actions;
    RuleCounters counters;
  };

  /// Installs/overwrites the L2 entry for `dst`.
  void set_mac_rule(net::MacAddress dst, RuleActions actions) {
    mac_table_[dst].actions = actions;
  }
  bool erase_mac_rule(net::MacAddress dst) {
    return mac_table_.erase(dst) > 0;
  }

  /// Installs/overwrites the flow entry for `key` (higher priority than
  /// any MAC entry).
  void set_flow_rule(const net::FlowKey& key, RuleActions actions) {
    active()[key].actions = actions;
  }
  /// Drops every 5-tuple reroute rule (controller soft state lost in a
  /// switch crash; the MAC program is config restored from flash).
  void clear_flow_rules() { active().clear(); }

  Entry* find_mac(net::MacAddress dst) {
    const auto it = mac_table_.find(dst);
    return it == mac_table_.end() ? nullptr : &it->second;
  }
  Entry* find_flow(const net::FlowKey& key) {
    auto& table = active();
    const auto it = table.find(key);
    return it == table.end() ? nullptr : &it->second;
  }

  std::size_t flow_rule_count() const { return active().size(); }
  const std::unordered_map<net::MacAddress, Entry>& mac_table() const {
    return mac_table_;
  }

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
  /// the already-committed epoch reports success idempotently.
  bool commit_staged(std::uint64_t epoch) {
    if (committed_epoch_ == epoch) return true;  // duplicate delivery
    if (!staging_ || staged_epoch_ != epoch) return false;
    PLANCK_CONTRACT(epoch > committed_epoch_,
                    "per-switch epoch monotonicity: a committed route "
                    "program's epoch must exceed its predecessor's");
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

  FlowTable& active() { return flow_banks_[active_]; }
  const FlowTable& active() const { return flow_banks_[active_]; }
  FlowTable& staged() { return flow_banks_[1 - active_]; }

  /// The flow-bank flip. Only commit_staged may call this — enforced by
  /// planck-lint's bank-swap check, which flags any other caller.
  void swap_banks() { active_ = 1 - active_; }

  std::unordered_map<net::MacAddress, Entry> mac_table_;
  FlowTable flow_banks_[2];
  int active_ = 0;
  bool staging_ = false;
  std::uint64_t staged_epoch_ = 0;
  std::uint64_t committed_epoch_ = 0;
};

}  // namespace planck::switchsim

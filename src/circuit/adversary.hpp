// Adversary paths (Section 4.3) and arc weights (Section 5.5, Figure 5.24).
//
// A timing constraint "x* must reach gate a before y*" corresponds to delay
// constraints between the direct wire (fan-out of gate x into gate a) and the
// acknowledgement paths from x* to y* in the implementation STG followed by
// the wire from y into a. The *weight* of an arc is the level of its slowest
// adversary path: a violation needs every acknowledgement path to outrun the
// direct wire, so the longest path governs how tight the ordering is.
// Paths through environment (input-signal) transitions count as effectively
// unbreakable (Section 7.1 treats them as already fulfilled).
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "stg/stg.hpp"

namespace sitime::circuit {

/// Weight contribution of one environment hop; arcs at or above this weight
/// are classified "safe through environment".
inline constexpr int kEnvironmentWeight = 1000;

/// Precomputed token-free transition graph of the implementation STG.
class AdversaryAnalysis {
 public:
  explicit AdversaryAnalysis(const stg::Stg* impl);

  /// Weight of the ordering x* -> y*: the maximum, over token-free paths
  /// from x* to y* in the implementation STG, of the number of intermediate
  /// transitions, where an intermediate input-signal transition contributes
  /// kEnvironmentWeight. Returns kEnvironmentWeight when no token-free path
  /// exists (the ordering does not stem from an acknowledgement chain and
  /// cannot be raced by an adversary path).
  int weight(const stg::TransitionLabel& from,
             const stg::TransitionLabel& to) const;

  /// weight(label of t, to) for every implementation transition t (index =
  /// transition id), from one memoized pass toward `to` instead of one
  /// pass per source. Equal to weight() pairwise; when the token-free graph
  /// has a cycle each source gets its own pass, as in weight().
  std::vector<int> weights_to(const stg::TransitionLabel& to) const;

  /// Up to `limit` simple acknowledgement paths x* -> y* (sequences of STG
  /// transition ids, inclusive of endpoints). Unlike weight(), paths may
  /// cross initially-marked places: in steady state those chains still race
  /// the direct wire, which matters for delay enforcement and padding.
  std::vector<std::vector<int>> paths(const stg::TransitionLabel& from,
                                      const stg::TransitionLabel& to,
                                      int limit = 64) const;

  /// Renders one adversary path for a constraint at gate `gate_signal` in
  /// the Table 7.1 style: "w(x->z1), gate z1, ..., w(y->a)"; environment
  /// hops render as "ENV".
  std::string path_text(const std::vector<int>& path, int gate_signal) const;

  const stg::Stg& impl() const { return *impl_; }

 private:
  /// Memoized weight recurrence from `t` toward `target` over `best`
  /// (kUnvisited = not yet computed, -1 = target unreachable).
  int path_weight(int t, int target, std::vector<int>& best) const;

  const stg::Stg* impl_;
  bool token_free_acyclic_ = true;
  std::vector<std::vector<int>> token_free_succ_;  // within-round adjacency
  std::vector<std::vector<int>> all_succ_;         // including marked places
};

}  // namespace sitime::circuit

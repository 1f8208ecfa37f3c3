#include "stg/marked_graph.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "base/error.hpp"
#include "base/graph.hpp"

namespace sitime::stg {

namespace {

int kind_rank(ArcKind kind) {
  switch (kind) {
    case ArcKind::normal:
      return 0;
    case ArcKind::guaranteed:
      return 1;
    case ArcKind::restriction:
      return 2;
  }
  return 0;
}

ArcKind stronger(ArcKind a, ArcKind b) {
  return kind_rank(a) >= kind_rank(b) ? a : b;
}

}  // namespace

MgStg::MgStg(const SignalTable* signals) : signals_(signals) {
  check(signals != nullptr, "MgStg: null signal table");
  initial_values.assign(signals->count(), -1);
}

int MgStg::add_transition(const TransitionLabel& label) {
  check(label.signal >= 0 && label.signal < signals_->count(),
        "MgStg::add_transition: unknown signal");
  transitions_.push_back(label);
  alive_.push_back(true);
  return transition_count() - 1;
}

void MgStg::insert_arc(int from, int to, int tokens, ArcKind kind) {
  check(from >= 0 && from < transition_count() && alive_[from],
        "insert_arc: bad source");
  check(to >= 0 && to < transition_count() && alive_[to],
        "insert_arc: bad target");
  check(tokens >= 0, "insert_arc: negative tokens");
  if (from == to) {
    // Loop-only place: redundant when marked, dead when not (Section 5.3.3).
    if (tokens <= 0)
      fail("insert_arc: token-free self-loop would deadlock '" +
           transition_text(from) + "'");
    return;
  }
  const int existing = find_arc(from, to);
  if (existing != -1) {
    arcs_[existing].tokens = std::min(arcs_[existing].tokens, tokens);
    arcs_[existing].kind = stronger(arcs_[existing].kind, kind);
    return;
  }
  arcs_.push_back(MgArc{from, to, tokens, kind});
}

void MgStg::remove_arc(int from, int to) {
  const int index = find_arc(from, to);
  if (index == -1)
    fail("remove_arc: arc not present: " + transition_text(from) + " => " +
         transition_text(to));
  arcs_.erase(arcs_.begin() + index);
}

std::vector<int> MgStg::alive_transitions() const {
  std::vector<int> result;
  for (int t = 0; t < transition_count(); ++t)
    if (alive_[t]) result.push_back(t);
  return result;
}

int MgStg::find_arc(int from, int to) const {
  for (int i = 0; i < static_cast<int>(arcs_.size()); ++i)
    if (arcs_[i].from == from && arcs_[i].to == to) return i;
  return -1;
}

int MgStg::arc_tokens(int from, int to) const {
  const int index = find_arc(from, to);
  check(index != -1, "arc_tokens: arc not present");
  return arcs_[index].tokens;
}

ArcKind MgStg::arc_kind(int from, int to) const {
  const int index = find_arc(from, to);
  check(index != -1, "arc_kind: arc not present");
  return arcs_[index].kind;
}

void MgStg::set_arc_kind(int from, int to, ArcKind kind) {
  const int index = find_arc(from, to);
  check(index != -1, "set_arc_kind: arc not present");
  arcs_[index].kind = kind;
}

std::vector<int> MgStg::preds(int t) const {
  std::vector<int> result;
  for (const MgArc& arc : arcs_)
    if (arc.to == t) result.push_back(arc.from);
  return result;
}

std::vector<int> MgStg::succs(int t) const {
  std::vector<int> result;
  for (const MgArc& arc : arcs_)
    if (arc.from == t) result.push_back(arc.to);
  return result;
}

int MgStg::find_transition(const TransitionLabel& label) const {
  for (int t = 0; t < transition_count(); ++t)
    if (alive_[t] && transitions_[t] == label) return t;
  return -1;
}

std::string MgStg::transition_text(int t) const {
  check(t >= 0 && t < transition_count(), "transition_text: bad id");
  return label_text(transitions_[t], *signals_);
}

void MgStg::project(const std::vector<bool>& keep_signal) {
  check(static_cast<int>(keep_signal.size()) == signals_->count(),
        "project: keep mask size mismatch");
  bool swept = false;
  for (int t = 0; t < transition_count(); ++t) {
    if (!alive_[t] || keep_signal[transitions_[t].signal]) continue;
    // Splice causality through t: every predecessor connects to every
    // successor, accumulating the token counts of the two spliced places.
    const std::vector<int> before = preds(t);
    const std::vector<int> after = succs(t);
    std::vector<int> tokens_out;
    tokens_out.reserve(after.size());
    for (int s : after) tokens_out.push_back(arc_tokens(t, s));
    const std::size_t old_count = arcs_.size();
    for (int p : before) {
      const int tokens_in = arc_tokens(p, t);
      for (std::size_t j = 0; j < after.size(); ++j)
        insert_arc(p, after[j], tokens_in + tokens_out[j]);
    }
    // insert_arc appends fresh arcs at the back; the removals below erase
    // only older arcs, so the fresh ones stay the last `fresh` entries.
    const int fresh = static_cast<int>(arcs_.size() - old_count);
    for (int p : before) remove_arc(p, t);
    for (int s : after) remove_arc(t, s);
    alive_[t] = false;
    if (!swept) {
      eliminate_redundant_arcs();
      swept = true;
      continue;
    }
    // Every older arc is still irredundant (see the header), so the full
    // sweep's "erase the first redundant arc, rescan" reduces to the
    // fresh suffix (all of kind normal, as the sweep requires).
    const int first_fresh = static_cast<int>(arcs_.size()) - fresh;
    for (int i = first_fresh; i < static_cast<int>(arcs_.size());) {
      if (arc_redundant(i)) {
        arcs_.erase(arcs_.begin() + i);
        i = first_fresh;
      } else {
        ++i;
      }
    }
  }
}

void MgStg::relax(int from, int to) {
  const int index = find_arc(from, to);
  if (index == -1)
    fail("relax: arc not present: " + transition_text(from) + " => " +
         transition_text(to));
  check(arcs_[index].kind == ArcKind::normal,
        "relax: only normal arcs may be relaxed");
  const int shared_tokens = arcs_[index].tokens;
  const std::vector<int> before = preds(from);
  const std::vector<int> after = succs(to);
  // Remove first so the inserted arcs do not merge against the relaxed one.
  arcs_.erase(arcs_.begin() + index);
  for (int b : before)
    insert_arc(b, to, arc_tokens(b, from) + shared_tokens);
  for (int d : after)
    insert_arc(from, d, arc_tokens(to, d) + shared_tokens);
  eliminate_redundant_arcs();
}

bool MgStg::arc_redundant(int arc_index) const {
  const MgArc& arc = arcs_[arc_index];
  if (arc.from == arc.to) return arc.tokens > 0;
  // Shortcut-place test (Figure 5.15): shortest token path from -> to
  // avoiding this arc. This runs once per arc per elimination sweep, so it
  // uses a budget-pruned Dijkstra over an intrusive arc index with
  // thread_local scratch — paths costlier than the arc's own tokens can
  // never witness redundancy and are cut immediately.
  const int n = transition_count();
  const int arc_count = static_cast<int>(arcs_.size());
  thread_local std::vector<int> head;
  thread_local std::vector<int> next_arc;
  thread_local std::vector<std::int64_t> dist;
  thread_local std::vector<std::pair<std::int64_t, int>> heap;
  head.assign(n, -1);
  next_arc.resize(arc_count);
  for (int i = 0; i < arc_count; ++i) {
    if (i == arc_index) continue;
    next_arc[i] = head[arcs_[i].from];
    head[arcs_[i].from] = i;
  }
  dist.assign(n, -1);
  heap.clear();
  const std::int64_t budget = arc.tokens;
  dist[arc.from] = 0;
  heap.emplace_back(0, arc.from);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, v] = heap.back();
    heap.pop_back();
    if (d != dist[v]) continue;
    if (v == arc.to) return true;  // settled within the budget
    for (int i = head[v]; i != -1; i = next_arc[i]) {
      const std::int64_t candidate = d + arcs_[i].tokens;
      if (candidate > budget) continue;
      const int to = arcs_[i].to;
      if (dist[to] == -1 || candidate < dist[to]) {
        dist[to] = candidate;
        heap.emplace_back(candidate, to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
  return false;
}

void MgStg::eliminate_redundant_arcs() {
  bool removed = true;
  while (removed) {
    removed = false;
    for (int i = 0; i < static_cast<int>(arcs_.size()); ++i) {
      if (arcs_[i].kind != ArcKind::normal) continue;
      if (arc_redundant(i)) {
        arcs_.erase(arcs_.begin() + i);
        removed = true;
        break;
      }
    }
  }
}

bool MgStg::structurally_before(int t1, int t2) const {
  if (t1 == t2) return false;
  std::vector<bool> visited(transition_count(), false);
  std::queue<int> frontier;
  frontier.push(t1);
  visited[t1] = true;
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    for (const MgArc& arc : arcs_) {
      if (arc.from != v || arc.tokens > 0 || visited[arc.to]) continue;
      if (arc.to == t2) return true;
      visited[arc.to] = true;
      frontier.push(arc.to);
    }
  }
  return false;
}

bool MgStg::structurally_concurrent(int t1, int t2) const {
  return t1 != t2 && !structurally_before(t1, t2) &&
         !structurally_before(t2, t1);
}

bool MgStg::live() const {
  base::WeightedGraph graph(transition_count());
  for (const MgArc& arc : arcs_)
    if (arc.tokens == 0) graph[arc.from].emplace_back(arc.to, 1);
  return !base::has_cycle(graph);
}

void MgStg::validate() const {
  for (const MgArc& arc : arcs_) {
    check(arc.from >= 0 && arc.from < transition_count() && alive_[arc.from],
          "validate: arc from dead transition");
    check(arc.to >= 0 && arc.to < transition_count() && alive_[arc.to],
          "validate: arc to dead transition");
    check(arc.from != arc.to, "validate: self-loop arc");
    check(arc.tokens >= 0, "validate: negative tokens");
  }
  for (std::size_t i = 0; i < arcs_.size(); ++i)
    for (std::size_t j = i + 1; j < arcs_.size(); ++j)
      check(arcs_[i].from != arcs_[j].from || arcs_[i].to != arcs_[j].to,
            "validate: duplicate arc");
  for (int t = 0; t < transition_count(); ++t) {
    if (!alive_[t]) continue;
    if (preds(t).empty())
      fail("validate: transition without predecessors: " + transition_text(t));
    if (succs(t).empty())
      fail("validate: transition without successors: " + transition_text(t));
  }
}

}  // namespace sitime::stg

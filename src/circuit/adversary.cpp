#include "circuit/adversary.hpp"

#include <algorithm>
#include <deque>

#include "base/error.hpp"

namespace sitime::circuit {

namespace {

constexpr int kUnvisited = -2;

}  // namespace

AdversaryAnalysis::AdversaryAnalysis(const stg::Stg* impl) : impl_(impl) {
  check(impl != nullptr, "AdversaryAnalysis: null STG");
  const pn::PetriNet& net = impl->net;
  token_free_succ_.assign(net.transition_count(), {});
  all_succ_.assign(net.transition_count(), {});
  for (int p = 0; p < net.place_count(); ++p) {
    for (int from : net.place_inputs(p))
      for (int to : net.place_outputs(p)) {
        all_succ_[from].push_back(to);
        if (net.initial_marking()[p] == 0)
          token_free_succ_[from].push_back(to);
      }
  }
  // Kahn's algorithm: the token-free graph is acyclic exactly when every
  // transition gets peeled off.
  std::vector<int> in_degree(net.transition_count(), 0);
  for (const std::vector<int>& succ : token_free_succ_)
    for (int to : succ) ++in_degree[to];
  std::vector<int> ready;
  for (int t = 0; t < net.transition_count(); ++t)
    if (in_degree[t] == 0) ready.push_back(t);
  int peeled = 0;
  while (!ready.empty()) {
    const int t = ready.back();
    ready.pop_back();
    ++peeled;
    for (int to : token_free_succ_[t])
      if (--in_degree[to] == 0) ready.push_back(to);
  }
  token_free_acyclic_ = peeled == net.transition_count();
}

int AdversaryAnalysis::path_weight(int t, int target,
                                   std::vector<int>& best) const {
  // best[t]: max intermediate weight of a token-free path t -> target, or
  // -1 when target unreachable. The token-free subgraph of a live net is
  // acyclic, so the memoized DFS terminates.
  if (best[t] != kUnvisited) return best[t];
  best[t] = -1;  // provisional: also breaks unexpected cycles safely
  int result = -1;
  for (int next : token_free_succ_[t]) {
    if (next == target) {
      result = std::max(result, 0);
      continue;
    }
    const int tail = path_weight(next, target, best);
    if (tail == -1) continue;
    const int hop = impl_->signals.is_input(impl_->labels[next].signal)
                        ? kEnvironmentWeight
                        : 1;
    result = std::max(result, std::min(hop + tail, kEnvironmentWeight));
  }
  best[t] = result;
  return result;
}

int AdversaryAnalysis::weight(const stg::TransitionLabel& from,
                              const stg::TransitionLabel& to) const {
  // A race against an input-signal transition necessarily runs through the
  // environment (the environment produces y*), so the ordering counts as
  // guarded (Section 7.1 treats such constraints as fulfilled already).
  if (impl_->signals.is_input(to.signal)) return kEnvironmentWeight;
  const int source = impl_->find_transition(from);
  const int target = impl_->find_transition(to);
  if (source == -1 || target == -1) return kEnvironmentWeight;
  std::vector<int> best(impl_->net.transition_count(), kUnvisited);
  const int w = path_weight(source, target, best);
  return w == -1 ? kEnvironmentWeight : w;
}

std::vector<int> AdversaryAnalysis::weights_to(
    const stg::TransitionLabel& to) const {
  const int count = impl_->net.transition_count();
  std::vector<int> weights(count, kEnvironmentWeight);
  if (impl_->signals.is_input(to.signal)) return weights;
  const int target = impl_->find_transition(to);
  if (target == -1) return weights;
  // On an acyclic graph every memo entry is a pure function of its
  // transition, so one memo serves all sources. A cycle makes entries
  // depend on the visit order through the provisional -1, so each source
  // then starts from a fresh memo exactly like weight().
  std::vector<int> best(count, kUnvisited);
  for (int source = 0; source < count; ++source) {
    if (!token_free_acyclic_) std::fill(best.begin(), best.end(), kUnvisited);
    const int w = path_weight(source, target, best);
    weights[source] = w == -1 ? kEnvironmentWeight : w;
  }
  return weights;
}

std::vector<std::vector<int>> AdversaryAnalysis::paths(
    const stg::TransitionLabel& from, const stg::TransitionLabel& to,
    int limit) const {
  // Acknowledgement chains are *simple* transition paths; in steady state
  // they may cross initially-marked places (a marked place only means the
  // chain's tail belongs to the previous handshake round), so all places
  // participate here. Breadth-first enumeration returns shortest chains
  // first: the shortest chain is the most dangerous racer, and delay
  // enforcement takes the minimum over the returned set, so it must never
  // be crowded out by long cycle-spanning chains.
  std::vector<std::vector<int>> found;
  const int source = impl_->find_transition(from);
  const int target = impl_->find_transition(to);
  if (source == -1 || target == -1) return found;
  std::deque<std::vector<int>> frontier;
  frontier.push_back({source});
  constexpr std::size_t kMaxDepth = 24;
  constexpr int kMaxExplored = 50000;
  int explored = 0;
  while (!frontier.empty() && static_cast<int>(found.size()) < limit &&
         explored < kMaxExplored) {
    const std::vector<int> current = std::move(frontier.front());
    frontier.pop_front();
    ++explored;
    for (int next : all_succ_[current.back()]) {
      if (std::find(current.begin(), current.end(), next) != current.end())
        continue;  // keep paths simple
      std::vector<int> extended = current;
      extended.push_back(next);
      if (next == target) {
        found.push_back(std::move(extended));
        if (static_cast<int>(found.size()) >= limit) break;
      } else if (extended.size() < kMaxDepth) {
        frontier.push_back(std::move(extended));
      }
    }
  }
  return found;
}

std::string AdversaryAnalysis::path_text(const std::vector<int>& path,
                                         int gate_signal) const {
  check(path.size() >= 2, "path_text: path too short");
  const stg::SignalTable& signals = impl_->signals;
  std::string out;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const int signal = impl_->labels[path[i]].signal;
    const int prev_signal = impl_->labels[path[i - 1]].signal;
    out += "w(" + signals.name(prev_signal) + "->" + signals.name(signal) +
           "), ";
    if (signals.is_input(signal))
      out += "ENV";
    else
      out += "gate " + signals.name(signal);
    out += ", ";
  }
  const int last_signal = impl_->labels[path.back()].signal;
  out += "w(" + signals.name(last_signal) + "->" + signals.name(gate_signal) +
         ")";
  return out;
}

}  // namespace sitime::circuit

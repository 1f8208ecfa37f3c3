#include "pn/hack.hpp"

#include <algorithm>
#include <set>

#include "base/error.hpp"
#include "pn/analysis.hpp"

namespace sitime::pn {

namespace {

/// Runs the three-step reduction for one allocation. `allocation[i]` is the
/// chosen output transition of the i-th choice place. Returns the kept
/// transition set, or an empty vector when the reduction degenerates.
std::vector<bool> reduce(const PetriNet& net,
                         const std::vector<int>& choice_places,
                         const std::vector<int>& allocation) {
  const int transitions = net.transition_count();
  const int places = net.place_count();
  std::vector<bool> eli_t(transitions, false);
  std::vector<bool> eli_p(places, false);
  // Step 1: eliminate unallocated transitions of every choice place.
  for (std::size_t i = 0; i < choice_places.size(); ++i) {
    for (int t : net.place_outputs(choice_places[i]))
      if (t != allocation[i]) eli_t[t] = true;
  }
  // Steps 2-3 to fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int p = 0; p < places; ++p) {
      if (eli_p[p] || net.place_inputs(p).empty()) continue;
      bool all_inputs_gone = true;
      for (int t : net.place_inputs(p))
        if (!eli_t[t]) {
          all_inputs_gone = false;
          break;
        }
      if (all_inputs_gone) {
        eli_p[p] = true;
        changed = true;
      }
    }
    for (int t = 0; t < transitions; ++t) {
      if (eli_t[t]) continue;
      for (int p : net.transition_inputs(t)) {
        if (eli_p[p]) {
          eli_t[t] = true;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<bool> kept(transitions, false);
  for (int t = 0; t < transitions; ++t) kept[t] = !eli_t[t];
  return kept;
}

}  // namespace

std::vector<MgComponent> mg_components(const PetriNet& net,
                                       int allocation_limit) {
  check(is_free_choice(net), "mg_components: net is not free-choice");
  // Collect choice places.
  std::vector<int> choice_places;
  for (int p = 0; p < net.place_count(); ++p)
    if (net.place_outputs(p).size() > 1) choice_places.push_back(p);

  // Enumerate allocations (cartesian product of output choices).
  long long combinations = 1;
  for (int p : choice_places) {
    combinations *= static_cast<long long>(net.place_outputs(p).size());
    check(combinations <= allocation_limit,
          "mg_components: too many MG allocations");
  }

  std::set<std::vector<int>> seen_transition_sets;
  std::vector<MgComponent> components;
  std::vector<int> allocation(choice_places.size(), 0);
  for (long long combo = 0; combo < combinations; ++combo) {
    // Decode combination index into one choice per choice place.
    long long rest = combo;
    for (std::size_t i = 0; i < choice_places.size(); ++i) {
      const auto& outs = net.place_outputs(choice_places[i]);
      allocation[i] = outs[rest % static_cast<long long>(outs.size())];
      rest /= static_cast<long long>(outs.size());
    }
    const std::vector<bool> kept = reduce(net, choice_places, allocation);

    MgComponent component;
    for (int t = 0; t < net.transition_count(); ++t)
      if (kept[t]) component.transitions.push_back(t);
    if (component.transitions.empty()) continue;

    // Transition-generated subnet: places adjacent to kept transitions.
    std::set<int> place_set;
    for (int t : component.transitions) {
      for (int p : net.transition_inputs(t)) place_set.insert(p);
      for (int p : net.transition_outputs(t)) place_set.insert(p);
    }
    // Marked-graph check within the component.
    bool is_mg = true;
    for (int p : place_set) {
      int ins = 0;
      int outs = 0;
      for (int t : net.place_inputs(p))
        if (kept[t]) ++ins;
      for (int t : net.place_outputs(p))
        if (kept[t]) ++outs;
      if (ins > 1 || outs != 1 || ins == 0) {
        is_mg = false;
        break;
      }
    }
    if (!is_mg) continue;
    if (!seen_transition_sets.insert(component.transitions).second) continue;
    component.places.assign(place_set.begin(), place_set.end());
    components.push_back(component);
  }

  // Coverage check: every transition of the net in at least one component.
  std::vector<bool> covered(net.transition_count(), false);
  for (const MgComponent& component : components)
    for (int t : component.transitions) covered[t] = true;
  for (int t = 0; t < net.transition_count(); ++t)
    if (!covered[t])
      fail("mg_components: transition '" + net.transition_name(t) +
           "' not covered by any MG component");
  return components;
}

}  // namespace sitime::pn

#include "pn/petri_net.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace sitime::pn {

int PetriNet::add_place(const std::string& name, int tokens) {
  check(tokens >= 0, "add_place: negative token count");
  place_names_.push_back(name);
  place_in_.emplace_back();
  place_out_.emplace_back();
  initial_marking_.push_back(tokens);
  return place_count() - 1;
}

int PetriNet::add_transition(const std::string& name) {
  transition_names_.push_back(name);
  transition_in_.emplace_back();
  transition_out_.emplace_back();
  return transition_count() - 1;
}

void PetriNet::add_place_to_transition(int place, int transition) {
  check(place >= 0 && place < place_count(), "flow arc: bad place id");
  check(transition >= 0 && transition < transition_count(),
        "flow arc: bad transition id");
  place_out_[place].push_back(transition);
  transition_in_[transition].push_back(place);
}

void PetriNet::add_transition_to_place(int transition, int place) {
  check(place >= 0 && place < place_count(), "flow arc: bad place id");
  check(transition >= 0 && transition < transition_count(),
        "flow arc: bad transition id");
  transition_out_[transition].push_back(place);
  place_in_[place].push_back(transition);
}

int PetriNet::find_place(const std::string& name) const {
  const auto it = std::find(place_names_.begin(), place_names_.end(), name);
  return it == place_names_.end()
             ? -1
             : static_cast<int>(it - place_names_.begin());
}

int PetriNet::find_transition(const std::string& name) const {
  const auto it =
      std::find(transition_names_.begin(), transition_names_.end(), name);
  return it == transition_names_.end()
             ? -1
             : static_cast<int>(it - transition_names_.begin());
}

void PetriNet::set_initial_tokens(int place, int tokens) {
  check(place >= 0 && place < place_count(), "set_initial_tokens: bad place");
  check(tokens >= 0, "set_initial_tokens: negative token count");
  initial_marking_[place] = tokens;
}

bool PetriNet::enabled(int transition, const Marking& marking) const {
  for (int place : transition_in_[transition])
    if (marking[place] <= 0) return false;
  return true;
}

Marking PetriNet::fire(int transition, const Marking& marking) const {
  if (!enabled(transition, marking))
    fail("fire: transition '" + transition_name(transition) + "' not enabled");
  Marking next = marking;
  for (int place : transition_in_[transition]) --next[place];
  for (int place : transition_out_[transition]) ++next[place];
  return next;
}

std::vector<int> PetriNet::enabled_transitions(const Marking& marking) const {
  std::vector<int> result;
  for (int t = 0; t < transition_count(); ++t)
    if (enabled(t, marking)) result.push_back(t);
  return result;
}

}  // namespace sitime::pn

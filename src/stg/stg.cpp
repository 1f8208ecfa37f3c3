#include "stg/stg.hpp"

#include "base/error.hpp"

namespace sitime::stg {

int Stg::add_transition(const TransitionLabel& label) {
  check(label.signal >= 0 && label.signal < signals.count(),
        "Stg::add_transition: unknown signal id");
  if (find_transition(label) != -1)
    fail("Stg::add_transition: duplicate transition '" +
         label_text(label, signals) + "'");
  const int id = net.add_transition(label_text(label, signals));
  labels.push_back(label);
  return id;
}

int Stg::find_transition(const TransitionLabel& label) const {
  for (int t = 0; t < static_cast<int>(labels.size()); ++t)
    if (labels[t] == label) return t;
  return -1;
}

std::string Stg::transition_text(int t) const {
  check(t >= 0 && t < static_cast<int>(labels.size()),
        "Stg::transition_text: bad transition id");
  return label_text(labels[t], signals);
}

int Stg::connect(int from_transition, int to_transition, int tokens) {
  // Appended in place: the chained operator+ form trips a false-positive
  // -Wrestrict in GCC 12.
  std::string name = "<";
  name += transition_text(from_transition);
  name += ',';
  name += transition_text(to_transition);
  name += '>';
  const int place = net.add_place(name, tokens);
  net.add_transition_to_place(from_transition, place);
  net.add_place_to_transition(place, to_transition);
  return place;
}

}  // namespace sitime::stg

#include "stg/astg.hpp"

#include <cstdint>
#include <map>
#include <string_view>
#include <unordered_map>

#include "base/error.hpp"
#include "base/strings.hpp"

namespace sitime::stg {

namespace {

constexpr std::string_view kWhitespace = " \t\r\n";

/// One graph-line arc. The tokens view the parsed text; a transition
/// endpoint also carries its transition id (-1 = an explicit place).
struct PendingArc {
  std::string_view from;
  std::string_view to;
  int from_transition = -1;
  int to_transition = -1;
};

std::string_view trim(std::string_view text) {
  const auto first = text.find_first_not_of(kWhitespace);
  if (first == std::string_view::npos) return {};
  const auto last = text.find_last_not_of(kWhitespace);
  return text.substr(first, last - first + 1);
}

/// Splits `text` on runs of whitespace into `pieces` (cleared first).
void split(std::string_view text, std::vector<std::string_view>& pieces) {
  pieces.clear();
  std::size_t at = text.find_first_not_of(kWhitespace);
  while (at != std::string_view::npos) {
    const std::size_t end = text.find_first_of(kWhitespace, at);
    pieces.push_back(text.substr(at, end - at));
    if (end == std::string_view::npos) break;
    at = text.find_first_not_of(kWhitespace, end);
  }
}

/// Splits a ".marking { ... }" body into tokens, keeping "<a,b>" units
/// together.
std::vector<std::string> marking_tokens(std::string_view body) {
  std::vector<std::string> tokens;
  std::string current;
  int depth = 0;
  for (char c : body) {
    if (c == '<') ++depth;
    if (c == '>') --depth;
    if ((c == ' ' || c == '\t') && depth == 0) {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

/// Index key of a transition label: distinct labels, distinct keys.
std::uint64_t label_key(const TransitionLabel& label) {
  return (static_cast<std::uint64_t>(label.signal) << 33) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
              label.occurrence))
          << 1) |
         (label.rising ? 1u : 0u);
}

}  // namespace

Stg parse_astg(const std::string& text) {
  Stg stg;
  std::vector<PendingArc> arcs;
  std::vector<std::string> marking;
  bool in_graph = false;
  int line_number = 0;
  auto syntax_error = [&line_number](const std::string& message) {
    fail("parse_astg: line " + std::to_string(line_number) + ": " + message);
  };
  std::vector<std::string_view> pieces;
  const std::string_view all = text;
  for (std::size_t at = 0; at < all.size();) {
    std::size_t end = all.find('\n', at);
    if (end == std::string_view::npos) end = all.size();
    const std::string_view line = trim(all.substr(at, end - at));
    at = end + 1;
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    if (line.starts_with(".model")) {
      split(line, pieces);
      if (pieces.size() >= 2) stg.model_name = pieces[1];
    } else if (line.starts_with(".inputs") || line.starts_with(".outputs") ||
               line.starts_with(".internal")) {
      const SignalKind kind = line.starts_with(".inputs")
                                  ? SignalKind::input
                              : line.starts_with(".outputs")
                                  ? SignalKind::output
                                  : SignalKind::internal;
      split(line, pieces);
      for (std::size_t i = 1; i < pieces.size(); ++i)
        stg.signals.add(std::string(pieces[i]), kind);
    } else if (line.starts_with(".dummy")) {
      syntax_error("dummy transitions are not supported by this flow");
    } else if (line.starts_with(".graph")) {
      in_graph = true;
    } else if (line.starts_with(".marking")) {
      const auto open = line.find('{');
      const auto close = line.rfind('}');
      if (open == std::string_view::npos ||
          close == std::string_view::npos || close < open)
        syntax_error("malformed .marking line");
      marking = marking_tokens(line.substr(open + 1, close - open - 1));
    } else if (line.starts_with(".capacity")) {
      // Capacities are not used by safe STGs; ignored for compatibility.
    } else if (line.starts_with(".end")) {
      break;
    } else if (line.starts_with(".")) {
      split(line, pieces);
      syntax_error("unknown directive '" + std::string(pieces[0]) + "'");
    } else {
      if (!in_graph) syntax_error("graph line before .graph");
      split(line, pieces);
      if (pieces.size() < 2) syntax_error("graph line needs >= 2 nodes");
      for (std::size_t i = 1; i < pieces.size(); ++i)
        arcs.push_back(PendingArc{pieces[0], pieces[i]});
    }
  }

  // Signal names and transition labels are indexed here, so an arc token
  // costs its own length rather than a scan of the tables. The name views
  // stay valid: the signal table is complete.
  std::unordered_map<std::string_view, int> signal_ids;
  for (int s = 0; s < stg.signals.count(); ++s)
    signal_ids.emplace(stg.signals.name(s), s);

  // First pass: create all transitions (and discover explicit places).
  // A token is a transition when it is shaped like a label of a declared
  // signal; anything else names a place.
  std::unordered_map<std::uint64_t, int> transition_ids;
  std::map<std::string, int, std::less<>> explicit_places;
  auto resolve = [&](std::string_view token) {
    std::string_view name;
    bool rising = true;
    int occurrence = 1;
    const auto signal = split_label(token, name, rising, occurrence)
                            ? signal_ids.find(name)
                            : signal_ids.end();
    if (signal == signal_ids.end()) {
      explicit_places.try_emplace(std::string(token), -1);
      return -1;
    }
    const TransitionLabel label{signal->second, rising, occurrence};
    const auto [slot, added] = transition_ids.try_emplace(
        label_key(label), static_cast<int>(stg.labels.size()));
    if (added) {
      // Stg::add_transition without its checks: the signal is declared
      // and the index proves the label new.
      stg.net.add_transition(label_text(label, stg.signals));
      stg.labels.push_back(label);
    }
    return slot->second;
  };
  for (PendingArc& arc : arcs) {
    arc.from_transition = resolve(arc.from);
    arc.to_transition = resolve(arc.to);
  }
  for (auto& [name, id] : explicit_places) id = stg.net.add_place(name, 0);

  // Second pass: materialize arcs. Transition->transition arcs introduce
  // implicit places named "<from,to>".
  std::unordered_map<std::string, int> implicit_places;
  for (const PendingArc& arc : arcs) {
    const int from = arc.from_transition;
    const int to = arc.to_transition;
    if (from != -1 && to != -1) {
      std::string name = "<";
      name += arc.from;
      name += ',';
      name += arc.to;
      name += '>';
      if (implicit_places.count(name))
        fail("parse_astg: duplicate arc " + name);
      implicit_places.emplace(std::move(name), stg.connect(from, to, 0));
    } else if (from != -1) {
      stg.net.add_transition_to_place(from,
                                      explicit_places.find(arc.to)->second);
    } else if (to != -1) {
      stg.net.add_place_to_transition(explicit_places.find(arc.from)->second,
                                      to);
    } else {
      fail("parse_astg: place-to-place arc " + std::string(arc.from) +
           " -> " + std::string(arc.to));
    }
  }

  // Marking.
  for (const std::string& token : marking) {
    int place = -1;
    if (!token.empty() && token.front() == '<') {
      // Normalize "<a,b>" token spacing.
      std::string normalized;
      for (char c : token)
        if (c != ' ' && c != '\t') normalized.push_back(c);
      const auto it = implicit_places.find(normalized);
      if (it == implicit_places.end())
        fail("parse_astg: marking names unknown implicit place " + token);
      place = it->second;
    } else {
      const auto it = explicit_places.find(token);
      if (it == explicit_places.end())
        fail("parse_astg: marking names unknown place " + token);
      place = it->second;
    }
    stg.net.set_initial_tokens(place,
                               stg.net.initial_marking()[place] + 1);
  }
  check(stg.net.transition_count() > 0, "parse_astg: no transitions");
  return stg;
}

std::string write_astg(const Stg& stg) {
  std::string out = ".model " + stg.model_name + "\n";
  auto emit_signals = [&stg, &out](SignalKind kind,
                                   const std::string& directive) {
    std::string names;
    for (int s = 0; s < stg.signals.count(); ++s)
      if (stg.signals.kind(s) == kind) names += " " + stg.signals.name(s);
    if (!names.empty()) out += directive + names + "\n";
  };
  emit_signals(SignalKind::input, ".inputs");
  emit_signals(SignalKind::output, ".outputs");
  emit_signals(SignalKind::internal, ".internal");
  out += ".graph\n";

  const pn::PetriNet& net = stg.net;
  std::vector<std::string> marked;
  for (int p = 0; p < net.place_count(); ++p) {
    const bool implicit = net.place_inputs(p).size() == 1 &&
                          net.place_outputs(p).size() == 1 &&
                          net.place_name(p).front() == '<';
    if (implicit) {
      const std::string from = stg.transition_text(net.place_inputs(p)[0]);
      const std::string to = stg.transition_text(net.place_outputs(p)[0]);
      out += from + " " + to + "\n";
      for (int i = 0; i < net.initial_marking()[p]; ++i)
        marked.push_back("<" + from + "," + to + ">");
    } else {
      for (int t : net.place_inputs(p))
        out += stg.transition_text(t) + " " + net.place_name(p) + "\n";
      for (int t : net.place_outputs(p))
        out += net.place_name(p) + " " + stg.transition_text(t) + "\n";
      for (int i = 0; i < net.initial_marking()[p]; ++i)
        marked.push_back(net.place_name(p));
    }
  }
  out += ".marking { " + base::join(marked, " ") + " }\n.end\n";
  return out;
}

}  // namespace sitime::stg

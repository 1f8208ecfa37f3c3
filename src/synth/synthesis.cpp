#include "synth/synthesis.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "base/error.hpp"
#include "boolfn/qm.hpp"

namespace sitime::synth {

namespace {

/// True when `signal` has an enabled transition in state `s`.
bool excited(const stg::Stg& stg, const sg::GlobalSg& sg, int state,
             int signal) {
  for (const auto& [t, succ] : sg.reach.edges(state)) {
    (void)succ;
    if (stg.labels[t].signal == signal) return true;
  }
  return false;
}

std::uint32_t project_code(std::uint64_t code, const std::vector<int>& vars) {
  std::uint32_t local = 0;
  for (int i = 0; i < static_cast<int>(vars.size()); ++i)
    if ((code >> vars[i]) & 1) local |= 1u << i;
  return local;
}

}  // namespace

NextStateTable next_state_table(const stg::Stg& stg, const sg::GlobalSg& sg,
                                int signal) {
  std::set<std::uint64_t> on;
  std::set<std::uint64_t> off;
  for (int s = 0; s < sg.state_count(); ++s) {
    const bool value = sg.value(s, signal);
    const bool next = value != excited(stg, sg, s, signal);
    (next ? on : off).insert(sg.codes[s]);
  }
  for (std::uint64_t code : on)
    if (off.count(code))
      fail("next_state_table: CSC conflict on signal '" +
           stg.signals.name(signal) +
           "' (two states share a code but disagree on the next state)");
  return NextStateTable{{on.begin(), on.end()}, {off.begin(), off.end()}};
}

std::vector<int> choose_support(const NextStateTable& table, int signal_count,
                                int max_support) {
  std::set<int> support;
  // Essential variables: some on/off pair differs in exactly one position.
  for (std::uint64_t c1 : table.on)
    for (std::uint64_t c0 : table.off) {
      const std::uint64_t diff = c1 ^ c0;
      if (diff != 0 && (diff & (diff - 1)) == 0) {
        for (int v = 0; v < signal_count; ++v)
          if (diff == (std::uint64_t{1} << v)) support.insert(v);
      }
    }
  auto mask_of = [&support]() {
    std::uint64_t mask = 0;
    for (int v : support) mask |= std::uint64_t{1} << v;
    return mask;
  };
  // Greedily add variables until the projection separates on from off.
  while (true) {
    const std::uint64_t mask = mask_of();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> conflicts;
    for (std::uint64_t c1 : table.on)
      for (std::uint64_t c0 : table.off)
        if ((c1 & mask) == (c0 & mask)) conflicts.emplace_back(c1, c0);
    if (conflicts.empty()) break;
    int best_var = -1;
    int best_resolved = -1;
    for (int v = 0; v < signal_count; ++v) {
      if (support.count(v)) continue;
      const std::uint64_t bit = std::uint64_t{1} << v;
      int resolved = 0;
      for (const auto& [c1, c0] : conflicts)
        if ((c1 & bit) != (c0 & bit)) ++resolved;
      if (resolved > best_resolved) {
        best_resolved = resolved;
        best_var = v;
      }
    }
    check(best_var != -1 && best_resolved > 0,
          "choose_support: on/off codes are not separable (CSC violation)");
    support.insert(best_var);
    check(static_cast<int>(support.size()) <= max_support,
          "choose_support: support exceeds limit");
  }
  return {support.begin(), support.end()};
}

GateFunctions synthesize_gate(const stg::Stg& stg, const sg::GlobalSg& sg,
                              int signal) {
  const NextStateTable table = next_state_table(stg, sg, signal);
  if (table.on.empty() || table.off.empty())
    fail("synthesize_gate: constant next-state function for '" +
         stg.signals.name(signal) + "'");
  const std::vector<int> support =
      choose_support(table, stg.signals.count());
  const int n = static_cast<int>(support.size());

  std::set<std::uint32_t> on_minterms;
  std::set<std::uint32_t> off_minterms;
  for (std::uint64_t code : table.on)
    on_minterms.insert(project_code(code, support));
  for (std::uint64_t code : table.off)
    off_minterms.insert(project_code(code, support));
  std::vector<std::uint32_t> dc;
  for (std::uint32_t m = 0; m < (1u << n); ++m)
    if (!on_minterms.count(m) && !off_minterms.count(m)) dc.push_back(m);

  GateFunctions gate;
  gate.output = signal;
  gate.up = boolfn::minimize_to_cover(
      n, {on_minterms.begin(), on_minterms.end()}, dc, support);
  // The chosen cover *is* the gate's completely specified function; the
  // pull-down cover is its exact complement (Section 2.1's f-down).
  gate.down = boolfn::complement_cover(gate.up);
  return gate;
}

std::vector<GateFunctions> synthesize(const stg::Stg& stg,
                                      const sg::GlobalSg& sg) {
  std::vector<GateFunctions> gates;
  for (int signal : stg.signals.non_input_signals())
    gates.push_back(synthesize_gate(stg, sg, signal));
  return gates;
}

int verify_gate(const GateFunctions& gate, const stg::Stg& stg,
                const sg::GlobalSg& sg) {
  for (int s = 0; s < sg.state_count(); ++s) {
    const bool value = sg.value(s, gate.output);
    const bool next = value != excited(stg, sg, s, gate.output);
    if (gate.up.eval(sg.codes[s]) != next) return s;
    if (gate.down.eval(sg.codes[s]) == next) return s;
  }
  return -1;
}

}  // namespace sitime::synth

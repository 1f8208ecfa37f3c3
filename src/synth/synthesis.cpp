#include "synth/synthesis.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "base/error.hpp"
#include "boolfn/qm.hpp"

namespace sitime::synth {

namespace {

/// Bit `signal` of entry `s` is set when `signal` has an enabled transition
/// in state `s`: one pass over the SG edges serves every signal.
std::vector<std::uint64_t> excitation_masks(const stg::Stg& stg,
                                            const sg::GlobalSg& sg) {
  std::vector<std::uint64_t> masks(sg.state_count(), 0);
  for (int s = 0; s < sg.state_count(); ++s)
    for (const auto& [t, succ] : sg.reach.edges(s)) {
      (void)succ;
      const int signal = stg.labels[t].signal;
      if (signal >= 0) masks[s] |= std::uint64_t{1} << signal;
    }
  return masks;
}

bool next_value(const sg::GlobalSg& sg,
                const std::vector<std::uint64_t>& excitation, int state,
                int signal) {
  return sg.value(state, signal) != (((excitation[state] >> signal) & 1) != 0);
}

/// State ids ordered by code, so every signal's table comes out of one
/// walk already sorted.
std::vector<int> states_by_code(const sg::GlobalSg& sg) {
  std::vector<int> order(sg.state_count());
  for (int s = 0; s < sg.state_count(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&sg](int x, int y) {
    return sg.codes[x] < sg.codes[y];
  });
  return order;
}

NextStateTable table_from_excitation(
    const stg::Stg& stg, const sg::GlobalSg& sg,
    const std::vector<std::uint64_t>& excitation,
    const std::vector<int>& order, int signal) {
  NextStateTable table;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int s = order[i];
    const bool next = next_value(sg, excitation, s, signal);
    // States sharing a code are adjacent in `order`: a CSC conflict is two
    // neighbours with one code and different next-state values.
    if (i > 0 && sg.codes[order[i - 1]] == sg.codes[s]) {
      if (next_value(sg, excitation, order[i - 1], signal) != next)
        fail("next_state_table: CSC conflict on signal '" +
             stg.signals.name(signal) +
             "' (two states share a code but disagree on the next state)");
      continue;
    }
    (next ? table.on : table.off).push_back(sg.codes[s]);
  }
  return table;
}

/// True when some code c of `from` with `bit` clear has c | bit in `to`.
/// Both are sorted, and setting a clear bit is monotone on the codes that
/// have it clear, so one merge walk decides it.
bool has_neighbour_above(const std::vector<std::uint64_t>& from,
                         const std::vector<std::uint64_t>& to,
                         std::uint64_t bit) {
  auto j = to.begin();
  for (std::uint64_t c : from) {
    if (c & bit) continue;
    const std::uint64_t want = c | bit;
    while (j != to.end() && (*j < want || !(*j & bit))) ++j;
    if (j == to.end()) return false;
    if (*j == want) return true;
  }
  return false;
}

GateFunctions gate_from_table(const stg::Stg& stg, const NextStateTable& table,
                              int signal) {
  if (table.on.empty() || table.off.empty())
    fail("synthesize_gate: constant next-state function for '" +
         stg.signals.name(signal) + "'");
  const std::vector<int> support =
      choose_support(table, stg.signals.count());
  const int n = static_cast<int>(support.size());

  // Minterms over the support: bit 0 = some on-code projects here, bit 1 =
  // some off-code does; neither = don't care. The support separates on
  // from off, so no minterm carries both.
  auto project_code = [&support](std::uint64_t code) {
    std::uint32_t local = 0;
    for (int i = 0; i < static_cast<int>(support.size()); ++i)
      if ((code >> support[i]) & 1) local |= 1u << i;
    return local;
  };
  std::vector<std::uint8_t> seen(std::size_t{1} << n, 0);
  for (std::uint64_t code : table.on) seen[project_code(code)] |= 1;
  for (std::uint64_t code : table.off) seen[project_code(code)] |= 2;
  std::vector<std::uint32_t> on_minterms;
  std::vector<std::uint32_t> dc;
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    if (seen[m] & 1) on_minterms.push_back(m);
    else if (seen[m] == 0) dc.push_back(m);
  }

  GateFunctions gate;
  gate.output = signal;
  gate.up = boolfn::minimize_to_cover(n, on_minterms, dc, support);
  // The chosen cover *is* the gate's completely specified function; the
  // pull-down cover is its exact complement (Section 2.1's f-down).
  gate.down = boolfn::complement_cover(gate.up);
  return gate;
}

}  // namespace

NextStateTable next_state_table(const stg::Stg& stg, const sg::GlobalSg& sg,
                                int signal) {
  return table_from_excitation(stg, sg, excitation_masks(stg, sg),
                               states_by_code(sg), signal);
}

std::vector<int> choose_support(const NextStateTable& table, int signal_count,
                                int max_support) {
  std::uint64_t support = 0;  // bit v set = variable v chosen
  // Essential variables: some on/off pair differs in exactly position v.
  std::vector<std::uint64_t> on = table.on;
  std::vector<std::uint64_t> off = table.off;
  std::sort(on.begin(), on.end());
  std::sort(off.begin(), off.end());
  for (int v = 0; v < signal_count; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << v;
    if (has_neighbour_above(on, off, bit) || has_neighbour_above(off, on, bit))
      support |= bit;
  }

  // Greedily add variables until the projection separates on from off.
  // Codes that agree on the support form one group; a group with a
  // on-codes and b off-codes holds a*b conflicting pairs, and variable v
  // resolves a1*b0 + a0*b1 of them (a1/b1: codes with bit v set). Counting
  // per group equals the pairwise count, multiplicities included.
  struct Code {
    std::uint64_t key;
    std::uint64_t code;
    bool on;
  };
  std::vector<Code> codes;
  codes.reserve(table.on.size() + table.off.size());
  for (std::uint64_t c : table.on) codes.push_back(Code{0, c, true});
  for (std::uint64_t c : table.off) codes.push_back(Code{0, c, false});
  while (true) {
    for (Code& c : codes) c.key = c.code & support;
    std::sort(codes.begin(), codes.end(),
              [](const Code& x, const Code& y) { return x.key < y.key; });
    std::uint64_t candidates = 0;
    for (int v = 0; v < signal_count; ++v)
      if (!((support >> v) & 1)) candidates |= std::uint64_t{1} << v;
    std::uint64_t conflicts = 0;
    std::array<std::uint64_t, 64> resolved{};
    std::array<std::uint64_t, 64> on_set{};
    std::array<std::uint64_t, 64> off_set{};
    for (std::size_t begin = 0; begin < codes.size();) {
      std::size_t end = begin;
      std::uint64_t on = 0;
      std::uint64_t off_count = 0;
      while (end < codes.size() && codes[end].key == codes[begin].key) {
        (codes[end].on ? on : off_count) += 1;
        ++end;
      }
      if (on > 0 && off_count > 0) {
        conflicts += on * off_count;
        on_set.fill(0);
        off_set.fill(0);
        for (std::size_t i = begin; i < end; ++i) {
          auto& counts = codes[i].on ? on_set : off_set;
          for (std::uint64_t bits = codes[i].code & candidates; bits != 0;
               bits &= bits - 1)
            ++counts[std::countr_zero(bits)];
        }
        for (std::uint64_t bits = candidates; bits != 0; bits &= bits - 1) {
          const int v = std::countr_zero(bits);
          resolved[v] += on_set[v] * (off_count - off_set[v]) +
                         (on - on_set[v]) * off_set[v];
        }
      }
      begin = end;
    }
    if (conflicts == 0) break;
    // Strictly greater keeps the lowest-indexed variable among ties.
    int best_var = -1;
    std::uint64_t best_resolved = 0;
    for (std::uint64_t bits = candidates; bits != 0; bits &= bits - 1) {
      const int v = std::countr_zero(bits);
      if (best_var == -1 || resolved[v] > best_resolved) {
        best_resolved = resolved[v];
        best_var = v;
      }
    }
    check(best_var != -1 && best_resolved > 0,
          "choose_support: on/off codes are not separable (CSC violation)");
    support |= std::uint64_t{1} << best_var;
    check(std::popcount(support) <= max_support,
          "choose_support: support exceeds limit");
  }
  std::vector<int> vars;
  for (std::uint64_t bits = support; bits != 0; bits &= bits - 1)
    vars.push_back(std::countr_zero(bits));
  return vars;
}

GateFunctions synthesize_gate(const stg::Stg& stg, const sg::GlobalSg& sg,
                              int signal) {
  return gate_from_table(stg, next_state_table(stg, sg, signal), signal);
}

std::vector<GateFunctions> synthesize(const stg::Stg& stg,
                                      const sg::GlobalSg& sg) {
  const std::vector<std::uint64_t> excitation = excitation_masks(stg, sg);
  const std::vector<int> order = states_by_code(sg);
  std::vector<GateFunctions> gates;
  for (int signal : stg.signals.non_input_signals())
    gates.push_back(gate_from_table(
        stg, table_from_excitation(stg, sg, excitation, order, signal),
        signal));
  return gates;
}

int verify_gate(const GateFunctions& gate, const stg::Stg& stg,
                const sg::GlobalSg& sg) {
  const std::vector<std::uint64_t> excitation = excitation_masks(stg, sg);
  for (int s = 0; s < sg.state_count(); ++s) {
    const bool next = next_value(sg, excitation, s, gate.output);
    if (gate.up.eval(sg.codes[s]) != next) return s;
    if (gate.down.eval(sg.codes[s]) == next) return s;
  }
  return -1;
}

}  // namespace sitime::synth

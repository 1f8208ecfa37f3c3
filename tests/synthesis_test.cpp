// SG synthesis against the original pairwise implementation.
//
// synth::next_state_table and synth::choose_support group codes instead of
// comparing every on-code with every off-code. The legacy versions below
// are the pairwise originals, kept as the oracle: on every non-input
// signal of the suite and of Muller pipelines 2-10, and on seeded random
// tables, the tables, the chosen support (ties included), the error
// messages and the synthesized covers must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "benchdata/benchmarks.hpp"
#include "boolfn/qm.hpp"
#include "sg/state_graph.hpp"
#include "stg/astg.hpp"
#include "synth/synthesis.hpp"

namespace sitime {
namespace {

// ---- legacy oracle ----------------------------------------------------------

bool legacy_excited(const stg::Stg& stg, const sg::GlobalSg& sg, int state,
                    int signal) {
  for (const auto& [t, succ] : sg.reach.edges(state)) {
    (void)succ;
    if (stg.labels[t].signal == signal) return true;
  }
  return false;
}

synth::NextStateTable legacy_next_state_table(const stg::Stg& stg,
                                              const sg::GlobalSg& sg,
                                              int signal) {
  std::set<std::uint64_t> on;
  std::set<std::uint64_t> off;
  for (int s = 0; s < sg.state_count(); ++s) {
    const bool value = sg.value(s, signal);
    const bool next = value != legacy_excited(stg, sg, s, signal);
    (next ? on : off).insert(sg.codes[s]);
  }
  for (std::uint64_t code : on)
    if (off.count(code))
      fail("next_state_table: CSC conflict on signal '" +
           stg.signals.name(signal) +
           "' (two states share a code but disagree on the next state)");
  return synth::NextStateTable{{on.begin(), on.end()},
                               {off.begin(), off.end()}};
}

/// What the legacy greedy loop went through, so the random sweep can
/// show it covered greedy rounds and ties.
struct LegacyStats {
  int greedy_rounds = 0;
  int ties = 0;  // rounds where a later variable matched the best count
};

std::vector<int> legacy_choose_support(const synth::NextStateTable& table,
                                       int signal_count, int max_support,
                                       LegacyStats& stats) {
  std::set<int> support;
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
  while (true) {
    const std::uint64_t mask = mask_of();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> conflicts;
    for (std::uint64_t c1 : table.on)
      for (std::uint64_t c0 : table.off)
        if ((c1 & mask) == (c0 & mask)) conflicts.emplace_back(c1, c0);
    if (conflicts.empty()) break;
    ++stats.greedy_rounds;
    int best_var = -1;
    int best_resolved = -1;
    bool tie = false;
    for (int v = 0; v < signal_count; ++v) {
      if (support.count(v)) continue;
      const std::uint64_t bit = std::uint64_t{1} << v;
      int resolved = 0;
      for (const auto& [c1, c0] : conflicts)
        if ((c1 & bit) != (c0 & bit)) ++resolved;
      if (resolved == best_resolved && resolved > 0) tie = true;
      if (resolved > best_resolved) {
        best_resolved = resolved;
        best_var = v;
        tie = false;
      }
    }
    if (tie) ++stats.ties;
    check(best_var != -1 && best_resolved > 0,
          "choose_support: on/off codes are not separable (CSC violation)");
    support.insert(best_var);
    check(static_cast<int>(support.size()) <= max_support,
          "choose_support: support exceeds limit");
  }
  return {support.begin(), support.end()};
}

std::uint32_t legacy_project_code(std::uint64_t code,
                                  const std::vector<int>& vars) {
  std::uint32_t local = 0;
  for (int i = 0; i < static_cast<int>(vars.size()); ++i)
    if ((code >> vars[i]) & 1) local |= 1u << i;
  return local;
}

synth::GateFunctions legacy_synthesize_gate(const stg::Stg& stg,
                                            const sg::GlobalSg& sg,
                                            int signal) {
  const synth::NextStateTable table =
      legacy_next_state_table(stg, sg, signal);
  LegacyStats stats;
  const std::vector<int> support =
      legacy_choose_support(table, stg.signals.count(), 16, stats);
  const int n = static_cast<int>(support.size());
  std::set<std::uint32_t> on_minterms;
  std::set<std::uint32_t> off_minterms;
  for (std::uint64_t code : table.on)
    on_minterms.insert(legacy_project_code(code, support));
  for (std::uint64_t code : table.off)
    off_minterms.insert(legacy_project_code(code, support));
  std::vector<std::uint32_t> dc;
  for (std::uint32_t m = 0; m < (1u << n); ++m)
    if (!on_minterms.count(m) && !off_minterms.count(m)) dc.push_back(m);
  synth::GateFunctions gate;
  gate.output = signal;
  gate.up = boolfn::minimize_to_cover(
      n, {on_minterms.begin(), on_minterms.end()}, dc, support);
  gate.down = boolfn::complement_cover(gate.up);
  return gate;
}

// ---- helpers ----------------------------------------------------------------

/// The support, or "error: <message>" when the call throws.
template <typename Fn>
std::string outcome(Fn&& fn) {
  try {
    std::string text;
    for (int v : fn()) text += std::to_string(v) + ' ';
    return text;
  } catch (const Error& error) {
    return std::string("error: ") + error.what();
  }
}

std::string cover_text(const boolfn::Cover& cover) {
  std::string text;
  for (const boolfn::Cube& cube : cover.cubes)
    text += std::to_string(cube.pos) + '/' + std::to_string(cube.neg) + ' ';
  return text;
}

std::vector<benchdata::Benchmark> synthesis_designs() {
  std::vector<benchdata::Benchmark> designs = benchdata::all_benchmarks();
  for (int stages = 2; stages <= 10; ++stages)
    designs.push_back(benchdata::muller_pipeline(stages));
  return designs;
}

// ---- tests ------------------------------------------------------------------

TEST(SynthesisMatchesLegacy, EveryNonInputSignalOfSuiteAndMuller) {
  for (const benchdata::Benchmark& bench : synthesis_designs()) {
    const stg::Stg stg = benchdata::load_stg(bench);
    const sg::GlobalSg global = sg::build_global_sg(stg);
    const std::vector<synth::GateFunctions> gates =
        synth::synthesize(stg, global);
    const std::vector<int> outputs = stg.signals.non_input_signals();
    ASSERT_EQ(gates.size(), outputs.size()) << bench.name;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const int signal = outputs[i];
      const std::string where =
          bench.name + " signal " + stg.signals.name(signal);
      const synth::NextStateTable legacy =
          legacy_next_state_table(stg, global, signal);
      const synth::NextStateTable table =
          synth::next_state_table(stg, global, signal);
      EXPECT_EQ(table.on, legacy.on) << where;
      EXPECT_EQ(table.off, legacy.off) << where;
      LegacyStats stats;
      EXPECT_EQ(synth::choose_support(table, stg.signals.count()),
                legacy_choose_support(legacy, stg.signals.count(), 16, stats))
          << where;
      const synth::GateFunctions expected =
          legacy_synthesize_gate(stg, global, signal);
      EXPECT_EQ(gates[i].output, expected.output) << where;
      EXPECT_EQ(cover_text(gates[i].up), cover_text(expected.up)) << where;
      EXPECT_EQ(cover_text(gates[i].down), cover_text(expected.down))
          << where;
      EXPECT_EQ(synth::verify_gate(gates[i], stg, global), -1) << where;
    }
  }
}

TEST(SynthesisMatchesLegacy, SeededRandomTables) {
  std::mt19937_64 rng(20111);
  LegacyStats stats;
  int not_separable = 0;
  int over_limit = 0;
  int separated = 0;
  for (int round = 0; round < 600; ++round) {
    const int signal_count = 3 + static_cast<int>(rng() % 8);  // 3..10
    const std::uint64_t universe = std::uint64_t{1} << signal_count;
    // Sparse tables leave few essential variables, so the greedy rounds
    // do the work; every fifth table plants a code on both sides, which
    // no support can separate.
    const unsigned density = 2 + static_cast<unsigned>(rng() % 30);
    synth::NextStateTable table;
    for (std::uint64_t code = 0; code < universe; ++code) {
      const unsigned roll = static_cast<unsigned>(rng() % 100);
      if (roll < density) table.on.push_back(code);
      else if (roll < 2 * density) table.off.push_back(code);
    }
    if (round % 5 == 4 && !table.on.empty())
      table.off.push_back(table.on[rng() % table.on.size()]);
    // Some tables arrive shuffled with repeated codes: the pairwise counts
    // weigh repeats, and so must the grouped ones.
    if (round % 7 == 3 && !table.on.empty()) {
      table.on.push_back(table.on.front());
      std::shuffle(table.on.begin(), table.on.end(), rng);
      std::shuffle(table.off.begin(), table.off.end(), rng);
    }
    const int max_support =
        round % 3 == 0 ? 1 + static_cast<int>(rng() % 4) : 16;

    const std::string expected = outcome([&] {
      return legacy_choose_support(table, signal_count, max_support, stats);
    });
    const std::string actual = outcome([&] {
      return synth::choose_support(table, signal_count, max_support);
    });
    EXPECT_EQ(actual, expected) << "round " << round;
    if (expected.find("not separable") != std::string::npos) ++not_separable;
    else if (expected.find("exceeds limit") != std::string::npos) ++over_limit;
    else ++separated;
  }
  // The sweep must exercise every branch it claims to cover.
  EXPECT_GT(stats.greedy_rounds, 0);
  EXPECT_GT(stats.ties, 0);
  EXPECT_GT(not_separable, 0);
  EXPECT_GT(over_limit, 0);
  EXPECT_GT(separated, 0);
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& error) {
    return error.what();
  }
  return "no error";
}

TEST(SynthesisErrors, CscConflictNamesTheSignal) {
  // Code 00 occurs twice: before a+ (b stable low) and after a- (b+
  // enabled), so b's next state is both 0 and 1 there.
  const stg::Stg stg = stg::parse_astg(R"(.model csc
.inputs a
.outputs b
.graph
a+ a-
a- b+
b+ b-
b- a+
.marking { <b-,a+> }
.end
)");
  const sg::GlobalSg global = sg::build_global_sg(stg);
  const int b = stg.signals.find("b");
  const std::string message =
      "next_state_table: CSC conflict on signal 'b' (two states share a "
      "code but disagree on the next state)";
  EXPECT_EQ(error_of([&] { synth::next_state_table(stg, global, b); }),
            message);
  EXPECT_EQ(error_of([&] { synth::synthesize(stg, global); }), message);
}

TEST(SynthesisErrors, InseparableTableIsReported) {
  // The same code on both sides: no variable resolves the pair.
  const synth::NextStateTable table{{0b01, 0b10}, {0b01}};
  EXPECT_EQ(error_of([&] { synth::choose_support(table, 2); }),
            "choose_support: on/off codes are not separable (CSC "
            "violation)");
}

TEST(SynthesisErrors, SupportOverTheLimitIsReported) {
  // Variable 2 is essential; the pairs 011/000 and 100/111 then need one
  // more variable (0 and 1 tie, 0 wins), so a limit of 1 is exceeded.
  const synth::NextStateTable table{{0b011, 0b100}, {0b000, 0b111}};
  EXPECT_EQ(synth::choose_support(table, 3), (std::vector<int>{0, 2}));
  EXPECT_EQ(error_of([&] { synth::choose_support(table, 3, 1); }),
            "choose_support: support exceeds limit");
}

}  // namespace
}  // namespace sitime

// Netlist, adversary-path, and padding tests (src/circuit).
#include <gtest/gtest.h>

#include "base/error.hpp"
#include "benchdata/benchmarks.hpp"
#include "circuit/adversary.hpp"
#include "circuit/circuit.hpp"
#include "circuit/padding.hpp"
#include "core/flow.hpp"
#include "stg/signal.hpp"

namespace sitime::circuit {
namespace {

stg::SignalTable three_signals() {
  stg::SignalTable table;
  table.add("a", stg::SignalKind::input);
  table.add("b", stg::SignalKind::input);
  table.add("o", stg::SignalKind::output);
  return table;
}

TEST(Circuit, FromEquationsBuildsGatesAndFanins) {
  const stg::SignalTable table = three_signals();
  const Circuit circuit = Circuit::from_equations(&table, "o = a*b' + o*a;");
  ASSERT_TRUE(circuit.has_gate(2));
  const Gate& gate = circuit.gate_for(2);
  EXPECT_EQ(gate.fanins, (std::vector<int>{0, 1}));  // o itself excluded
  // down = complement of (a*b' + o*a) = a' + b*o'.
  EXPECT_TRUE(gate.down.eval(0));                       // a=0
  EXPECT_FALSE(gate.down.eval(0b001));                  // a=1,b=0
  EXPECT_TRUE(gate.down.eval(0b011));                   // a=1,b=1,o=0
}

TEST(Circuit, FromEquationsRejectsMissingGate) {
  stg::SignalTable table;
  table.add("a", stg::SignalKind::input);
  table.add("x", stg::SignalKind::output);
  table.add("y", stg::SignalKind::output);
  EXPECT_THROW(Circuit::from_equations(&table, "x = a;"), Error);
}

TEST(Circuit, WiresAndFanout) {
  stg::SignalTable table;
  table.add("a", stg::SignalKind::input);
  table.add("x", stg::SignalKind::output);
  table.add("y", stg::SignalKind::output);
  const Circuit circuit =
      Circuit::from_equations(&table, "x = a;\ny = a*x;");
  EXPECT_EQ(circuit.fanout(0), 2);  // a feeds x and y
  EXPECT_EQ(circuit.fanout(1), 1);  // x feeds y
  EXPECT_EQ(circuit.wires().size(), 3u);
}

TEST(Circuit, LocalSignalMask) {
  const stg::SignalTable table = three_signals();
  const Circuit circuit = Circuit::from_equations(&table, "o = a*b';");
  const auto mask = circuit.local_signal_mask(2);
  EXPECT_EQ(mask, (std::vector<bool>{true, true, true}));
}

TEST(Circuit, EqnRoundTrip) {
  const stg::SignalTable table = three_signals();
  const std::string eqn = "o = a*b' + a*o;\n";
  const Circuit circuit = Circuit::from_equations(&table, eqn);
  EXPECT_EQ(circuit.to_eqn(), eqn);
}

class ImecAdversary : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    stg_ = new stg::Stg(benchdata::load_stg(
        benchdata::benchmark("imec-ram-read-sbuf")));
    analysis_ = new AdversaryAnalysis(stg_);
  }
  static void TearDownTestSuite() {
    delete analysis_;
    delete stg_;
    analysis_ = nullptr;
    stg_ = nullptr;
  }
  static stg::TransitionLabel label(const std::string& text) {
    stg::TransitionLabel parsed;
    check(stg::parse_label(text, stg_->signals, parsed),
          "bad label " + text);
    return parsed;
  }
  static stg::Stg* stg_;
  static AdversaryAnalysis* analysis_;
};

stg::Stg* ImecAdversary::stg_ = nullptr;
AdversaryAnalysis* ImecAdversary::analysis_ = nullptr;

TEST_F(ImecAdversary, DirectCausationWeighsZero) {
  // wenin- directly precedes i0+ in the STG: no intermediate gates.
  EXPECT_EQ(analysis_->weight(label("wenin-"), label("i0+")), 0);
}

TEST_F(ImecAdversary, InternalChainCountsGates) {
  // wenin- => wsld+ => precharged+: one intermediate internal transition.
  EXPECT_EQ(analysis_->weight(label("wenin-"), label("precharged+")),
            kEnvironmentWeight);  // precharged is a primary input: guarded
  // csc0+ => wsld- => wsldin- ... => map0+: map0 is internal, so the weight
  // counts the intermediate internal transitions of the slowest chain.
  const int w = analysis_->weight(label("csc0+"), label("map0+"));
  EXPECT_GE(w, 1);
  EXPECT_GE(kEnvironmentWeight, w);
}

TEST_F(ImecAdversary, InputTargetIsEnvironmentGuarded) {
  EXPECT_EQ(analysis_->weight(label("req+"), label("prnotin+")),
            kEnvironmentWeight);
}

TEST_F(ImecAdversary, PathsCrossMarkedPlaces) {
  // The chain req+ -> i4+ -> prnot+ -> prnotin+ crosses the initially
  // marked place <i4+,prnot+> and must still be enumerated.
  const auto paths = analysis_->paths(label("req+"), label("prnotin+"));
  ASSERT_FALSE(paths.empty());
  bool found = false;
  for (const auto& path : paths)
    if (path.size() == 4) found = true;
  EXPECT_TRUE(found);
}

TEST_F(ImecAdversary, PathsAreSimple) {
  for (const auto& path :
       analysis_->paths(label("wenin-"), label("i0+"), 64)) {
    std::set<int> seen(path.begin(), path.end());
    EXPECT_EQ(seen.size(), path.size());
  }
}

/// weights_to(to)[from] against weight(from, to) for every ordered pair of
/// the given labels (transitions the STG lacks weigh kEnvironmentWeight).
void expect_weights_to_matches_weight(
    const AdversaryAnalysis& analysis,
    const std::vector<stg::TransitionLabel>& labels,
    const std::string& where) {
  for (const stg::TransitionLabel& to : labels) {
    const std::vector<int> column = analysis.weights_to(to);
    ASSERT_EQ(static_cast<int>(column.size()),
              analysis.impl().net.transition_count());
    for (const stg::TransitionLabel& from : labels) {
      const int source = analysis.impl().find_transition(from);
      const int batched = source == -1 ? kEnvironmentWeight : column[source];
      EXPECT_EQ(batched, analysis.weight(from, to))
          << where << ": " << stg::label_text(from, analysis.impl().signals)
          << " -> " << stg::label_text(to, analysis.impl().signals);
    }
  }
}

TEST(AdversaryWeightsTo, MatchesPairwiseWeightOnEveryComponent) {
  std::vector<benchdata::Benchmark> designs = benchdata::all_benchmarks();
  for (int signals : {3, 8, 16, 32, 64})
    designs.push_back(benchdata::ring_design(signals));
  for (int stages = 2; stages <= 10; ++stages)
    designs.push_back(benchdata::muller_pipeline(stages));
  for (const benchdata::Benchmark& bench : designs) {
    const stg::Stg stg = benchdata::load_stg(bench);
    const AdversaryAnalysis analysis(&stg);
    const core::FlowDecomposition decomposition = core::decompose_flow(
        stg, benchdata::load_circuit(bench, stg));
    for (const stg::MgStg& component : decomposition.component_stgs) {
      std::vector<stg::TransitionLabel> labels;
      for (int t = 0; t < component.transition_count(); ++t)
        if (component.alive(t)) labels.push_back(component.label(t));
      expect_weights_to_matches_weight(analysis, labels, bench.name);
    }
  }
}

TEST(AdversaryWeightsTo, MatchesPairwiseWeightOnATokenFreeCycle) {
  // y+ and z+ feed each other through unmarked places, and only y+ reaches
  // t+. A memo shared across sources would keep z+'s entry from the pass
  // that entered it through y+ (y+ still provisional, so z+ -> t+ looks
  // unreachable), while weight(z+, t+) itself finds z+ -> y+ -> t+.
  stg::Stg stg;
  const int y = stg.signals.add("y", stg::SignalKind::output);
  const int z = stg.signals.add("z", stg::SignalKind::output);
  const int t = stg.signals.add("t", stg::SignalKind::output);
  const int yp = stg.add_transition({y, true, 1});
  const int zp = stg.add_transition({z, true, 1});
  const int tp = stg.add_transition({t, true, 1});
  stg.connect(yp, tp);
  stg.connect(yp, zp);
  stg.connect(zp, yp);
  const AdversaryAnalysis analysis(&stg);
  EXPECT_EQ(analysis.weight(stg.labels[zp], stg.labels[tp]), 1);
  expect_weights_to_matches_weight(analysis, stg.labels, "cycle");
}

TEST(Padding, StrongConstraintsGetWirePads) {
  const auto& bench = benchdata::benchmark("imec-ram-read-sbuf");
  const stg::Stg stg = benchdata::load_stg(bench);
  const Circuit circuit = benchdata::load_circuit(bench, stg);
  const core::FlowResult flow = core::derive_timing_constraints(stg, circuit);
  const AdversaryAnalysis adversary(&stg);
  std::vector<DelayConstraint> constraints;
  for (const auto& [c, w] : flow.after)
    constraints.push_back(DelayConstraint{c.gate, c.before, c.after, w});
  const auto plan = plan_padding(adversary, circuit, constraints);
  for (const auto& decision : plan) {
    // A pad must never sit on a fast (direct) side of some constraint.
    if (decision.kind == PaddingKind::wire) {
      for (const DelayConstraint& c : constraints)
        EXPECT_FALSE(c.before.signal == decision.source &&
                     c.gate == decision.sink)
            << decision.text;
    }
  }
  // Environment-guarded constraints receive no padding.
  for (const auto& decision : plan)
    EXPECT_LT(decision.constraint.weight, kEnvironmentWeight);
}

}  // namespace
}  // namespace sitime::circuit

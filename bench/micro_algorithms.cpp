// google-benchmark microbenchmarks for the core algorithms, backing the
// complexity discussion of Section 5.6.1: projection (one imec job, and
// every job of a ring), SG synthesis of Muller pipelines, a ring's
// component key base, a relaxation step, redundant-arc elimination,
// state-graph construction, Hack decomposition, QM minimization, and the
// end-to-end flow on the largest benchmark.
#include <benchmark/benchmark.h>

#include "benchdata/benchmarks.hpp"
#include "boolfn/qm.hpp"
#include "core/flow.hpp"
#include "core/local_stg.hpp"
#include "pn/hack.hpp"
#include "sg/sg_cache.hpp"
#include "sg/state_graph.hpp"
#include "synth/synthesis.hpp"

namespace {

using namespace sitime;

const stg::Stg& imec_stg() {
  static const stg::Stg stg =
      benchdata::load_stg(benchdata::benchmark("imec-ram-read-sbuf"));
  return stg;
}

const circuit::Circuit& imec_circuit() {
  static const circuit::Circuit circuit =
      benchdata::load_circuit(benchdata::benchmark("imec-ram-read-sbuf"),
                              imec_stg());
  return circuit;
}

stg::MgStg imec_component() {
  const stg::Stg& stg = imec_stg();
  const sg::GlobalSg global = sg::build_global_sg(stg);
  const auto values = sg::initial_values(stg, global);
  const auto components = pn::mg_components(stg.net);
  return core::mg_from_component(stg, components[0], values);
}

void BM_GlobalStateGraph(benchmark::State& state) {
  const stg::Stg& stg = imec_stg();
  for (auto _ : state)
    benchmark::DoNotOptimize(sg::build_global_sg(stg).state_count());
}
BENCHMARK(BM_GlobalStateGraph);

void BM_HackDecomposition(benchmark::State& state) {
  const stg::Stg& stg = imec_stg();
  for (auto _ : state)
    benchmark::DoNotOptimize(pn::mg_components(stg.net).size());
}
BENCHMARK(BM_HackDecomposition);

void BM_LocalStgProjection(benchmark::State& state) {
  const stg::MgStg component = imec_component();
  const circuit::Gate& gate =
      imec_circuit().gate_for(imec_stg().signals.find("i0"));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::local_stg(component, gate).arcs().size());
}
BENCHMARK(BM_LocalStgProjection);

// Every (component x gate) projection of an n-signal ring: the cold path's
// scaling term (each gate hides all but two or three of the n signals).
void BM_LocalStgProjectionRing(benchmark::State& state) {
  const benchdata::Benchmark bench =
      benchdata::ring_design(static_cast<int>(state.range(0)));
  const stg::Stg stg = benchdata::load_stg(bench);
  const circuit::Circuit circuit = benchdata::load_circuit(bench, stg);
  const sg::GlobalSg global = sg::build_global_sg(stg);
  const auto values = sg::initial_values(stg, global);
  std::vector<stg::MgStg> components;
  for (const pn::MgComponent& component : pn::mg_components(stg.net))
    components.push_back(core::mg_from_component(stg, component, values));
  for (auto _ : state)
    for (const stg::MgStg& component : components)
      for (const circuit::Gate& gate : circuit.gates())
        benchmark::DoNotOptimize(
            core::local_stg(component, gate).arcs().size());
}
BENCHMARK(BM_LocalStgProjectionRing)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// SG synthesis of an n-stage Muller pipeline (2^(n+2) states): the
// netlist-free cold path's dominant term before the global SG itself.
void BM_SynthesizeMuller(benchmark::State& state) {
  const stg::Stg stg = benchdata::load_stg(
      benchdata::muller_pipeline(static_cast<int>(state.range(0))));
  const sg::GlobalSg global = sg::build_global_sg(stg);
  for (auto _ : state)
    benchmark::DoNotOptimize(synth::synthesize(stg, global).size());
}
BENCHMARK(BM_SynthesizeMuller)
    ->Arg(8)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

// The derive-phase key base of a ring-n's one component: the adversary
// weight matrix over its 2n transitions dominates.
void BM_ComponentKeyBaseRing(benchmark::State& state) {
  const stg::Stg stg = benchdata::load_stg(
      benchdata::ring_design(static_cast<int>(state.range(0))));
  const sg::GlobalSg global = sg::build_global_sg(stg);
  const auto values = sg::initial_values(stg, global);
  const stg::MgStg component =
      core::mg_from_component(stg, pn::mg_components(stg.net)[0], values);
  const circuit::AdversaryAnalysis adversary(&stg);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::component_key_base(component, &adversary).hash);
}
BENCHMARK(BM_ComponentKeyBaseRing)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_RelaxationStep(benchmark::State& state) {
  // One trial of the Expand inner loop: try a relaxation, then roll it
  // back (the common rejected-trial path, via the snapshot/undo API).
  const stg::MgStg component = imec_component();
  const circuit::Gate& gate =
      imec_circuit().gate_for(imec_stg().signals.find("i0"));
  stg::MgStg local = core::local_stg(component, gate);
  const auto arcs = core::relaxable_arcs(local, gate.output);
  const int from = local.arcs()[arcs.front()].from;
  const int to = local.arcs()[arcs.front()].to;
  for (auto _ : state) {
    stg::MgStg::ArcSnapshot snapshot = local.arc_snapshot();
    local.relax(from, to);
    benchmark::DoNotOptimize(local.arcs().size());
    local.restore_arcs(std::move(snapshot));
  }
}
BENCHMARK(BM_RelaxationStep);

void BM_RelaxationTrialWithSg(benchmark::State& state) {
  // The full trial: relax, (re)build the trial's state graph through the
  // SG cache, undo. After the first iteration the cache serves the graph.
  const stg::MgStg component = imec_component();
  const circuit::Gate& gate =
      imec_circuit().gate_for(imec_stg().signals.find("i0"));
  stg::MgStg local = core::local_stg(component, gate);
  const auto arcs = core::relaxable_arcs(local, gate.output);
  const int from = local.arcs()[arcs.front()].from;
  const int to = local.arcs()[arcs.front()].to;
  sg::SgCache cache;
  for (auto _ : state) {
    stg::MgStg::ArcSnapshot snapshot = local.arc_snapshot();
    local.relax(from, to);
    benchmark::DoNotOptimize(cache.get_or_build(local)->state_count());
    local.restore_arcs(std::move(snapshot));
  }
}
BENCHMARK(BM_RelaxationTrialWithSg);

void BM_LocalStateGraph(benchmark::State& state) {
  const stg::MgStg component = imec_component();
  const circuit::Gate& gate =
      imec_circuit().gate_for(imec_stg().signals.find("i0"));
  const stg::MgStg local = core::local_stg(component, gate);
  for (auto _ : state)
    benchmark::DoNotOptimize(sg::build_state_graph(local).state_count());
}
BENCHMARK(BM_LocalStateGraph);

void BM_QuineMcCluskey(benchmark::State& state) {
  // 6-variable function with a mixed on/dc set.
  std::vector<std::uint32_t> on;
  std::vector<std::uint32_t> dc;
  for (std::uint32_t m = 0; m < 64; ++m) {
    if ((m * 2654435761u >> 28) % 3 == 0) on.push_back(m);
    else if ((m * 2654435761u >> 28) % 3 == 1) dc.push_back(m);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(
        boolfn::irredundant_prime_cover(6, on, dc).size());
}
BENCHMARK(BM_QuineMcCluskey);

void BM_FullFlowImec(benchmark::State& state) {
  const stg::Stg& stg = imec_stg();
  const circuit::Circuit& circuit = imec_circuit();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::derive_timing_constraints(stg, circuit).after.size());
}
BENCHMARK(BM_FullFlowImec);

}  // namespace

BENCHMARK_MAIN();

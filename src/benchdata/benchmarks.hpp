// Embedded benchmark suite (Section 7.3).
//
// Each benchmark is an *implementation STG* in astg text plus, optionally, a
// restricted-EQN netlist. `imec-ram-read-sbuf` reproduces the STG and EQN
// printed verbatim in Section 7.3.1 of the thesis (its before/after
// constraint lists are the ground truth this reproduction validates
// against). The remaining entries are reconstructions with the same names,
// interface sizes in the spirit of Table 7.2, and CSC-complete internal
// signals, since the original petrify-synthesized netlists are not
// available offline (see DESIGN.md, substitution 1). Benchmarks without an
// EQN are synthesized by src/synth.
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "stg/stg.hpp"

namespace sitime::benchdata {

struct Benchmark {
  std::string name;
  std::string astg;  // implementation STG
  std::string eqn;   // optional netlist; empty -> synthesize from the SG
};

/// The full suite in Table 7.2 order.
const std::vector<Benchmark>& all_benchmarks();

/// Lookup by name; throws on unknown names.
const Benchmark& benchmark(const std::string& name);

// ---- parametric scaling families -------------------------------------------
// Built in memory, so cost curves can be measured past the fixed suite.

/// An n-signal ring, named "ring<n>": s0+ -> s1+ -> ... -> s(n-1)+ -> s0-
/// -> ... -> s(n-1)- -> s0+, one token on the closing arc. s0 is the
/// input; every other signal is a buffer of its predecessor (the EQN).
Benchmark ring_design(int signals);

/// An n-stage Muller pipeline, named "muller<n>": C-elements c1..cn
/// between the input request r and the input acknowledge a. Stage i rises
/// after its predecessor rose and its successor fell, and falls after its
/// predecessor fell and its successor rose; everything starts low. No EQN:
/// load_circuit() synthesizes the netlist.
Benchmark muller_pipeline(int stages);

/// Parses the benchmark's STG.
stg::Stg load_stg(const Benchmark& bench);

/// Builds the benchmark's circuit against `stg` (which must outlive the
/// returned Circuit): from the embedded EQN when present, otherwise by
/// SG-based synthesis.
circuit::Circuit load_circuit(const Benchmark& bench, const stg::Stg& stg);

}  // namespace sitime::benchdata

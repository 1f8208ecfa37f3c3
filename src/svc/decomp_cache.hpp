// The middle level of the three-level service cache: whole-design
// FlowDecompositions keyed on the canonical STG text ALONE.
//
// The design level keys on STG + netlist + expand options, so a
// netlist-only edit misses it and — without this level — pays the full
// decompose phase again: the global-SG BFS, the consistency check, the MG
// component enumeration and every component projection. All of that is a
// pure function of the STG; only the (component × gate) job list and the
// derive-side key material depend on the circuit. This level stores the
// STG-derived part once, and a hit re-targets it at the request's circuit
// by re-enumerating the job list (core::enumerate_flow_jobs) — skipping
// the global-SG rebuild entirely.
//
// A value built from a design with no explicit netlist also retains the
// synthesized circuit (a pure function of the STG), so repeat synthesis
// requests skip the synthesis global-SG pass too. `built_eqn` records the
// canonical netlist the stored job list was computed against: a hit whose
// circuit matches reuses it verbatim; a mismatch re-enumerates the job
// list for the new gate count. The memoized FlowKeyCache is shared either
// way — the ComponentKeyBase prefixes and the adversary-weight matrix they
// embed are pure functions of the STG, so warm runs never re-serialize
// them, whatever circuit they bring.
//
// Storage is one exact-LRU svc::ByteStore shard charged with the
// calibrated model in svc/footprint.hpp (the pinned source STG and the
// retained synthesized circuit included), placed below the design level
// and above the gate-slice level in the shared budget. There is no
// single-flight — two flows racing on one STG both decompose and either
// insert may win, the content address guaranteeing they built the same
// value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "circuit/circuit.hpp"
#include "core/flow.hpp"
#include "svc/byte_store.hpp"

namespace sitime::svc {

/// One cached decomposition. `decomposition` carries its pins
/// (FlowDecomposition::source for the STG the component projections point
/// into, key_cache for the memoized key bases); consumers whose circuit
/// renders to `built_eqn` may use it verbatim, others re-enumerate the job
/// list (the shared key cache stays valid).
struct DecompValue {
  core::FlowDecomposition decomposition;
  /// Canonical netlist of the circuit `decomposition.jobs` was computed
  /// against.
  std::string built_eqn;
  /// The synthesized circuit (+ its canonical netlist) when the value was
  /// built from a design with no explicit netlist; null otherwise. Points
  /// into the SignalTable of decomposition.source, which the shared value
  /// pins.
  std::shared_ptr<const circuit::Circuit> synth_circuit;
  std::shared_ptr<const std::string> synth_eqn;
};

struct DecompPolicy {
  using Value = std::shared_ptr<const DecompValue>;
  static std::uint64_t hash(const std::string& stg_canonical) {
    return std::hash<std::string>{}(stg_canonical);
  }
  static std::size_t cost(const std::string& stg_canonical,
                          const Value& value);
  /// A duplicate STG is upgraded in place (both decompositions are equal
  /// by content address), keeping whichever synthesis products exist, so
  /// an explicit-netlist re-insert never drops a retained synthesized
  /// circuit.
  static bool replace(const Value& resident, Value& incoming);
};

class DecompCache
    : public ByteStore<std::string, DecompPolicy::Value, DecompPolicy> {
 public:
  using Value = DecompValue;

  /// Polls the decomp_cache_insert fault point on insert.
  explicit DecompCache(std::size_t budget_bytes)
      : ByteStore(budget_bytes, /*shards=*/1,
                  base::FaultPoint::decomp_cache_insert) {}

  /// `have_circuit` says whether the caller brings its own netlist: a
  /// caller without one can only be served by a value that retained the
  /// synthesized circuit, so a resident value without synthesis products
  /// counts (and returns) as a miss for such a caller.
  std::shared_ptr<const Value> lookup(const std::string& stg_canonical,
                                      bool have_circuit) {
    return ByteStore::lookup(stg_canonical, [have_circuit](const auto& v) {
      return have_circuit || v->synth_circuit != nullptr;
    });
  }

  void insert(const std::string& stg_canonical, Value value) {
    ByteStore::insert(stg_canonical,
                      std::make_shared<const Value>(std::move(value)));
  }
};

}  // namespace sitime::svc

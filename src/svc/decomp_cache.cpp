#include "svc/decomp_cache.hpp"

#include "svc/footprint.hpp"

namespace sitime::svc {

/// Calibrated cost of one resident value: the decomposition, the STG it
/// pins, the retained synthesized circuit, the canonical key (charged
/// twice, conservatively) and the container node overheads. The
/// pinned STG may also be resident as a design entry — double-charging
/// shared bytes keeps the budget conservative, exactly as the gate level
/// over-counts shared key prefixes.
std::size_t DecompPolicy::cost(const std::string& stg_canonical,
                               const Value& value) {
  std::size_t total = sizeof(DecompValue) + kControlBlockBytes +
                      2 * heap_bytes(stg_canonical) + kHashNodeBytes +
                      4 * sizeof(void*) +  // list links + map slot
                      footprint(value->decomposition) +
                      heap_bytes(value->built_eqn);
  if (value->decomposition.source != nullptr)
    total += footprint(*value->decomposition.source);
  if (value->synth_circuit != nullptr)
    total += footprint(*value->synth_circuit) + kControlBlockBytes;
  if (value->synth_eqn != nullptr)
    total += sizeof(std::string) + heap_bytes(*value->synth_eqn) +
             kControlBlockBytes;
  return total;
}

bool DecompPolicy::replace(const Value& resident, Value& incoming) {
  if (incoming->synth_circuit == nullptr &&
      resident->synth_circuit != nullptr) {
    auto merged = std::make_shared<DecompValue>(*incoming);
    merged->synth_circuit = resident->synth_circuit;
    merged->synth_eqn = resident->synth_eqn;
    incoming = std::move(merged);
  }
  return true;
}

}  // namespace sitime::svc

#include "svc/gate_cache.hpp"

#include "svc/footprint.hpp"

namespace sitime::svc {

/// Calibrated footprint of one resident slice: the node itself, its list
/// links, one index slot, the key's word slabs, and the slice behind its
/// shared_ptr control block. The component prefix is shared by every key
/// stamped from the same base, but each entry is charged its full size —
/// over-counting shared bytes keeps the budget conservative.
std::size_t GatePolicy::cost(const core::GateJobKey& key,
                             const Value& slice) {
  const std::size_t base_words =
      key.base.words != nullptr ? key.base.words->capacity() : 0;
  return sizeof(void*) * 4 +
         (base_words + key.gate_words.capacity()) * sizeof(std::uint64_t) +
         kControlBlockBytes + sizeof(core::GateSlice) +
         footprint(slice->before) + footprint(slice->after);
}

}  // namespace sitime::svc

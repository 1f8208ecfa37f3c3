// The finest level of the three-level service cache: per-(MG component ×
// gate) job slices, content-addressed by core::gate_job_key().
//
// The design level only helps when a request's canonical content matches
// byte for byte, and the decomposition level only skips the decompose
// phase; an editor loop that touches one gate misses the first every time.
// This level catches exactly that traffic: the edited design decomposes
// (or reuses its decomposition), every unchanged gate's job key still hits
// here, and only the delta re-expands. Values are immutable slices behind
// shared_ptr with no single-flight (two flows racing on one key both
// compute; the content address guarantees they computed the same slice,
// so the resident copy wins) — a slice is cheap to recompute and the
// design level above already deduplicates whole requests.
//
// Storage is a 16-shard svc::ByteStore (approximate LRU, round-robin
// shedding — exactness is not worth a global lock on the job hot path)
// charged with the calibrated model in svc/footprint.hpp. In the service
// it sits at the bottom of the shared budget: its allowance is what the
// design and decomposition levels leave free, and a gate insert only ever
// evicts gate slices.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/local_stg.hpp"
#include "svc/byte_store.hpp"

namespace sitime::svc {

struct GatePolicy {
  using Value = std::shared_ptr<const core::GateSlice>;
  static std::uint64_t hash(const core::GateJobKey& key) { return key.hash; }
  static std::size_t cost(const core::GateJobKey& key, const Value& slice);
  /// Duplicate keys keep the resident slice (both are equal by
  /// construction).
  static bool replace(const Value&, Value&) { return false; }
};

class GateCache
    : public core::GateSliceStore,
      public ByteStore<core::GateJobKey, GatePolicy::Value, GatePolicy> {
 public:
  /// `budget_bytes` is the byte budget; `reserved_bytes` (may be null)
  /// counts as held above this level, so the cache keeps itself within
  /// budget_bytes - *reserved_bytes at every insert and shed_to_fit().
  /// Polls the gate_cache_insert fault point on insert.
  GateCache(std::size_t budget_bytes,
            const std::atomic<std::size_t>* reserved_bytes)
      : ByteStore(budget_bytes, /*shards=*/16,
                  base::FaultPoint::gate_cache_insert, reserved_bytes) {}

  std::shared_ptr<const core::GateSlice> lookup(
      const core::GateJobKey& key) override {
    return ByteStore::lookup(key);
  }

  void insert(const core::GateJobKey& key,
              std::shared_ptr<const core::GateSlice> slice) override {
    if (slice != nullptr) ByteStore::insert(key, std::move(slice));
  }
};

}  // namespace sitime::svc

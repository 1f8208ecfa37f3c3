// One byte-charged LRU store: the single implementation behind all three
// service cache levels (whole-design entries in AnalysisService, STG-keyed
// decompositions in DecompCache, per-(component × gate) slices in
// GateCache).
//
// A store keys values by content, charges every resident value a
// calibrated byte cost (svc/footprint.hpp), and keeps one counter set:
// hits, misses, evictions, resident bytes and entries. Values are treated
// as immutable by the store; a duplicate insert asks the level's Policy
// whether to replace the resident value (and re-charge it) or keep it.
//
// Budget: levels share ONE byte budget in priority order. A level's
// allowance is the budget minus the bytes every higher-priority level
// holds (place_below() links the chain), so a lower level only ever lives
// in what the levels above it leave free, and its own inserts never evict
// a higher level's entry. When a level grows it sheds itself down to its
// allowance and then every level below to theirs. The top level is the
// exception: it lets the levels below shed against its whole demand first,
// so they are emptied before any of its own entries goes. A new value
// costing more than the current allowance is never retained and evicts
// nothing.
//
// Sharding: `shards` independently locked LRU lists, selected by the high
// bits of the key hash. With one shard the store is exact LRU; with more,
// shedding walks the shards round-robin popping LRU tails (approximate
// global LRU without a global lock on the lookup hot path).
//
// A budget of 0 disables the level: lookups miss without counting and
// inserts are dropped. Each level polls one fault point on insert; a
// fired fault skips retention only (the inserting caller still holds its
// value).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/fault.hpp"

namespace sitime::svc {

/// The non-template part of a store: budget, priority chain and counters.
class StoreLevel {
 public:
  StoreLevel(const StoreLevel&) = delete;
  StoreLevel& operator=(const StoreLevel&) = delete;

  /// Links this level directly below `above` (and so below every level
  /// over it): this level's allowance excludes their bytes, and it sheds
  /// whenever `above` grows. Call before the levels are shared.
  void place_below(StoreLevel& above) {
    reserved_ = above.reserved_;
    reserved_.push_back(&above.bytes_);
    above.below_ = this;
  }

  /// The budget minus the bytes held by every higher-priority level.
  std::size_t allowance() const {
    std::size_t reserved = 0;
    for (const std::atomic<std::size_t>* bytes : reserved_)
      reserved += bytes->load(std::memory_order_relaxed);
    return budget_ > reserved ? budget_ - reserved : 0;
  }

  /// Sheds this level and every level below it to their allowances.
  void shed_to_fit() {
    for (StoreLevel* level = this; level != nullptr; level = level->below_)
      level->shed_to(level->allowance());
  }

  long long hits() const { return hits_.load(std::memory_order_relaxed); }
  long long misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  long long evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::size_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  int entries() const { return entries_.load(std::memory_order_relaxed); }

 protected:
  /// `reserved` (may be null) counts as bytes held above this level: a
  /// standalone level can live beside a cache it does not know.
  StoreLevel(std::size_t budget, base::FaultPoint fault,
             const std::atomic<std::size_t>* reserved)
      : budget_(budget), fault_(fault) {
    if (reserved != nullptr) reserved_.push_back(reserved);
  }
  ~StoreLevel() = default;

  /// Pops LRU tails until this level holds at most `target` bytes or is
  /// empty.
  virtual void shed_to(std::size_t target) = 0;

  /// Restores every allowance after this level grew.
  void settle() {
    if (reserved_.empty() && below_ != nullptr) below_->shed_to_fit();
    shed_to_fit();
  }

  const std::size_t budget_;
  const base::FaultPoint fault_;
  std::atomic<std::size_t> bytes_{0};
  std::atomic<int> entries_{0};
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> evictions_{0};

 private:
  std::vector<const std::atomic<std::size_t>*> reserved_;
  StoreLevel* below_ = nullptr;
};

/// `Policy` supplies, as static functions:
///   std::uint64_t hash(const Key&);
///   std::size_t cost(const Key&, const Value&);   // bytes to charge
///   bool replace(const Value& resident, Value& incoming);
/// `replace` decides a duplicate insert: true replaces (and re-charges)
/// the resident value with `incoming`, which it may first amend; false
/// keeps the resident. A default-constructed Value means "absent".
template <typename Key, typename Value, typename Policy>
class ByteStore : public StoreLevel {
 public:
  ByteStore(std::size_t budget, int shards, base::FaultPoint fault,
            const std::atomic<std::size_t>* reserved = nullptr)
      : StoreLevel(budget, fault, reserved),
        shards_(static_cast<std::size_t>(shards)) {}

  /// Counts a hit or a miss; a hit refreshes LRU order.
  Value lookup(const Key& key) {
    return lookup(key, [](const Value&) { return true; });
  }

  /// As above, but a resident value `usable` rejects counts (and returns)
  /// as a miss, so the counters agree with what was actually served.
  template <typename Usable>
  Value lookup(const Key& key, const Usable& usable) {
    if (budget_ == 0) return Value{};
    const std::uint64_t hash = Policy::hash(key);
    Shard& shard = shard_for(hash);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto node = find_locked(shard, hash, key);
      if (node != shard.lru.end() && usable(node->value)) {
        shard.lru.splice(shard.lru.begin(), shard.lru, node);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return node->value;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Value{};
  }

  /// The resident value, without counting or touching it.
  Value peek(const Key& key) {
    const std::uint64_t hash = Policy::hash(key);
    Shard& shard = shard_for(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto node = find_locked(shard, hash, key);
    return node != shard.lru.end() ? node->value : Value{};
  }

  /// Retains `value` under `key` (see Policy::replace for duplicates) and
  /// sheds to restore every allowance. Returns whether `value` is
  /// resident afterwards: false for a disabled level, a fired fault, a
  /// kept resident, or a value costing more than the allowance — the
  /// last one drops a resident it would have replaced.
  bool insert(const Key& key, Value value) {
    if (budget_ == 0) return false;
    if (base::fault_fires(fault_)) return false;
    const std::uint64_t hash = Policy::hash(key);
    std::size_t cost = Policy::cost(key, value);
    Shard& shard = shard_for(hash);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto node = find_locked(shard, hash, key);
      if (node != shard.lru.end()) {
        if (!Policy::replace(node->value, value)) return false;
        cost = Policy::cost(key, value);
        if (cost > allowance()) {
          erase_locked(shard, node);
          evictions_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        bytes_.fetch_add(cost, std::memory_order_relaxed);
        bytes_.fetch_sub(node->bytes, std::memory_order_relaxed);
        node->value = std::move(value);
        node->bytes = cost;
        shard.lru.splice(shard.lru.begin(), shard.lru, node);
      } else {
        if (cost > allowance()) return false;
        shard.lru.push_front(Node{key, std::move(value), cost, hash});
        shard.index.emplace(hash, shard.lru.begin());
        bytes_.fetch_add(cost, std::memory_order_relaxed);
        entries_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    settle();
    return true;
  }

 private:
  struct Node {
    Key key;
    Value value;
    std::size_t bytes = 0;
    std::uint64_t hash = 0;
  };
  using List = std::list<Node>;
  struct Identity {
    std::size_t operator()(std::uint64_t hash) const {
      return static_cast<std::size_t>(hash);
    }
  };
  struct Shard {
    std::mutex mutex;
    List lru;  // most-recently-used first
    std::unordered_multimap<std::uint64_t, typename List::iterator, Identity>
        index;
  };

  Shard& shard_for(std::uint64_t hash) {
    return shards_[static_cast<std::size_t>(hash >> 48) % shards_.size()];
  }

  static typename List::iterator find_locked(Shard& shard,
                                             std::uint64_t hash,
                                             const Key& key) {
    const auto [first, last] = shard.index.equal_range(hash);
    for (auto it = first; it != last; ++it)
      if (it->second->key == key) return it->second;
    return shard.lru.end();
  }

  void erase_locked(Shard& shard, typename List::iterator node) {
    const auto [first, last] = shard.index.equal_range(node->hash);
    for (auto it = first; it != last; ++it)
      if (it->second == node) {
        shard.index.erase(it);
        break;
      }
    bytes_.fetch_sub(node->bytes, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    shard.lru.erase(node);
  }

  void shed_to(std::size_t target) override {
    // A full sweep that evicts nothing means every shard is empty (bytes_
    // only covers resident nodes), so the loop always terminates.
    while (bytes() > target) {
      bool evicted_any = false;
      const std::size_t start =
          shed_cursor_.fetch_add(1, std::memory_order_relaxed);
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (bytes() <= target) return;
        Shard& shard = shards_[(start + i) % shards_.size()];
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.lru.empty()) continue;
        erase_locked(shard, std::prev(shard.lru.end()));
        evictions_.fetch_add(1, std::memory_order_relaxed);
        evicted_any = true;
      }
      if (!evicted_any) return;
    }
  }

  std::vector<Shard> shards_;
  std::atomic<std::size_t> shed_cursor_{0};
};

}  // namespace sitime::svc

// svc::ByteStore with a fake key and value: the LRU order, admission,
// shedding and fault behaviour the three service cache levels share,
// checked directly rather than through a whole analysis.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "base/fault.hpp"
#include "svc/byte_store.hpp"

namespace sitime {
namespace {

/// A value that names itself and carries the bytes it is charged.
struct Fake {
  int id = 0;  // 0 = absent
  std::size_t bytes = 0;
};

struct FakePolicy {
  static std::uint64_t hash(const std::string& key) {
    // Spread keys over the high bits so a sharded store uses its shards.
    return std::hash<std::string>{}(key) * 0x9e3779b97f4a7c15ull;
  }
  static std::size_t cost(const std::string&, const Fake& value) {
    return value.bytes;
  }
  static bool replace(const Fake&, Fake&) { return false; }
};

class FakeStore : public svc::ByteStore<std::string, Fake, FakePolicy> {
 public:
  FakeStore(std::size_t budget, int shards,
            const std::atomic<std::size_t>* reserved = nullptr)
      : ByteStore(budget, shards, base::FaultPoint::gate_cache_insert,
                  reserved) {}
};

TEST(ByteStore, OneShardEvictsInExactLruOrder) {
  FakeStore store(30, /*shards=*/1);
  ASSERT_TRUE(store.insert("a", {1, 10}));
  ASSERT_TRUE(store.insert("b", {2, 10}));
  ASSERT_TRUE(store.insert("c", {3, 10}));
  EXPECT_EQ(store.lookup("a").id, 1);  // a becomes most recent; b is LRU
  ASSERT_TRUE(store.insert("d", {4, 10}));
  EXPECT_EQ(store.peek("b").id, 0);
  EXPECT_EQ(store.peek("a").id, 1);
  EXPECT_EQ(store.peek("c").id, 3);
  ASSERT_TRUE(store.insert("e", {5, 10}));  // now c is LRU
  EXPECT_EQ(store.peek("c").id, 0);
  EXPECT_EQ(store.peek("a").id, 1);
  EXPECT_EQ(store.evictions(), 2);
  EXPECT_EQ(store.entries(), 3);
  EXPECT_EQ(store.bytes(), 30u);
  // peek neither counts nor touches; lookup counts both outcomes.
  EXPECT_EQ(store.hits(), 1);
  EXPECT_EQ(store.lookup("b").id, 0);
  EXPECT_EQ(store.misses(), 1);
}

TEST(ByteStore, OversizeInsertIsRejectedWithoutEvictingResidents) {
  FakeStore store(30, /*shards=*/1);
  ASSERT_TRUE(store.insert("a", {1, 10}));
  ASSERT_TRUE(store.insert("b", {2, 15}));
  EXPECT_FALSE(store.insert("huge", {3, 31}));
  EXPECT_EQ(store.peek("huge").id, 0);
  EXPECT_EQ(store.peek("a").id, 1);
  EXPECT_EQ(store.peek("b").id, 2);
  EXPECT_EQ(store.evictions(), 0);
  EXPECT_EQ(store.bytes(), 25u);
}

TEST(ByteStore, ShardedShedStopsOnceEveryShardIsEmpty) {
  std::atomic<std::size_t> reserved{0};
  FakeStore store(1000, /*shards=*/16, &reserved);
  for (int i = 1; i <= 64; ++i)
    ASSERT_TRUE(store.insert("k" + std::to_string(i), {i, 10}));
  EXPECT_EQ(store.bytes(), 640u);
  // Everything above this level now claims more than the budget: the
  // allowance is 0, and shedding must empty every shard and return.
  reserved = 2000;
  EXPECT_EQ(store.allowance(), 0u);
  store.shed_to_fit();
  EXPECT_EQ(store.bytes(), 0u);
  EXPECT_EQ(store.entries(), 0);
  EXPECT_EQ(store.evictions(), 64);
  for (int i = 1; i <= 64; ++i)
    EXPECT_EQ(store.peek("k" + std::to_string(i)).id, 0);
}

TEST(ByteStore, LowerLevelLivesInWhatTheUpperLeavesAndShedsFirst) {
  FakeStore upper(100, /*shards=*/1);
  FakeStore lower(100, /*shards=*/4);
  lower.place_below(upper);
  ASSERT_TRUE(upper.insert("u1", {1, 40}));
  for (int i = 1; i <= 6; ++i)
    ASSERT_TRUE(lower.insert("l" + std::to_string(i), {i, 10}));
  EXPECT_EQ(lower.bytes(), 60u);
  // The lower level cannot push the upper one out ...
  EXPECT_FALSE(lower.insert("big", {9, 70}));
  EXPECT_EQ(upper.peek("u1").id, 1);
  // ... and an upper insert sheds the lower level before any upper entry.
  ASSERT_TRUE(upper.insert("u2", {2, 50}));
  EXPECT_EQ(upper.evictions(), 0);
  EXPECT_LE(lower.bytes(), 10u);
  EXPECT_LE(upper.bytes() + lower.bytes(), 100u);
  // When the upper level alone overflows, the lower level is emptied
  // first, then the upper level's LRU entry goes.
  ASSERT_TRUE(upper.insert("u3", {3, 30}));
  EXPECT_EQ(lower.entries(), 0);
  EXPECT_EQ(upper.peek("u1").id, 0);
  EXPECT_EQ(upper.evictions(), 1);
}

TEST(ByteStore, ZeroBudgetRecordsNoTraffic) {
  FakeStore store(0, /*shards=*/1);
  EXPECT_FALSE(store.insert("a", {1, 1}));
  EXPECT_EQ(store.lookup("a").id, 0);
  EXPECT_EQ(store.hits() + store.misses(), 0);
  EXPECT_EQ(store.entries(), 0);
}

TEST(ByteStore, FaultPointSkipsRetentionOnly) {
  if (!base::fault_injection_compiled_in()) GTEST_SKIP();
  FakeStore store(100, /*shards=*/1);
  ASSERT_TRUE(store.insert("resident", {1, 10}));
  {
    base::FaultScope one(base::FaultPoint::gate_cache_insert, /*nth=*/1);
    EXPECT_FALSE(store.insert("dropped", {2, 10}));
    // Lookups are untouched by the fault, and the next insert sticks.
    EXPECT_EQ(store.lookup("resident").id, 1);
    EXPECT_TRUE(store.insert("kept", {3, 10}));
  }
  EXPECT_EQ(store.peek("dropped").id, 0);
  EXPECT_EQ(store.peek("kept").id, 3);
  EXPECT_EQ(store.entries(), 2);
  EXPECT_EQ(store.bytes(), 20u);
  EXPECT_EQ(store.evictions(), 0);
}

}  // namespace
}  // namespace sitime

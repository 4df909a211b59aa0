#include <gtest/gtest.h>

#include <set>

#include "common/coding.h"
#include "keygen/object_key_generator.h"

namespace cloudiq {
namespace {

TEST(ObjectKeyGeneratorTest, KeysInReservedRange) {
  ObjectKeyGenerator gen;
  KeyRange r = gen.AllocateRange(1, 100);
  EXPECT_GE(r.begin, uint64_t{1} << 63);
  EXPECT_EQ(r.size(), 100u);
}

TEST(ObjectKeyGeneratorTest, StrictMonotonicityAcrossNodes) {
  ObjectKeyGenerator gen;
  uint64_t last_end = 0;
  for (NodeId node = 0; node < 5; ++node) {
    for (int i = 0; i < 10; ++i) {
      KeyRange r = gen.AllocateRange(node, 64);
      EXPECT_GE(r.begin, last_end);
      last_end = r.end;
    }
  }
  EXPECT_EQ(gen.max_allocated(), last_end);
}

TEST(ObjectKeyGeneratorTest, RangeSizeClamped) {
  ObjectKeyGenerator::Options opts;
  opts.min_range_size = 32;
  opts.max_range_size = 128;
  ObjectKeyGenerator gen(opts);
  EXPECT_EQ(gen.AllocateRange(1, 1).size(), 32u);
  EXPECT_EQ(gen.AllocateRange(1, 1 << 20).size(), 128u);
}

TEST(ObjectKeyGeneratorTest, ActiveSetTracksAllocationAndCommit) {
  ObjectKeyGenerator gen;
  KeyRange r = gen.AllocateRange(1, 100);
  EXPECT_EQ(gen.ActiveSet(1).Count(), 100u);

  // A transaction consumed the first 30 keys and committed.
  IntervalSet committed;
  committed.InsertRange(r.begin, r.begin + 30);
  gen.OnTransactionCommitted(1, committed);
  EXPECT_EQ(gen.ActiveSet(1).Count(), 70u);
  EXPECT_FALSE(gen.ActiveSet(1).Contains(r.begin));
  EXPECT_TRUE(gen.ActiveSet(1).Contains(r.begin + 30));
}

TEST(ObjectKeyGeneratorTest, TakeActiveSetForRecoveryClears) {
  ObjectKeyGenerator gen;
  KeyRange r = gen.AllocateRange(2, 50);
  IntervalSet taken = gen.TakeActiveSetForRecovery(2);
  EXPECT_EQ(taken.Count(), 50u);
  EXPECT_TRUE(taken.Contains(r.begin));
  EXPECT_TRUE(gen.ActiveSet(2).empty());
}

// The Table 1 walk-through: checkpoint at clock 50, allocation at 60,
// commits, coordinator crash at 110 and recovery at 120.
TEST(ObjectKeyGeneratorTest, Table1CoordinatorCrashRecovery) {
  ObjectKeyGenerator::Options opts;
  opts.min_range_size = 16;
  ObjectKeyGenerator gen(opts);

  // Clock 50: checkpoint (empty active set).
  std::vector<uint8_t> checkpoint = gen.Checkpoint();

  // Clock 60: range 101-200 (here: base..base+100) allocated to W1.
  KeyRange r = gen.AllocateRange(/*node=*/1, 100);

  // Clock 70-90: T1 uses keys [begin, begin+30) and commits.
  IntervalSet t1;
  t1.InsertRange(r.begin, r.begin + 30);
  gen.OnTransactionCommitted(1, t1);

  // Clock 80: T2 uses keys [begin+30, begin+50) — never commits (rolls
  // back at clock 130; the coordinator is deliberately not told).

  // The log accumulated since the checkpoint:
  std::vector<KeygenLogRecord> log = gen.pending_log();
  ASSERT_EQ(log.size(), 2u);

  // Clock 110-120: coordinator crashes and recovers from checkpoint+log.
  Result<ObjectKeyGenerator> recovered_or =
      ObjectKeyGenerator::Recover(checkpoint, log, opts);
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  ObjectKeyGenerator recovered = std::move(recovered_or).value();

  // Active set is exactly {begin+30 .. end}: committed range gone,
  // rolled-back and unconsumed keys still tracked.
  EXPECT_EQ(recovered.ActiveSet(1).Count(), 70u);
  EXPECT_FALSE(recovered.ActiveSet(1).Contains(r.begin + 29));
  EXPECT_TRUE(recovered.ActiveSet(1).Contains(r.begin + 30));
  EXPECT_TRUE(recovered.ActiveSet(1).Contains(r.end - 1));

  // Monotonicity preserved: the next allocation starts past the old max.
  KeyRange next = recovered.AllocateRange(1, 16);
  EXPECT_GE(next.begin, r.end);

  // Clock 140-150: W1 crashes and restarts; its entire active set is
  // polled for GC — including the rolled-back range {131-150}, which is
  // re-polled (idempotent) because rollback GC was not communicated.
  IntervalSet to_poll = recovered.TakeActiveSetForRecovery(1);
  EXPECT_TRUE(to_poll.Contains(r.begin + 35));  // rolled-back T2 key
  EXPECT_TRUE(to_poll.Contains(r.end - 1));     // unconsumed tail
  EXPECT_FALSE(to_poll.Contains(r.begin));      // committed T1 key
}

TEST(ObjectKeyGeneratorTest, CheckpointClearsPendingLog) {
  ObjectKeyGenerator gen;
  gen.AllocateRange(1, 32);
  EXPECT_EQ(gen.pending_log().size(), 1u);
  gen.Checkpoint();
  EXPECT_TRUE(gen.pending_log().empty());
}

TEST(ObjectKeyGeneratorTest, RecoverFromCheckpointWithActiveSets) {
  ObjectKeyGenerator gen;
  KeyRange r1 = gen.AllocateRange(1, 64);
  gen.AllocateRange(2, 64);
  std::vector<uint8_t> checkpoint = gen.Checkpoint();

  Result<ObjectKeyGenerator> recovered_or =
      ObjectKeyGenerator::Recover(checkpoint, {});
  ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
  ObjectKeyGenerator recovered = std::move(recovered_or).value();
  EXPECT_EQ(recovered.ActiveSet(1).Count(), 64u);
  EXPECT_EQ(recovered.ActiveSet(2).Count(), 64u);
  EXPECT_EQ(recovered.max_allocated(), gen.max_allocated());
  EXPECT_TRUE(recovered.ActiveSet(1).Contains(r1.begin));
}

TEST(NodeKeyCacheTest, ConsumesRangeThenRefetches) {
  ObjectKeyGenerator gen;
  int fetches = 0;
  NodeKeyCache::Options opts;
  opts.initial_range_size = 16;
  NodeKeyCache cache(
      [&](uint64_t size, double) {
        ++fetches;
        return gen.AllocateRange(1, size);
      },
      opts);

  std::set<uint64_t> keys;
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(keys.insert(cache.NextKey(/*now=*/i * 10.0)).second);
  }
  EXPECT_EQ(keys.size(), 40u);
  EXPECT_GE(fetches, 2);
}

TEST(NodeKeyCacheTest, KeysStrictlyIncreasing) {
  ObjectKeyGenerator gen;
  NodeKeyCache cache(
      [&](uint64_t size, double) { return gen.AllocateRange(0, size); });
  uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    uint64_t k = cache.NextKey(0.0);
    EXPECT_GT(k, last);
    last = k;
  }
}

TEST(NodeKeyCacheTest, AdaptiveGrowthUnderLoad) {
  ObjectKeyGenerator::Options gen_opts;
  gen_opts.min_range_size = 1;
  ObjectKeyGenerator gen(gen_opts);
  NodeKeyCache::Options opts;
  opts.initial_range_size = 16;
  opts.min_range_size = 4;
  opts.max_range_size = 1024;
  opts.fast_exhaust_seconds = 1.0;
  NodeKeyCache cache(
      [&](uint64_t size, double) { return gen.AllocateRange(1, size); },
      opts);

  // Burn keys with no time passing: ranges exhaust "instantly", so the
  // request size should grow.
  for (int i = 0; i < 200; ++i) cache.NextKey(/*now=*/0.0);
  uint64_t grown = cache.current_range_size();
  EXPECT_GT(grown, 16u);

  // Now idle for long stretches: the size should shrink again.
  double now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += 100.0;
    cache.NextKey(now);
  }
  EXPECT_LT(cache.current_range_size(), grown);
}

TEST(ObjectKeyGeneratorTest, ExhaustionTimescale) {
  // Sanity-check the paper's arithmetic: at 10,000 keys/s/node on 20
  // nodes, the 2^63 reserved keys last > 1.4 million years.
  double keys_per_year = 10000.0 * 20 * 86400 * 365;
  double years = static_cast<double>(uint64_t{1} << 63) / keys_per_year;
  EXPECT_GT(years, 1.4e6);
}

TEST(ObjectKeyGeneratorTest, RecoverRejectsACorruptCheckpoint) {
  ObjectKeyGenerator gen;
  gen.AllocateRange(1, 64);
  std::vector<uint8_t> checkpoint = gen.Checkpoint();
  // [next key][set count][node u32][set length][set bytes...]
  auto with_u64 = [&](size_t at, uint64_t v) {
    std::vector<uint8_t> b = checkpoint;
    std::memcpy(b.data() + at, &v, sizeof(v));
    return b;
  };
  for (uint64_t sets : {uint64_t{2}, uint64_t{20000000}, uint64_t{1} << 40}) {
    EXPECT_TRUE(ObjectKeyGenerator::Recover(with_u64(8, sets), {})
                    .status()
                    .IsCorruption())
        << sets;
  }
  // A set length past the bytes, and an interval count past the set.
  EXPECT_TRUE(ObjectKeyGenerator::Recover(with_u64(20, 1000), {})
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(ObjectKeyGenerator::Recover(with_u64(28, 2), {})
                  .status()
                  .IsCorruption());
  std::vector<uint8_t> cut(checkpoint.begin(), checkpoint.end() - 1);
  EXPECT_TRUE(ObjectKeyGenerator::Recover(cut, {}).status().IsCorruption());
}

}  // namespace
}  // namespace cloudiq

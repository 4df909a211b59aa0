#include <gtest/gtest.h>

#include "sim/block_volume.h"
#include "sim/environment.h"
#include "sim/instance_profile.h"
#include "sim/io_scheduler.h"
#include "sim/local_ssd.h"
#include "sim/nic.h"
#include "sim/object_store.h"
#include "sim/sim_clock.h"
#include "sim/sim_executor.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

std::vector<uint8_t> Bytes(size_t n, uint8_t v = 0xab) {
  return std::vector<uint8_t>(n, v);
}

TEST(SimClockTest, AdvanceMonotonic) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  clock.Advance(1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.AdvanceTo(1.0);  // no-op: never backwards
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.AdvanceTo(2.0);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

// Regression: Advance(-x) used to rely on an assert that compiles out
// under NDEBUG, letting release builds move the clock backwards. Negative
// advances are now clamped to no-ops in every build.
TEST(SimClockTest, NegativeAdvanceClamped) {
  SimClock clock;
  clock.Advance(3.0);
  clock.Advance(-1.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
  clock.Advance(0.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
  clock.Advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 3.5);
}

TEST(ChannelQueueTest, ParallelChannelsOverlap) {
  ChannelQueue q(2);
  // Two requests arriving together on two channels complete in parallel.
  SimTime a = q.Submit(0.0, /*occupancy=*/1.0, /*extra=*/0.0);
  SimTime b = q.Submit(0.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(b, 1.0);
  // A third queues behind the earliest-free channel.
  SimTime c = q.Submit(0.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(c, 2.0);
}

TEST(RatePacerTest, EnforcesRate) {
  RatePacer pacer(10.0);  // 10/sec -> 0.1 s spacing
  EXPECT_DOUBLE_EQ(pacer.Admit(0.0), 0.0);
  EXPECT_DOUBLE_EQ(pacer.Admit(0.0), 0.1);
  EXPECT_DOUBLE_EQ(pacer.Admit(0.05), 0.2);
  EXPECT_DOUBLE_EQ(pacer.Admit(5.0), 5.0);  // idle resets naturally
}

TEST(ObjectStoreTest, PutThenGetAfterVisibility) {
  ObjectStoreOptions opts;
  opts.lag_probability = 1.0;  // always lag
  opts.mean_visibility_lag = 0.1;
  SimObjectStore store(opts);
  SimTime done = 0;
  ASSERT_TRUE(store.Put("p/x", Bytes(100), 0.0, &done).ok());

  // Immediately after the PUT completes the object may be invisible.
  SimTime get_done = 0;
  Result<std::vector<uint8_t>> miss = store.Get("p/x", done, &get_done);
  // With lag_probability=1 the first read always races.
  ASSERT_FALSE(miss.ok());
  EXPECT_TRUE(miss.status().IsNotFound());
  EXPECT_EQ(store.stats().not_found_races, 1u);

  // Far enough in the future it must be visible.
  Result<std::vector<uint8_t>> hit = store.Get("p/x", done + 100.0,
                                               &get_done);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().size(), 100u);
}

TEST(ObjectStoreTest, OverwriteServesStaleThenFresh) {
  ObjectStoreOptions opts;
  opts.lag_probability = 1.0;
  opts.mean_visibility_lag = 0.5;
  SimObjectStore store(opts);
  SimTime done = 0;
  ASSERT_TRUE(store.Put("p/k", Bytes(10, 1), 0.0, &done).ok());
  SimTime second_put_done = 0;
  ASSERT_TRUE(
      store.Put("p/k", Bytes(10, 2), done + 100.0, &second_put_done).ok());
  EXPECT_EQ(store.stats().overwrites, 1u);

  // Read right after the second PUT: stale version served (scenario 2).
  SimTime get_done = 0;
  Result<std::vector<uint8_t>> stale =
      store.Get("p/k", second_put_done, &get_done);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value()[0], 1);
  EXPECT_GE(store.stats().stale_reads, 1u);

  // Much later the fresh version wins.
  Result<std::vector<uint8_t>> fresh =
      store.Get("p/k", second_put_done + 1000.0, &get_done);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value()[0], 2);
}

TEST(ObjectStoreTest, DeleteEventuallyHides) {
  ObjectStoreOptions opts;
  opts.lag_probability = 0.0;  // immediate visibility for simplicity
  SimObjectStore store(opts);
  SimTime done = 0;
  ASSERT_TRUE(store.Put("p/d", Bytes(10), 0.0, &done).ok());
  EXPECT_EQ(store.LiveObjectCount(), 1u);
  SimTime del_done = 0;
  ASSERT_TRUE(store.Delete("p/d", done + 1.0, &del_done).ok());
  EXPECT_EQ(store.LiveObjectCount(), 0u);
  SimTime get_done = 0;
  EXPECT_TRUE(
      store.Get("p/d", del_done + 100.0, &get_done).status().IsNotFound());
  EXPECT_FALSE(store.Exists("p/d", del_done + 100.0, &get_done));
}

TEST(ObjectStoreTest, NeverWriteTwiceTripwireRejectsSecondPut) {
  // The dynamic assertion in Put: with the flag on, a second PUT to the
  // same key fails — even after the key was deleted, since a reused key
  // would resurrect the §3 stale-read scenarios.
  ObjectStoreOptions opts;
  opts.enforce_never_write_twice = true;
  SimObjectStore store(opts);
  SimTime done = 0;
  ASSERT_TRUE(store.Put("obj/1", Bytes(3), 0.0, &done).ok());
  Status again = store.Put("obj/1", Bytes(6), done + 1, &done);
  EXPECT_TRUE(again.IsAlreadyExists()) << again.ToString();
  ASSERT_TRUE(store.Delete("obj/1", done + 2, &done).ok());
  Status after_delete = store.Put("obj/1", Bytes(1), done + 3, &done);
  EXPECT_TRUE(after_delete.IsAlreadyExists()) << after_delete.ToString();
  // A fresh key is of course fine.
  EXPECT_TRUE(store.Put("obj/2", Bytes(8), done + 4, &done).ok());
}

TEST(ObjectStoreTest, PerPrefixThrottlingDelaysSharedPrefix) {
  ObjectStoreOptions opts;
  opts.lag_probability = 0.0;
  opts.per_prefix_put_rate = 100;  // low to make throttling visible
  SimObjectStore shared_prefix(opts);
  SimObjectStore hashed(opts);

  // 200 PUTs under ONE prefix vs 200 under distinct prefixes.
  SimTime shared_last = 0, hashed_last = 0;
  for (int i = 0; i < 200; ++i) {
    SimTime done = 0;
    ASSERT_TRUE(shared_prefix
                    .Put("data/" + std::to_string(i), Bytes(10), 0.0, &done)
                    .ok());
    shared_last = std::max(shared_last, done);
    ASSERT_TRUE(hashed
                    .Put("pfx" + std::to_string(i) + "/k", Bytes(10), 0.0,
                         &done)
                    .ok());
    hashed_last = std::max(hashed_last, done);
  }
  // 200 requests at 100/s under one prefix take ~2 s; hashed prefixes
  // avoid the pacer entirely.
  EXPECT_GT(shared_last, 1.5);
  EXPECT_LT(hashed_last, 0.5);
  EXPECT_GT(shared_prefix.stats().throttle_events, 0u);
  EXPECT_EQ(hashed.stats().throttle_events, 0u);
}

TEST(ObjectStoreTest, LiveAccounting) {
  ObjectStoreOptions opts;
  opts.lag_probability = 0.0;
  SimObjectStore store(opts);
  SimTime done = 0;
  ASSERT_TRUE(store.Put("a/1", Bytes(100), 0.0, &done).ok());
  ASSERT_TRUE(store.Put("a/2", Bytes(200), 0.0, &done).ok());
  EXPECT_EQ(store.LiveObjectCount(), 2u);
  EXPECT_EQ(store.LiveBytes(), 300u);
  EXPECT_EQ(store.LiveKeys(), (std::vector<std::string>{"a/1", "a/2"}));
}

TEST(ObjectStoreTest, ExternalReadBillsAndPaces) {
  SimEnvironment env;
  // 100 MB streamed: billed as 8 MB ranged GETs, transferred over the
  // store's parallel streams.
  SimTime done = env.object_store().ExternalRead(100 << 20, 0.0);
  EXPECT_GT(done, 0.0);
  CostLedger::Entry bill = env.telemetry().ledger().GrandTotal();
  EXPECT_EQ(bill.ranged_gets, (100u + 7) / 8);
  EXPECT_EQ(bill.gets, 0u);
  EXPECT_EQ(bill.get_bytes, 100u << 20);
  EXPECT_EQ(env.object_store().stats().ranged_gets, (100u + 7) / 8);
  testing_util::ExpectLedgerMatchesStoreStats(&env);
  // With thousands of streams the parts run in parallel: ~one part's
  // transfer time, not thirteen.
  EXPECT_LT(done, 0.5);
}

TEST(NicTest, TraceResolutionConfigurable) {
  Nic nic(/*gbps=*/8.0);
  nic.set_trace_resolution(0.1);
  nic.Transfer(100'000'000, 0.0);  // 0.1 s at 1 GB/s
  ASSERT_GE(nic.trace().size(), 1u);
  EXPECT_NEAR(nic.trace()[0] / nic.trace_resolution(), 1e9, 5e7);
}

TEST(ObjectStoreTest, LedgerBillsRequests) {
  SimEnvironment env;
  const CostLedger& ledger = env.telemetry().ledger();
  // One PUT-rate plus one GET-rate request.
  const double pair_usd =
      (ledger.prices().s3_put_per_1k + ledger.prices().s3_get_per_1k) / 1000;
  SimTime done = 0;
  ASSERT_TRUE(env.object_store().Put("a/b", Bytes(10), 0.0, &done).ok());
  (void)env.object_store().Get("a/b", done + 10, &done);  // billing only
  EXPECT_EQ(ledger.GrandTotal().puts, 1u);
  EXPECT_EQ(ledger.GrandTotal().gets, 1u);
  double before_usd = ledger.GrandTotal().RequestUsd(ledger.prices());
  EXPECT_NEAR(before_usd, pair_usd, 1e-15);

  // DELETE and HEAD are billed too (DELETE at the PUT rate, HEAD at the
  // GET rate).
  (void)env.object_store().Exists("a/b", done + 10, &done);
  ASSERT_TRUE(env.object_store().Delete("a/b", done + 10, &done).ok());
  CostLedger::Entry grand = ledger.GrandTotal();
  EXPECT_EQ(grand.heads, 1u);
  EXPECT_EQ(grand.deletes, 1u);
  EXPECT_EQ(grand.Requests(), 4u);
  EXPECT_NEAR(grand.RequestUsd(ledger.prices()) - before_usd, pair_usd,
              1e-15);

  // Every request the store served was billed once (to the default
  // context here), kind for kind.
  testing_util::ExpectLedgerMatchesStoreStats(&env);
}

TEST(BlockVolumeTest, StrongConsistencyReadAfterWrite) {
  SimBlockVolume vol(BlockVolumeOptions::EbsGp2(1024));
  SimTime done = 0;
  ASSERT_TRUE(vol.Write(10, Bytes(4096, 3), 0.0, &done).ok());
  SimTime read_done = 0;
  Result<std::vector<uint8_t>> r = vol.Read(10, done, &read_done);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], 3);
  EXPECT_TRUE(vol.Read(11, done, &read_done).status().IsNotFound());
}

TEST(BlockVolumeTest, IopsCapThrottles) {
  // 100 GB gp2 sustains 3,000 IOPS inside the burst envelope.
  BlockVolumeOptions opts = BlockVolumeOptions::EbsGp2(100);
  SimBlockVolume vol(opts);
  SimTime last = 0;
  for (int i = 0; i < 6000; ++i) {
    SimTime done = 0;
    ASSERT_TRUE(vol.Write(i, Bytes(512), 0.0, &done).ok());
    last = std::max(last, done);
  }
  // 6,000 ops at 3,000 IOPS >= ~2 seconds.
  EXPECT_GT(last, 1.8);
  EXPECT_LT(last, 3.0);
}

TEST(BlockVolumeTest, EfsSlowerThanEbs) {
  SimBlockVolume ebs(BlockVolumeOptions::EbsGp2(1024));
  SimBlockVolume efs(BlockVolumeOptions::EfsStandard(500));
  SimTime ebs_done = 0, efs_done = 0;
  for (int i = 0; i < 100; ++i) {
    SimTime d = 0;
    ASSERT_TRUE(ebs.Write(i, Bytes(1 << 20), 0.0, &d).ok());
    ebs_done = std::max(ebs_done, d);
    ASSERT_TRUE(efs.Write(i, Bytes(1 << 20), 0.0, &d).ok());
    efs_done = std::max(efs_done, d);
  }
  EXPECT_GT(efs_done, ebs_done);
}

TEST(BlockVolumeTest, FreeReleasesSpace) {
  SimBlockVolume vol(BlockVolumeOptions::EbsGp2(1024));
  SimTime done = 0;
  ASSERT_TRUE(vol.Write(5, Bytes(1000), 0.0, &done).ok());
  EXPECT_EQ(vol.StoredBytes(), 1000u);
  ASSERT_TRUE(vol.Free(5, done, &done).ok());
  EXPECT_EQ(vol.StoredBytes(), 0u);
}

TEST(LocalSsdTest, ReadLatencyInflatesUnderWriteFlood) {
  LocalSsdOptions opts;
  SimLocalSsd ssd(opts);
  SimTime done = 0;
  ASSERT_TRUE(ssd.Write("k", Bytes(4096), 0.0, &done).ok());

  // Quiet device: read is fast.
  SimTime quiet_done = 0;
  ASSERT_TRUE(ssd.Read("k", done + 1.0, &quiet_done).ok());
  double quiet_latency = quiet_done - (done + 1.0);

  // Flood the device with large writes, then read: the read queues
  // behind the backlog (the Figure 6 brown-out mechanism).
  SimTime flood_start = quiet_done + 1.0;
  for (int i = 0; i < 200; ++i) {
    SimTime d = 0;
    ASSERT_TRUE(
        ssd.Write("w" + std::to_string(i), Bytes(4 << 20), flood_start, &d)
            .ok());
  }
  SimTime busy_done = 0;
  ASSERT_TRUE(ssd.Read("k", flood_start, &busy_done).ok());
  double busy_latency = busy_done - flood_start;
  EXPECT_GT(busy_latency, 10 * quiet_latency);
  EXPECT_GT(ssd.BacklogSeconds(flood_start), 0.0);
}

TEST(LocalSsdTest, EraseAndAccounting) {
  SimLocalSsd ssd;
  SimTime done = 0;
  ASSERT_TRUE(ssd.Write("a", Bytes(100), 0.0, &done).ok());
  EXPECT_TRUE(ssd.Contains("a"));
  EXPECT_EQ(ssd.StoredBytes(), 100u);
  ssd.Erase("a");
  EXPECT_FALSE(ssd.Contains("a"));
  EXPECT_EQ(ssd.StoredBytes(), 0u);
  EXPECT_TRUE(ssd.Read("a", done, &done).status().IsNotFound());
}

TEST(NicTest, BandwidthCapAndTrace) {
  Nic nic(/*gbps=*/8.0);  // 1 GB/s
  // 2 GB transferred back to back takes ~2 seconds.
  SimTime t1 = nic.Transfer(1'000'000'000, 0.0);
  SimTime t2 = nic.Transfer(1'000'000'000, 0.0);
  EXPECT_NEAR(t1, 1.0, 0.01);
  EXPECT_NEAR(t2, 2.0, 0.01);
  ASSERT_GE(nic.trace().size(), 2u);
  // Each 1-second bucket carried ~1 GB.
  EXPECT_NEAR(nic.trace()[0], 1e9, 5e7);
  EXPECT_NEAR(nic.trace()[1], 1e9, 5e7);
  EXPECT_EQ(nic.total_bytes(), 2'000'000'000u);
}

TEST(SimExecutorTest, RunsDueTasksInOrder) {
  SimExecutor exec;
  std::vector<int> order;
  exec.Schedule(2.0, [&](SimTime) { order.push_back(2); });
  exec.Schedule(1.0, [&](SimTime) { order.push_back(1); });
  exec.Schedule(3.0, [&](SimTime) { order.push_back(3); });
  exec.RunDue(2.5);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(exec.pending(), 1u);
  exec.Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimExecutorTest, TasksCanScheduleTasks) {
  SimExecutor exec;
  int count = 0;
  exec.Schedule(1.0, [&](SimTime t) {
    ++count;
    exec.Schedule(t + 0.5, [&](SimTime) { ++count; });
  });
  exec.RunDue(2.0);
  EXPECT_EQ(count, 2);
}

TEST(IoSchedulerTest, ParallelWidthBoundsElapsed) {
  SimClock clock;
  SimExecutor exec;
  IoScheduler io(&clock, &exec);
  // 8 ops of 1 s each with width 4 -> 2 s elapsed.
  std::vector<IoScheduler::Op> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back([](SimTime start) { return start + 1.0; });
  }
  io.RunParallel(ops, 4);
  EXPECT_NEAR(clock.now(), 2.0, 1e-9);
}

TEST(IoSchedulerTest, CpuWorkDividedByParallelism) {
  SimClock clock;
  SimExecutor exec;
  IoScheduler io(&clock, &exec);
  io.AddCpuWork(16.0, 8);
  EXPECT_NEAR(clock.now(), 2.0, 1e-9);
}

TEST(InstanceProfileTest, CatalogShapes) {
  EXPECT_EQ(InstanceProfile::M5ad4xlarge().vcpus, 16);
  EXPECT_EQ(InstanceProfile::M5ad12xlarge().vcpus, 48);
  EXPECT_EQ(InstanceProfile::M5ad24xlarge().vcpus, 96);
  EXPECT_LT(InstanceProfile::R5Large().hourly_usd,
            InstanceProfile::M5ad4xlarge().hourly_usd);
}

TEST(NodeContextTest, IoWidthCapped) {
  SimEnvironment env;
  NodeContext& big = env.AddNode(InstanceProfile::M5ad24xlarge());
  NodeContext& small = env.AddNode(InstanceProfile::M5ad4xlarge());
  // The 96-vCPU instance is capped at the engine's intrinsic 80-stream
  // pipeline limit (the paper's ~9 Gb/s NIC plateau); smaller instances
  // scale with vCPUs.
  EXPECT_EQ(big.IoWidth(), 80);
  EXPECT_EQ(small.IoWidth(), 32);
}

TEST(CloudPricesTest, MonthlyStorageRelativeCosts) {
  CloudPrices prices;
  // The paper's Table 4 ordering: S3 ~4x cheaper than EBS, ~13x than EFS.
  double gb = 518;
  EXPECT_NEAR(prices.EbsMonthlyUsd(gb), 51.80, 0.01);
  EXPECT_NEAR(prices.EfsMonthlyUsd(gb), 155.40, 0.01);
  EXPECT_LT(prices.S3MonthlyUsd(gb), prices.EbsMonthlyUsd(gb) / 4);
}

}  // namespace
}  // namespace cloudiq

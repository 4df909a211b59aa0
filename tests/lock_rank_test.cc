// Tests for the runtime lock-rank tripwire (src/common/mutex.h, ranks
// from the generated src/common/lock_ranks.h): inversion detection with
// the held stack in the message, TryLock coverage, the MutexUnlock and
// ScopedLockRankBypass interplay, unranked-mutex invisibility — plus
// Mutex::TryLock semantics, contended-acquire counting, and the
// guarantee that the wall-clock contention counter never leaks into the
// deterministic run report.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "telemetry/attribution.h"
#include "telemetry/report.h"
#include "telemetry/stall_profiler.h"
#include "telemetry/stats.h"

namespace cloudiq {
namespace {

// Installs a capturing failure handler for the test's duration so a
// deliberate inversion is observed, not fatal (no death-test machinery —
// TSan and fork() disagree).
class LockRankTripwireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!LockRankObserver::Enabled()) {
      GTEST_SKIP() << "CLOUDIQ_LOCK_RANK_CHECK=0 in the environment";
    }
    prev_ = LockRankObserver::InstallFailureHandler(
        [this](const std::string& message) {
          failures_.push_back(message);
        });
  }

  void TearDown() override {
    LockRankObserver::InstallFailureHandler(std::move(prev_));
  }

  std::vector<std::string> failures_;
  LockRankObserver::FailureHandler prev_;
};

TEST_F(LockRankTripwireTest, AscendingAcquisitionIsSilent) {
  Mutex engine(lockrank::kWorkloadEngine);  // rank 10
  Mutex store(lockrank::kSimObjectStore);   // rank 70
  Mutex tracer(lockrank::kTracer);          // rank 93
  {
    MutexLock a(&engine);
    MutexLock b(&store);
    MutexLock c(&tracer);
    EXPECT_EQ(LockRankObserver::HeldStack().size(), 3u);
  }
  EXPECT_TRUE(failures_.empty());
  EXPECT_TRUE(LockRankObserver::HeldStack().empty());
}

TEST_F(LockRankTripwireTest, InvertedAcquisitionTrips) {
  Mutex tracer(lockrank::kTracer);          // rank 93
  Mutex engine(lockrank::kWorkloadEngine);  // rank 10
  {
    MutexLock a(&tracer);
    MutexLock b(&engine);  // deliberate inversion: 10 while holding 93
  }
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("lock-rank inversion"), std::string::npos);
  EXPECT_NE(failures_[0].find("WorkloadEngine"), std::string::npos);
  EXPECT_NE(failures_[0].find("Tracer"), std::string::npos);
}

TEST_F(LockRankTripwireTest, SameRankTrips) {
  Mutex a(lockrank::kBufferManager);
  Mutex b(lockrank::kBufferManager);
  {
    MutexLock la(&a);
    MutexLock lb(&b);  // equal rank is not strictly ascending
  }
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("BufferManager"), std::string::npos);
}

TEST_F(LockRankTripwireTest, TryLockIsCheckedToo) {
  Mutex tracer(lockrank::kTracer);
  Mutex engine(lockrank::kWorkloadEngine);
  MutexLock a(&tracer);
  bool acquired = engine.TryLock();
  EXPECT_TRUE(acquired);
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("lock-rank inversion"), std::string::npos);
  if (acquired) engine.Unlock();
}

TEST_F(LockRankTripwireTest, BypassSuppressesChecking) {
  Mutex a(lockrank::kObjectKeyGenerator);
  Mutex b(lockrank::kObjectKeyGenerator);
  {
    ScopedLockRankBypass bypass;
    MutexLock la(&a);
    MutexLock lb(&b);  // same-rank sibling instance, as in move-assign
    EXPECT_EQ(LockRankObserver::HeldStack().size(), 2u);
  }
  EXPECT_TRUE(failures_.empty());
  // The bypass is scoped: the same pattern trips once it is gone.
  {
    MutexLock la(&a);
    MutexLock lb(&b);
  }
  EXPECT_EQ(failures_.size(), 1u);
}

TEST_F(LockRankTripwireTest, UnrankedMutexIsInvisible) {
  Mutex tracer(lockrank::kTracer);
  Mutex plain;  // rank 0: test/bench locks stay out of the model
  {
    MutexLock a(&tracer);
    MutexLock b(&plain);  // "descending" onto rank 0: ignored
    EXPECT_EQ(LockRankObserver::HeldStack().size(), 1u);
  }
  EXPECT_TRUE(failures_.empty());
}

TEST_F(LockRankTripwireTest, MutexUnlockRemovesFromHeldStack) {
  Mutex tracer(lockrank::kTracer);          // rank 93
  Mutex engine(lockrank::kWorkloadEngine);  // rank 10
  MutexLock a(&tracer);
  {
    MutexUnlock drop(&tracer);
    // With the deep lock dropped, taking the shallow one is legal.
    MutexLock b(&engine);
    EXPECT_EQ(LockRankObserver::HeldStack().size(), 1u);
  }
  EXPECT_TRUE(failures_.empty());
  EXPECT_EQ(LockRankObserver::HeldStack().size(), 1u);
}

TEST(LockRankTableTest, RankNamesMatchManifest) {
  EXPECT_STREQ(lockrank::RankName(lockrank::kWorkloadEngine),
               "WorkloadEngine");
  EXPECT_STREQ(lockrank::RankName(lockrank::kBufferManager),
               "BufferManager");
  EXPECT_STREQ(lockrank::RankName(lockrank::kTracer), "Tracer");
  EXPECT_STREQ(lockrank::RankName(0), "unranked");
  EXPECT_STREQ(lockrank::RankName(-7), "unranked");
  // The layering the ranks encode: engine above workload controllers,
  // above storage, above the sim store, above telemetry leaves.
  EXPECT_LT(lockrank::kWorkloadEngine, lockrank::kAdmissionController);
  EXPECT_LT(lockrank::kAdmissionController, lockrank::kBufferManager);
  EXPECT_LT(lockrank::kBufferManager, lockrank::kSimObjectStore);
  EXPECT_LT(lockrank::kSimObjectStore, lockrank::kCostLedger);
}

// --- Mutex::TryLock and the contention counter ---------------------------

TEST(MutexTryLockTest, TryAcquireSemantics) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  // A second TryLock must fail while held; std::mutex forbids re-try
  // from the owning thread, so probe from another one.
  std::thread prober([&mu] {
    bool acquired = mu.TryLock();
    EXPECT_FALSE(acquired);
    if (acquired) mu.Unlock();
  });
  prober.join();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexContentionTest, CountsContendedAcquiresAcrossThreads) {
  Mutex mu;
  const uint64_t before =
      MutexContentionCounter().load(std::memory_order_relaxed);
  mu.Lock();
  std::thread waiter([&mu] {
    mu.Lock();  // guaranteed contended: main holds until it sees the bump
    mu.Unlock();
  });
  while (MutexContentionCounter().load(std::memory_order_relaxed) ==
         before) {
    std::this_thread::yield();
  }
  mu.Unlock();
  waiter.join();
  EXPECT_GE(MutexContentionCounter().load(std::memory_order_relaxed),
            before + 1);
}

TEST(MutexContentionTest, CounterNeverLeaksIntoRunReport) {
  // The counter is wall-clock contention — scheduler-dependent and
  // nondeterministic — so it may appear in --profile stdout but never in
  // the byte-identical --report JSON.
  MutexContentionCounter().fetch_add(3, std::memory_order_relaxed);
  StatsRegistry stats;
  CostLedger ledger;
  StallProfiler profiler(&ledger, /*tracer=*/nullptr);
  RunReportInfo info;
  info.bench = "lock_rank_test";
  std::string json = BuildRunReportJson(info, stats, ledger, profiler);
  EXPECT_EQ(json.find("contention"), std::string::npos);
  EXPECT_EQ(json.find("mutex"), std::string::npos);
}

}  // namespace
}  // namespace cloudiq

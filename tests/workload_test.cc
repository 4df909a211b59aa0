// Tests for the concurrent workload engine: admission control state
// machine, token-bucket refill on the simulated clock, weighted fair
// share with priority aging, step-sliced interleaving, SLO and cost
// accounting, and determinism of the whole schedule.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "telemetry/report.h"
#include "telemetry/stall_profiler.h"
#include "tests/test_util.h"
#include "workload/admission.h"
#include "workload/fair_scheduler.h"
#include "workload/step_fiber.h"
#include "workload/workload_driver.h"
#include "workload/workload_engine.h"

namespace cloudiq {
namespace {

using Decision = AdmissionController::Decision;

// --- token bucket --------------------------------------------------------

TEST(TokenBucketTest, RefillsOnSimClock) {
  TokenBucket bucket(/*rate_per_sec=*/2.0, /*burst=*/4.0);
  // Starts full: burst tokens available at t=0.
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_FALSE(bucket.TryTake(0));
  // One simulated second refills rate tokens.
  EXPECT_NEAR(bucket.TokensAt(1.0), 2.0, 1e-12);
  EXPECT_TRUE(bucket.TryTake(1.0));
  EXPECT_TRUE(bucket.TryTake(1.0));
  EXPECT_FALSE(bucket.TryTake(1.0));
  // Refill caps at burst, never beyond.
  EXPECT_NEAR(bucket.TokensAt(1000.0), 4.0, 1e-12);
  // Time moving backwards (stale caller) never mints tokens.
  TokenBucket drained(1.0, 1.0);
  EXPECT_TRUE(drained.TryTake(5.0));
  EXPECT_FALSE(drained.TryTake(4.0));
}

TEST(TokenBucketTest, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(0.0, 1.0);
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryTake(0));
}

// --- admission controller ------------------------------------------------

TEST(AdmissionTest, AdmitQueueShedTransitions) {
  AdmissionController::Options options;
  options.concurrency_limit = 1;
  options.max_queue_depth = 2;
  AdmissionController admission(options);

  // Free slot, empty queue: admit.
  EXPECT_EQ(admission.Decide("a", 0, 0, 0, /*can_dispatch_now=*/true),
            Decision::kAdmit);
  admission.OnDispatch();
  EXPECT_FALSE(admission.HasRunSlot());

  // Slot busy: queue until the depth threshold, then shed.
  EXPECT_EQ(admission.Decide("a", 0, 0, 0, false), Decision::kQueue);
  admission.OnQueue();
  EXPECT_EQ(admission.Decide("a", 0, 0, 0, false), Decision::kQueue);
  admission.OnQueue();
  EXPECT_EQ(admission.Decide("a", 0, 0, 0, false),
            Decision::kShedQueueFull);
  EXPECT_EQ(admission.queued(), 2u);

  // Draining the queue reopens admission; completing frees the slot.
  admission.OnDequeue();
  EXPECT_EQ(admission.Decide("a", 0, 0, 0, false), Decision::kQueue);
  admission.OnComplete();
  EXPECT_TRUE(admission.HasRunSlot());
}

TEST(AdmissionTest, AdmitRequiresEmptyQueue) {
  // A free slot must not let an arrival jump over already-queued work.
  AdmissionController admission({});
  admission.OnQueue();
  EXPECT_EQ(admission.Decide("a", 0, 0, 0, /*can_dispatch_now=*/true),
            Decision::kQueue);
}

TEST(AdmissionTest, BudgetAndRateLimitShed) {
  AdmissionController admission({});
  admission.RegisterTenant("t", /*rate_per_sec=*/1.0, /*burst=*/1.0);
  // Budget check precedes everything (no token consumed on budget shed).
  EXPECT_EQ(admission.Decide("t", 0, /*spent_usd=*/5.0, /*budget_usd=*/1.0,
                             true),
            Decision::kShedBudget);
  EXPECT_NEAR(admission.TenantTokens("t", 0), 1.0, 1e-12);
  // Token taken, admitted; bucket now empty, next arrival sheds.
  EXPECT_EQ(admission.Decide("t", 0, 0, 0, true), Decision::kAdmit);
  EXPECT_EQ(admission.Decide("t", 0.1, 0, 0, true),
            Decision::kShedRateLimited);
  // The sim clock refills it.
  EXPECT_EQ(admission.Decide("t", 1.5, 0, 0, true), Decision::kAdmit);
}

// --- fair scheduler ------------------------------------------------------

TEST(FairSchedulerTest, PicksLeastVirtualService) {
  FairScheduler scheduler({});
  scheduler.RegisterTenant("a", 1.0);
  scheduler.RegisterTenant("b", 1.0);
  scheduler.Enqueue("a", 1, 0);
  scheduler.Enqueue("b", 2, 0);
  scheduler.AddService("a", 10.0);
  auto pick = scheduler.PickNext(0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->tenant, "b");
  EXPECT_EQ(pick->job_id, 2u);
  // b charged past a: a's turn.
  scheduler.AddService("b", 20.0);
  scheduler.Enqueue("b", 3, 0);
  pick = scheduler.PickNext(0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->tenant, "a");
  EXPECT_EQ(scheduler.queued(), 1u);
}

TEST(FairSchedulerTest, WeightsScaleService) {
  FairScheduler scheduler({});
  scheduler.RegisterTenant("heavy", 2.0);
  scheduler.RegisterTenant("light", 1.0);
  // Same raw seconds: heavy's virtual service grows half as fast.
  scheduler.AddService("heavy", 10.0);
  scheduler.AddService("light", 10.0);
  EXPECT_NEAR(scheduler.virtual_service("heavy"), 5.0, 1e-12);
  EXPECT_NEAR(scheduler.virtual_service("light"), 10.0, 1e-12);
  scheduler.Enqueue("heavy", 1, 0);
  scheduler.Enqueue("light", 2, 0);
  auto pick = scheduler.PickNext(0);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->tenant, "heavy");
}

TEST(FairSchedulerTest, PriorityAgingBeatsServiceDeficit) {
  // "ahead" has a 1s virtual-service deficit against "behind", but its
  // job has waited 25s while behind's arrives fresh: aging credit
  // 0.05 * 25 = 1.25 outweighs the deficit, so the stale job dispatches
  // first. "anchor" stays backlogged at zero service throughout so
  // catch-up-on-wake does not lift behind's service on enqueue.
  auto build = [](double aging_rate) {
    FairScheduler::Options options;
    options.aging_rate = aging_rate;
    FairScheduler scheduler(options);
    scheduler.RegisterTenant("anchor", 1.0);
    scheduler.RegisterTenant("ahead", 1.0);
    scheduler.RegisterTenant("behind", 1.0);
    scheduler.AddService("ahead", 1.0);
    scheduler.AddService("behind", 0.5);
    scheduler.Enqueue("anchor", 1, /*now=*/0);
    scheduler.Enqueue("ahead", 2, /*now=*/0);
    scheduler.Enqueue("behind", 3, /*now=*/25);
    // The zero-service anchor dispatches first either way.
    auto first = scheduler.PickNext(/*now=*/25);
    EXPECT_TRUE(first.has_value() && first->tenant == "anchor");
    return scheduler.PickNext(/*now=*/25);
  };

  auto aged = build(/*aging_rate=*/0.05);
  ASSERT_TRUE(aged.has_value());
  EXPECT_EQ(aged->tenant, "ahead");

  // Pure WFQ (aging off) ignores the wait and picks the lower service.
  auto pure = build(/*aging_rate=*/0.0);
  ASSERT_TRUE(pure.has_value());
  EXPECT_EQ(pure->tenant, "behind");
}

TEST(FairSchedulerTest, CatchUpOnWakePreventsMonopoly) {
  FairScheduler scheduler({});
  scheduler.RegisterTenant("busy", 1.0);
  scheduler.RegisterTenant("idle", 1.0);
  scheduler.AddService("busy", 100.0);
  scheduler.Enqueue("busy", 1, 0);
  // The idle tenant wakes with zero service; catch-up lifts it to the
  // backlogged minimum so it does not monopolize every future pick.
  scheduler.Enqueue("idle", 2, 0);
  EXPECT_NEAR(scheduler.virtual_service("idle"), 100.0, 1e-12);
}

// --- step fiber ----------------------------------------------------------

TEST(StepFiberTest, ResumesUntilDone) {
  int steps = 0;
  StepFiber* self = nullptr;
  StepFiber fiber([&] {
    for (int i = 0; i < 3; ++i) {
      ++steps;
      self->Yield();
    }
  });
  self = &fiber;
  EXPECT_TRUE(fiber.Resume());  // runs to first yield
  EXPECT_EQ(steps, 1);
  EXPECT_TRUE(fiber.Resume());
  EXPECT_TRUE(fiber.Resume());
  EXPECT_FALSE(fiber.Resume());  // body returns
  EXPECT_EQ(steps, 3);
}

TEST(StepFiberTest, DestructionCancelsParkedBody) {
  bool cleaned_up = false;
  {
    StepFiber* self = nullptr;
    auto fiber = std::make_unique<StepFiber>([&] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } guard{&cleaned_up};
      for (;;) self->Yield();
    });
    self = fiber.get();
    EXPECT_TRUE(fiber->Resume());
    fiber.reset();  // cancels the parked body; its stack unwinds
  }
  EXPECT_TRUE(cleaned_up);
}

// --- engine --------------------------------------------------------------

Database::Options SmallDbOptions() {
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 8192;
  options.blockmap_fanout = 16;
  return options;
}

// A query body that burns `steps` slices of simulated CPU, yielding to
// the engine after each (ChargeValues invokes the step hook).
WorkloadEngine::QueryBody SyntheticBody(int steps,
                                        uint64_t values_per_step = 500000) {
  return [steps, values_per_step](Session*, QueryContext* ctx) {
    for (int i = 0; i < steps; ++i) ctx->ChargeValues(values_per_step);
    return Status::Ok();
  };
}

struct EngineHarness {
  SimEnvironment env;
  std::unique_ptr<Database> db;
  std::unique_ptr<WorkloadEngine> engine;

  explicit EngineHarness(
      WorkloadEngine::Options options,
      std::vector<WorkloadEngine::TenantConfig> tenants = {}) {
    db = std::make_unique<Database>(&env, InstanceProfile::M5ad4xlarge(),
                                    SmallDbOptions());
    engine = std::make_unique<WorkloadEngine>(
        std::vector<Database*>{db.get()}, options, std::move(tenants));
  }
};

TEST(WorkloadEngineTest, InterleavesJobsOnOneNode) {
  WorkloadEngine::Options options;
  options.slots_per_node = 2;
  EngineHarness h(options);
  std::vector<WorkloadEngine::Completion> done;
  h.engine->set_completion_hook(
      [&](const WorkloadEngine::Completion& c) { done.push_back(c); });
  h.engine->Submit("a", "q1", 0, SyntheticBody(10));
  h.engine->Submit("b", "q1", 0, SyntheticBody(10));
  ASSERT_TRUE(h.engine->RunUntilIdle().ok());

  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].status.ok());
  EXPECT_TRUE(done[1].status.ok());
  // Both queries sliced into many fiber steps...
  EXPECT_GE(h.engine->steps(), 20u);
  // ...and time-shared the node: the two finish times are close together
  // (within one job's active time), not serialized end-to-end.
  double gap = std::abs(done[1].finish - done[0].finish);
  EXPECT_LT(gap, done[0].active_seconds);
  EXPECT_EQ(h.engine->Counts("a").completed, 1u);
  EXPECT_EQ(h.engine->Counts("b").completed, 1u);
}

TEST(WorkloadEngineTest, QueueAndShedEngage) {
  WorkloadEngine::Options options;
  options.admission.concurrency_limit = 1;
  options.admission.max_queue_depth = 1;
  options.slots_per_node = 1;
  EngineHarness h(options);
  std::vector<WorkloadEngine::Completion> done;
  h.engine->set_completion_hook(
      [&](const WorkloadEngine::Completion& c) { done.push_back(c); });
  h.engine->Submit("a", "q1", 0, SyntheticBody(5));
  h.engine->Submit("a", "q2", 0, SyntheticBody(5));
  h.engine->Submit("a", "q3", 0, SyntheticBody(5));  // queue full: shed
  ASSERT_TRUE(h.engine->RunUntilIdle().ok());

  WorkloadEngine::TenantCounts counts = h.engine->Counts("a");
  EXPECT_EQ(counts.submitted, 3u);
  EXPECT_EQ(counts.completed, 2u);
  EXPECT_EQ(counts.shed_queue_full, 1u);
  ASSERT_EQ(done.size(), 3u);
  // The shed lands immediately, before either admitted query finishes.
  EXPECT_TRUE(done[0].shed);
  EXPECT_TRUE(done[0].status.IsBusy());
  EXPECT_EQ(done[0].dispatch, 0.0);
  // The queued query's wait shows up in its latency, not the admitted
  // one's.
  EXPECT_GT(done[2].finish - done[2].arrival,
            done[1].finish - done[1].arrival);
}

TEST(WorkloadEngineTest, RateLimitShedsAndRefills) {
  WorkloadEngine::TenantConfig tenant;
  tenant.name = "t";
  tenant.rate_per_sec = 1.0;
  tenant.burst = 1.0;
  EngineHarness h(WorkloadEngine::Options(), {tenant});
  h.engine->Submit("t", "q1", 0.0, SyntheticBody(2));
  h.engine->Submit("t", "q2", 0.01, SyntheticBody(2));  // bucket empty
  h.engine->Submit("t", "q3", 2.0, SyntheticBody(2));   // refilled
  ASSERT_TRUE(h.engine->RunUntilIdle().ok());
  WorkloadEngine::TenantCounts counts = h.engine->Counts("t");
  EXPECT_EQ(counts.completed, 2u);
  EXPECT_EQ(counts.shed_rate_limited, 1u);
}

TEST(WorkloadEngineTest, BudgetExhaustionSheds) {
  WorkloadEngine::TenantConfig tenant;
  tenant.name = "t";
  tenant.cost_budget_usd = 1e-12;  // first completed query exceeds it
  EngineHarness h(WorkloadEngine::Options(), {tenant});
  h.engine->Submit("t", "q1", 0, SyntheticBody(3));
  ASSERT_TRUE(h.engine->RunUntilIdle().ok());
  EXPECT_GT(h.engine->Counts("t").spent_usd, 1e-12);

  h.engine->Submit("t", "q2", h.engine->now(), SyntheticBody(3));
  ASSERT_TRUE(h.engine->RunUntilIdle().ok());
  WorkloadEngine::TenantCounts counts = h.engine->Counts("t");
  EXPECT_EQ(counts.completed, 1u);
  EXPECT_EQ(counts.shed_budget, 1u);
}

TEST(WorkloadEngineTest, SloAccounting) {
  WorkloadEngine::TenantConfig strict;
  strict.name = "strict";
  strict.slo_seconds = 1e-9;  // nothing real completes this fast
  WorkloadEngine::TenantConfig loose;
  loose.name = "loose";
  loose.slo_seconds = 1e9;
  EngineHarness h(WorkloadEngine::Options(), {strict, loose});
  h.engine->Submit("strict", "q", 0, SyntheticBody(3));
  h.engine->Submit("loose", "q", 0, SyntheticBody(3));
  ASSERT_TRUE(h.engine->RunUntilIdle().ok());
  EXPECT_EQ(h.engine->Counts("strict").slo_missed, 1u);
  EXPECT_EQ(h.engine->Counts("strict").slo_met, 0u);
  EXPECT_EQ(h.engine->Counts("loose").slo_met, 1u);
  EXPECT_EQ(h.engine->Counts("loose").slo_missed, 0u);
}

TEST(WorkloadEngineTest, FailedQueryCountsAsFailed) {
  EngineHarness h(WorkloadEngine::Options{});
  h.engine->Submit("t", "bad", 0, [](Session*, QueryContext* ctx) {
    ctx->ChargeValues(1000);
    return Status::IoError("synthetic failure");
  });
  ASSERT_TRUE(h.engine->RunUntilIdle().ok());
  WorkloadEngine::TenantCounts counts = h.engine->Counts("t");
  EXPECT_EQ(counts.completed, 0u);
  EXPECT_EQ(counts.failed, 1u);
}

// Fairness through the whole engine: full backlog at t=0, equal-cost
// queries, counts measured when the first tenant drains.
struct FairnessResult {
  uint64_t a_done_at_drain = 0;
  uint64_t b_done_at_drain = 0;
};

FairnessResult RunFairness(double weight_a, double weight_b) {
  WorkloadEngine::Options options;
  options.admission.concurrency_limit = 1;
  options.admission.max_queue_depth = 64;
  options.slots_per_node = 1;
  WorkloadEngine::TenantConfig a;
  a.name = "a";
  a.weight = weight_a;
  WorkloadEngine::TenantConfig b;
  b.name = "b";
  b.weight = weight_b;
  EngineHarness h(options, {a, b});
  constexpr uint64_t kPerTenant = 12;
  std::map<std::string, uint64_t> completed;
  FairnessResult result;
  bool drained = false;
  h.engine->set_completion_hook([&](const WorkloadEngine::Completion& c) {
    ++completed[c.tenant];
    if (!drained && completed[c.tenant] == kPerTenant) {
      drained = true;
      result.a_done_at_drain = completed["a"];
      result.b_done_at_drain = completed["b"];
    }
  });
  for (uint64_t i = 0; i < kPerTenant; ++i) {
    h.engine->Submit("a", "q", 0, SyntheticBody(4));
    h.engine->Submit("b", "q", 0, SyntheticBody(4));
  }
  EXPECT_TRUE(h.engine->RunUntilIdle().ok());
  return result;
}

TEST(WorkloadEngineTest, EqualWeightsShareEvenly) {
  FairnessResult r = RunFairness(1.0, 1.0);
  // Acceptance: < 20% difference in completed counts at equal weights.
  double diff = std::abs(static_cast<double>(r.a_done_at_drain) -
                         static_cast<double>(r.b_done_at_drain));
  double avg = (r.a_done_at_drain + r.b_done_at_drain) / 2.0;
  EXPECT_LT(diff / avg, 0.2) << r.a_done_at_drain << " vs "
                             << r.b_done_at_drain;
}

TEST(WorkloadEngineTest, WeightedSharesTrackRatio) {
  FairnessResult r = RunFairness(2.0, 1.0);
  ASSERT_GT(r.b_done_at_drain, 0u);
  double ratio = static_cast<double>(r.a_done_at_drain) /
                 static_cast<double>(r.b_done_at_drain);
  EXPECT_GT(ratio, 1.5) << r.a_done_at_drain << ":" << r.b_done_at_drain;
  EXPECT_LT(ratio, 2.5) << r.a_done_at_drain << ":" << r.b_done_at_drain;
}

// --- determinism ---------------------------------------------------------

struct ReplayTrace {
  std::vector<uint64_t> job_ids;
  std::vector<double> finishes;
  double ledger_usd = 0;
};

ReplayTrace RunReplay() {
  WorkloadEngine::Options options;
  options.admission.concurrency_limit = 3;
  options.slots_per_node = 2;
  EngineHarness h(options);
  ReplayTrace trace;
  h.engine->set_completion_hook([&](const WorkloadEngine::Completion& c) {
    trace.job_ids.push_back(c.job_id);
    trace.finishes.push_back(c.finish);
  });
  // Mixed tenants, staggered arrivals, mixed costs.
  for (int i = 0; i < 6; ++i) {
    h.engine->Submit("a", "q", 0.001 * i, SyntheticBody(3 + i % 3));
    h.engine->Submit("b", "q", 0.0015 * i, SyntheticBody(2 + i % 4));
  }
  EXPECT_TRUE(h.engine->RunUntilIdle().ok());
  CostLedger& ledger = h.env.telemetry().ledger();
  trace.ledger_usd = ledger.GrandTotal().TotalUsd(ledger.prices());
  return trace;
}

TEST(WorkloadEngineTest, ScheduleIsDeterministic) {
  ReplayTrace first = RunReplay();
  ReplayTrace second = RunReplay();
  ASSERT_EQ(first.job_ids.size(), second.job_ids.size());
  EXPECT_EQ(first.job_ids, second.job_ids);
  for (size_t i = 0; i < first.finishes.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.finishes[i], second.finishes[i]) << i;
  }
  EXPECT_DOUBLE_EQ(first.ledger_usd, second.ledger_usd);
}

// --- cost invariants under concurrency (per-tenant ledger rollups) -------

TableSchema ScanSchema() {
  TableSchema schema;
  schema.name = "t";
  schema.table_id = 7;
  schema.columns = {{"k", ColumnType::kInt64}};
  schema.hg_index_columns = {0};
  return schema;
}

TEST(WorkloadCostTest, LedgerMatchesMeterWithInterleavedTenants) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(), SmallDbOptions());
  {
    Transaction* txn = db.Begin();
    TableLoader loader = db.NewTableLoader(txn, ScanSchema());
    Batch batch;
    batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
    for (int64_t i = 0; i < 5000; ++i) {
      batch.columns[0].ints.push_back(i);
    }
    ASSERT_TRUE(loader.Append(batch.columns).ok());
    ASSERT_TRUE(loader.Finish(db.system()).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }

  WorkloadEngine::Options options;
  options.admission.concurrency_limit = 3;
  options.slots_per_node = 3;
  WorkloadEngine engine({&db}, options, {});
  auto scan_body = [](Session*, QueryContext* ctx) {
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader reader, ctx->OpenTable(7));
    return ScanTable(ctx, &reader, {"k"}).status();
  };
  const std::vector<std::string> tenant_names = {"red", "green", "blue"};
  for (int round = 0; round < 3; ++round) {
    for (const std::string& name : tenant_names) {
      engine.Submit(name, "scan", 0, scan_body);
    }
  }
  ASSERT_TRUE(engine.RunUntilIdle().ok());

  // Grand total == the store's own request counters (its meter), kind
  // by kind, under interleaving; the engine bills per-job active seconds
  // as compute.
  testing_util::ExpectLedgerMatchesStoreStats(&env);
  CostLedger& ledger = env.telemetry().ledger();
  CostLedger::Entry total = ledger.GrandTotal();
  EXPECT_GT(total.ec2_usd, 0.0);

  // Per-tenant rollups: every mapped tenant saw work, and tenant totals
  // plus the unattributed remainder ("") reconstruct the grand total.
  std::vector<std::string> tenants = ledger.Tenants();
  EXPECT_EQ(tenants,
            std::vector<std::string>({"blue", "green", "red"}));
  CostLedger::Entry sum;
  for (const std::string& name : tenants) {
    CostLedger::Entry t = ledger.TenantTotal(name);
    EXPECT_GT(t.sim_seconds, 0.0) << name;
    EXPECT_GT(t.ec2_usd, 0.0) << name;
    sum.Fold(t);
  }
  sum.Fold(ledger.TenantTotal(""));  // load phase ran outside any tenant
  EXPECT_EQ(sum.gets, total.gets);
  EXPECT_EQ(sum.puts, total.puts);
  EXPECT_EQ(sum.ranged_gets, total.ranged_gets);
  EXPECT_NEAR(sum.TotalUsd(ledger.prices()),
              total.TotalUsd(ledger.prices()), 1e-12);
  EXPECT_NEAR(sum.sim_seconds, total.sim_seconds, 1e-9);

  // Spent tracking feeds budgets from the same rollup.
  for (const std::string& name : tenant_names) {
    EXPECT_GT(engine.Counts(name).spent_usd, 0.0) << name;
  }
}

// With NDP on, concurrent tenants issue SELECTs instead of page GETs for
// their range scans; the ledger must match the store's own counters (its
// meter) on the new request class and its two byte dimensions, and the
// tenant rollups must keep summing to the total with select terms in play.
TEST(WorkloadCostTest, LedgerMatchesMeterWithNdpSelects) {
  SimEnvironment env;
  Database::Options db_options = SmallDbOptions();
  db_options.enable_ocm = false;  // keep range scans on the object store
  db_options.ndp_mode = ndp::NdpMode::kOn;
  Database db(&env, InstanceProfile::M5ad4xlarge(), db_options);
  {
    Transaction* txn = db.Begin();
    TableLoader loader = db.NewTableLoader(txn, ScanSchema());
    Batch batch;
    batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
    for (int64_t i = 0; i < 5000; ++i) {
      batch.columns[0].ints.push_back(i);
    }
    ASSERT_TRUE(loader.Append(batch.columns).ok());
    ASSERT_TRUE(loader.Finish(db.system()).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }

  WorkloadEngine::Options options;
  options.admission.concurrency_limit = 3;
  options.slots_per_node = 3;
  WorkloadEngine engine({&db}, options, {});
  // Range scans with different windows per submission, so several NDP
  // SELECT requests of different sizes interleave on the sim clock.
  for (int round = 0; round < 3; ++round) {
    for (const std::string& name : {"red", "green", "blue"}) {
      int64_t lo = 500 * (round + 1);
      int64_t hi = lo + 999;
      engine.Submit(name, "ndp-scan", 0,
                    [lo, hi](Session*, QueryContext* ctx) {
                      CLOUDIQ_ASSIGN_OR_RETURN(TableReader reader,
                                               ctx->OpenTable(7));
                      return ScanTable(ctx, &reader, {"k"},
                                       ScanRange{"k", lo, hi})
                          .status();
                    });
    }
  }
  ASSERT_TRUE(engine.RunUntilIdle().ok());

  // pushdown actually happened
  ASSERT_GT(env.object_store().stats().selects, 0u);
  testing_util::ExpectLedgerMatchesStoreStats(&env);
  CostLedger& ledger = env.telemetry().ledger();
  CostLedger::Entry total = ledger.GrandTotal();
  EXPECT_GT(total.ec2_usd, 0.0);

  // Tenant rollups still reconstruct the grand total, selects included.
  CostLedger::Entry sum;
  for (const std::string& name : ledger.Tenants()) {
    sum.Fold(ledger.TenantTotal(name));
  }
  sum.Fold(ledger.TenantTotal(""));
  EXPECT_EQ(sum.selects, total.selects);
  EXPECT_EQ(sum.select_scanned_bytes, total.select_scanned_bytes);
  EXPECT_NEAR(sum.TotalUsd(ledger.prices()),
              total.TotalUsd(ledger.prices()), 1e-12);
}

// --- wait-state stall conservation ---------------------------------------

// The tentpole invariant, end to end: for every job the engine completed,
// the stall profiler's per-query wait classes minus the background shadow
// time equal finish - arrival exactly, in integer nanoseconds. Jobs are
// matched to query ids through their (unique) tags via the ledger.
void ExpectStallsConserve(
    SimEnvironment* env,
    const std::vector<WorkloadEngine::Completion>& done) {
  StallProfiler& profiler = env->telemetry().profiler();
  CostLedger& ledger = env->telemetry().ledger();
  std::map<std::string, uint64_t> query_by_tag;
  for (const auto& [query_id, tag] : ledger.Queries()) {
    query_by_tag[tag] = query_id;
  }
  size_t checked = 0;
  for (const WorkloadEngine::Completion& c : done) {
    if (c.shed) continue;
    auto it = query_by_tag.find(c.tag);
    ASSERT_NE(it, query_by_tag.end()) << c.tag;
    StallProfiler::Entry entry = profiler.QueryTotal(it->second);
    EXPECT_EQ(entry.TotalNanos() - entry.background,
              StallProfiler::ToNanos(c.finish) -
                  StallProfiler::ToNanos(c.arrival))
        << c.tag << " arrival=" << c.arrival << " finish=" << c.finish;
    ++checked;
  }
  EXPECT_GT(checked, 0u);

  // Global conservation: every nanosecond booked anywhere is covered by
  // exactly one of the two pools (foreground window, background shadow).
  int64_t sum = 0;
  for (const auto& [key, entry] : profiler.entries()) {
    sum += entry.TotalNanos();
  }
  EXPECT_EQ(sum, profiler.window_nanos() + profiler.background_nanos());
}

TEST(WorkloadStallTest, OpenLoopWaitsSumToLifetime) {
  // Open loop: 12 arrivals from 3 tenants burst against 2 run slots, so
  // admission queueing and fiber time-slicing both happen.
  WorkloadEngine::Options options;
  options.admission.concurrency_limit = 2;
  options.slots_per_node = 2;
  EngineHarness h(options);
  std::vector<WorkloadEngine::Completion> done;
  h.engine->set_completion_hook(
      [&](const WorkloadEngine::Completion& c) { done.push_back(c); });
  const std::vector<std::string> tenants = {"red", "green", "blue"};
  for (int i = 0; i < 12; ++i) {
    h.engine->Submit(tenants[i % 3], "o" + std::to_string(i),
                     i < 6 ? 0.0 : 0.0001 * i, SyntheticBody(3 + i % 4));
  }
  ASSERT_TRUE(h.engine->RunUntilIdle().ok());
  ASSERT_EQ(done.size(), 12u);
  ExpectStallsConserve(&h.env, done);

  // The backlog was real: some job waited in the admission queue, and
  // every job burned attributed CPU.
  StallProfiler::Entry grand = h.env.telemetry().profiler().GrandTotal();
  EXPECT_GT(grand.ns[static_cast<int>(WaitClass::kAdmissionQueue)], 0);
  EXPECT_GT(grand.ns[static_cast<int>(WaitClass::kCpuExec)], 0);
}

TEST(WorkloadStallTest, ClosedLoopScansConserveAndFeedGauges) {
  // Closed loop over real table scans: each completion resubmits its
  // tenant until the round quota is met, with the storage stack (buffer
  // pool, OCM, object store) live underneath — so I/O wait classes and
  // background cache traffic are all in play.
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(), SmallDbOptions());
  {
    Transaction* txn = db.Begin();
    TableLoader loader = db.NewTableLoader(txn, ScanSchema());
    Batch batch;
    batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
    for (int64_t i = 0; i < 5000; ++i) {
      batch.columns[0].ints.push_back(i);
    }
    ASSERT_TRUE(loader.Append(batch.columns).ok());
    ASSERT_TRUE(loader.Finish(db.system()).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }

  WorkloadEngine::Options options;
  options.admission.concurrency_limit = 2;
  options.slots_per_node = 2;
  WorkloadEngine engine({&db}, options, {});
  auto scan_body = [](Session*, QueryContext* ctx) {
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader reader, ctx->OpenTable(7));
    return ScanTable(ctx, &reader, {"k"}).status();
  };
  constexpr int kPerTenant = 3;
  const std::vector<std::string> tenants = {"red", "green", "blue"};
  std::vector<WorkloadEngine::Completion> done;
  std::map<std::string, int> launched;
  engine.set_completion_hook([&](const WorkloadEngine::Completion& c) {
    done.push_back(c);
    if (launched[c.tenant] < kPerTenant) {
      ++launched[c.tenant];
      engine.Submit(c.tenant,
                    c.tenant + std::to_string(launched[c.tenant]),
                    c.finish, scan_body);
    }
  });
  for (const std::string& name : tenants) {
    launched[name] = 1;
    engine.Submit(name, name + "1", 0, scan_body);
  }
  ASSERT_TRUE(engine.RunUntilIdle().ok());
  ASSERT_EQ(done.size(), tenants.size() * kPerTenant);
  ExpectStallsConserve(&env, done);

  // Real storage waits were attributed, not just CPU.
  StallProfiler& profiler = env.telemetry().profiler();
  StallProfiler::Entry grand = profiler.GrandTotal();
  EXPECT_GT(grand.ns[static_cast<int>(WaitClass::kNetworkTransfer)] +
                grand.ns[static_cast<int>(WaitClass::kBufferFill)] +
                grand.ns[static_cast<int>(WaitClass::kOcmFetch)],
            0);

  // Satellite: workload.<tenant>.stall.<class> gauges. Refreshed at each
  // completion, so a gauge may lag the final total by at most the
  // tenant's background shadow time (deferred uploads draining after its
  // last query finished) — never exceed it.
  for (const std::string& name : tenants) {
    StallProfiler::Entry total = profiler.TenantTotal(name);
    double lag_budget = static_cast<double>(total.background) * 1e-9;
    for (int i = 0; i < kNumWaitClasses; ++i) {
      double gauge =
          env.telemetry()
              .stats()
              .gauge("workload." + name + ".stall." +
                     WaitClassName(static_cast<WaitClass>(i)))
              .value();
      double final_seconds = static_cast<double>(total.ns[i]) * 1e-9;
      EXPECT_LE(gauge, final_seconds + 1e-12) << name << " class " << i;
      EXPECT_LE(final_seconds - gauge, lag_budget + 1e-12)
          << name << " class " << i;
    }
    EXPECT_GT(env.telemetry()
                  .stats()
                  .gauge("workload." + name + ".stall.cpu_exec")
                  .value(),
              0.0)
        << name;
  }
}

// Determinism satellite: the full profiled run report — stalls section
// included — is byte-identical across two identical runs.
std::string RunProfiledReport() {
  WorkloadEngine::Options options;
  options.admission.concurrency_limit = 2;
  options.slots_per_node = 2;
  EngineHarness h(options);
  const std::vector<std::string> tenants = {"red", "green", "blue"};
  for (int i = 0; i < 9; ++i) {
    h.engine->Submit(tenants[i % 3], "d" + std::to_string(i), 0.001 * i,
                     SyntheticBody(2 + i % 3));
  }
  EXPECT_TRUE(h.engine->RunUntilIdle().ok());
  RunReportInfo info;
  info.bench = "workload_test";
  info.sim_seconds = h.engine->now();
  return BuildRunReportJson(info, h.env.telemetry().stats(),
                            h.env.telemetry().ledger(),
                            h.env.telemetry().profiler());
}

TEST(WorkloadStallTest, ProfiledReportIsByteIdentical) {
  std::string first = RunProfiledReport();
  std::string second = RunProfiledReport();
  EXPECT_TRUE(first == second) << "profiled reports diverged";
  EXPECT_NE(first.find("\"stalls\""), std::string::npos);
  EXPECT_NE(first.find("\"admission_queue\""), std::string::npos);
}

// --- driver --------------------------------------------------------------

TEST(WorkloadDriverTest, RejectsEmptyLoads) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(), SmallDbOptions());
  WorkloadEngine engine({&db}, WorkloadEngine::Options(), {});
  WorkloadDriver driver(&engine, 1);
  EXPECT_FALSE(driver.Run({}).ok());
}

}  // namespace
}  // namespace cloudiq

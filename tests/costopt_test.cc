#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/table_loader.h"
#include "costopt/chooser.h"
#include "costopt/cost_model.h"
#include "costopt/predictor.h"
#include "costopt/whatif.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_loader.h"
#include "workload/workload_engine.h"

namespace cloudiq {
namespace {

using costopt::ChoosePlan;
using costopt::CostModel;
using costopt::NodeResources;
using costopt::PlanChoice;
using costopt::PlanEstimate;
using costopt::PlanPolicy;
using costopt::PredictionAccuracy;
using costopt::ScanWork;
using costopt::SpendPredictor;
using costopt::WhatIfLog;
using costopt::WhatIfScan;

// --- cost model: the same pricing tables the ledger bills with ----------

TEST(CostModelTest, PullChargesColdGetsOnly) {
  CloudPrices prices;
  CostModel model(prices);
  NodeResources node;
  ScanWork work;
  work.pull_pages = 100;
  work.pull_pages_buffer = 40;
  work.pull_pages_ocm = 10;
  work.pull_bytes = 1000000;

  PlanEstimate est = model.PricePull(work, node);
  EXPECT_EQ(est.name, "pull");
  EXPECT_EQ(est.cold_pages, 50u);
  // GETs have no per-byte charge: 50 cold pages is 50 requests, the 50
  // warm pages are free — the exact asymmetry the legacy planner missed.
  EXPECT_DOUBLE_EQ(est.usd, 50.0 / 1000.0 * prices.s3_get_per_1k);
  EXPECT_GT(est.network_seconds, 0);
  EXPECT_GT(est.ocm_fetch_seconds, 0);
  EXPECT_GT(est.cpu_seconds, 0);
  EXPECT_DOUBLE_EQ(est.latency_seconds, est.network_seconds +
                                            est.ocm_fetch_seconds +
                                            est.cpu_seconds);
  EXPECT_NE(est.detail.find("50/100 pages warm"), std::string::npos);

  // Fully warm: zero request dollars, zero network stall, CPU remains.
  work.pull_pages_buffer = 100;
  work.pull_pages_ocm = 0;
  PlanEstimate warm = model.PricePull(work, node);
  EXPECT_EQ(warm.cold_pages, 0u);
  EXPECT_DOUBLE_EQ(warm.usd, 0);
  EXPECT_DOUBLE_EQ(warm.network_seconds, 0);
  EXPECT_GT(warm.cpu_seconds, 0);
}

TEST(CostModelTest, PushPricesRequestsScannedAndReturned) {
  CloudPrices prices;
  CostModel model(prices);
  NodeResources node;
  ScanWork work;
  work.push_requests = 4;
  work.push_request_bytes = 2048;
  work.push_scan_bytes = 2000000000ull;   // 2 GB server-side scan
  work.push_return_bytes = 10000000ull;   // 10 MB result

  PlanEstimate est = model.PricePush(work, node);
  EXPECT_EQ(est.name, "push");
  EXPECT_DOUBLE_EQ(est.usd, 4.0 / 1000.0 * prices.s3_select_per_1k +
                                2.0 * prices.s3_select_scanned_per_gb +
                                0.01 * prices.s3_select_returned_per_gb);
  // 4 sequential SELECT round-trips plus the scan through the store-side
  // bandwidth: the ndp_select stall class.
  EXPECT_NEAR(est.ndp_select_seconds,
              4 * node.select_base_latency +
                  2000000000.0 / node.select_scan_bandwidth,
              1e-9);
  EXPECT_GT(est.network_seconds, 0);
  EXPECT_DOUBLE_EQ(est.latency_seconds, est.ndp_select_seconds +
                                            est.network_seconds +
                                            est.cpu_seconds);
  EXPECT_NE(est.detail.find("4 partition selects"), std::string::npos);
}

TEST(CostModelTest, PlacementAddsComputeTimeAtNodeRate) {
  CostModel model(CloudPrices{});
  NodeResources node;
  node.hourly_usd = 2.0;
  ScanWork work;
  work.pull_pages = 10;
  work.pull_bytes = 100000;
  PlanEstimate est = model.PricePlacement(work, node, /*push=*/false,
                                          "pull@reader-1");
  EXPECT_EQ(est.name, "pull@reader-1");
  EXPECT_DOUBLE_EQ(est.ec2_usd, est.latency_seconds / 3600.0 * 2.0);
  EXPECT_DOUBLE_EQ(est.TotalUsd(), est.usd + est.ec2_usd);
}

// --- chooser: budget-aware plan choice ----------------------------------

std::vector<PlanEstimate> TwoCandidates() {
  PlanEstimate fast;  // expensive but quick (a cold pull, say)
  fast.name = "pull";
  fast.usd = 0.01;
  fast.latency_seconds = 1.0;
  PlanEstimate cheap;  // cheap but slow
  cheap.name = "push";
  cheap.usd = 0.001;
  cheap.latency_seconds = 10.0;
  return {fast, cheap};
}

TEST(ChooserTest, MinCostUnderSloFiltersThenTakesCheapest) {
  std::vector<PlanEstimate> c = TwoCandidates();
  // Only the fast candidate meets a 5s SLO.
  PlanChoice tight = ChoosePlan(c, PlanPolicy::kMinCostUnderSlo, 5.0, -1);
  EXPECT_EQ(tight.index, 0);
  // Both meet 20s: the cheap one wins.
  PlanChoice loose = ChoosePlan(c, PlanPolicy::kMinCostUnderSlo, 20.0, -1);
  EXPECT_EQ(loose.index, 1);
  // No SLO: everything qualifies, cheapest wins.
  PlanChoice none = ChoosePlan(c, PlanPolicy::kMinCostUnderSlo, 0, -1);
  EXPECT_EQ(none.index, 1);
  // Nothing meets 0.5s: fall back to the fastest, and say so.
  PlanChoice miss = ChoosePlan(c, PlanPolicy::kMinCostUnderSlo, 0.5, -1);
  EXPECT_EQ(miss.index, 0);
  EXPECT_NE(miss.reason.find("no candidate meets slo"), std::string::npos);
  // Every verdict cites the deciding estimate (USD + latency).
  EXPECT_NE(loose.reason.find("$"), std::string::npos);
  EXPECT_NE(loose.reason.find("predicted"), std::string::npos);
}

TEST(ChooserTest, MinLatencyUnderBudgetFiltersThenTakesFastest) {
  std::vector<PlanEstimate> c = TwoCandidates();
  // Only the cheap candidate fits $0.005.
  PlanChoice tight =
      ChoosePlan(c, PlanPolicy::kMinLatencyUnderBudget, 0, 0.005);
  EXPECT_EQ(tight.index, 1);
  // Both fit $0.02: the fast one wins.
  PlanChoice loose =
      ChoosePlan(c, PlanPolicy::kMinLatencyUnderBudget, 0, 0.02);
  EXPECT_EQ(loose.index, 0);
  // Unlimited budget: fastest.
  PlanChoice unlimited =
      ChoosePlan(c, PlanPolicy::kMinLatencyUnderBudget, 0, -1);
  EXPECT_EQ(unlimited.index, 0);
  // Nothing fits $0.0001: cheapest, flagged as a budget miss.
  PlanChoice broke =
      ChoosePlan(c, PlanPolicy::kMinLatencyUnderBudget, 0, 0.0001);
  EXPECT_EQ(broke.index, 1);
  EXPECT_NE(broke.reason.find("no candidate fits budget"),
            std::string::npos);
}

// --- spend predictor ----------------------------------------------------

TEST(SpendPredictorTest, MeansWithTenantAndPriorFallback) {
  SpendPredictor predictor(0.5);
  EXPECT_DOUBLE_EQ(predictor.Predict("t", "a"), 0.5);  // unseen: prior
  predictor.Observe("t", "a", 1.0);
  predictor.Observe("t", "a", 2.0);
  EXPECT_DOUBLE_EQ(predictor.Predict("t", "a"), 1.5);  // per-tag mean
  EXPECT_EQ(predictor.observations("t", "a"), 2u);
  // Fresh tag of a known tenant: tenant-wide mean, not the prior.
  EXPECT_DOUBLE_EQ(predictor.Predict("t", "b"), 1.5);
  // Unknown tenant: prior.
  EXPECT_DOUBLE_EQ(predictor.Predict("u", "x"), 0.5);
}

// --- what-if log: predicted vs. billed ----------------------------------

TEST(WhatIfTest, ComparePredictionsMatchesLedgerKeys) {
  CloudPrices prices;
  WhatIfLog log;
  WhatIfScan scan;
  scan.op = "scan t";
  scan.op_id = 3;
  PlanEstimate pull;
  pull.name = "pull";
  pull.usd = 0.0005;
  scan.candidates = {pull};
  scan.chosen = 0;
  log.Add(scan);

  // The ledger billed 1000 GETs to (query 7, operator 3).
  std::map<CostLedger::Key, CostLedger::Entry> entries;
  CostLedger::Key key;
  key.query_id = 7;
  key.operator_id = 3;
  CostLedger::Entry entry;
  entry.gets = 1000;
  entries[key] = entry;

  PredictionAccuracy acc =
      costopt::ComparePredictions(log, entries, 7, prices);
  EXPECT_EQ(acc.scans, 1u);
  EXPECT_DOUBLE_EQ(acc.predicted_usd, 0.0005);
  EXPECT_DOUBLE_EQ(acc.billed_usd, prices.s3_get_per_1k);
  EXPECT_NEAR(acc.abs_error_usd, 0.0005 - prices.s3_get_per_1k, 1e-12);
  EXPECT_NEAR(acc.RelativeError(),
              (0.0005 - prices.s3_get_per_1k) / prices.s3_get_per_1k, 1e-9);

  // A different query's entries never match.
  PredictionAccuracy other =
      costopt::ComparePredictions(log, entries, 8, prices);
  EXPECT_EQ(other.scans, 1u);
  EXPECT_DOUBLE_EQ(other.billed_usd, 0);
}

TEST(WhatIfTest, FormatListsCandidatesAndWinner) {
  WhatIfLog log;
  WhatIfScan scan;
  scan.op = "scan lineitem";
  scan.op_id = 2;
  scan.policy = "min_cost_under_slo";
  std::vector<PlanEstimate> c = TwoCandidates();
  scan.candidates = c;
  scan.chosen = 1;
  scan.reason = "min_cost_under_slo: push $0.001, 10s predicted";
  log.Add(scan);
  std::string text = costopt::FormatWhatIf(log, "Q6");
  EXPECT_NE(text.find("EXPLAIN WHATIF Q6"), std::string::npos);
  EXPECT_NE(text.find("scan lineitem [op 2]"), std::string::npos);
  EXPECT_NE(text.find("pull"), std::string::npos);
  EXPECT_NE(text.find("push       *"), std::string::npos);  // winner mark
  EXPECT_NE(text.find("reason: min_cost_under_slo"), std::string::npos);
  EXPECT_NE(text.find("predicted request usd: 0.001"), std::string::npos);

  WhatIfLog empty;
  EXPECT_NE(costopt::FormatWhatIf(empty, "Q1").find("planner not"),
            std::string::npos);
}

// --- executor integration: residency-aware planning ---------------------

Database::Options CostOptDbOptions() {
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 8192;
  options.blockmap_fanout = 16;
  options.enable_ocm = false;
  options.ndp_mode = ndp::NdpMode::kAuto;
  return options;
}

void LoadNarrow(Database* db) {
  TableSchema schema;
  schema.name = "t";
  schema.table_id = 7;
  schema.columns = {{"k", ColumnType::kInt64}, {"v", ColumnType::kDecimal}};
  Transaction* txn = db->Begin();
  TableLoader loader = db->NewTableLoader(txn, schema);
  Batch batch;
  batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("v", {ColumnType::kDecimal, {}, {}, {}});
  for (int64_t i = 0; i < 20000; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].ints.push_back((i * 7) % 99991);
  }
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(db->system()).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
}

// Warms every page of k and v via a rangeless pull scan (never planned
// as pushdown), then runs the selective range scan that a planner
// pricing every pull as cold would push at a loss.
Result<QueryContext> WarmThenRangeScan(Database* db) {
  {
    Transaction* txn = db->Begin();
    QueryContext ctx = db->NewQueryContext(txn, "warm");
    ScopedQueryAttribution scope(&ctx);
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader reader, ctx.OpenTable(7));
    CLOUDIQ_RETURN_IF_ERROR(ScanTable(&ctx, &reader, {"k", "v"}).status());
    CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
  }
  Transaction* txn = db->Begin();
  QueryContext ctx = db->NewQueryContext(txn, "rescan");
  {
    ScopedQueryAttribution scope(&ctx);
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader reader, ctx.OpenTable(7));
    CLOUDIQ_ASSIGN_OR_RETURN(
        Batch out,
        ScanTable(&ctx, &reader, {"v"}, ScanRange{"k", 100, 199}));
    EXPECT_EQ(out.rows(), 100u);
  }
  CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
  return ctx;
}

TEST(CostOptExecTest, WarmScanNotPushedRegression) {
  // Repaired planner: the residency probe sees every page in the buffer,
  // prices the pull at $0 cold requests, and keeps the scan local.
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(), CostOptDbOptions());
  LoadNarrow(&db);
  Result<QueryContext> ctx = WarmThenRangeScan(&db);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  EXPECT_EQ(env.telemetry().stats().counter("ndp.pushdown_scans").value(),
            0u);
  EXPECT_EQ(env.object_store().stats().selects, 0u);
  ASSERT_FALSE(ctx.value().whatif().empty());
  const WhatIfScan& scan = ctx.value().whatif().scans().back();
  EXPECT_EQ(scan.candidates[scan.chosen].name, "pull");
  EXPECT_EQ(scan.candidates[0].cold_pages, 0u);  // probe saw warm pages
}

TEST(CostOptExecTest, PolicyChoosesCheapestAndExplainCitesIt) {
  SimEnvironment env;
  // The default policy with no SLO: the cheapest candidate.
  Database db(&env, InstanceProfile::M5ad4xlarge(), CostOptDbOptions());
  LoadNarrow(&db);

  Transaction* txn = db.Begin();
  QueryContext ctx = db.NewQueryContext(txn, "q");
  {
    ScopedQueryAttribution scope(&ctx);
    Result<TableReader> reader = ctx.OpenTable(7);
    ASSERT_TRUE(reader.ok());
    Result<Batch> out = ScanTable(&ctx, &reader.value(), {"v"},
                                  ScanRange{"k", 100, 199});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  ASSERT_TRUE(db.Commit(txn).ok());

  ASSERT_FALSE(ctx.whatif().empty());
  const WhatIfScan& scan = ctx.whatif().scans().front();
  EXPECT_EQ(scan.policy, std::string("min_cost_under_slo"));
  ASSERT_EQ(scan.candidates.size(), 2u);
  // The chosen candidate really is the cheapest one priced.
  int cheapest = scan.candidates[0].usd <= scan.candidates[1].usd ? 0 : 1;
  EXPECT_EQ(scan.chosen, cheapest);
  EXPECT_FALSE(scan.reason.empty());
  EXPECT_FALSE(scan.placement.empty());  // reader placement is advisory

  // EXPLAIN WHATIF renders the trail and the predicted-vs-billed line.
  std::string text = FormatExplainWhatIf(&ctx);
  EXPECT_NE(text.find("EXPLAIN WHATIF"), std::string::npos);
  EXPECT_NE(text.find("reason:"), std::string::npos);
  EXPECT_NE(text.find("billed request usd:"), std::string::npos);
}

// --- prediction accuracy on the TPC-H power run (satellite 3) ------------

TEST(CostOptTpchTest, PowerRunPredictionErrorWithinBound) {
  SimEnvironment env;
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 64 * 1024;
  options.enable_ocm = false;
  // Working set far beyond the buffer: scans pull cold pages and bill
  // real GET money, so the error bound is exercised, not vacuous.
  options.buffer_capacity_override = 4 << 20;
  options.ndp_mode = ndp::NdpMode::kAuto;
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  TpchGenerator gen(0.005);
  TpchLoadOptions load;
  load.partitions = 4;
  ASSERT_TRUE(LoadTpch(&db, &gen, load).ok());

  CostLedger& ledger = env.telemetry().ledger();
  PredictionAccuracy acc;
  for (int q = 1; q <= 22; ++q) {
    Transaction* txn = db.Begin();
    QueryContext ctx = db.NewQueryContext(txn, "Q" + std::to_string(q));
    {
      ScopedQueryAttribution scope(&ctx);
      Result<Batch> result = RunTpchQuery(&ctx, q);
      ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                               << result.status().ToString();
    }
    ASSERT_TRUE(db.Commit(txn).ok());
    acc.Fold(costopt::ComparePredictions(ctx.whatif(), ledger.entries(),
                                         ctx.attribution().query_id,
                                         ledger.prices()));
  }
  EXPECT_GT(acc.scans, 0u);
  EXPECT_GT(acc.billed_usd, 0.0);
  // Stated bound: across the 22-query power run, the summed per-scan
  // |predicted - billed| request USD stays within 20% of billed spend.
  // Scan-side pricing is exact (SegmentMeta::page_bytes records stored
  // frame sizes); the residual is the SELECT return-bytes term, which
  // is estimated from zone-map selectivity at encoded widths.
  EXPECT_LT(acc.RelativeError(), 0.2)
      << "predicted $" << acc.predicted_usd << " billed $"
      << acc.billed_usd << " abs err $" << acc.abs_error_usd;
}

// --- predictive admission (workload engine) ------------------------------

constexpr uint64_t kEtlTable = 7;

void LoadScrambled(Database* db, int64_t rows) {
  TableSchema schema;
  schema.name = "etl_t";
  schema.table_id = kEtlTable;
  schema.columns = {{"k", ColumnType::kInt64}};
  schema.hg_index_columns = {0};
  Transaction* txn = db->Begin();
  TableLoader loader = db->NewTableLoader(txn, schema);
  Batch batch;
  batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
  for (int64_t i = 0; i < rows; ++i) {
    // Scrambled so the column won't encode down into the tiny buffer.
    batch.columns[0].ints.push_back((i * 1103515245 + 12345) % 2147483647);
  }
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(db->system()).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
}

struct BudgetOutcome {
  double spent = 0;
  double last_finish = 0;
  uint64_t completed = 0;
  uint64_t shed_budget = 0;
  uint64_t deferred = 0;
  uint64_t deferred_shed = 0;
};

// Submits `jobs` identical full scans, serially spaced, against a tenant
// budget; returns what the engine did with them.
BudgetOutcome RunBudgetWorkload(bool predictive, double budget,
                                double prior, double spacing, int jobs) {
  SimEnvironment env;
  Database::Options db_options;
  db_options.user_storage = UserStorage::kObjectStore;
  db_options.page_size = 8192;
  db_options.blockmap_fanout = 16;
  db_options.enable_ocm = false;
  db_options.buffer_capacity_override = 8 * 8192;
  Database db(&env, InstanceProfile::M5ad4xlarge(), db_options);
  LoadScrambled(&db, 40000);

  WorkloadEngine::Options options;
  options.predictive_admission = predictive;
  options.spend_prior_usd = prior;
  WorkloadEngine::TenantConfig tenant;
  tenant.name = "etl";
  tenant.cost_budget_usd = budget;
  WorkloadEngine engine({&db}, options, {tenant});
  BudgetOutcome out;
  engine.set_completion_hook([&out](const WorkloadEngine::Completion& c) {
    if (!c.shed) out.last_finish = std::max(out.last_finish, c.finish);
  });
  auto body = [](Session*, QueryContext* ctx) {
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader reader, ctx->OpenTable(kEtlTable));
    return ScanTable(ctx, &reader, {"k"}).status();
  };
  for (int i = 0; i < jobs; ++i) {
    engine.Submit("etl", "scan", spacing * i, body);
  }
  EXPECT_TRUE(engine.RunUntilIdle().ok());

  WorkloadEngine::TenantCounts counts = engine.Counts("etl");
  out.spent = counts.spent_usd;
  out.completed = counts.completed;
  out.shed_budget = counts.shed_budget;
  auto& stats = env.telemetry().stats();
  out.deferred = stats.counter("workload.etl.costopt_deferred").value();
  out.deferred_shed =
      stats.counter("workload.etl.costopt_deferred_shed").value();
  return out;
}

TEST(PredictiveAdmissionTest, DefersInsteadOfOvershooting) {
  // Calibrate one scan's cost and duration with an unlimited budget.
  BudgetOutcome cal = RunBudgetWorkload(false, 0, 0, 0, 1);
  ASSERT_EQ(cal.completed, 1u);
  ASSERT_GT(cal.spent, 0.0);
  double budget = 2.2 * cal.spent;   // room for two scans, not three
  double spacing = 2.0 * cal.last_finish;

  // Cost-blind admission: history alone says there is headroom after two
  // completions, so the third scan is admitted and blows the budget.
  BudgetOutcome blind = RunBudgetWorkload(false, budget, 0, spacing, 4);
  EXPECT_EQ(blind.completed, 3u);
  EXPECT_EQ(blind.deferred, 0u);
  EXPECT_GT(blind.spent, budget);

  // Predictive admission: the third scan's predicted spend would breach
  // the budget, so it is deferred, re-priced as completions land, and
  // finally shed — spend never crosses the budget.
  BudgetOutcome aware =
      RunBudgetWorkload(true, budget, cal.spent, spacing, 4);
  EXPECT_EQ(aware.completed, 2u);
  EXPECT_GE(aware.deferred, 1u);
  EXPECT_GE(aware.deferred_shed, 1u);
  EXPECT_EQ(aware.shed_budget, 2u);  // the parked jobs shed as budget
  EXPECT_LE(aware.spent, budget);

  // Deterministic: the same predictive run re-executed lands on the
  // exact same spend and decisions.
  BudgetOutcome again =
      RunBudgetWorkload(true, budget, cal.spent, spacing, 4);
  EXPECT_DOUBLE_EQ(again.spent, aware.spent);
  EXPECT_EQ(again.completed, aware.completed);
  EXPECT_EQ(again.deferred, aware.deferred);
}

}  // namespace
}  // namespace cloudiq

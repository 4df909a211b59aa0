// Cost-intelligent planning and admission across two tenant mixes.
//
//   warm_rescan — twelve Q6-style month scans over a lineitem whose pages
//   were warmed by a prior full scan, with NDP off (always pull), on
//   (always push) and auto (the cost model picks). Always pushing sends
//   these scans into the store at a loss (paying SELECT request +
//   scanned-GB money to avoid a transfer that would have been a buffer
//   hit); the cost-aware chooser probes residency and keeps them local.
//   The headline: lower $ AND lower p95 at the same SLO — strict
//   dominance, not a trade.
//
//   budget_guard — six identical ETL scans against a tight tenant budget.
//   Reactive admission only looks at money already spent, so it admits
//   the job that blows the budget and finds out after the fact;
//   predictive admission prices the job first, defers it, and sheds it
//   cleanly once completions prove the budget truly has no headroom.
//   The headline: budget overshoot goes to ~zero.
//
// Every number is simulated and deterministic; double runs of --report
// byte-compare (scripts/check.sh costopt gates this).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "tpch/queries_internal.h"
#include "workload/workload_engine.h"

namespace cloudiq {
namespace bench {
namespace {

using tpch_internal::D;

// One fixed SLO for the warm_rescan mix: generous enough that every mode
// meets it, so the comparison is "$ at equal-or-better p95 under the same
// SLO", not an SLO-violation contest.
constexpr double kSloSeconds = 2.0;

// --- mix 1: warm_rescan ---------------------------------------------------

struct WarmMode {
  const char* name;
  ndp::NdpMode ndp_mode;
};

std::vector<WarmMode> WarmModes() {
  return {
      // The comparator: every eligible scan goes server-side.
      {"always_push", ndp::NdpMode::kOn},
      // No pushdown at all: every scan reads its pages.
      {"always_pull", ndp::NdpMode::kOff},
      // The cost model end to end: cheapest candidate under the SLO.
      {"cost_aware", ndp::NdpMode::kAuto},
  };
}

struct WarmResult {
  double usd = 0;          // measured queries: requests + EC2 time
  double p95_seconds = 0;
  double mean_seconds = 0;
  int pushed_scans = 0;    // how many of the 12 scans went server-side
  costopt::PredictionAccuracy accuracy;
};

struct WarmRun {
  std::unique_ptr<SimEnvironment> env;
  std::unique_ptr<Database> db;
  WarmResult result;
};

Result<WarmRun> RunWarmMode(const WarmMode& mode, double scale) {
  WarmRun run;
  run.env = std::make_unique<SimEnvironment>();
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.enable_ocm = false;  // buffer alone holds the working set
  options.ndp_mode = mode.ndp_mode;
  options.cost_slo_seconds = kSloSeconds;
  run.db = std::make_unique<Database>(run.env.get(),
                                      InstanceProfile::M5ad4xlarge(),
                                      options);
  MaybeEnableTracing(run.db.get());
  TpchGenerator gen(scale);
  CLOUDIQ_RETURN_IF_ERROR(LoadTpch(run.db.get(), &gen, {}).status());

  Database* db = run.db.get();
  CostLedger& ledger = db->env().telemetry().ledger();
  auto& stats = db->env().telemetry().stats();

  // Warm-up: a rangeless pull scan of the measured columns fills the
  // buffer (rangeless scans never consider pushdown, so the cache is
  // warm in every mode). Not counted in the measured numbers.
  {
    Transaction* txn = db->Begin();
    QueryContext ctx = db->NewQueryContext(txn, "warm");
    ScopedQueryAttribution scope(&ctx);
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx.OpenTable(kLineitem));
    CLOUDIQ_RETURN_IF_ERROR(
        ScanTable(&ctx, &lineitem,
                  {"l_extendedprice", "l_discount", "l_shipdate"})
            .status());
    CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
  }

  // Measured: one Q6-style scan per month of 1994, all warm.
  std::vector<double> latencies;
  for (int month = 1; month <= 12; ++month) {
    int64_t lo = D(1994, month, 1);
    int64_t hi = (month == 12 ? D(1995, 1, 1) : D(1994, month + 1, 1)) - 1;
    uint64_t pushed_before = stats.counter("ndp.pushdown_scans").value();
    SimTime before = db->node().clock().now();
    Transaction* txn = db->Begin();
    QueryContext ctx =
        db->NewQueryContext(txn, "q6_m" + std::to_string(month));
    {
      ScopedQueryAttribution scope(&ctx);
      CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem,
                               ctx.OpenTable(kLineitem));
      CLOUDIQ_ASSIGN_OR_RETURN(
          Batch items,
          ScanTable(&ctx, &lineitem, {"l_extendedprice", "l_discount"},
                    ScanRange{"l_shipdate", lo, hi}));
      (void)items;
      CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
    }
    double seconds = db->node().clock().now() - before;
    ChargePhase(db, ctx.attribution(), seconds);
    latencies.push_back(seconds);
    run.result.mean_seconds += seconds / 12.0;
    run.result.usd += ledger.QueryTotal(ctx.attribution().query_id)
                          .TotalUsd(ledger.prices());
    if (stats.counter("ndp.pushdown_scans").value() > pushed_before) {
      ++run.result.pushed_scans;
    }
    costopt::PredictionAccuracy acc = costopt::ComparePredictions(
        ctx.whatif(), ledger.entries(), ctx.attribution().query_id,
        ledger.prices());
    run.result.accuracy.Fold(acc);
    PredictionStats().Fold(acc);
    if (Telemetry().print_whatif && !ctx.whatif().empty()) {
      std::printf("%s", FormatExplainWhatIf(&ctx).c_str());
    }
  }
  std::sort(latencies.begin(), latencies.end());
  run.result.p95_seconds =
      latencies[(latencies.size() * 95 + 99) / 100 - 1];
  return run;
}

// --- mix 2: budget_guard --------------------------------------------------

// A flat int64 table scanned end to end by each ETL job; the buffer is
// held far below the table so every scan re-fetches from the store and
// costs real request money.
constexpr uint64_t kEtlTableId = 7;
constexpr int64_t kEtlRows = 200000;

Status LoadEtlTable(Database* db) {
  TableSchema schema;
  schema.name = "etl_t";
  schema.table_id = kEtlTableId;
  schema.columns = {{"k", ColumnType::kInt64}};
  schema.hg_index_columns = {0};
  Transaction* txn = db->Begin();
  TableLoader loader = db->NewTableLoader(txn, schema);
  Batch batch;
  batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
  for (int64_t i = 0; i < kEtlRows; ++i) {
    // Scrambled values: keeps the column from delta/n-bit encoding down to
    // a buffer-sized object, so every rescan really re-fetches pages.
    batch.columns[0].ints.push_back((i * 1103515245 + 12345) % 2147483647);
  }
  CLOUDIQ_RETURN_IF_ERROR(loader.Append(batch.columns));
  CLOUDIQ_RETURN_IF_ERROR(loader.Finish(db->system()).status());
  return db->Commit(txn);
}

struct BudgetRun {
  std::unique_ptr<SimEnvironment> env;
  std::unique_ptr<Database> db;
  std::unique_ptr<WorkloadEngine> engine;
  double spent_usd = 0;
  double overshoot_usd = 0;
  uint64_t completed = 0;
  uint64_t shed_budget = 0;
  uint64_t deferred = 0;
  uint64_t deferred_shed = 0;
  double last_finish = 0;
};

Result<BudgetRun> RunBudgetMode(bool predictive, double budget_usd,
                                double prior_usd, double spacing,
                                int jobs) {
  BudgetRun run;
  run.env = std::make_unique<SimEnvironment>();
  Database::Options db_options;
  db_options.user_storage = UserStorage::kObjectStore;
  db_options.page_size = 8192;
  db_options.blockmap_fanout = 16;
  db_options.enable_ocm = false;
  db_options.buffer_capacity_override = 8 * 8192;  // scans stay cold
  run.db = std::make_unique<Database>(run.env.get(),
                                      InstanceProfile::M5ad4xlarge(),
                                      db_options);
  CLOUDIQ_RETURN_IF_ERROR(LoadEtlTable(run.db.get()));

  WorkloadEngine::Options options;
  options.predictive_admission = predictive;
  options.spend_prior_usd = prior_usd;
  WorkloadEngine::TenantConfig tenant;
  tenant.name = "etl";
  tenant.cost_budget_usd = budget_usd;
  run.engine = std::make_unique<WorkloadEngine>(
      std::vector<Database*>{run.db.get()}, options,
      std::vector<WorkloadEngine::TenantConfig>{tenant});
  double last_finish = 0;
  run.engine->set_completion_hook(
      [&last_finish](const WorkloadEngine::Completion& c) {
        if (!c.shed) last_finish = std::max(last_finish, c.finish);
      });
  auto scan_body = [](Session*, QueryContext* ctx) {
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader reader,
                             ctx->OpenTable(kEtlTableId));
    return ScanTable(ctx, &reader, {"k"}).status();
  };
  for (int i = 0; i < jobs; ++i) {
    run.engine->Submit("etl", "scan", spacing * i, scan_body);
  }
  CLOUDIQ_RETURN_IF_ERROR(run.engine->RunUntilIdle());

  WorkloadEngine::TenantCounts counts = run.engine->Counts("etl");
  run.spent_usd = counts.spent_usd;
  run.overshoot_usd =
      budget_usd > 0 ? std::max(0.0, counts.spent_usd - budget_usd) : 0;
  run.completed = counts.completed;
  run.shed_budget = counts.shed_budget;
  auto& stats = run.env->telemetry().stats();
  run.deferred = stats.counter("workload.etl.costopt_deferred").value();
  run.deferred_shed =
      stats.counter("workload.etl.costopt_deferred_shed").value();
  run.last_finish = last_finish;
  return run;
}

int Main() {
  double scale = BenchScale(0.01);
  Telemetry().scale_factor = scale;
  std::printf("=== Cost-intelligent planning and admission "
              "(SF=%g, m5ad.4xlarge) ===\n\n", scale);

  // --- warm_rescan ---
  std::printf("-- mix warm_rescan: 12 warm Q6 month scans, SLO %.1fs --\n",
              kSloSeconds);
  std::vector<WarmMode> warm_modes = WarmModes();
  std::vector<WarmRun> warm_runs;
  for (const WarmMode& mode : warm_modes) {
    Result<WarmRun> r = RunWarmMode(mode, scale);
    if (!r.ok()) {
      std::printf("mode %s failed: %s\n", mode.name,
                  r.status().ToString().c_str());
      return 1;
    }
    warm_runs.push_back(std::move(r.value()));
  }
  std::printf("%-16s %6s %12s %10s %10s %10s\n", "mode", "pushed",
              "usd/12q", "mean_s", "p95_s", "pred_err");
  for (size_t m = 0; m < warm_modes.size(); ++m) {
    const WarmResult& r = warm_runs[m].result;
    std::printf("%-16s %6d %12.6f %10.5f %10.5f %10.3f\n",
                warm_modes[m].name, r.pushed_scans, r.usd, r.mean_seconds,
                r.p95_seconds, r.accuracy.RelativeError());
  }
  Hr();

  // --- budget_guard ---
  // Calibrate one ETL scan (cost + duration) with an unlimited budget,
  // then give the tenant budget for ~3.2 scans and submit 6, spaced so
  // they run serially. Reactive admission overshoots by most of a
  // scan; predictive admission defers the fourth and sheds cleanly.
  Result<BudgetRun> cal = RunBudgetMode(false, 0, 0, 0, 1);
  if (!cal.ok()) {
    std::printf("calibration failed: %s\n",
                cal.status().ToString().c_str());
    return 1;
  }
  double scan_usd = cal.value().spent_usd;
  double scan_seconds = cal.value().last_finish;
  double budget = 3.2 * scan_usd;
  double spacing = 2.0 * scan_seconds;
  std::printf("-- mix budget_guard: 6 ETL scans ($%.6f each), budget "
              "$%.6f --\n", scan_usd, budget);
  Result<BudgetRun> reactive = RunBudgetMode(false, budget, 0, spacing, 6);
  Result<BudgetRun> predictive =
      RunBudgetMode(true, budget, scan_usd, spacing, 6);
  if (!reactive.ok() || !predictive.ok()) {
    std::printf("budget_guard failed: %s\n",
                (!reactive.ok() ? reactive.status() : predictive.status())
                    .ToString().c_str());
    return 1;
  }
  struct { const char* name; const BudgetRun* run; } budget_rows[] = {
      {"reactive", &reactive.value()}, {"predictive", &predictive.value()}};
  std::printf("%-12s %6s %6s %6s %6s %12s %12s\n", "mode", "done",
              "shed", "defer", "dshed", "spent_usd", "overshoot");
  for (const auto& row : budget_rows) {
    std::printf("%-12s %6llu %6llu %6llu %6llu %12.6f %12.6f\n", row.name,
                static_cast<unsigned long long>(row.run->completed),
                static_cast<unsigned long long>(row.run->shed_budget),
                static_cast<unsigned long long>(row.run->deferred),
                static_cast<unsigned long long>(row.run->deferred_shed),
                row.run->spent_usd, row.run->overshoot_usd);
  }
  Hr();

  // Headline checks: cost-aware strictly dominates always-push on
  // warm_rescan ($ down, p95 not worse, same SLO) by keeping every warm
  // scan local, and predictive admission eliminates the budget overshoot
  // without stalling service.
  const WarmResult& always_push = warm_runs[0].result;
  const WarmResult& cost_aware = warm_runs.back().result;
  bool warm_dominates = cost_aware.usd < always_push.usd &&
                        cost_aware.p95_seconds <= always_push.p95_seconds;
  bool keeps_local = cost_aware.pushed_scans == 0;
  bool budget_guarded =
      predictive.value().overshoot_usd < reactive.value().overshoot_usd &&
      predictive.value().completed > 0;
  std::printf("\ncost_aware dominates always_push on warm_rescan "
              "($%.6f < $%.6f, p95 %.5fs <= %.5fs): %s\n",
              cost_aware.usd, always_push.usd, cost_aware.p95_seconds,
              always_push.p95_seconds, warm_dominates ? "YES" : "NO");
  std::printf("cost_aware keeps every warm scan local: %s\n",
              keeps_local ? "YES" : "NO");
  std::printf("predictive admission cuts budget overshoot ($%.6f -> "
              "$%.6f): %s\n", reactive.value().overshoot_usd,
              predictive.value().overshoot_usd,
              budget_guarded ? "YES" : "NO");

  // Report gauges live on the last surviving environment (the predictive
  // budget run); all values are sim-derived, so double runs byte-compare.
  auto& stats = predictive.value().env->telemetry().stats();
  for (size_t m = 0; m < warm_modes.size(); ++m) {
    const WarmResult& r = warm_runs[m].result;
    std::string p =
        std::string("costopt.bench.warm_rescan.") + warm_modes[m].name;
    stats.gauge(p + ".usd").Set(r.usd);
    stats.gauge(p + ".mean_seconds").Set(r.mean_seconds);
    stats.gauge(p + ".p95_seconds").Set(r.p95_seconds);
    stats.gauge(p + ".pushed_scans").Set(r.pushed_scans);
    stats.gauge(p + ".prediction_error").Set(r.accuracy.RelativeError());
  }
  for (const auto& row : budget_rows) {
    std::string p =
        std::string("costopt.bench.budget_guard.") + row.name;
    stats.gauge(p + ".spent_usd").Set(row.run->spent_usd);
    stats.gauge(p + ".overshoot_usd").Set(row.run->overshoot_usd);
    stats.gauge(p + ".completed")
        .Set(static_cast<double>(row.run->completed));
    stats.gauge(p + ".shed_budget")
        .Set(static_cast<double>(row.run->shed_budget));
    stats.gauge(p + ".deferred")
        .Set(static_cast<double>(row.run->deferred));
    stats.gauge(p + ".deferred_shed")
        .Set(static_cast<double>(row.run->deferred_shed));
  }
  stats.gauge("costopt.bench.budget_guard.budget_usd").Set(budget);
  MaybeWriteTrace(predictive.value().env.get());
  MaybeWriteReport(predictive.value().env.get(),
                   predictive.value().db->node().clock().now());
  return warm_dominates && keeps_local && budget_guarded ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace cloudiq

int main(int argc, char** argv) {
  cloudiq::bench::InitTelemetry(argc, argv);
  return cloudiq::bench::Main();
}

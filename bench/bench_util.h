#ifndef CLOUDIQ_BENCH_BENCH_UTIL_H_
#define CLOUDIQ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "exec/explain.h"
#include "ndp/ndp_protocol.h"
#include "telemetry/report.h"
#include "telemetry/tracer.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_loader.h"

namespace cloudiq {
namespace bench {

// Shared telemetry toggles for the bench binaries:
//   --metrics        (or CLOUDIQ_METRICS=1)    print the per-layer metrics
//                                              report after each run
//   --trace=PATH     (or CLOUDIQ_TRACE=PATH)   enable the sim tracer and
//                                              export a Chrome trace (open
//                                              in chrome://tracing or
//                                              https://ui.perfetto.dev)
//   --report=PATH    (or CLOUDIQ_REPORT=PATH)  write the structured JSON
//                                              run report: global cost,
//                                              the attribution ledger by
//                                              query/node/prefix, and the
//                                              stats registry
//   --explain        (or CLOUDIQ_EXPLAIN=1)    print EXPLAIN ANALYZE after
//                                              each TPC-H query run by the
//                                              shared harness
//   --ndp=MODE       (or CLOUDIQ_NDP=MODE)     near-data processing mode
//                                              (off|on|auto) applied to
//                                              every Database the bench
//                                              builds through WithNdp —
//                                              any figure/table can be
//                                              re-run with pushdown
//   --profile        (or CLOUDIQ_PROFILE=1)    print the wait-state stall
//                                              profile ("stall top") after
//                                              each run: per-class totals
//                                              and the top queries by wait
//                                              time, from the StallProfiler
//   --whatif         (or CLOUDIQ_WHATIF=1)     print EXPLAIN WHATIF after
//                                              each TPC-H query: every
//                                              candidate plan the scan
//                                              planner priced (USD +
//                                              per-stall-class latency),
//                                              the winner and the reason
// Benches that execute several configurations write the trace/report
// after each run, so the exported file holds the most recent
// configuration.
struct TelemetryOptions {
  bool print_metrics = false;
  bool print_explain = false;
  bool print_whatif = false;  // print EXPLAIN WHATIF after each query
  bool profile = false;     // print the stall breakdown after each run
  std::string trace_path;   // empty = tracing off
  std::string report_path;  // empty = no JSON report
  std::string bench_name;   // argv[0] basename, stamped into the report
  double scale_factor = 0;  // benches may set for the report (0 = n/a)
};

inline TelemetryOptions& Telemetry() {
  static TelemetryOptions options;
  return options;
}

// Shared knobs for the concurrency-aware benches:
//   --tenants=N      (or CLOUDIQ_TENANTS=N)     tenant count
//   --arrival=R      (or CLOUDIQ_ARRIVAL=R)     open-loop arrival rate per
//                                               tenant, queries per
//                                               simulated second (0 = run
//                                               the tenants closed-loop)
//   --concurrency=C  (or CLOUDIQ_CONCURRENCY=C) pool-wide admission
//                                               concurrency limit
// Unset values stay negative; each bench applies its own defaults or
// sweeps. Setting any of them pins that dimension instead of sweeping it.
struct WorkloadFlags {
  int tenants = -1;
  double arrival = -1;
  int concurrency = -1;
};

inline WorkloadFlags& Workload() {
  static WorkloadFlags flags;
  return flags;
}

// Shared near-data-processing mode (--ndp / CLOUDIQ_NDP). Defaults to
// off so every bench reproduces the seed numbers unless pushdown is
// asked for explicitly.
inline ndp::NdpMode& NdpFlag() {
  static ndp::NdpMode mode = ndp::NdpMode::kOff;
  return mode;
}

// Stamps the shared NDP mode into a database's options; benches route
// their Database::Options (or Multiplex::Options::db) through this.
inline Database::Options WithNdp(Database::Options options) {
  options.ndp_mode = NdpFlag();
  return options;
}

// Shared executor mode for the morsel-driven parallel executor:
//   --exec=MODE      (or CLOUDIQ_EXEC=MODE)          sim|native — sim charges
//                                                    morsels to the simulated
//                                                    clock in fixed order
//                                                    (deterministic reports);
//                                                    native runs them on the
//                                                    TaskPool's real threads
//   --workers=N      (or CLOUDIQ_EXEC_WORKERS=N)     worker count per query
// Defaults reproduce the seed exactly: sim mode, one worker.
struct ExecFlags {
  ExecMode mode = ExecMode::kSim;
  int workers = 1;
};

inline ExecFlags& Exec() {
  static ExecFlags flags;
  return flags;
}

// Stamps the shared executor mode into a database's options, like WithNdp.
inline Database::Options WithExec(Database::Options options) {
  options.exec_mode = Exec().mode;
  options.exec_workers = Exec().workers;
  return options;
}

// Parses the toggles above from argv + environment. Call from main()
// before the bench body; unknown arguments are left alone.
inline void InitTelemetry(int argc, char** argv) {
  TelemetryOptions& options = Telemetry();
  if (argc > 0 && argv[0] != nullptr) {
    const char* slash = std::strrchr(argv[0], '/');
    options.bench_name = slash != nullptr ? slash + 1 : argv[0];
  }
  const char* env_metrics = std::getenv("CLOUDIQ_METRICS");
  if (env_metrics != nullptr && env_metrics[0] != '\0' &&
      std::strcmp(env_metrics, "0") != 0) {
    options.print_metrics = true;
  }
  const char* env_explain = std::getenv("CLOUDIQ_EXPLAIN");
  if (env_explain != nullptr && env_explain[0] != '\0' &&
      std::strcmp(env_explain, "0") != 0) {
    options.print_explain = true;
  }
  const char* env_profile = std::getenv("CLOUDIQ_PROFILE");
  if (env_profile != nullptr && env_profile[0] != '\0' &&
      std::strcmp(env_profile, "0") != 0) {
    options.profile = true;
  }
  const char* env_whatif = std::getenv("CLOUDIQ_WHATIF");
  if (env_whatif != nullptr && env_whatif[0] != '\0' &&
      std::strcmp(env_whatif, "0") != 0) {
    options.print_whatif = true;
  }
  const char* env_trace = std::getenv("CLOUDIQ_TRACE");
  if (env_trace != nullptr && env_trace[0] != '\0') {
    options.trace_path = env_trace;
  }
  const char* env_report = std::getenv("CLOUDIQ_REPORT");
  if (env_report != nullptr && env_report[0] != '\0') {
    options.report_path = env_report;
  }
  WorkloadFlags& workload = Workload();
  const char* env_tenants = std::getenv("CLOUDIQ_TENANTS");
  if (env_tenants != nullptr && env_tenants[0] != '\0') {
    workload.tenants = std::atoi(env_tenants);
  }
  const char* env_arrival = std::getenv("CLOUDIQ_ARRIVAL");
  if (env_arrival != nullptr && env_arrival[0] != '\0') {
    workload.arrival = std::atof(env_arrival);
  }
  const char* env_concurrency = std::getenv("CLOUDIQ_CONCURRENCY");
  if (env_concurrency != nullptr && env_concurrency[0] != '\0') {
    workload.concurrency = std::atoi(env_concurrency);
  }
  const char* env_ndp = std::getenv("CLOUDIQ_NDP");
  if (env_ndp != nullptr && env_ndp[0] != '\0') {
    Result<ndp::NdpMode> mode = ndp::ParseNdpMode(env_ndp);
    if (mode.ok()) {
      NdpFlag() = mode.value();
    } else {
      std::fprintf(stderr, "ignoring CLOUDIQ_NDP=%s (want off|on|auto)\n",
                   env_ndp);
    }
  }
  ExecFlags& exec = Exec();
  const char* env_exec = std::getenv("CLOUDIQ_EXEC");
  if (env_exec != nullptr && env_exec[0] != '\0') {
    if (!ParseExecMode(env_exec, &exec.mode)) {
      std::fprintf(stderr, "ignoring CLOUDIQ_EXEC=%s (want sim|native)\n",
                   env_exec);
    }
  }
  const char* env_workers = std::getenv("CLOUDIQ_EXEC_WORKERS");
  if (env_workers != nullptr && env_workers[0] != '\0') {
    int workers = std::atoi(env_workers);
    if (workers > 0) exec.workers = workers;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      options.print_metrics = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      options.print_explain = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      options.profile = true;
    } else if (std::strcmp(argv[i], "--whatif") == 0) {
      options.print_whatif = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      options.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
      options.report_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      workload.tenants = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--arrival=", 10) == 0) {
      workload.arrival = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--concurrency=", 14) == 0) {
      workload.concurrency = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--ndp=", 6) == 0) {
      Result<ndp::NdpMode> mode = ndp::ParseNdpMode(argv[i] + 6);
      if (mode.ok()) {
        NdpFlag() = mode.value();
      } else {
        std::fprintf(stderr, "ignoring %s (want --ndp=off|on|auto)\n",
                     argv[i]);
      }
    } else if (std::strncmp(argv[i], "--exec=", 7) == 0) {
      if (!ParseExecMode(argv[i] + 7, &exec.mode)) {
        std::fprintf(stderr, "ignoring %s (want --exec=sim|native)\n",
                     argv[i]);
      }
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      int workers = std::atoi(argv[i] + 10);
      if (workers > 0) exec.workers = workers;
    }
  }
}

// Switches the tracer on for `env` when --trace was given. The overload
// taking a Database is a convenience for the common single-node benches;
// multiplex benches pass any node's env (all nodes share one environment).
inline void MaybeEnableTracing(SimEnvironment* env) {
  if (!Telemetry().trace_path.empty()) {
    env->telemetry().tracer().set_enabled(true);
  }
}

inline void MaybeEnableTracing(Database* db) {
  MaybeEnableTracing(&db->env());
}

inline void MaybeWriteTrace(SimEnvironment* env) {
  const TelemetryOptions& options = Telemetry();
  if (options.trace_path.empty()) return;
  Status st = TraceExporter::WriteChromeTrace(env->telemetry().tracer(),
                                              options.trace_path);
  if (st.ok()) {
    std::printf("trace written to %s\n", options.trace_path.c_str());
  } else {
    std::printf("trace export failed: %s\n", st.ToString().c_str());
  }
}

// Process-wide accumulator of predicted-vs-billed accuracy across every
// query the shared harness ran: what the costopt.prediction_error gauge
// in --report is computed from.
inline costopt::PredictionAccuracy& PredictionStats() {
  static costopt::PredictionAccuracy acc;
  return acc;
}

// Publishes the accumulated prediction accuracy as costopt.* gauges so
// it rides into the JSON run report with the rest of the registry. A
// no-op until some query actually planned with the cost model, so
// benches that never consider pushdown keep their report shape.
inline void PublishPredictionStats(SimEnvironment* env) {
  const costopt::PredictionAccuracy& acc = PredictionStats();
  if (acc.scans == 0) return;
  StatsRegistry& stats = env->telemetry().stats();
  stats.gauge("costopt.whatif_scans").Set(static_cast<double>(acc.scans));
  stats.gauge("costopt.predicted_usd").Set(acc.predicted_usd);
  stats.gauge("costopt.billed_usd").Set(acc.billed_usd);
  stats.gauge("costopt.prediction_error").Set(acc.RelativeError());
}

// Writes the structured JSON run report when --report was given.
// `sim_seconds` is the run's simulated end time (0 when no single node
// clock is authoritative).
inline void MaybeWriteReport(SimEnvironment* env, double sim_seconds) {
  const TelemetryOptions& options = Telemetry();
  if (options.report_path.empty()) return;
  PublishPredictionStats(env);
  RunReportInfo info;
  info.bench = options.bench_name;
  info.scale_factor = options.scale_factor;
  info.sim_seconds = sim_seconds;
  info.storage_usd_month = env->telemetry().ledger().prices().S3MonthlyUsd(
      env->object_store().LiveBytes() / 1e9);
  Status st = WriteRunReport(info, env->telemetry().stats(),
                             env->telemetry().ledger(),
                             env->telemetry().profiler(),
                             options.report_path);
  if (st.ok()) {
    std::printf("report written to %s\n", options.report_path.c_str());
  } else {
    std::printf("report export failed: %s\n", st.ToString().c_str());
  }
}

// Prints the wait-state stall profile when --profile is on: per-class
// totals over the whole run, then the queries with the most wait time.
// The mutex-contention line is real wall-clock scheduling (OS-dependent)
// and is deliberately stdout-only — it never enters the deterministic
// JSON report.
inline void MaybePrintStallTop(SimEnvironment* env) {
  if (!Telemetry().profile) return;
  const StallProfiler& profiler = env->telemetry().profiler();
  const CostLedger& ledger = env->telemetry().ledger();
  StallProfiler::Entry total = profiler.GrandTotal();
  double fg = (total.TotalNanos() - total.background) / 1e9;
  double bg = total.background / 1e9;
  std::printf("wait-state profile (foreground %.6fs, background %.6fs)\n",
              fg, bg);
  std::vector<int> order(kNumWaitClasses);
  for (int i = 0; i < kNumWaitClasses; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&total](int a, int b) {
    if (total.ns[a] != total.ns[b]) return total.ns[a] > total.ns[b];
    return a < b;
  });
  int64_t grand = total.TotalNanos();
  for (int cls : order) {
    if (total.ns[cls] == 0) continue;
    std::printf("  %-18s %12.6fs  %5.1f%%\n",
                WaitClassName(static_cast<WaitClass>(cls)),
                total.ns[cls] / 1e9,
                grand > 0 ? 100.0 * total.ns[cls] / grand : 0.0);
  }
  // Queries ranked by time spent not executing (everything but kCpuExec).
  struct QueryRow {
    uint64_t id;
    std::string tag;
    StallProfiler::Entry entry;
    int64_t WaitNanos() const {
      return entry.TotalNanos() - entry.ns[0];  // minus kCpuExec
    }
  };
  std::vector<QueryRow> rows;
  for (const auto& [id, tag] : ledger.Queries()) {
    QueryRow row{id, tag, profiler.QueryTotal(id)};
    if (row.entry.TotalNanos() > 0) rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const QueryRow& a,
                                         const QueryRow& b) {
    if (a.WaitNanos() != b.WaitNanos()) return a.WaitNanos() > b.WaitNanos();
    return a.id < b.id;
  });
  size_t shown = std::min<size_t>(rows.size(), 10);
  if (shown > 0) std::printf("top queries by wait time:\n");
  for (size_t i = 0; i < shown; ++i) {
    const QueryRow& row = rows[i];
    std::printf("  q%-5llu %-12s total %10.6fs  wait %10.6fs",
                static_cast<unsigned long long>(row.id), row.tag.c_str(),
                row.entry.TotalNanos() / 1e9, row.WaitNanos() / 1e9);
    // The two heaviest wait classes, as "class share%".
    std::vector<int> top(kNumWaitClasses);
    for (int c = 0; c < kNumWaitClasses; ++c) top[c] = c;
    std::sort(top.begin(), top.end(), [&row](int a, int b) {
      if (row.entry.ns[a] != row.entry.ns[b]) {
        return row.entry.ns[a] > row.entry.ns[b];
      }
      return a < b;
    });
    int64_t qtotal = row.entry.TotalNanos();
    for (int c = 0; c < 2 && row.entry.ns[top[c]] > 0; ++c) {
      std::printf("  %s %.1f%%", WaitClassName(static_cast<WaitClass>(top[c])),
                  100.0 * row.entry.ns[top[c]] / qtotal);
    }
    std::printf("\n");
  }
  std::printf(
      "mutex contention (wall-clock, nondeterministic): %llu contended "
      "acquires\n",
      static_cast<unsigned long long>(
          MutexContentionCounter().load(std::memory_order_relaxed)));
}

// Prints the metrics report and/or exports the Chrome trace and JSON run
// report, as toggled. The env-only overload serves benches that drive
// storage layers without a Database facade: it prints the registry's
// percentile report instead of the full FormatMetrics dump.
inline void MaybeReportTelemetry(Database* db) {
  if (Telemetry().print_metrics) {
    std::printf("%s", FormatMetrics(CollectMetrics(db)).c_str());
  }
  MaybePrintStallTop(&db->env());
  MaybeWriteTrace(&db->env());
  MaybeWriteReport(&db->env(), db->node().clock().now());
}

inline void MaybeReportTelemetry(SimEnvironment* env) {
  if (Telemetry().print_metrics) {
    std::printf("%s",
                TraceExporter::PercentileReport(env->telemetry().stats())
                    .c_str());
  }
  MaybePrintStallTop(env);
  MaybeWriteTrace(env);
  MaybeWriteReport(env, /*sim_seconds=*/0);
}

// Bills `seconds` of this node's instance time to `who` in the cost
// ledger, at the node's hourly rate.
inline void ChargePhase(Database* db, const AttributionContext& who,
                        double seconds) {
  db->env().telemetry().ledger().ChargeCompute(
      who, seconds, db->node().profile().hourly_usd);
}

// Default scale factor for the reproduction benches. The paper ran SF
// 1000 on real AWS hardware; the simulator reproduces the *shape* of the
// results (who wins, by what factor, where crossovers fall) at a scale
// that keeps each bench binary in the seconds range on a laptop. Override
// with the CLOUDIQ_BENCH_SF environment variable.
inline double BenchScale(double fallback = 0.01) {
  const char* env = std::getenv("CLOUDIQ_BENCH_SF");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

struct PowerRunResult {
  double load_seconds = 0;
  std::array<double, kTpchQueryCount> query_seconds{};
  uint64_t bytes_at_rest = 0;
  uint64_t input_bytes = 0;

  double QuerySum() const {
    double total = 0;
    for (double q : query_seconds) total += q;
    return total;
  }
  double QueryGeoMean() const {
    double log_sum = 0;
    for (double q : query_seconds) log_sum += std::log(std::max(q, 1e-9));
    return std::exp(log_sum / kTpchQueryCount);
  }
  double TotalSeconds() const { return load_seconds + QuerySum(); }
};

// Runs one TPC-H query under full attribution: the query id and tag are
// assigned by NewQueryContext, the whole Begin..Commit window executes
// inside the query's ledger scope (so commit flushes and OCM promotions
// are charged to it), and the query's simulated duration is billed as EC2
// time. Prints EXPLAIN ANALYZE when --explain is on.
inline Status RunOneTpchQuery(Database* db, int q, double* seconds) {
  SimTime before = db->node().clock().now();
  Transaction* txn = db->Begin();
  QueryContext ctx = db->NewQueryContext(txn, "Q" + std::to_string(q));
  {
    ScopedQueryAttribution scope(&ctx);
    // Query-level stall scope, like the workload engine opens around a
    // job body: operator scopes nest inside, and the query's wait-class
    // sum equals its sim duration exactly.
    StallProfiler& profiler = db->env().telemetry().profiler();
    ScopedStall stall(&profiler, &db->node().clock(), WaitClass::kCpuExec);
    profiler.PinScopeAttribution();
    CLOUDIQ_RETURN_IF_ERROR(RunTpchQuery(&ctx, q).status());
    CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
  }
  *seconds = db->node().clock().now() - before;
  ChargePhase(db, ctx.attribution(), *seconds);
  db->env().telemetry().tracer().CompleteSpan(
      db->node().trace_pid(), kTrackExec, "query", "Q" + std::to_string(q),
      before, db->node().clock().now());
  // Score the planner's predictions against what the ledger billed this
  // query (nothing to score when no scan consulted the cost model).
  const CostLedger& ledger = db->env().telemetry().ledger();
  PredictionStats().Fold(costopt::ComparePredictions(
      ctx.whatif(), ledger.entries(), ctx.attribution().query_id,
      ledger.prices()));
  if (Telemetry().print_explain) {
    std::printf("%s", FormatExplainAnalyze(&ctx).c_str());
  }
  if (Telemetry().print_whatif && !ctx.whatif().empty()) {
    std::printf("%s", FormatExplainWhatIf(&ctx).c_str());
  }
  return Status::Ok();
}

// Loads TPC-H into `db` and runs the 22 queries sequentially ("power
// mode"), measuring simulated seconds for each phase.
inline Result<PowerRunResult> RunPower(Database* db, TpchGenerator* gen,
                                       size_t partitions = 8) {
  MaybeEnableTracing(db);
  Tracer& tracer = db->env().telemetry().tracer();
  CostLedger& ledger = db->env().telemetry().ledger();
  PowerRunResult result;
  TpchLoadOptions load_options;
  load_options.partitions = partitions;
  SimTime load_start = db->node().clock().now();
  // The load is attributed like a query of its own, tagged "load".
  AttributionContext load_attr;
  load_attr.query_id = ledger.NextQueryId();
  load_attr.node_id = db->node().trace_pid();
  load_attr.tag = "load";
  {
    ScopedAttribution scope(&ledger, load_attr);
    StallProfiler& profiler = db->env().telemetry().profiler();
    ScopedStall stall(&profiler, &db->node().clock(), WaitClass::kCpuExec);
    profiler.PinScopeAttribution();
    CLOUDIQ_ASSIGN_OR_RETURN(TpchLoadResult load,
                             LoadTpch(db, gen, load_options));
    result.load_seconds = load.seconds;
    result.bytes_at_rest = load.bytes_at_rest;
    result.input_bytes = load.input_bytes;
  }
  ChargePhase(db, load_attr, result.load_seconds);
  tracer.CompleteSpan(db->node().trace_pid(), kTrackExec, "query",
                      "load TPC-H", load_start, db->node().clock().now());

  for (int q = 1; q <= kTpchQueryCount; ++q) {
    CLOUDIQ_RETURN_IF_ERROR(
        RunOneTpchQuery(db, q, &result.query_seconds[q - 1]));
  }
  MaybeReportTelemetry(db);
  return result;
}

// Runs the 22 queries only (the database must already be loaded).
inline Result<std::array<double, kTpchQueryCount>> RunQueriesOnly(
    Database* db) {
  MaybeEnableTracing(db);
  std::array<double, kTpchQueryCount> times{};
  for (int q = 1; q <= kTpchQueryCount; ++q) {
    CLOUDIQ_RETURN_IF_ERROR(RunOneTpchQuery(db, q, &times[q - 1]));
  }
  MaybeReportTelemetry(db);
  return times;
}

inline const char* StorageName(UserStorage storage) {
  switch (storage) {
    case UserStorage::kObjectStore: return "AWS S3";
    case UserStorage::kEbs: return "AWS EBS";
    case UserStorage::kEfs: return "AWS EFS";
  }
  return "?";
}

inline void PrintQueryRow(const char* label,
                          const PowerRunResult& result) {
  std::printf("%-8s load=%9.1f |", label, result.load_seconds);
  for (int q = 0; q < kTpchQueryCount; ++q) {
    std::printf(" Q%d=%.1f", q + 1, result.query_seconds[q]);
  }
  std::printf("\n");
}

inline void Hr() {
  std::printf(
      "--------------------------------------------------------------\n");
}

}  // namespace bench
}  // namespace cloudiq

#endif  // CLOUDIQ_BENCH_BENCH_UTIL_H_

// Runs the full workload of the paper's first experiment end to end at a
// laptop-friendly scale factor: generate and load TPC-H into a cloud
// dbspace, then execute the 22 queries sequentially in power mode,
// printing timings, the storage/cost ledger, and the per-query
// attribution summary.
//
//   ./build/examples/tpch_power_run          # SF 0.02
//   CLOUDIQ_BENCH_SF=0.1 ./build/examples/tpch_power_run
//   ./build/examples/tpch_power_run --explain
//     (per-operator EXPLAIN ANALYZE after every query: rows, sim-time,
//      object-store requests, OCM hit rate, and USD per operator)
//   ./build/examples/tpch_power_run --report=power.report.json
//     (structured JSON run report: global cost, the attribution ledger
//      by query/node/prefix, and latency percentiles)
//   ./build/examples/tpch_power_run --trace=power.trace.json
//     (then open power.trace.json in chrome://tracing or
//      https://ui.perfetto.dev to see per-layer spans on the sim
//      timeline)

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "tpch/queries.h"
#include "tpch/tpch_loader.h"

using namespace cloudiq;

int main(int argc, char** argv) {
  bench::InitTelemetry(argc, argv);
  double scale = bench::BenchScale(0.02);
  bench::Telemetry().scale_factor = scale;

  SimEnvironment cloud;
  bench::MaybeEnableTracing(&cloud);
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  Database db(&cloud, InstanceProfile::M5ad24xlarge(), options);
  TpchGenerator gen(scale);
  CostLedger& ledger = cloud.telemetry().ledger();

  std::printf("Loading TPC-H SF=%g into a cloud dbspace "
              "(m5ad.24xlarge)...\n",
              scale);
  AttributionContext load_attr;
  load_attr.query_id = ledger.NextQueryId();
  load_attr.node_id = db.node().trace_pid();
  load_attr.tag = "load";
  SimTime load_start = db.node().clock().now();
  Result<TpchLoadResult> load = [&] {
    ScopedAttribution scope(&ledger, load_attr);
    return LoadTpch(&db, &gen, {});
  }();
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 load.status().ToString().c_str());
    return 1;
  }
  bench::ChargePhase(&db, load_attr, load->seconds);
  cloud.telemetry().tracer().CompleteSpan(
      db.node().trace_pid(), kTrackExec, "query", "load TPC-H", load_start,
      db.node().clock().now());
  std::printf("  %llu rows in %.1f simulated s; %.1f MB raw -> %.1f MB at "
              "rest (%.2fx compression)\n\n",
              static_cast<unsigned long long>(load->rows), load->seconds,
              load->input_bytes / 1e6, load->bytes_at_rest / 1e6,
              static_cast<double>(load->input_bytes) /
                  load->bytes_at_rest);

  std::printf("%-4s %9s %11s   %s\n", "Q", "sim (s)", "ledger ($)",
              "workload shape");
  double total = 0;
  uint64_t first_query_id = 0;
  for (int q = 1; q <= kTpchQueryCount; ++q) {
    double elapsed = 0;
    Status st = bench::RunOneTpchQuery(&db, q, &elapsed);
    if (!st.ok()) {
      std::fprintf(stderr, "Q%d failed: %s\n", q, st.ToString().c_str());
      return 1;
    }
    total += elapsed;
    // Query ids are dense, handed out by NewQueryContext in run order.
    uint64_t query_id = ledger.last_query_id();
    if (first_query_id == 0) first_query_id = query_id;
    CostLedger::Entry entry = ledger.QueryTotal(query_id);
    std::printf("Q%-3d %9.3f %11.6f   %s\n", q, elapsed,
                entry.TotalUsd(ledger.prices()), TpchQueryDescription(q));
  }
  std::printf("\nPower run total: %.1f simulated seconds "
              "(load %.1f + queries %.1f)\n",
              load->seconds + total, load->seconds, total);
  std::printf("\n%s", FormatMetrics(CollectMetrics(&db)).c_str());

  // The acceptance check of the attribution design: every dollar the
  // ledger billed belongs to some query (the load counts as one), so the
  // per-query totals sum to the grand total.
  double ledger_usd = ledger.GrandTotal().TotalUsd(ledger.prices());
  double per_query_usd = 0;
  for (const auto& [id, tag] : ledger.Queries()) {
    per_query_usd += ledger.QueryTotal(id).TotalUsd(ledger.prices());
  }
  std::printf("\nattribution: ledger total $%.6f across %zu queries, "
              "per-query sum $%.6f (%s)\n",
              ledger_usd, ledger.Queries().size(), per_query_usd,
              std::fabs(ledger_usd - per_query_usd) < 1e-6 ? "match"
                                                           : "MISMATCH");
  bench::MaybePrintStallTop(&cloud);
  bench::MaybeWriteTrace(&cloud);
  bench::MaybeWriteReport(&cloud, db.node().clock().now());
  return 0;
}

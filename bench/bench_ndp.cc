// Near-data processing crossover: runs Q1/Q6-shaped lineitem scans and a
// join-heavy case with pushdown off / on / auto, sweeping predicate
// selectivity and projection width, and reports bytes moved over the
// NIC, server-side scan volume, simulated latency, and $ per query.
//
// The interesting outputs:
//   - the >= 5x reduction in NIC bytes on the high-selectivity Q6-style
//     scan with NDP on (the subsystem's headline claim);
//   - the crossover: auto mode lets the cost model pick each scan's side,
//     so on every case its request dollars (what the policy minimises)
//     are no more than the cheaper of the measured off and on runs'.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "tpch/queries_internal.h"

namespace cloudiq {
namespace bench {
namespace {

using tpch_internal::D;

struct ScanCase {
  const char* name;
  std::vector<std::string> columns;  // projected columns
  int64_t lo, hi;                    // l_shipdate range
  bool join;  // also scan orders (no range) and hash-join on l_orderkey
};

// TPC-H ship dates span 1992..1998. The sweep moves selectivity from
// ~1% (one month) to ~85% (six years) and projection width from 2 to 7
// columns; the join case adds a full orders scan and a hash join.
std::vector<ScanCase> Cases() {
  return {
      {"q6_month",
       {"l_extendedprice", "l_discount"},
       D(1994, 1, 1), D(1994, 2, 1) - 1, false},
      {"q6_year",
       {"l_extendedprice", "l_discount"},
       D(1994, 1, 1), D(1995, 1, 1) - 1, false},
      {"q1_wide",
       {"l_extendedprice", "l_discount", "l_quantity", "l_tax",
        "l_returnflag", "l_linestatus", "l_shipdate"},
       D(1994, 1, 1), D(1995, 1, 1) - 1, false},
      {"scan_low_sel",
       {"l_extendedprice", "l_discount", "l_quantity", "l_shipdate"},
       D(1992, 1, 1), D(1998, 1, 1) - 1, false},
      {"join_heavy",
       {"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"},
       D(1992, 1, 1), D(1998, 1, 1) - 1, true},
  };
}

struct CaseResult {
  double seconds = 0;
  uint64_t nic_bytes = 0;   // NIC bytes moved by the query (up + down)
  uint64_t scanned = 0;     // server-side bytes scanned (NDP only)
  uint64_t returned = 0;    // SELECT result bytes (NDP only)
  double usd = 0;           // full query cost: requests + EC2 time
  double request_usd = 0;   // the storage-request share of usd
  double select_p50 = 0;    // store-side SELECT latency (NDP only)
  double select_p95 = 0;
  uint64_t rows = 0;
  double checksum = 0;      // sum(l_extendedprice), result-equality check
  bool pushed = false;      // at least one scan went server-side
};

Result<CaseResult> RunCase(Database* db, const ScanCase& c) {
  CaseResult out;
  auto& stats = db->env().telemetry().stats();
  CostLedger& ledger = db->env().telemetry().ledger();
  uint64_t nic_before = db->node().nic().total_bytes();
  uint64_t scanned_before = stats.counter("ndp.bytes_scanned").value();
  uint64_t returned_before = stats.counter("ndp.bytes_returned").value();
  uint64_t pushed_before = stats.counter("ndp.pushdown_scans").value();
  SimTime before = db->node().clock().now();

  Transaction* txn = db->Begin();
  QueryContext ctx = db->NewQueryContext(txn, c.name);
  {
    ScopedQueryAttribution scope(&ctx);
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem,
                             ctx.OpenTable(kLineitem));
    CLOUDIQ_ASSIGN_OR_RETURN(
        Batch items, ScanTable(&ctx, &lineitem, c.columns,
                               ScanRange{"l_shipdate", c.lo, c.hi}));
    if (c.join) {
      CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx.OpenTable(kOrders));
      CLOUDIQ_ASSIGN_OR_RETURN(
          Batch ord,
          ScanTable(&ctx, &orders, {"o_orderkey", "o_custkey"}));
      CLOUDIQ_ASSIGN_OR_RETURN(
          items, HashJoin(&ctx, items, "l_orderkey", ord, "o_orderkey",
                          JoinType::kInner));
    }
    out.rows = items.rows();
    const ColumnVector& price = items.columns[items.Col("l_extendedprice")];
    for (int64_t v : price.ints) out.checksum += static_cast<double>(v);
    CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
  }
  out.seconds = db->node().clock().now() - before;
  ChargePhase(db, ctx.attribution(), out.seconds);
  out.nic_bytes = db->node().nic().total_bytes() - nic_before;
  out.scanned = stats.counter("ndp.bytes_scanned").value() - scanned_before;
  out.returned =
      stats.counter("ndp.bytes_returned").value() - returned_before;
  out.pushed =
      stats.counter("ndp.pushdown_scans").value() > pushed_before;
  // Each case runs in a fresh environment, so the whole histogram is
  // this query's SELECTs (empty when the scan pulled).
  const Histogram& select_latency = stats.histogram("s3.select");
  out.select_p50 = select_latency.p50();
  out.select_p95 = select_latency.p95();
  const auto total = ledger.QueryTotal(ctx.attribution().query_id);
  out.usd = total.TotalUsd(ledger.prices());
  out.request_usd = total.RequestUsd(ledger.prices());
  if (Telemetry().print_explain) {
    std::printf("%s", FormatExplainAnalyze(&ctx).c_str());
  }
  return out;
}

// One mode's sweep. Every case gets a fresh environment + database, so
// each query runs cold (no cross-case buffer warm-up distorting the
// bytes-moved comparison); the last case's environment is kept alive to
// host the report gauges.
struct ModeRun {
  std::unique_ptr<SimEnvironment> env;
  std::unique_ptr<Database> db;
  std::vector<CaseResult> results;
  double nic_peak_gbps = 0;
};

Result<ModeRun> RunMode(ndp::NdpMode mode, double scale) {
  ModeRun run;
  for (const ScanCase& c : Cases()) {
    run.db.reset();  // db before env: it holds pointers into it
    run.env = std::make_unique<SimEnvironment>();
    Database::Options options;
    options.user_storage = UserStorage::kObjectStore;
    // Fair NIC comparison: no OCM layer, and a buffer cache far below
    // the working set, so the pull path fetches pages from the store
    // just like the paper's larger-than-RAM regime.
    options.enable_ocm = false;
    options.buffer_capacity_override =
        static_cast<uint64_t>(scale * 0.8e9 * 0.15);
    options.ndp_mode = mode;
    run.db = std::make_unique<Database>(run.env.get(),
                                        InstanceProfile::M5ad4xlarge(),
                                        options);
    MaybeEnableTracing(run.db.get());
    TpchGenerator gen(scale);
    CLOUDIQ_RETURN_IF_ERROR(LoadTpch(run.db.get(), &gen, {}).status());
    // The NIC trace (and total-bytes counter) starts after the load so
    // the per-query numbers are not swamped by the one-time upload.
    run.db->node().nic().set_trace_resolution(0.05);
    run.db->node().nic().ResetTrace();
    CLOUDIQ_ASSIGN_OR_RETURN(CaseResult r, RunCase(run.db.get(), c));
    run.results.push_back(r);
    const std::vector<double>& trace = run.db->node().nic().trace();
    double res = run.db->node().nic().trace_resolution();
    for (double bytes : trace) {
      run.nic_peak_gbps =
          std::max(run.nic_peak_gbps, bytes / res * 8 / 1e9);
    }
  }
  return run;
}

int Main() {
  double scale = BenchScale(0.01);
  Telemetry().scale_factor = scale;
  std::printf("=== Near-data processing: pushdown crossover (SF=%g, "
              "m5ad.4xlarge, OCM off) ===\n\n",
              scale);

  const ndp::NdpMode modes[] = {ndp::NdpMode::kOff, ndp::NdpMode::kOn,
                                ndp::NdpMode::kAuto};
  std::vector<ModeRun> runs;
  for (ndp::NdpMode mode : modes) {
    Result<ModeRun> r = RunMode(mode, scale);
    if (!r.ok()) {
      std::printf("mode %s failed: %s\n", ndp::NdpModeName(mode),
                  r.status().ToString().c_str());
      return 1;
    }
    runs.push_back(std::move(r.value()));
  }

  std::vector<ScanCase> cases = Cases();
  std::printf("%-13s %-5s %5s %12s %12s %12s %9s %11s\n", "case", "mode",
              "push", "nic_bytes", "scanned", "returned", "sim_s",
              "usd/query");
  bool results_match = true;
  for (size_t c = 0; c < cases.size(); ++c) {
    for (size_t m = 0; m < runs.size(); ++m) {
      const CaseResult& r = runs[m].results[c];
      std::printf("%-13s %-5s %5s %12llu %12llu %12llu %9.4f %11.6f\n",
                  cases[c].name, ndp::NdpModeName(modes[m]),
                  r.pushed ? "yes" : "no",
                  static_cast<unsigned long long>(r.nic_bytes),
                  static_cast<unsigned long long>(r.scanned),
                  static_cast<unsigned long long>(r.returned), r.seconds,
                  r.usd);
      if (r.rows != runs[0].results[c].rows ||
          std::abs(r.checksum - runs[0].results[c].checksum) > 1e-6) {
        results_match = false;
      }
    }
    Hr();
  }
  for (size_t m = 0; m < runs.size(); ++m) {
    std::printf("peak NIC bandwidth (%s): %.2f Gb/s\n",
                ndp::NdpModeName(modes[m]), runs[m].nic_peak_gbps);
  }

  // Headline checks. q6_month is the high-selectivity Q6-style scan.
  const CaseResult& off_q6 = runs[0].results[0];
  const CaseResult& on_q6 = runs[1].results[0];
  double ratio = on_q6.nic_bytes > 0
                     ? static_cast<double>(off_q6.nic_bytes) /
                           static_cast<double>(on_q6.nic_bytes)
                     : 0;
  bool auto_cheapest = true;
  for (size_t c = 0; c < cases.size(); ++c) {
    double cheaper = std::min(runs[0].results[c].request_usd,
                              runs[1].results[c].request_usd);
    if (runs[2].results[c].request_usd > cheaper) auto_cheapest = false;
  }
  std::printf("\nNIC bytes q6_month, off vs on: %.1fx reduction "
              "(>= 5x wanted) -> %s\n",
              ratio, ratio >= 5.0 ? "YES" : "NO");
  std::printf("auto's request USD is no more than the cheaper of off "
              "and on, every case: %s\n",
              auto_cheapest ? "YES" : "NO");
  std::printf("results identical across modes: %s\n",
              results_match ? "YES" : "NO");

  // Crossover table into the (auto-mode) run report: deterministic gauge
  // names and values, so double runs byte-compare.
  auto& stats = runs.back().db->env().telemetry().stats();
  for (size_t c = 0; c < cases.size(); ++c) {
    for (size_t m = 0; m < runs.size(); ++m) {
      const CaseResult& r = runs[m].results[c];
      std::string prefix = std::string("ndp.bench.") + cases[c].name + "." +
                           ndp::NdpModeName(modes[m]);
      stats.gauge(prefix + ".nic_bytes")
          .Set(static_cast<double>(r.nic_bytes));
      stats.gauge(prefix + ".bytes_scanned")
          .Set(static_cast<double>(r.scanned));
      stats.gauge(prefix + ".bytes_returned")
          .Set(static_cast<double>(r.returned));
      stats.gauge(prefix + ".sim_seconds").Set(r.seconds);
      stats.gauge(prefix + ".usd").Set(r.usd);
      stats.gauge(prefix + ".select_p50").Set(r.select_p50);
      stats.gauge(prefix + ".select_p95").Set(r.select_p95);
      stats.gauge(prefix + ".pushed").Set(r.pushed ? 1 : 0);
    }
  }
  for (size_t m = 0; m < runs.size(); ++m) {
    stats.gauge(std::string("ndp.bench.nic_peak_gbps.") +
                ndp::NdpModeName(modes[m]))
        .Set(runs[m].nic_peak_gbps);
  }
  MaybeWriteTrace(&runs.back().db->env());
  MaybeWriteReport(&runs.back().db->env(),
                   runs.back().db->node().clock().now());
  bool ok = ratio >= 5.0 && auto_cheapest && results_match;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace cloudiq

int main(int argc, char** argv) {
  cloudiq::bench::InitTelemetry(argc, argv);
  return cloudiq::bench::Main();
}

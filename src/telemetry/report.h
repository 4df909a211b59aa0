#ifndef CLOUDIQ_TELEMETRY_REPORT_H_
#define CLOUDIQ_TELEMETRY_REPORT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "telemetry/attribution.h"
#include "telemetry/stall_profiler.h"
#include "telemetry/stats.h"

namespace cloudiq {

// Run-level facts the harness folds into the report alongside the
// ledger, which carries every request and compute dollar itself.
struct RunReportInfo {
  std::string bench;        // binary name, e.g. "tpch_power_run"
  double scale_factor = 0;  // TPC-H SF the run used (0 = not applicable)
  double sim_seconds = 0;   // simulated end time of the run
  double storage_usd_month = 0;  // live object-store bytes priced at rest
};

// Builds the structured run report: run cost, the attribution ledger
// broken down by query / node / key prefix (the throttle heatmap), the
// ledger's wait-class breakdown with the stall profiler's window tallies
// (integer nanoseconds, so the conservation invariant survives
// serialization exactly), and every StatsRegistry instrument. Top-level keys:
//   schema_version, bench, cost, queries, nodes, tenants, stalls,
//   prefixes, histograms, counters, gauges
std::string BuildRunReportJson(const RunReportInfo& info,
                               const StatsRegistry& stats,
                               const CostLedger& ledger,
                               const StallProfiler& profiler);

// Convenience: build + write to `path`.
Status WriteRunReport(const RunReportInfo& info, const StatsRegistry& stats,
                      const CostLedger& ledger,
                      const StallProfiler& profiler, const std::string& path);

}  // namespace cloudiq

#endif  // CLOUDIQ_TELEMETRY_REPORT_H_

#include "exec/explain.h"

#include <cstdio>

#include "telemetry/attribution.h"

namespace cloudiq {

namespace {

// The operator's heaviest wait class other than kCpuExec ("-" when the
// operator never waited).
const char* TopWaitName(const CostLedger::Waits& e) {
  int best = -1;
  for (int i = 1; i < kNumWaitClasses; ++i) {
    if (e.ns[i] > 0 && (best < 0 || e.ns[i] > e.ns[best])) best = i;
  }
  return best < 0 ? "-" : WaitClassName(static_cast<WaitClass>(best));
}

}  // namespace

std::string FormatExplainAnalyze(QueryContext* ctx) {
  const CostLedger& ledger = ctx->ledger();
  const CloudPrices& prices = ledger.prices();
  const AttributionContext& attr = ctx->attribution();

  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "=== EXPLAIN ANALYZE %s (query %llu, node %u) ===\n",
                attr.tag.empty() ? "(untagged)" : attr.tag.c_str(),
                static_cast<unsigned long long>(attr.query_id),
                attr.node_id);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "%-3s %-28s %10s %7s %11s %8s %8s %10s %9s %-16s\n", "op",
                "name", "rows", "batches", "sim_s", "s3_reqs", "ocm_hit",
                "usd", "wait_s", "top_wait");
  out += buf;

  const auto entries = ledger.entries();
  const auto& ops = ctx->operators();
  for (size_t id = 0; id < ops.size(); ++id) {
    const QueryContext::OperatorStats& stats = ops[id];
    CostLedger::Entry entry;
    CostLedger::Key key{attr.query_id, static_cast<int32_t>(id),
                        attr.node_id};
    auto it = entries.find(key);
    if (it != entries.end()) entry = it->second;
    const CostLedger::Waits& stall = entry.waits;
    double wait_s =
        (stall.TotalNanos() - stall.ns[static_cast<int>(WaitClass::kCpuExec)]) /
        1e9;
    std::snprintf(buf, sizeof(buf),
                  "%-3zu %-28.28s %10llu %7llu %11.4f %8llu %7.0f%% %10.6f "
                  "%9.4f %-16s\n",
                  id, stats.name.c_str(),
                  static_cast<unsigned long long>(stats.rows),
                  static_cast<unsigned long long>(stats.batches),
                  stats.sim_seconds,
                  static_cast<unsigned long long>(entry.Requests()),
                  entry.OcmHitRate() * 100, entry.TotalUsd(prices), wait_s,
                  TopWaitName(stall));
    out += buf;
  }

  // Query total across operators AND query-level entries (commit-time
  // flushes, background uploads, compute charged by the harness) on every
  // node — the query's share of the ledger's grand total.
  CostLedger::Entry total = ledger.QueryTotal(attr.query_id);
  std::snprintf(buf, sizeof(buf),
                "%-32s %10s %7s %11.4f %8llu %7.0f%% %10.6f\n",
                "total (incl. query-level work)", "", "",
                total.sim_seconds,
                static_cast<unsigned long long>(total.Requests()),
                total.OcmHitRate() * 100, total.TotalUsd(prices));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "    requests: %llu GET / %llu PUT / %llu DELETE / %llu ranged / "
      "%llu HEAD; throttle stalls %llu (%.4f s); retries %llu+%llu\n",
      static_cast<unsigned long long>(total.gets),
      static_cast<unsigned long long>(total.puts),
      static_cast<unsigned long long>(total.deletes),
      static_cast<unsigned long long>(total.ranged_gets),
      static_cast<unsigned long long>(total.heads),
      static_cast<unsigned long long>(total.throttle_events),
      total.throttle_stall_seconds,
      static_cast<unsigned long long>(total.not_found_retries),
      static_cast<unsigned long long>(total.transient_retries));
  out += buf;
  if (total.selects > 0) {
    // Near-data processing: scans evaluated inside the store ("[ndp]"
    // operators above) and the byte asymmetry that justified pushing.
    std::snprintf(
        buf, sizeof(buf),
        "    ndp: %llu SELECT, %llu B scanned in-store -> %llu B returned\n",
        static_cast<unsigned long long>(total.selects),
        static_cast<unsigned long long>(total.select_scanned_bytes),
        static_cast<unsigned long long>(total.select_returned_bytes));
    out += buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "    cost: $%.6f requests + $%.6f EC2 = $%.6f; buffer %llu/%llu "
      "hit/miss, %llu pages flushed\n",
      total.RequestUsd(prices), total.ec2_usd, total.TotalUsd(prices),
      static_cast<unsigned long long>(total.buffer_hits),
      static_cast<unsigned long long>(total.buffer_misses),
      static_cast<unsigned long long>(total.buffer_flush_pages));
  out += buf;

  // Where the query's sim-time went, by wait class (stall profiler).
  // Classes with no time are omitted; the background tail is deferred
  // OCM work the query enqueued but never waited for.
  const CostLedger::Waits& stall_total = total.waits;
  if (stall_total.TotalNanos() > 0) {
    out += "    stalls:";
    for (int i = 0; i < kNumWaitClasses; ++i) {
      if (stall_total.ns[i] == 0) continue;
      std::snprintf(buf, sizeof(buf), " %s %.4fs",
                    WaitClassName(static_cast<WaitClass>(i)),
                    stall_total.ns[i] / 1e9);
      out += buf;
    }
    if (stall_total.background > 0) {
      std::snprintf(buf, sizeof(buf), " (background %.4fs)",
                    stall_total.background / 1e9);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string FormatExplainWhatIf(QueryContext* ctx) {
  const AttributionContext& attr = ctx->attribution();
  std::string out = costopt::FormatWhatIf(
      ctx->whatif(), attr.tag.empty() ? "(untagged)" : attr.tag);
  const CostLedger& ledger = ctx->ledger();
  costopt::PredictionAccuracy acc = costopt::ComparePredictions(
      ctx->whatif(), ledger.entries(), attr.query_id, ledger.prices());
  if (acc.scans > 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "billed request usd: %.6g (abs err %.6g, rel %.3g)\n",
                  acc.billed_usd, acc.abs_error_usd, acc.RelativeError());
    out += buf;
  }
  return out;
}

}  // namespace cloudiq

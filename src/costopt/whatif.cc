#include "costopt/whatif.h"

#include <cmath>
#include <cstdio>

namespace cloudiq {
namespace costopt {
namespace {

void AppendEstimate(std::string* out, const char* kind,
                    const PlanEstimate& est, bool chosen) {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "  %s %-10s %c usd %.6g  lat %.6gs (net %.4g ndp %.4g ocm %.4g "
      "cpu %.4g)  nic %.6g B  cold %llu  %s\n",
      kind, est.name.c_str(), chosen ? '*' : ' ', est.usd,
      est.latency_seconds, est.network_seconds, est.ndp_select_seconds,
      est.ocm_fetch_seconds, est.cpu_seconds, est.nic_bytes,
      static_cast<unsigned long long>(est.cold_pages), est.detail.c_str());
  out->append(buf);
}

}  // namespace

double WhatIfLog::PredictedUsd() const {
  double usd = 0;
  for (const WhatIfScan& scan : scans_) {
    if (scan.chosen >= 0 &&
        scan.chosen < static_cast<int>(scan.candidates.size())) {
      usd += scan.candidates[scan.chosen].usd;
    }
  }
  return usd;
}

PredictionAccuracy ComparePredictions(
    const WhatIfLog& log,
    const std::map<CostLedger::Key, CostLedger::Entry>& entries,
    uint64_t query_id, const CloudPrices& prices) {
  PredictionAccuracy acc;
  for (const WhatIfScan& scan : log.scans()) {
    if (scan.chosen < 0 ||
        scan.chosen >= static_cast<int>(scan.candidates.size())) {
      continue;
    }
    double predicted = scan.candidates[scan.chosen].usd;
    double billed = 0;
    for (const auto& [key, entry] : entries) {
      if (key.query_id == query_id && key.operator_id == scan.op_id) {
        billed += entry.RequestUsd(prices);
      }
    }
    ++acc.scans;
    acc.predicted_usd += predicted;
    acc.billed_usd += billed;
    acc.abs_error_usd += std::fabs(predicted - billed);
  }
  return acc;
}

std::string FormatWhatIf(const WhatIfLog& log, const std::string& label) {
  std::string out = "EXPLAIN WHATIF " + label + "\n";
  if (log.empty()) {
    out += "  (no scan candidates: planner not consulted)\n";
    return out;
  }
  for (const WhatIfScan& scan : log.scans()) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s [op %d] policy=%s\n",
                  scan.op.c_str(), scan.op_id, scan.policy.c_str());
    out += buf;
    for (int i = 0; i < static_cast<int>(scan.candidates.size()); ++i) {
      AppendEstimate(&out, "candidate", scan.candidates[i],
                     i == scan.chosen);
    }
    for (const PlanEstimate& est : scan.placement) {
      AppendEstimate(&out, "placement", est, false);
    }
    out += "  reason: " + scan.reason + "\n";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "predicted request usd: %.6g\n",
                log.PredictedUsd());
  out += buf;
  return out;
}

}  // namespace costopt
}  // namespace cloudiq

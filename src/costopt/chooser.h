#ifndef CLOUDIQ_COSTOPT_CHOOSER_H_
#define CLOUDIQ_COSTOPT_CHOOSER_H_

#include <string>
#include <vector>

#include "costopt/cost_model.h"

namespace cloudiq {
namespace costopt {

// Per-tenant plan-choice policy, wired from Database::Options /
// WorkloadEngine tenant config through QueryContext into the scan
// planner.
enum class PlanPolicy {
  // Cheapest candidate whose predicted latency meets the tenant's SLO
  // (with no SLO, the cheapest of all); if none does, the fastest
  // candidate. Latency breaks cost ties. The default.
  kMinCostUnderSlo,
  // Fastest candidate whose predicted request USD fits the tenant's
  // remaining budget; if none fits, the cheapest candidate.
  kMinLatencyUnderBudget,
};

const char* PolicyName(PlanPolicy policy);

// The chooser's verdict: which candidate, and the deciding estimate
// spelled out — every plan change on cost must be able to cite this in
// EXPLAIN WHATIF / the run report (cloudiq-costopt-evidence).
struct PlanChoice {
  int index = 0;
  std::string reason;
};

// Picks among `candidates` (never empty) under `policy`. `slo_seconds`
// <= 0 means no SLO (every candidate qualifies); `budget_left_usd` < 0
// means unlimited budget. Deterministic: ties break toward the lower
// index, so candidate order (pull first, push second) is part of the
// contract.
PlanChoice ChoosePlan(const std::vector<PlanEstimate>& candidates,
                      PlanPolicy policy, double slo_seconds,
                      double budget_left_usd);

}  // namespace costopt
}  // namespace cloudiq

#endif  // CLOUDIQ_COSTOPT_CHOOSER_H_

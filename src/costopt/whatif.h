#ifndef CLOUDIQ_COSTOPT_WHATIF_H_
#define CLOUDIQ_COSTOPT_WHATIF_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "costopt/cost_model.h"
#include "telemetry/attribution.h"

namespace cloudiq {
namespace costopt {

// One scan's what-if record: every candidate the planner priced, the
// winner, and the deciding estimate. op_id is the dense operator id the
// scan registers right after planning, which is what links a prediction
// to the ledger entry the run actually billed under.
struct WhatIfScan {
  std::string op;     // operator name, e.g. "scan lineitem"
  int op_id = -1;     // QueryContext operator id of the scan
  std::string policy;
  std::vector<PlanEstimate> candidates;  // [0]=pull, [1]=push, ...
  std::vector<PlanEstimate> placement;   // advisory per-node pricing
  int chosen = 0;
  std::string reason;
};

// The per-query decision trail behind EXPLAIN WHATIF: appended at plan
// time, read by the formatter, the prediction-error tracker and tests.
// Lives by value inside QueryContext — single-threaded like the rest of
// the context, no locking.
class WhatIfLog {
 public:
  void Add(WhatIfScan scan) { scans_.push_back(std::move(scan)); }
  const std::vector<WhatIfScan>& scans() const { return scans_; }
  bool empty() const { return scans_.empty(); }

  // Predicted request USD of the chosen candidates, summed over scans.
  double PredictedUsd() const;

 private:
  std::vector<WhatIfScan> scans_;
};

// Predicted-vs-billed per query: the chosen candidates' predicted
// request USD against the request USD the ledger billed to the same
// (query, operator) keys. Feeding both from the same CloudPrices makes
// the gap a pure estimation error.
struct PredictionAccuracy {
  uint64_t scans = 0;
  double predicted_usd = 0;
  double billed_usd = 0;
  double abs_error_usd = 0;  // sum of per-scan |predicted - billed|

  // abs error relative to billed spend (0 when nothing was billed).
  double RelativeError() const {
    return billed_usd > 0 ? abs_error_usd / billed_usd : 0;
  }
  void Fold(const PredictionAccuracy& o) {
    scans += o.scans;
    predicted_usd += o.predicted_usd;
    billed_usd += o.billed_usd;
    abs_error_usd += o.abs_error_usd;
  }
};

PredictionAccuracy ComparePredictions(
    const WhatIfLog& log,
    const std::map<CostLedger::Key, CostLedger::Entry>& entries,
    uint64_t query_id, const CloudPrices& prices);

// Renders the decision trail (the EXPLAIN WHATIF body). `label` heads
// the output, e.g. "Q6".
std::string FormatWhatIf(const WhatIfLog& log, const std::string& label);

}  // namespace costopt
}  // namespace cloudiq

#endif  // CLOUDIQ_COSTOPT_WHATIF_H_

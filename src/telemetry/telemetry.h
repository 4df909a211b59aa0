#ifndef CLOUDIQ_TELEMETRY_TELEMETRY_H_
#define CLOUDIQ_TELEMETRY_TELEMETRY_H_

#include "telemetry/attribution.h"
#include "telemetry/stall_profiler.h"
#include "telemetry/stats.h"
#include "telemetry/tracer.h"

namespace cloudiq {

// One simulation's observability state: the name-keyed stats registry
// (always on — histogram/counter updates are a few arithmetic ops), the
// event tracer (off by default; see Tracer), the attribution ledger
// (always on; see CostLedger — the one per-(query, operator, node) table
// of requests, dollars and wait-class nanoseconds), and the wait-state
// stall profiler (always on; see StallProfiler — it decides how much
// time a charge is worth and books it into the ledger, an integer add
// under the ledger's lock). Owned by SimEnvironment and shared by every
// node of the cluster, so multi-node runs land on a single timeline with
// per-node tracks and one cluster-wide ledger.
class Telemetry {
 public:
  StatsRegistry& stats() { return stats_; }
  const StatsRegistry& stats() const { return stats_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  CostLedger& ledger() { return ledger_; }
  const CostLedger& ledger() const { return ledger_; }
  StallProfiler& profiler() { return profiler_; }
  const StallProfiler& profiler() const { return profiler_; }

 private:
  StatsRegistry stats_;
  Tracer tracer_;
  CostLedger ledger_;
  StallProfiler profiler_{&ledger_, &tracer_};
};

}  // namespace cloudiq

#endif  // CLOUDIQ_TELEMETRY_TELEMETRY_H_

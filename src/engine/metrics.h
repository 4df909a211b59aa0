#ifndef CLOUDIQ_ENGINE_METRICS_H_
#define CLOUDIQ_ENGINE_METRICS_H_

#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"

namespace cloudiq {

// Point-in-time operational metrics across every layer of one Database
// node — what an operator's dashboard (or a bug report) would carry.
struct MetricsSnapshot {
  // Object store (cluster-wide).
  uint64_t s3_puts = 0;
  uint64_t s3_gets = 0;
  uint64_t s3_deletes = 0;
  uint64_t s3_ranged_gets = 0;
  uint64_t s3_overwrites = 0;          // must stay 0 under the policy
  uint64_t s3_stale_reads = 0;         // must stay 0 under the policy
  uint64_t s3_not_found_races = 0;     // consistency races (retried)
  uint64_t s3_throttle_events = 0;
  uint64_t live_objects = 0;
  uint64_t live_bytes = 0;

  // Node storage subsystem.
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  uint64_t bytes_written = 0;
  uint64_t raw_bytes_written = 0;
  uint64_t not_found_retries = 0;
  uint64_t transient_retries = 0;

  // Buffer manager.
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t churn_flushes = 0;
  uint64_t commit_flushes = 0;

  // OCM (zeros when disabled).
  bool ocm_enabled = false;
  uint64_t ocm_hits = 0;
  uint64_t ocm_misses = 0;
  uint64_t ocm_evictions = 0;
  uint64_t ocm_background_uploads = 0;
  uint64_t ocm_rerouted_reads = 0;

  // Transactions & GC.
  uint64_t commits = 0;
  uint64_t rollbacks = 0;
  uint64_t gc_pages_deleted = 0;

  // Key generation.
  uint64_t max_allocated_key = 0;
  uint64_t key_fetches = 0;

  // Snapshots.
  uint64_t snapshots = 0;
  uint64_t retained_pages = 0;

  // Money. Request/EC2 USD are the cost ledger's grand total; the total
  // is the run's compute-side bill (storage-at-rest is reported per month).
  uint64_t s3_requests = 0;
  double s3_request_usd = 0;
  double ec2_usd = 0;
  double total_compute_usd = 0;
  double s3_monthly_storage_usd = 0;

  // Simulated wall clock of the node.
  double sim_seconds = 0;

  // Per-operation latency percentiles, folded in from the telemetry
  // registry (one entry per non-empty histogram, e.g. "s3.get",
  // "s3.put", "ocm.hit", "buffer.flush", "txn.commit"). Sim seconds.
  struct LatencySummary {
    std::string name;
    uint64_t count = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double max = 0;
  };
  std::vector<LatencySummary> latencies;

  // Registry counters and gauges not already surfaced above (zero-valued
  // counters are skipped).
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

// Gathers a snapshot from every layer of `db`.
MetricsSnapshot CollectMetrics(Database* db);

// Formats a snapshot as a human-readable multi-line report.
std::string FormatMetrics(const MetricsSnapshot& snapshot);

}  // namespace cloudiq

#endif  // CLOUDIQ_ENGINE_METRICS_H_

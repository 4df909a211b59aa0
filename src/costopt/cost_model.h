#ifndef CLOUDIQ_COSTOPT_COST_MODEL_H_
#define CLOUDIQ_COSTOPT_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cloud_prices.h"

namespace cloudiq {
namespace costopt {

// Executor CPU rates, in seconds of one core: QueryContext charges them,
// and the cost model predicts decode time with the same numbers.
inline constexpr double kCpuPerValue = 1.2e-9;        // per value touched
inline constexpr double kCpuPerDecodedByte = 2e-9;    // decode/decompress

// The execution resources a candidate plan would run against, reduced to
// plain numbers so the cost model sits below exec/sim in the layering.
// Callers (the executor, benches) fill one from a NodeContext +
// ObjectStoreOptions; the defaults mirror the simulator's defaults so
// unit tests can price plans without an environment.
struct NodeResources {
  int vcpus = 1;
  int io_width = 1;                  // parallel I/O streams the node drives
  double nic_bytes_per_sec = 1.25e8;     // nic_gbps * 1e9 / 8
  double hourly_usd = 0;             // instance price (placement pricing)
  // Object store service model (ObjectStoreOptions).
  double get_base_latency = 0.012;
  double stream_bandwidth = 90e6;    // bytes/sec per connection
  double select_base_latency = 0.030;
  double select_scan_bandwidth = 400e6;
  // Local SSD (OCM) service model (LocalSsdOptions).
  double ssd_base_latency = 0.00012;
  double ssd_read_bandwidth = 2.4e9;  // devices * per-device read bw
};

// What one scan would do, measured at plan time from sim-visible state
// only (zone maps, blockmap locations, buffer/OCM residency probes) —
// never from wall clocks or post-hoc ledger entries, so the same plan
// input always prices identically.
struct ScanWork {
  // Pull side: pages the pull path would read, split by residency.
  uint64_t pull_pages = 0;
  uint64_t pull_pages_buffer = 0;  // already in the RAM buffer pool
  uint64_t pull_pages_ocm = 0;     // on the local SSD cache
  double pull_bytes = 0;           // encoded-byte estimate of all of them
  // Push side: one SELECT per candidate partition.
  uint64_t push_requests = 0;
  double push_request_bytes = 0;   // serialized NdpRequests (NIC, egress)
  double push_scan_bytes = 0;      // bytes the store-side engine scans
  double push_return_bytes = 0;    // estimated result bytes (selectivity)
};

// One candidate plan, priced: predicted request-USD (the exact arithmetic
// CostLedger::Entry::RequestUsd bills with) and predicted latency,
// decomposed into the stall classes the profiler attributes the real run
// to — so predicted-vs-actual is comparable per class, not just in total.
struct PlanEstimate {
  std::string name;             // "pull", "push", "pull@node2", ...
  double usd = 0;               // predicted request USD
  double ec2_usd = 0;           // compute-time USD (placement candidates)
  double latency_seconds = 0;   // sum of the class legs below
  double network_seconds = 0;   // network_transfer: GETs + result streams
  double ndp_select_seconds = 0;  // server-side scan pipeline
  double ocm_fetch_seconds = 0;   // local SSD reads for warm pages
  double cpu_seconds = 0;         // decode/materialize on the node
  double nic_bytes = 0;         // predicted bytes crossing the node's NIC
  uint64_t cold_pages = 0;      // pages that would be object-store GETs
  std::string detail;           // human hint, e.g. "12/40 pages warm"

  double TotalUsd() const { return usd + ec2_usd; }
};

// Prices candidate plans with the same tables the ledger bills with: the
// CloudPrices handed in MUST be the environment ledger's, so a correct
// prediction is byte-for-byte the ledger's arithmetic and the per-query
// prediction error is a pure estimation error, never a rate mismatch.
class CostModel {
 public:
  explicit CostModel(const CloudPrices& prices) : prices_(prices) {}

  // The pull path: object-store GETs for cold pages, SSD reads for
  // OCM-resident pages, free RAM hits, then decode.
  PlanEstimate PricePull(const ScanWork& work,
                         const NodeResources& node) const;

  // The push path: per-partition SELECTs scanned server-side, only the
  // matching values streamed back.
  PlanEstimate PricePush(const ScanWork& work,
                         const NodeResources& node) const;

  // Re-prices `base` (a pull or push estimate's work) as if it ran on
  // `node` instead, adding the compute-time USD at that node's hourly
  // rate — the reader-node placement candidates of EXPLAIN WHATIF.
  PlanEstimate PricePlacement(const ScanWork& work,
                              const NodeResources& node, bool push,
                              const std::string& name) const;

  const CloudPrices& prices() const { return prices_; }

 private:
  CloudPrices prices_;
};

}  // namespace costopt
}  // namespace cloudiq

#endif  // CLOUDIQ_COSTOPT_COST_MODEL_H_

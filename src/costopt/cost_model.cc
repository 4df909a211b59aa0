#include "costopt/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cloudiq {
namespace costopt {
namespace {

// Ceiling division for request rounds over the node's I/O width.
double Rounds(uint64_t requests, int width) {
  if (requests == 0) return 0;
  int w = std::max(1, width);
  return std::ceil(static_cast<double>(requests) / w);
}

std::string ResidencyDetail(const ScanWork& work) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "%llu/%llu pages warm (buffer %llu, ocm %llu)",
                static_cast<unsigned long long>(work.pull_pages_buffer +
                                                work.pull_pages_ocm),
                static_cast<unsigned long long>(work.pull_pages),
                static_cast<unsigned long long>(work.pull_pages_buffer),
                static_cast<unsigned long long>(work.pull_pages_ocm));
  return buf;
}

}  // namespace

PlanEstimate CostModel::PricePull(const ScanWork& work,
                                  const NodeResources& node) const {
  PlanEstimate est;
  est.name = "pull";
  uint64_t warm = work.pull_pages_buffer + work.pull_pages_ocm;
  uint64_t cold = work.pull_pages > warm ? work.pull_pages - warm : 0;
  est.cold_pages = cold;
  // GETs are per-request only — a warm page costs $0 in requests, which
  // is exactly why pricing a warm scan as a cold one pushed it down at a
  // loss before the residency probe existed.
  est.usd = static_cast<double>(cold) / 1000.0 * prices_.s3_get_per_1k;

  double frac = work.pull_pages == 0
                    ? 0
                    : 1.0 / static_cast<double>(work.pull_pages);
  double cold_bytes = work.pull_bytes * frac * cold;
  double ocm_bytes = work.pull_bytes * frac * work.pull_pages_ocm;
  est.nic_bytes = cold_bytes;

  // Cold leg: GET rounds over the node's parallel streams, then the bytes
  // through min(streams, NIC) — the network_transfer stall class.
  double down_bw = std::min(node.nic_bytes_per_sec,
                            node.stream_bandwidth *
                                std::max(1, node.io_width));
  est.network_seconds = Rounds(cold, node.io_width) * node.get_base_latency;
  if (down_bw > 0) est.network_seconds += cold_bytes / down_bw;
  // Warm-on-SSD leg: the ocm_fetch stall class.
  est.ocm_fetch_seconds =
      Rounds(work.pull_pages_ocm, node.io_width) * node.ssd_base_latency;
  if (node.ssd_read_bandwidth > 0) {
    est.ocm_fetch_seconds += ocm_bytes / node.ssd_read_bandwidth;
  }
  // Decode every pulled byte (buffer hits still decode).
  est.cpu_seconds = work.pull_bytes * node.cpu_per_decoded_byte /
                    std::max(1, node.vcpus);
  est.latency_seconds =
      est.network_seconds + est.ocm_fetch_seconds + est.cpu_seconds;
  est.detail = ResidencyDetail(work);
  return est;
}

PlanEstimate CostModel::PricePush(const ScanWork& work,
                                  const NodeResources& node) const {
  PlanEstimate est;
  est.name = "push";
  est.usd = static_cast<double>(work.push_requests) / 1000.0 *
                prices_.s3_select_per_1k +
            work.push_scan_bytes / 1e9 * prices_.s3_select_scanned_per_gb +
            work.push_return_bytes / 1e9 * prices_.s3_select_returned_per_gb;
  est.nic_bytes = work.push_request_bytes + work.push_return_bytes;

  // The executor issues the per-partition SELECTs sequentially, so the
  // scan-pipeline legs add up — the ndp_select stall class.
  est.ndp_select_seconds =
      static_cast<double>(work.push_requests) * node.select_base_latency;
  if (node.select_scan_bandwidth > 0) {
    est.ndp_select_seconds += work.push_scan_bytes /
                              node.select_scan_bandwidth;
  }
  double down_bw = std::min(node.nic_bytes_per_sec, node.stream_bandwidth);
  if (down_bw > 0) {
    est.network_seconds = work.push_return_bytes / down_bw;
  }
  est.cpu_seconds = work.push_return_bytes * node.cpu_per_decoded_byte /
                    std::max(1, node.vcpus);
  est.latency_seconds =
      est.ndp_select_seconds + est.network_seconds + est.cpu_seconds;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu partition selects",
                static_cast<unsigned long long>(work.push_requests));
  est.detail = buf;
  return est;
}

PlanEstimate CostModel::PricePlacement(const ScanWork& work,
                                       const NodeResources& node, bool push,
                                       const std::string& name) const {
  PlanEstimate est = push ? PricePush(work, node) : PricePull(work, node);
  est.name = name;
  // Compute time at this node's rate: latency seconds the instance is
  // busy serving the scan — how a cheaper-but-slower reader trades off.
  est.ec2_usd = est.latency_seconds / 3600.0 * node.hourly_usd;
  return est;
}

}  // namespace costopt
}  // namespace cloudiq

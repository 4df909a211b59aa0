#ifndef CLOUDIQ_SIM_BLOCK_VOLUME_H_
#define CLOUDIQ_SIM_BLOCK_VOLUME_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sim/device.h"
#include "sim/sim_clock.h"

namespace cloudiq {

// Performance envelope of a simulated network block volume.
//
// The two presets capture what the paper's evaluation ran against: a 1 TB
// EBS gp2 volume (IOPS provisioned at 3 IOPS/GB, 250 MB/s throughput cap)
// and a standard EFS file system (throughput a function of utilized space,
// higher per-operation latency, POSIX semantics). Both are strongly
// consistent — which is why SAP IQ could run on them unmodified — but their
// throughput is capped by provisioning rather than scaling with the number
// of compute nodes, which is the property the paper's Figure 9 argument
// hinges on.
struct BlockVolumeOptions {
  std::string name = "ebs-gp2-1tb";
  double base_latency = 0.0007;  // seconds per operation
  double iops = 3000;            // operations/sec ceiling
  double bandwidth = 250e6;      // bytes/sec ceiling
  int channels = 16;             // internal parallelism

  static BlockVolumeOptions EbsGp2(double size_gb);
  static BlockVolumeOptions EfsStandard(double utilized_gb);
};

// Strongly consistent block device addressed by 64-bit block number.
// Pages occupy contiguous block runs; a run written together must be read
// together (which is how the blockmap addresses conventional dbspaces).
class SimBlockVolume {
 public:
  explicit SimBlockVolume(BlockVolumeOptions options);

  // Writes a run of blocks starting at `first_block` (strong consistency:
  // immediately visible). Overwrites are allowed — this is the semantics
  // CloudIQ relies on for conventional dbspaces.
  Status Write(uint64_t first_block, std::vector<uint8_t> data,
               SimTime arrival, SimTime* completion);

  // Reads the run previously written at `first_block`.
  Result<std::vector<uint8_t>> Read(uint64_t first_block, SimTime arrival,
                                    SimTime* completion);

  // Drops the run (frees simulated space).
  Status Free(uint64_t first_block, SimTime arrival, SimTime* completion);

  uint64_t StoredBytes() const { return stored_bytes_; }
  uint64_t RunCount() const { return runs_.size(); }

  // Full-volume image, for backup/restore (the snapshot manager backs up
  // the system dbspace and any non-cloud dbspaces in full, §5). The
  // returned map is a deep copy.
  std::unordered_map<uint64_t, std::vector<uint8_t>> SnapshotRuns() const {
    return runs_;
  }
  void RestoreRuns(std::unordered_map<uint64_t, std::vector<uint8_t>> runs) {
    runs_ = std::move(runs);
    stored_bytes_ = 0;
    for (const auto& [block, data] : runs_) stored_bytes_ += data.size();
  }

  const DeviceStats& stats() const { return stats_; }

  const BlockVolumeOptions& options() const { return options_; }

 private:
  SimTime Service(uint64_t bytes, SimTime arrival);

  BlockVolumeOptions options_;
  ChannelQueue channels_;
  RatePacer iops_pacer_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> runs_;
  uint64_t stored_bytes_ = 0;
  DeviceStats stats_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_SIM_BLOCK_VOLUME_H_

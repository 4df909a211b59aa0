#ifndef CLOUDIQ_SIM_LOCAL_SSD_H_
#define CLOUDIQ_SIM_LOCAL_SSD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/device.h"
#include "sim/sim_clock.h"

namespace cloudiq {

// Locally attached NVMe storage (the m5ad instance SSDs the OCM runs on,
// bundled as RAID 0). Latency is two to three orders of magnitude below the
// object store — that is the OCM's entire value proposition — but reads and
// writes share the device's channels, so when the OCM floods the device
// with asynchronous cache-fill writes, reads queue behind them and
// *cache-hit latency can exceed object-store latency*. That queueing
// behaviour is deliberate: it reproduces the Q3/Q4 brown-out the paper
// analyzes in Figure 6.
struct LocalSsdOptions {
  int devices = 2;               // NVMe devices in the RAID 0 set
  double base_latency = 0.00012;      // seconds
  double device_read_bandwidth = 1.2e9;   // bytes/sec per device
  // Sustained write bandwidth is far below read bandwidth on instance
  // NVMe — the asymmetry that lets a flood of asynchronous cache fills
  // outpace the device and back reads up behind them.
  double device_write_bandwidth = 0.35e9;
  double capacity_bytes = 600e9;
  double write_error_rate = 0;        // fault injection for cache writes
  uint64_t seed = 7;
};

// Key-value cache device: the OCM stores pages under their object keys.
class SimLocalSsd {
 public:
  explicit SimLocalSsd(LocalSsdOptions options = LocalSsdOptions());

  Status Write(const std::string& key, std::vector<uint8_t> data,
               SimTime arrival, SimTime* completion);
  Result<std::vector<uint8_t>> Read(const std::string& key, SimTime arrival,
                                    SimTime* completion);
  // Erase is a metadata operation (trim); no queueing cost.
  void Erase(const std::string& key);
  bool Contains(const std::string& key) const;

  uint64_t StoredBytes() const { return stored_bytes_; }
  double CapacityBytes() const { return options_.capacity_bytes; }

  // Seconds of queued work currently backed up on the device — the signal
  // a latency-aware OCM would monitor (the paper's proposed future work).
  double BacklogSeconds(SimTime now) const { return channels_.Backlog(now); }

  const DeviceStats& stats() const { return stats_; }

  // Fault injection (tests): probability that a Write fails.
  void set_write_error_rate(double rate) { options_.write_error_rate = rate; }

  const LocalSsdOptions& options() const { return options_; }

 private:
  // Parallel channels per NVMe device; each serves an equal share of the
  // device's bandwidth.
  static constexpr int kChannelsPerDevice = 4;

  SimTime Service(uint64_t bytes, SimTime arrival, bool is_write);

  LocalSsdOptions options_;
  Rng rng_;
  ChannelQueue channels_;
  std::unordered_map<std::string, std::vector<uint8_t>> data_;
  uint64_t stored_bytes_ = 0;
  DeviceStats stats_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_SIM_LOCAL_SSD_H_

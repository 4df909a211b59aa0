#include "sim/local_ssd.h"

namespace cloudiq {

SimLocalSsd::SimLocalSsd(LocalSsdOptions options)
    : options_(options),
      rng_(options.seed),
      channels_(options.devices * kChannelsPerDevice) {}

SimTime SimLocalSsd::Service(uint64_t bytes, SimTime arrival,
                             bool is_write) {
  double device_bw = is_write ? options_.device_write_bandwidth
                              : options_.device_read_bandwidth;
  double per_channel_bw = device_bw / kChannelsPerDevice;
  double transfer = static_cast<double>(bytes) / per_channel_bw;
  return channels_.Submit(arrival, transfer, options_.base_latency);
}

Status SimLocalSsd::Write(const std::string& key, std::vector<uint8_t> data,
                          SimTime arrival, SimTime* completion) {
  *completion = Service(data.size(), arrival, /*is_write=*/true);
  ++stats_.writes;
  stats_.write_bytes += data.size();
  stats_.write_time += *completion - arrival;
  if (options_.write_error_rate > 0 &&
      rng_.Bernoulli(options_.write_error_rate)) {
    return Status::IoError("simulated local SSD write failure");
  }
  auto it = data_.find(key);
  if (it != data_.end()) stored_bytes_ -= it->second.size();
  stored_bytes_ += data.size();
  data_[key] = std::move(data);
  return Status::Ok();
}

Result<std::vector<uint8_t>> SimLocalSsd::Read(const std::string& key,
                                               SimTime arrival,
                                               SimTime* completion) {
  auto it = data_.find(key);
  uint64_t bytes = it == data_.end() ? 0 : it->second.size();
  *completion = Service(bytes, arrival, /*is_write=*/false);
  ++stats_.reads;
  stats_.read_bytes += bytes;
  stats_.read_time += *completion - arrival;
  if (it == data_.end()) return Status::NotFound(key);
  return it->second;
}

void SimLocalSsd::Erase(const std::string& key) {
  auto it = data_.find(key);
  if (it == data_.end()) return;
  stored_bytes_ -= it->second.size();
  data_.erase(it);
}

bool SimLocalSsd::Contains(const std::string& key) const {
  return data_.count(key) > 0;
}

}  // namespace cloudiq

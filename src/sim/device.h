#ifndef CLOUDIQ_SIM_DEVICE_H_
#define CLOUDIQ_SIM_DEVICE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/sim_clock.h"

namespace cloudiq {

// Building blocks for analytic device models. Every simulated device is a
// small queueing network assembled from these two primitives; submitting a
// request advances the queue state and returns the absolute completion time,
// from which the caller derives the request's latency.

// A pool of `channels` identical servers (think: NVMe queues, S3 connection
// streams, an EBS volume's internal parallelism). A request occupies the
// earliest-free channel for `occupancy` seconds; `extra_latency` is
// pipelined delay (propagation, first-byte wait) that does not occupy the
// channel. On a tie the lowest-indexed channel wins.
//
// The channels are the leaves of a winner tree, in channel order; each
// inner node holds the earlier-free of its two children, so the root is
// the channel to pick and a submit replays only the matches on one
// leaf-to-root path: O(log channels) host time per request, not a scan.
class ChannelQueue {
 public:
  explicit ChannelQueue(int channels)
      : channels_(static_cast<size_t>(std::max(1, channels))) {
    while (leaves_ < channels_) leaves_ *= 2;
    // Leaves past the last channel are free at +inf: they lose every match.
    free_.assign(2 * leaves_, std::numeric_limits<SimTime>::infinity());
    channel_.resize(2 * leaves_);
    for (size_t i = 0; i < leaves_; ++i) {
      if (i < channels_) free_[leaves_ + i] = 0.0;
      channel_[leaves_ + i] = static_cast<uint32_t>(i);
    }
    for (size_t node = leaves_ - 1; node >= 1; --node) {
      size_t winner = free_[2 * node + 1] < free_[2 * node] ? 2 * node + 1
                                                            : 2 * node;
      free_[node] = free_[winner];
      channel_[node] = channel_[winner];
    }
  }

  SimTime Submit(SimTime arrival, double occupancy, double extra_latency) {
    uint32_t channel = channel_[1];
    SimTime start = std::max(arrival, free_[1]);
    SimTime free = start + occupancy;
    size_t node = leaves_ + channel;
    free_[node] = free;
    // Replay the path's matches, carrying the winner so far against each
    // sibling. A sibling wins if it is strictly earlier-free, or equally
    // free and on the left: every channel under a left child is lower than
    // every one under its right sibling, so the root holds the
    // lowest-indexed earliest-free channel, as a linear scan would pick.
    for (; node > 1; node /= 2) {
      size_t sibling = node ^ 1;
      SimTime other = free_[sibling];
      bool sibling_wins = other < free || (other == free && sibling < node);
      free = sibling_wins ? other : free;
      channel = sibling_wins ? channel_[sibling] : channel;
      free_[node / 2] = free;
      channel_[node / 2] = channel;
    }
    return start + occupancy + extra_latency;
  }

  // Earliest time a new request could start service.
  SimTime EarliestStart() const { return free_[1]; }

  // Fraction of channels still busy at time `t` — a utilization signal used
  // by the local-SSD model to inflate read latency under write floods.
  double BusyFraction(SimTime t) const {
    size_t busy = 0;
    for (size_t i = 0; i < channels_; ++i) {
      if (free_[leaves_ + i] > t) ++busy;
    }
    return static_cast<double>(busy) / static_cast<double>(channels_);
  }

  // Total backlog (seconds of queued work past `t`) across channels.
  double Backlog(SimTime t) const {
    double sum = 0;
    for (size_t i = 0; i < channels_; ++i) {
      sum += std::max(0.0, free_[leaves_ + i] - t);
    }
    return sum;
  }

 private:
  size_t channels_;
  size_t leaves_ = 1;  // power of two >= channels_
  // Per tree node, heap-ordered ([1] the root, [leaves_ + i] channel i):
  // when the node's winner is next free, and which channel it is.
  std::vector<SimTime> free_;
  std::vector<uint32_t> channel_;
};

// Enforces a maximum request rate (IOPS cap, per-prefix request limits).
// Requests are admitted no faster than `rate` per second; an over-rate
// request waits for the next slot.
class RatePacer {
 public:
  explicit RatePacer(double rate_per_sec) : interval_(1.0 / rate_per_sec) {}

  // Returns the admission time for a request arriving at `arrival`.
  SimTime Admit(SimTime arrival) {
    SimTime start = std::max(arrival, next_slot_);
    next_slot_ = start + interval_;
    return start;
  }

  SimTime next_slot() const { return next_slot_; }

 private:
  double interval_;
  SimTime next_slot_ = 0.0;
};

// Aggregate I/O statistics kept by every device.
struct DeviceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t deletes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  double read_time = 0;   // summed per-request latency, seconds
  double write_time = 0;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_SIM_DEVICE_H_

#ifndef CLOUDIQ_STORE_OBJECT_STORE_IO_H_
#define CLOUDIQ_STORE_OBJECT_STORE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sim/nic.h"
#include "sim/object_store.h"
#include "sim/sim_clock.h"
#include "telemetry/telemetry.h"

namespace cloudiq {

// One node's channel to the object store: routes every request through the
// node's NIC, maps 64-bit object keys to full store keys (hashed prefix +
// key, §3.1), and implements the retry policies of §3/§4:
//   - GET NOT_FOUND (eventual-consistency race on a never-rewritten key)
//     is retried with backoff up to a fixed limit;
//   - transient PUT/GET failures are retried a fixed number of times, after
//     which the caller rolls the transaction back.
class ObjectStoreIo {
 public:
  struct Options {
    int max_transient_retries = 5;
    // Ablation knob: disable prefix hashing so that all keys share one
    // rate-limit bucket (bench_ablation_prefixing).
    bool hashed_prefixes = true;
  };

  ObjectStoreIo(SimObjectStore* store, Nic* nic)
      : ObjectStoreIo(store, nic, Options()) {}
  ObjectStoreIo(SimObjectStore* store, Nic* nic, Options options)
      : store_(store), nic_(nic), options_(options) {}

  // Uploads `frame` under `key`. Returns Aborted after exhausting
  // transient-failure retries.
  Status Put(uint64_t key, const std::vector<uint8_t>& frame, SimTime start,
             SimTime* completion);

  // Downloads the object, retrying NOT_FOUND (visibility races) and
  // transient failures. Returns NotFound only after the retry budget is
  // exhausted — which for a correctly keyed read means the object truly
  // does not exist.
  Result<std::vector<uint8_t>> Get(uint64_t key, SimTime start,
                                   SimTime* completion);

  // Near-data processing: ships a serialized NdpRequest to the store,
  // lets the server evaluate it, and downloads only the result. The
  // request travels over the NIC like an upload and the result like a
  // download — the whole point is that the result is a fraction of the
  // pages a pull would have moved. Retries NOT_FOUND (a referenced page
  // losing the visibility race) and transient failures exactly like Get.
  // `*bytes_scanned` (optional) reports the server-side scan volume.
  Result<std::vector<uint8_t>> Select(const std::vector<uint8_t>& request,
                                      SimTime start, SimTime* completion,
                                      uint64_t* bytes_scanned = nullptr);

  // Whether the store can evaluate Select at all (an NDP engine is
  // installed). Planners check this before building a request.
  bool SelectSupported() const { return store_->has_ndp_engine(); }

  // HEAD: true if the object currently exists (no retries — GC polling
  // treats "not visible" as "nothing to collect *now*"; idempotent
  // re-polls are the safety net).
  bool Exists(uint64_t key, SimTime start, SimTime* completion);

  Status Delete(uint64_t key, SimTime start, SimTime* completion);

  // Full store key for a 64-bit object key under the current prefix policy.
  std::string StoreKey(uint64_t key) const;

  struct Stats {
    uint64_t not_found_retries = 0;
    uint64_t transient_retries = 0;
    uint64_t selects = 0;
    uint64_t select_request_bytes = 0;   // NIC bytes up (requests)
    uint64_t select_returned_bytes = 0;  // NIC bytes down (results)
  };
  const Stats& stats() const { return stats_; }

  const Options& options() const { return options_; }

  // Wires telemetry for this node's channel: end-to-end latencies
  // (retries and NIC time included) land in "io.get"/"io.put"; retries
  // become instant events on the node's store-I/O track.
  void set_telemetry(Telemetry* telemetry, uint32_t trace_pid);

 private:
  // NOT_FOUND retry budget: 14 retries, the first after 0.02 s, each
  // backoff double the last (about 5.5 minutes in all).
  static constexpr int kMaxNotFoundRetries = 14;
  static constexpr double kNotFoundBackoff = 0.02;  // seconds

  SimObjectStore* store_;
  Nic* nic_;
  Options options_;
  Stats stats_;
  Telemetry* telemetry_ = nullptr;
  CostLedger* ledger_ = nullptr;
  StallProfiler* profiler_ = nullptr;
  uint32_t trace_pid_ = 0;
  Histogram* get_latency_ = nullptr;
  Histogram* put_latency_ = nullptr;
  Histogram* select_latency_ = nullptr;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_STORE_OBJECT_STORE_IO_H_

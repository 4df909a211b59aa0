#ifndef CLOUDIQ_SIM_OBJECT_STORE_H_
#define CLOUDIQ_SIM_OBJECT_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/device.h"
#include "sim/sim_clock.h"
#include "telemetry/telemetry.h"

namespace cloudiq {

// Server-side compute plugged into the object store (Taurus-style
// near-data processing). The store stays agnostic of the request wire
// format: the engine first lists the object keys a serialized NdpRequest
// references (a pure parse), the store resolves those keys to visible
// page payloads under its own lock, and the engine then evaluates the
// request against them. Implemented by ndp::NdpEngine (src/ndp/); the
// split keeps sim free of any dependency on the NDP protocol and keeps
// all guarded-state access inside the store's annotated methods.
class NdpServerEngine {
 public:
  virtual ~NdpServerEngine() = default;

  // Object keys the serialized request references, in the order Execute
  // expects their payloads. InvalidArgument on a malformed request.
  virtual Result<std::vector<std::string>> KeysOf(
      const std::vector<uint8_t>& request) const = 0;

  // Evaluates the request against the resolved page payloads (parallel
  // to KeysOf's order). Returns the serialized NdpResult.
  virtual Result<std::vector<uint8_t>> Execute(
      const std::vector<uint8_t>& request,
      const std::vector<const std::vector<uint8_t>*>& pages) const = 0;
};

// Tuning knobs for the simulated object store. Defaults approximate S3
// circa the paper's evaluation: double-digit-millisecond request latencies,
// ~90 MB/s per connection stream, enormous aggregate throughput, documented
// per-prefix request-rate ceilings (3,500 writes/s and 5,500 reads/s), and
// eventual consistency for fresh PUTs, overwrites and deletes.
struct ObjectStoreOptions {
  double get_base_latency = 0.012;   // seconds to first byte
  double put_base_latency = 0.020;
  double stream_bandwidth = 90e6;    // bytes/sec per connection
  int streams = 4096;                // aggregate parallel connections
  double per_prefix_put_rate = 3500;
  double per_prefix_get_rate = 5500;

  // Eventual consistency: a mutation becomes visible `visibility_lag`
  // seconds after completion with probability `lag_probability`
  // (otherwise read-after-write appears immediate). The defaults model
  // pre-2020 S3, where the race was real but rare; consistency tests
  // crank these up to force every code path.
  double lag_probability = 0.02;
  double mean_visibility_lag = 0.15;  // seconds, exponential

  // Fault injection: probability that a request fails with a transient
  // IO error (caller retries).
  double transient_error_rate = 0.0;

  // Near-data processing (SELECT). A SELECT pays a higher time-to-first-
  // byte than a GET (the server sets up a scan pipeline), scans pages at
  // the server-side rate below (far above a single connection's download
  // bandwidth — the whole point), and streams only the result bytes back
  // through a connection stream.
  double select_base_latency = 0.030;   // seconds to first byte
  double select_scan_bandwidth = 400e6; // bytes/sec server-side scan rate

  // Dynamic never-write-twice enforcement (§3): when set, a PUT to a key
  // that was *ever* written — even if since deleted — fails with
  // AlreadyExists instead of creating a new version. CloudIQ's storage
  // layer never overwrites a key (the Object Key Generator hands every
  // writer a fresh monotone key), so engine configurations can run with
  // this on as a tripwire; it stays off by default because the
  // write-twice *ablation* bench exists precisely to overwrite keys and
  // measure the stale-read fallout.
  bool enforce_never_write_twice = false;

  uint64_t seed = 42;
};

// In-memory object store with S3-like performance and consistency
// semantics. All operations take the simulated arrival time and return the
// completion time through `*completion`; the caller (IoScheduler) advances
// the clock.
//
// Consistency model: each key holds a list of versions stamped with the
// simulated time at which they become visible. A Get at time T returns the
// newest version visible at T. Overwriting a key therefore yields *stale
// reads* until the new version becomes visible, and a fresh key yields
// NOT_FOUND until its first version becomes visible — exactly the three
// read scenarios of §3 of the paper. CloudIQ's storage layer never
// overwrites a key, so scenario (2) is impossible by construction;
// `stats().stale_reads` lets tests and the write-twice ablation verify
// this.
class SimObjectStore {
 public:
  explicit SimObjectStore(ObjectStoreOptions options = ObjectStoreOptions());

  // Uploads an object. Completion time accounts for per-prefix pacing,
  // stream bandwidth and base latency.
  Status Put(const std::string& key, std::vector<uint8_t> value,
             SimTime arrival, SimTime* completion);

  // Downloads the newest visible version. Returns NotFound if the key has
  // no visible version at `arrival` (including the eventual-consistency
  // window after a fresh PUT).
  Result<std::vector<uint8_t>> Get(const std::string& key, SimTime arrival,
                                   SimTime* completion);

  // HEAD request: true if any visible, non-deleted version exists.
  bool Exists(const std::string& key, SimTime arrival, SimTime* completion);

  // Removes the object (eventually: a delete marker that becomes visible
  // after the consistency lag).
  Status Delete(const std::string& key, SimTime arrival,
                SimTime* completion);

  // Near-data processing: evaluates a serialized NdpRequest against the
  // newest visible versions of the pages it references and returns the
  // serialized NdpResult. Requires an engine (set_ndp_engine);
  // NotSupported otherwise. NotFound if any referenced page has no
  // visible version at `arrival` (the §3 eventual-consistency race —
  // callers retry exactly like a Get). `*bytes_scanned` /
  // `*bytes_returned` (optional) report the server-side scan volume vs.
  // the bytes shipped back; the gap is the NDP win.
  Result<std::vector<uint8_t>> Select(const std::vector<uint8_t>& request,
                                      SimTime arrival, SimTime* completion,
                                      uint64_t* bytes_scanned = nullptr,
                                      uint64_t* bytes_returned = nullptr);

  // Installs the server-side NDP engine (not owned; typically installed
  // once by Database construction). nullptr disables Select.
  void set_ndp_engine(const NdpServerEngine* engine) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ndp_engine_ = engine;
  }
  bool has_ndp_engine() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return ndp_engine_ != nullptr;
  }

  // Models streaming `bytes` of *external input data* (e.g. TPC-H load
  // files staged in an input bucket) without materializing the objects:
  // bills one GET per part, occupies download streams, and returns the
  // completion time.
  SimTime ExternalRead(uint64_t bytes, SimTime arrival);

  // Number of keys whose *final* state (ignoring visibility lag) is a live
  // object. Used by garbage-collection completeness tests.
  uint64_t LiveObjectCount() const;
  // Bytes in live objects (final state). Feeds the data-at-rest cost table.
  uint64_t LiveBytes() const;
  // All live keys (final state), for audits.
  std::vector<std::string> LiveKeys() const;

  struct Stats {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t deletes = 0;
    uint64_t ranged_gets = 0;      // ExternalRead parts (billed as GET)
    uint64_t not_found_races = 0;  // GETs that raced visibility (scenario 3)
    uint64_t stale_reads = 0;      // GETs served an old version (scenario 2)
    uint64_t overwrites = 0;       // PUTs to a key that already existed
    uint64_t throttle_events = 0;  // requests delayed by per-prefix pacing
    uint64_t put_bytes = 0;
    uint64_t get_bytes = 0;
    uint64_t selects = 0;                // NDP SELECT requests served
    uint64_t select_scanned_bytes = 0;   // pages decoded server-side
    uint64_t select_returned_bytes = 0;  // result bytes shipped back
  };
  // Returned by value: handing out a reference to a guarded field would
  // let callers read it after the lock drops (Clang's reference-return
  // check rejects exactly that). The struct is ten integers; the copy is
  // noise next to a simulated request.
  Stats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = Stats();
  }

  // Wires telemetry: request latencies land in the "s3.get"/"s3.put"/
  // "s3.delete"/"s3.select" histograms; throttle events and visibility
  // races become instant trace events; every request becomes a span when
  // tracing is enabled. Every request, throttle stall and per-prefix hit
  // is also charged to the telemetry's cost ledger — the run's only bill —
  // under whatever attribution context is current.
  void set_telemetry(Telemetry* telemetry);

  const ObjectStoreOptions& options() const { return options_; }

 private:
  struct Version {
    SimTime visible_at;
    bool is_delete;
    std::vector<uint8_t> value;
  };
  struct Object {
    std::vector<Version> versions;  // ascending by visible_at
  };

  // The request kinds BookLocked() counts.
  enum class Op { kPut, kGet, kHead, kDelete, kRangedGet, kSelect };

  // Applies per-prefix pacing (the PUT or GET pacer), stream queueing,
  // `base_latency` plus seeded jitter, `server_seconds` of unjittered
  // server-side work and the transfer of `bytes`. Tiles the window into
  // the stall profiler (pacer stall as throttle backoff, the rest as
  // `wait`) and returns the completion time.
  SimTime ServiceRequest(const std::string& key, bool is_put, uint64_t bytes,
                         SimTime arrival, double base_latency,
                         WaitClass wait = WaitClass::kNetworkTransfer,
                         double server_seconds = 0) REQUIRES(mu_);

  // Books one served request everywhere it is counted: the store's
  // stats, the cost ledger, the kind's latency histogram and (when
  // tracing) a span named "<verb> <what>". `bytes` is the payload moved;
  // for a SELECT it is the bytes scanned and `returned` the result
  // shipped back. HEAD has no histogram and no span.
  void BookLocked(Op op, SimTime arrival, SimTime completion,
                  const std::string& what, uint64_t bytes = 0,
                  uint64_t returned = 0) REQUIRES(mu_);

  // Newest version of `key` visible at `at` (nullptr if none); `*newest`
  // receives the newest version regardless of visibility.
  const Version* VisibleLocked(const std::string& key, SimTime at,
                               const Version** newest) const REQUIRES(mu_);

  // Counts a read that found nothing visible: a visibility race (§3
  // scenario 3) when a live version exists but is not visible yet.
  void NoteMissLocked(const std::string& key, const Version* newest,
                      SimTime arrival) REQUIRES(mu_);

  static std::string PrefixOf(const std::string& key);

  ObjectStoreOptions options_;  // set at construction, read-only after

  // The store is shared cluster-wide: every node's fibers reach it
  // through ObjectStoreIo. mu_ is a leaf lock — held across whole
  // requests (nothing below re-enters the store) but never while calling
  // out to anything that could.
  mutable Mutex mu_{lockrank::kSimObjectStore};
  Rng rng_ GUARDED_BY(mu_);
  ChannelQueue streams_ GUARDED_BY(mu_);
  std::unordered_map<std::string, RatePacer> put_pacers_ GUARDED_BY(mu_);
  std::unordered_map<std::string, RatePacer> get_pacers_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Object> objects_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
  Telemetry* telemetry_ GUARDED_BY(mu_) = nullptr;
  CostLedger* ledger_ GUARDED_BY(mu_) = nullptr;
  StallProfiler* profiler_ GUARDED_BY(mu_) = nullptr;
  const NdpServerEngine* ndp_engine_ GUARDED_BY(mu_) = nullptr;
  Histogram* get_latency_ GUARDED_BY(mu_) = nullptr;
  Histogram* put_latency_ GUARDED_BY(mu_) = nullptr;
  Histogram* delete_latency_ GUARDED_BY(mu_) = nullptr;
  Histogram* select_latency_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_SIM_OBJECT_STORE_H_

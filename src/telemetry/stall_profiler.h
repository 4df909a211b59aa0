#ifndef CLOUDIQ_TELEMETRY_STALL_PROFILER_H_
#define CLOUDIQ_TELEMETRY_STALL_PROFILER_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/sim_clock.h"
#include "telemetry/attribution.h"
#include "telemetry/tracer.h"

namespace cloudiq {

// Where a simulated microsecond went. Every blocking point in the system
// charges its elapsed sim-time to exactly one of these classes, keyed by
// the current AttributionContext, so a per-query breakdown answers "what
// would I have to split / cache / push down to make this query faster".
enum class WaitClass : int {
  kCpuExec = 0,       // executing (scan/join/agg CPU, decode) — the residual
  kLockWait,          // serialized behind another query on the node clock
  kAdmissionQueue,    // queued in the AdmissionController before dispatch
  kBufferFill,        // waiting for a buffer-pool miss fill or dirty flush
  kOcmFetch,          // SSD cache read (hit path) + cache-fill writes
  kOcmUpload,         // write-back SSD writes + background upload drains
  kNetworkTransfer,   // object-store transfer time incl. NIC serialization
  kThrottleBackoff,   // per-prefix pacer stalls + NOT_FOUND retry backoff
  kNdpSelect,         // server-side scan time of pushed-down Selects
};
inline constexpr int kNumWaitClasses = 9;

// Stable lowercase identifier ("cpu_exec", "lock_wait", ...) used in the
// report JSON, gauges and EXPLAIN output.
const char* WaitClassName(WaitClass cls);

// Wait-state accounting ledger: attributes every simulated nanosecond of
// a query's lifetime to the wait class (and attribution key) that caused
// it. The cousin of CostLedger — same key space, same "current context"
// discipline — but it books *time windows* instead of dollars, and its
// conservation invariant is exact:
//
//     sum over all entries of all classes
//         == window_nanos() + background_nanos()        (int64, exact)
//
// and for any scope, the per-class charges inside it plus the kCpuExec
// (or scope-class) residual equal the scope's elapsed time exactly.
//
// Exactness comes from integer-nanosecond accounting: every charge is a
// [start, end) window in absolute sim-seconds, converted once per
// endpoint via llround(t * 1e9). llround is monotonic, so disjoint inner
// windows of a scope can never sum past the scope's own elapsed
// nanoseconds, residuals are non-negative by construction, and integer
// addition makes the invariant equality exact rather than within an
// epsilon.
//
// Structure mirrors how the simulator spends time:
//   * Scopes bracket foreground regions (a query, an operator, a buffer
//     miss fill). Inner charges register against the enclosing scope;
//     when the scope closes, the unclaimed remainder ("residual") is
//     charged to the scope's own class — kCpuExec for a query scope, so
//     un-instrumented clock advances conservatively count as execution.
//   * Parallel sections bracket IoScheduler::RunParallel: the lanes'
//     device windows overlap in wall sim-time, so their raw charges are
//     accumulated per (key, class) and scaled to the section's actual
//     elapsed time with largest-remainder rounding (exact, deterministic)
//     before registering with the parent.
//   * Background sections bracket deferred work (OCM upload pump, cache
//     fills) that consumes *no* foreground wall time: charges register
//     against the enqueuing query's entry and count toward
//     background_nanos() instead of any scope's inner time.
//
// Concurrency: fibers interleave on real threads under the workload
// engine's strict handoff, so each job owns a Frame (its scope stack)
// that the engine swaps around every fiber resume, exactly like the
// ledger's saved attribution. A built-in default frame serves
// single-threaded harness code. All mutation happens under the leaf
// mu_; the attribution key is read from the CostLedger before locking
// (profiler → ledger is in layering order; the ledger never calls back).
class StallProfiler {
 public:
  using Key = CostLedger::Key;

  // Nanoseconds charged to one (query, operator, node), by wait class.
  struct Entry {
    std::array<int64_t, kNumWaitClasses> ns{};
    // Portion of the above booked inside background sections (deferred
    // OCM work the query enqueued but did not wait for). Subtracting it
    // from TotalNanos() leaves exactly the key's foreground lifetime, so
    // per-query conservation is checkable: for a workload-engine job,
    // TotalNanos() - background == finish - arrival in nanoseconds.
    int64_t background = 0;

    int64_t TotalNanos() const {
      int64_t total = 0;
      for (int64_t v : ns) total += v;
      return total;
    }
    void Fold(const Entry& other) {
      for (int i = 0; i < kNumWaitClasses; ++i) ns[i] += other.ns[i];
      background += other.background;
    }
  };

  // One fiber's (or the harness's) stack of open sections. Owned by the
  // workload engine's jobs; opaque to everyone else.
  struct Frame {
    struct Node {
      enum Kind { kScope, kParallel, kBackground };
      Kind kind = kScope;
      WaitClass cls = WaitClass::kCpuExec;  // kScope: residual class
      bool pinned = false;                  // kScope: residual key pinned?
      Key key;                              // kScope: pinned residual key
      int64_t start_ns = 0;                 // kScope / kParallel
      int64_t inner_ns = 0;                 // kScope: charges inside
      // kParallel: raw overlapping lane charges, scaled at section end.
      std::map<std::pair<Key, int>, int64_t> lanes;
    };
    std::vector<Node> stack;
  };

  StallProfiler(CostLedger* ledger, Tracer* tracer)
      : ledger_(ledger), tracer_(tracer) {}
  StallProfiler(const StallProfiler&) = delete;
  StallProfiler& operator=(const StallProfiler&) = delete;

  static int64_t ToNanos(double seconds) {
    return std::llround(seconds * 1e9);
  }

  // --- charges -----------------------------------------------------------
  // Books the window [start, end) of absolute sim-seconds to `cls` under
  // the current attribution. Registers with the innermost open section of
  // the current frame (scope inner time / parallel lane / background).
  // Emits a Chrome-trace wait span when the tracer is enabled.
  void Charge(WaitClass cls, double start_seconds, double end_seconds)
      EXCLUDES(mu_);

  // --- scopes ------------------------------------------------------------
  // Brackets a foreground region whose unclaimed remainder is charged to
  // `cls`. Prefer ScopedStall below.
  void BeginScope(WaitClass cls, double start_seconds) EXCLUDES(mu_);
  // Pins the residual of the innermost open scope to the current
  // attribution, so it survives inner ScopedAttribution restores (the
  // workload engine pins the query scope it opens around a job body).
  void PinScopeAttribution() EXCLUDES(mu_);
  void EndScope(double end_seconds) EXCLUDES(mu_);

  // Brackets IoScheduler::RunParallel, where lane completion windows
  // overlap in wall sim-time.
  void BeginParallel(double start_seconds) EXCLUDES(mu_);
  void EndParallel(double end_seconds) EXCLUDES(mu_);

  // Brackets deferred work that advances no foreground clock (OCM pump,
  // cache fills). Charges inside go to the attributed entry and to
  // background_nanos().
  void BeginBackground() EXCLUDES(mu_);
  void EndBackground() EXCLUDES(mu_);

  // --- frames ------------------------------------------------------------
  std::unique_ptr<Frame> NewFrame() { return std::make_unique<Frame>(); }
  // Installs `next` as the current frame, returning the previous one
  // (nullptr selects the built-in default frame). The workload engine
  // swaps frames around every fiber resume.
  Frame* SwapFrame(Frame* next) EXCLUDES(mu_);

  // --- views -------------------------------------------------------------
  std::map<Key, Entry> entries() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return entries_;
  }
  // Sum of every entry of `query_id` across operators and nodes.
  Entry QueryTotal(uint64_t query_id) const EXCLUDES(mu_);
  Entry GrandTotal() const EXCLUDES(mu_);
  // Per-class totals for one tenant's queries (tenant mapping from the
  // ledger; "" aggregates unmapped queries and unattributed work).
  Entry TenantTotal(const std::string& tenant) const EXCLUDES(mu_);
  // Foreground nanoseconds accounted at top level (outermost scope
  // elapses + direct charges outside any scope).
  int64_t window_nanos() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return window_ns_;
  }
  // Shadow nanoseconds booked inside background sections.
  int64_t background_nanos() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return background_ns_;
  }

  void Reset() EXCLUDES(mu_);

 private:
  Key CurrentKey() const EXCLUDES(mu_);
  Frame* FrameLocked() REQUIRES(mu_);
  // Books `n` nanoseconds of (key, cls) against the innermost section of
  // the current frame; `wall` charges also accrue to an enclosing scope's
  // inner time (false for scope residuals, whose elapsed propagates
  // wholesale).
  void RegisterLocked(const Key& key, WaitClass cls, int64_t n, bool wall)
      REQUIRES(mu_);

  CostLedger* const ledger_;
  Tracer* const tracer_;

  mutable Mutex mu_{lockrank::kStallProfiler};
  Frame default_frame_ GUARDED_BY(mu_);
  Frame* current_frame_ GUARDED_BY(mu_) = nullptr;
  std::map<Key, Entry> entries_ GUARDED_BY(mu_);
  int64_t window_ns_ GUARDED_BY(mu_) = 0;
  int64_t background_ns_ GUARDED_BY(mu_) = 0;
};

// RAII foreground scope: the unclaimed remainder of [construction, now)
// is charged to `cls` when the scope closes.
class ScopedStall {
 public:
  ScopedStall(StallProfiler* profiler, const SimClock* clock, WaitClass cls)
      : profiler_(profiler), clock_(clock) {
    profiler_->BeginScope(cls, clock_->now());
  }
  ~ScopedStall() { profiler_->EndScope(clock_->now()); }
  ScopedStall(const ScopedStall&) = delete;
  ScopedStall& operator=(const ScopedStall&) = delete;

 private:
  StallProfiler* profiler_;
  const SimClock* clock_;
};

// RAII parallel section: lane charges inside (overlapping device windows
// or the executor's per-morsel kCpuExec charges) are accumulated per
// (key, class) and scaled to the section's elapsed sim-time when it
// closes. When the lane windows are disjoint and telescope to the
// section's elapsed time — the morsel executor's charge loop — the scale
// is exactly 1 and the raw charges register unchanged, so lane totals
// still sum to wall sim-time even when the section nests inside a pinned
// per-job scope (tools/stall_top.py --check verifies this per entry).
class ScopedParallelStall {
 public:
  ScopedParallelStall(StallProfiler* profiler, const SimClock* clock)
      : profiler_(profiler), clock_(clock) {
    profiler_->BeginParallel(clock_->now());
  }
  ~ScopedParallelStall() { profiler_->EndParallel(clock_->now()); }
  ScopedParallelStall(const ScopedParallelStall&) = delete;
  ScopedParallelStall& operator=(const ScopedParallelStall&) = delete;

 private:
  StallProfiler* profiler_;
  const SimClock* clock_;
};

// RAII background section (OCM pump, cache fill).
class ScopedBackgroundStall {
 public:
  explicit ScopedBackgroundStall(StallProfiler* profiler)
      : profiler_(profiler) {
    profiler_->BeginBackground();
  }
  ~ScopedBackgroundStall() { profiler_->EndBackground(); }
  ScopedBackgroundStall(const ScopedBackgroundStall&) = delete;
  ScopedBackgroundStall& operator=(const ScopedBackgroundStall&) = delete;

 private:
  StallProfiler* profiler_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_TELEMETRY_STALL_PROFILER_H_

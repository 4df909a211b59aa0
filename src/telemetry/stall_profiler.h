#ifndef CLOUDIQ_TELEMETRY_STALL_PROFILER_H_
#define CLOUDIQ_TELEMETRY_STALL_PROFILER_H_

#include <cmath>
#include <cstdint>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/sim_clock.h"
#include "telemetry/attribution.h"
#include "telemetry/tracer.h"

namespace cloudiq {

// Wait-state accounting: decides how many simulated nanoseconds each
// charge is worth and which key and wait class they belong to, then books
// them into the CostLedger's entries (Entry::waits) under the ledger's
// one mutex — time and dollars for a (query, operator, node) live in one
// row. Its conservation invariant is exact:
//
//     sum over all ledger entries of waits.TotalNanos()
//         == window_nanos() + background_nanos()        (int64, exact)
//
// and for any scope, the per-class charges inside it plus the kCpuExec
// (or scope-class) residual equal the scope's elapsed time exactly.
// window_nanos() and background_nanos() are tallied independently of the
// entries, so the check compares two separate books.
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
// single-threaded harness code. The frames and tallies live in the
// ledger, and every method runs under the ledger's mutex, which also
// yields the charge's attribution key.
class StallProfiler {
 public:
  using Key = CostLedger::Key;
  using Entry = CostLedger::Waits;
  using Frame = CostLedger::StallFrame;

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
      EXCLUDES(ledger_->mu_);

  // --- scopes ------------------------------------------------------------
  // Brackets a foreground region whose unclaimed remainder is charged to
  // `cls`. Prefer ScopedStall below.
  void BeginScope(WaitClass cls, double start_seconds)
      EXCLUDES(ledger_->mu_);
  // Pins the residual of the innermost open scope to the current
  // attribution, so it survives inner ScopedAttribution restores (the
  // workload engine pins the query scope it opens around a job body).
  void PinScopeAttribution() EXCLUDES(ledger_->mu_);
  void EndScope(double end_seconds) EXCLUDES(ledger_->mu_);

  // Brackets IoScheduler::RunParallel, where lane completion windows
  // overlap in wall sim-time.
  void BeginParallel(double start_seconds) EXCLUDES(ledger_->mu_);
  void EndParallel(double end_seconds) EXCLUDES(ledger_->mu_);

  // Brackets deferred work that advances no foreground clock (OCM pump,
  // cache fills). Charges inside go to the attributed entry and to
  // background_nanos().
  void BeginBackground() EXCLUDES(ledger_->mu_);
  void EndBackground() EXCLUDES(ledger_->mu_);

  // --- frames ------------------------------------------------------------
  std::unique_ptr<Frame> NewFrame() { return std::make_unique<Frame>(); }
  // Installs `next` as the current frame, returning the previous one
  // (nullptr selects the built-in default frame). The workload engine
  // swaps frames around every fiber resume.
  Frame* SwapFrame(Frame* next) EXCLUDES(ledger_->mu_);

  // --- views -------------------------------------------------------------
  // Waits summed over every ledger entry, attributed or not.
  Entry GrandTotal() const { return ledger_->GrandTotal().waits; }
  // Foreground nanoseconds accounted at top level (outermost scope
  // elapses + direct charges outside any scope).
  int64_t window_nanos() const EXCLUDES(ledger_->mu_) {
    MutexLock lock(&ledger_->mu_);
    return ledger_->window_ns_;
  }
  // Shadow nanoseconds booked inside background sections.
  int64_t background_nanos() const EXCLUDES(ledger_->mu_) {
    MutexLock lock(&ledger_->mu_);
    return ledger_->background_ns_;
  }

 private:
  Frame* FrameLocked() REQUIRES(ledger_->mu_);
  // Books `n` nanoseconds of (key, cls) against the innermost section of
  // the current frame; `wall` charges also accrue to an enclosing scope's
  // inner time (false for scope residuals, whose elapsed propagates
  // wholesale).
  void RegisterLocked(const Key& key, WaitClass cls, int64_t n, bool wall)
      REQUIRES(ledger_->mu_);

  CostLedger* const ledger_;
  Tracer* const tracer_;
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

#ifndef CLOUDIQ_COMMON_TASK_POOL_H_
#define CLOUDIQ_COMMON_TASK_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cloudiq {

// Worker pool for the morsel-driven executor's multi-worker sections and
// the page-scan pipeline (columnar/range_scan.h) they run.
//
// Design constraints, in order:
//  1. Sim determinism is untouchable: with one worker (or one index)
//     RunIndexed degrades to a plain inline loop — no lock is taken, no
//     thread is spawned, and indices run in ascending order.
//  2. Task bodies are *pure host CPU*. They must not touch the sim
//     clock, the ledger, the stall profiler, or any other simulator
//     state — all simulated accounting happens in the caller's fixed
//     coordinator loop after (or before) the parallel region, which is
//     what keeps a multi-worker run's report byte-identical to a
//     one-worker run's.
//  3. The pool's one mutex (kTaskPool, rank 15) is held only around job
//     hand-off and join/leave bookkeeping, never while a task body runs,
//     so it can never participate in an inversion with the locks a
//     caller might logically hold above it.
//
// One job runs at a time (queries are single-threaded coordinators; a
// second concurrent caller parks on done_cv_ until the pool frees).
// Workers are spawned lazily on first multi-worker use and joined in the
// destructor. Work distribution is a shared atomic index counter —
// morsel-driven scheduling in the Leis et al. sense, degenerated to one
// global queue because a query's morsels already share one NUMA domain
// here.
class TaskPool {
 public:
  // Upper bound on pool threads (callers drain too, so up to kMaxWorkers
  // threads total touch a job). Far above any sensible --workers value.
  static constexpr int kMaxWorkers = 16;

  static TaskPool& Global();

  TaskPool() = default;
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  // Runs fn(0) .. fn(count - 1) to completion before returning.
  //
  // workers <= 1 or count <= 1: inline on the caller, ascending order.
  // Otherwise the caller plus up to workers - 1 pool threads drain
  // indices from a shared counter; completion order is arbitrary, so fn
  // must write only its own index's output slot.
  void RunIndexed(int workers, size_t count,
                  const std::function<void(size_t)>& fn) EXCLUDES(mu_);

  // Pool threads spawned so far (tests / diagnostics).
  int thread_count() const EXCLUDES(mu_);

 private:
  // The job currently being drained. `next` is the only hot-path shared
  // state; everything else is touched under mu_.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
    int active = 0;  // pool threads currently draining (under mu_)
  };

  void EnsureThreadsLocked(int want) REQUIRES(mu_);
  void WorkerLoop() EXCLUDES(mu_);

  mutable Mutex mu_{lockrank::kTaskPool};
  CondVar work_cv_;  // workers: a new job generation (or shutdown)
  CondVar done_cv_;  // caller: my job fully drained / the pool is free
  Job* job_ GUARDED_BY(mu_) = nullptr;
  // Bumped per job; a worker joins a job only once (its local copy of
  // the generation prevents re-joining the same job after finishing it
  // while the caller has not yet retired it).
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool busy_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_TASK_POOL_H_

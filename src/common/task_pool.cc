#include "common/task_pool.h"

#include <algorithm>

namespace cloudiq {

TaskPool& TaskPool::Global() {
  // Intentionally leaked: a static TaskPool's destructor would lock the
  // ranked mutex during exit, after glibc has already run the lock-rank
  // observer's thread_local destructors (use-after-free). Parked workers
  // are reaped by process exit; no job can be in flight by then.
  static TaskPool* pool = new TaskPool();  // NOLINT(cloudiq-raw-new): leaked on purpose, see above
  return *pool;
}

TaskPool::~TaskPool() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    threads.swap(threads_);
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads) t.join();
}

int TaskPool::thread_count() const {
  MutexLock lock(&mu_);
  return static_cast<int>(threads_.size());
}

void TaskPool::EnsureThreadsLocked(int want) {
  want = std::min(want, kMaxWorkers - 1);
  while (static_cast<int>(threads_.size()) < want) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

void TaskPool::RunIndexed(int workers, size_t count,
                          const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (workers <= 1 || count <= 1) {
    // Deterministic path: ascending order, no pool involvement at all.
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Job job;
  job.fn = &fn;
  job.count = count;
  {
    MutexLock lock(&mu_);
    // One job at a time; a concurrent caller waits for the pool.
    done_cv_.Wait(  // NOLINT(cloudiq-stall-report): host-thread handoff, no sim-time passes while blocked
        &mu_, [this]() REQUIRES(mu_) { return !busy_; });
    busy_ = true;
    EnsureThreadsLocked(workers - 1);
    job_ = &job;
    ++generation_;
  }
  work_cv_.NotifyAll();

  // The caller drains too — with one morsel left it just runs it
  // instead of waiting for a wakeup.
  for (size_t i = job.next.fetch_add(1); i < count;
       i = job.next.fetch_add(1)) {
    fn(i);
  }

  {
    MutexLock lock(&mu_);
    // Workers join (++active) and leave (--active) under mu_, and join
    // only while job_ still points at our stack frame, so once active
    // drops to zero with job_ cleared no thread can touch `job` again.
    done_cv_.Wait(  // NOLINT(cloudiq-stall-report): host-thread join, the sim clock is frozen during a parallel section
        &mu_, [&job]() { return job.active == 0; });
    job_ = nullptr;
    busy_ = false;
  }
  done_cv_.NotifyAll();  // wake any caller queued on !busy_
}

void TaskPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(&mu_);
      work_cv_.Wait(  // NOLINT(cloudiq-stall-report): idle worker parked between jobs, owns no sim-time
          &mu_, [this, &seen_generation]() REQUIRES(mu_) {
            return shutdown_ ||
                   (job_ != nullptr && generation_ != seen_generation);
          });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
      ++job->active;
    }
    for (size_t i = job->next.fetch_add(1); i < job->count;
         i = job->next.fetch_add(1)) {
      (*job->fn)(i);
    }
    bool last = false;
    {
      MutexLock lock(&mu_);
      last = --job->active == 0;
    }
    if (last) done_cv_.NotifyAll();
  }
}

}  // namespace cloudiq

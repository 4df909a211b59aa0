#ifndef CLOUDIQ_WORKLOAD_WORKLOAD_ENGINE_H_
#define CLOUDIQ_WORKLOAD_WORKLOAD_ENGINE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "costopt/predictor.h"
#include "engine/database.h"
#include "engine/session.h"
#include "telemetry/stall_profiler.h"
#include "workload/admission.h"
#include "workload/fair_scheduler.h"
#include "workload/step_fiber.h"

namespace cloudiq {

// Deterministic concurrent multi-tenant query engine.
//
// Sits on top of a pool of database nodes that share one SimEnvironment
// (a multiplex's secondaries, or a single node for one-box workloads) and
// runs many queries "at once" on the simulated clock:
//
//  * arrivals pass the AdmissionController (per-tenant token buckets,
//    cost budgets, a global concurrency limit and a bounded queue with
//    overload shedding);
//  * queued queries dispatch by weighted fair share with priority aging
//    (FairScheduler), onto the least-loaded node;
//  * each dispatched query runs as a StepFiber whose executor step hook
//    yields at operator boundaries and CPU charges, and the engine always
//    resumes the runnable job that is earliest in virtual time — so jobs
//    time-share node clocks and contend for the shared buffer pools, OCM
//    and object store exactly as interleaved real sessions would, in a
//    fully reproducible order;
//  * completions feed latency/queue-wait histograms and SLO met/missed
//    counters into the StatsRegistry (workload.<tenant>.*), per-tenant
//    cost into the CostLedger rollups, and each job's *active* node time
//    into the ledger as compute charged to its query.
//
// Locking: mu_ guards the engine's own leaf state (job maps, engine clock,
// node occupancy, tenant table). The admission controller, scheduler and
// telemetry instruments serialize themselves and sit below the engine in
// the lock order. mu_ is released (MutexUnlock) around fiber resumes and
// the completion/event hooks — both re-enter the engine: hooks call
// Submit(), and a resumed fiber runs an entire query. A Job* stays valid
// across those windows because only its own Complete() erases it.
class WorkloadEngine {
 public:
  struct TenantConfig {
    std::string name;
    double weight = 1.0;         // fair-share weight
    double rate_per_sec = 0;     // admission token refill; <= 0 unlimited
    double burst = 4;            // token bucket capacity
    double cost_budget_usd = 0;  // ledger spend cap; <= 0 unlimited
    double slo_seconds = 0;      // end-to-end target; <= 0 no SLO
    // Plan-choice policy handed to this tenant's query contexts at
    // dispatch (src/costopt/). kCostBlind leaves whatever the Database's
    // own options say untouched; the other policies override with the
    // tenant's SLO and remaining budget.
    costopt::PlanPolicy cost_policy = costopt::PlanPolicy::kCostBlind;
  };

  struct Options {
    AdmissionController::Options admission;
    FairScheduler::Options scheduler;
    // Queries time-sharing one node at once. concurrency_limit caps the
    // pool-wide total; this caps one node's multiprogramming.
    int slots_per_node = 2;
    // Predictive admission (src/costopt/): arrivals are decided against
    // predicted spend — the SpendPredictor's per-(tenant, tag) mean of
    // billed USD — on top of historical ledger spend. Jobs whose
    // prediction would carry the tenant past its budget are parked on a
    // deferred queue and re-priced when a completion changes the
    // forecast; parked jobs that still don't fit when the pool drains
    // are shed as budget sheds.
    bool predictive_admission = false;
    // Predicted spend for a (tenant, tag) never seen before.
    double spend_prior_usd = 0;
    // Deterministic resume-order perturbation, for the lock/interleaving
    // stress sweep (tests only). 0 = off: resume the runnable job
    // earliest in virtual time — the default schedule, byte-identical
    // reports. Nonzero: the runnable job is instead chosen by a seeded
    // hash, so each seed exercises a different — but still legal and
    // still reproducible — fiber interleaving. Any resume order is
    // legal: node clocks never run backward and suspension gaps are
    // charged from ready_time, so charge windows stay non-negative.
    uint64_t resume_perturb_seed = 0;
  };

  WorkloadEngine(std::vector<Database*> nodes, Options options,
                 std::vector<TenantConfig> tenants);
  ~WorkloadEngine();

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  // The work of one query: runs inside the job's fiber against the
  // engine-chosen node. The engine owns the transaction (Begin before,
  // Commit on Ok / Rollback on error after) and the query context's
  // identity; the body only executes.
  using QueryBody = std::function<Status(Session* session,
                                         QueryContext* ctx)>;

  // Registers (or reconfigures) a tenant: weight, rate limit, budget and
  // SLO take effect for subsequent admissions. Equivalent to listing the
  // tenant in the constructor.
  void AddTenant(const TenantConfig& config) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    RegisterTenant(config);
  }

  // Registers an arrival of `tenant` at simulated time `arrival` (clamped
  // forward to the engine's current time if already past). Returns the
  // job id. Unknown tenants are auto-registered with default limits.
  uint64_t Submit(const std::string& tenant, std::string tag,
                  SimTime arrival, QueryBody body) EXCLUDES(mu_);

  // Everything known about one finished (or shed) job.
  struct Completion {
    uint64_t job_id = 0;
    std::string tenant;
    std::string tag;
    Status status;         // query result; sheds carry Busy
    bool shed = false;
    AdmissionController::Decision decision =
        AdmissionController::Decision::kAdmit;
    SimTime arrival = 0;
    SimTime dispatch = 0;  // 0 for sheds
    SimTime finish = 0;
    double active_seconds = 0;  // node time the job actually consumed
  };
  using CompletionHook = std::function<void(const Completion&)>;
  // Called after each completion or shed. Safe to Submit() from inside
  // (closed-loop drivers do).
  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }

  // Chaos hook: called with the engine time at every arrival and
  // completion event. Failure tests use it to kill nodes mid-workload.
  using EventHook = std::function<void(SimTime now)>;
  void set_event_hook(EventHook hook) { event_hook_ = std::move(hook); }

  // Processes events — arrivals, fiber steps, dispatches — in virtual
  // time order until no work remains. Individual query failures land in
  // the per-tenant failed counters and Completion::status, not here.
  Status RunUntilIdle() EXCLUDES(mu_);

  // --- observability -------------------------------------------------------
  struct TenantCounts {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t shed_queue_full = 0;
    uint64_t shed_rate_limited = 0;
    uint64_t shed_budget = 0;
    uint64_t slo_met = 0;
    uint64_t slo_missed = 0;
    double spent_usd = 0;

    uint64_t Shed() const {
      return shed_queue_full + shed_rate_limited + shed_budget;
    }
  };
  TenantCounts Counts(const std::string& tenant) const EXCLUDES(mu_);
  const Histogram& LatencyHistogram(const std::string& tenant) const
      EXCLUDES(mu_);
  const Histogram& QueueWaitHistogram(const std::string& tenant) const
      EXCLUDES(mu_);

  SimTime now() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return clock_;
  }
  const AdmissionController& admission() const { return admission_; }
  const FairScheduler& scheduler() const { return scheduler_; }
  SimEnvironment* env() { return env_; }
  // Total fiber resumes — grows past the job count when queries actually
  // slice into multiple steps.
  uint64_t steps() const;

 private:
  struct Job {
    uint64_t id = 0;
    std::string tenant;
    std::string tag;
    QueryBody body;
    SimTime arrival = 0;
    SimTime dispatch = 0;
    // Virtual time at which this job continues; orders resumes so jobs
    // sharing a node round-robin instead of one monopolizing the clock.
    SimTime ready_time = 0;
    int node_index = -1;
    Database* db = nullptr;
    std::unique_ptr<Session> session;
    std::unique_ptr<StepFiber> fiber;
    // Ledger context to restore at the next resume: exactly what the
    // fiber had current when it last yielded (query- or operator-level).
    AttributionContext saved_attr;
    AttributionContext query_attr;  // query-level identity, for billing
    // Stall-profiler scope stack, swapped alongside saved_attr: the open
    // query/operator stall scopes belong to this fiber, not the thread.
    std::unique_ptr<StallProfiler::Frame> frame;
    // False until the first fiber resume returns; suspension gaps are
    // charged from ready_time, which is only meaningful after a step.
    bool stepped = false;
    Status result;
    double active_seconds = 0;
    // Cost-intelligent planning: the spend the admission decision cited
    // (reserved against the tenant's budget while in flight), and the
    // tenant constraints stamped onto the query context at dispatch.
    double predicted_usd = 0;
    costopt::PlanPolicy cost_policy = costopt::PlanPolicy::kCostBlind;
    double slo_seconds = 0;
    double budget_left_usd = -1;
  };

  struct TenantState {
    TenantConfig config;
    double spent_usd = 0;
    // Sum of predicted_usd over the tenant's admitted-or-queued jobs —
    // what DecidePredictive holds against the budget besides history.
    double inflight_predicted_usd = 0;
    Counter* costopt_deferred = nullptr;       // arrivals parked on predict
    Counter* costopt_deferred_shed = nullptr;  // parked jobs that never fit
    // Registry instruments, resolved once (stable references).
    Counter* submitted = nullptr;
    Counter* completed = nullptr;
    Counter* failed = nullptr;
    Counter* shed_queue_full = nullptr;
    Counter* shed_rate_limited = nullptr;
    Counter* shed_budget = nullptr;
    Counter* slo_met = nullptr;
    Counter* slo_missed = nullptr;
    Histogram* latency = nullptr;
    Histogram* queue_wait = nullptr;
    // workload.<tenant>.stall.<class> — cumulative seconds the tenant's
    // queries spent in each wait class, refreshed on every completion.
    std::array<Gauge*, kNumWaitClasses> stall = {};
  };

  TenantState& RegisterTenant(const TenantConfig& config) REQUIRES(mu_);
  TenantState& TenantFor(const std::string& name) REQUIRES(mu_);
  void ProcessNextArrival() REQUIRES(mu_);
  void StepJob(Job* job) REQUIRES(mu_);
  void RunJobBody(Job* job);  // fiber side; touches only the job itself
  void Dispatch(std::unique_ptr<Job> job, SimTime now) REQUIRES(mu_);
  void Complete(Job* job) REQUIRES(mu_);
  void Shed(std::unique_ptr<Job> job,
            AdmissionController::Decision decision) REQUIRES(mu_);
  void TryDispatch(SimTime now) REQUIRES(mu_);
  int FindFreeNode() const REQUIRES(mu_);
  // Re-prices every deferred job against fresh spend history and
  // headroom (called after each completion). FIFO; a job that still
  // doesn't fit goes back to the end of the deferred queue.
  void WakeDeferred(SimTime now) REQUIRES(mu_);

  // Wiring set at construction (nodes, env, hooks, instrument pointers) is
  // not guarded; admission_/scheduler_ carry their own locks.
  std::vector<Database*> nodes_;
  Options options_;
  SimEnvironment* env_;
  AdmissionController admission_;
  FairScheduler scheduler_;

  mutable Mutex mu_{lockrank::kWorkloadEngine};
  std::map<std::string, TenantState> tenants_ GUARDED_BY(mu_);
  uint64_t last_job_id_ GUARDED_BY(mu_) = 0;
  // Engine time: max event time processed so far.
  SimTime clock_ GUARDED_BY(mu_) = 0;
  // Arrivals not yet admitted, by (arrival time, job id).
  std::map<std::pair<SimTime, uint64_t>, std::unique_ptr<Job>> arrivals_
      GUARDED_BY(mu_);
  // Admission-queued jobs by id (dispatch order lives in the scheduler).
  std::map<uint64_t, std::unique_ptr<Job>> queued_jobs_ GUARDED_BY(mu_);
  // Dispatched jobs by id.
  std::map<uint64_t, std::unique_ptr<Job>> running_ GUARDED_BY(mu_);
  std::vector<int> node_active_ GUARDED_BY(mu_);
  // Jobs parked by predictive admission, FIFO; woken on completions.
  std::deque<std::unique_ptr<Job>> deferred_ GUARDED_BY(mu_);
  // Resume-perturbation step counter (Options::resume_perturb_seed).
  uint64_t perturb_ticks_ GUARDED_BY(mu_) = 0;
  // Per-(tenant, tag) billed-spend history behind DecidePredictive.
  // Carries its own lock; sits below mu_ like the other leaf components.
  costopt::SpendPredictor predictor_;

  CompletionHook completion_hook_;
  EventHook event_hook_;
  Counter* steps_ = nullptr;
  Histogram* latency_all_ = nullptr;
  Histogram* queue_wait_all_ = nullptr;
  Gauge* queue_depth_ = nullptr;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_WORKLOAD_WORKLOAD_ENGINE_H_

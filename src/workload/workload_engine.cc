#include "workload/workload_engine.h"

#include <algorithm>

#include "telemetry/tracer.h"

namespace cloudiq {

WorkloadEngine::WorkloadEngine(std::vector<Database*> nodes, Options options,
                               std::vector<TenantConfig> tenants)
    : nodes_(std::move(nodes)),
      options_(options),
      env_(&nodes_.front()->env()),
      admission_(options.admission),
      scheduler_(options.scheduler),
      node_active_(nodes_.size(), 0),
      predictor_(options.spend_prior_usd) {
  StatsRegistry& stats = env_->telemetry().stats();
  steps_ = &stats.counter("workload.steps");
  latency_all_ = &stats.histogram("workload.latency");
  queue_wait_all_ = &stats.histogram("workload.queue_wait");
  queue_depth_ = &stats.gauge("workload.queue_depth");
  // Start the engine where the pool already is (load phases advance node
  // clocks before the workload begins).
  MutexLock lock(&mu_);
  for (Database* db : nodes_) {
    clock_ = std::max(clock_, db->node().clock().now());
  }
  for (const TenantConfig& config : tenants) RegisterTenant(config);
}

WorkloadEngine::~WorkloadEngine() = default;

WorkloadEngine::TenantState& WorkloadEngine::RegisterTenant(
    const TenantConfig& config) {
  TenantState& ts = tenants_[config.name];
  ts.config = config;
  StatsRegistry& stats = env_->telemetry().stats();
  const std::string p = "workload." + config.name + ".";
  ts.submitted = &stats.counter(p + "submitted");
  ts.completed = &stats.counter(p + "completed");
  ts.failed = &stats.counter(p + "failed");
  ts.shed_queue_full = &stats.counter(p + "shed_queue_full");
  ts.shed_rate_limited = &stats.counter(p + "shed_rate_limited");
  ts.shed_budget = &stats.counter(p + "shed_budget");
  ts.slo_met = &stats.counter(p + "slo_met");
  ts.slo_missed = &stats.counter(p + "slo_missed");
  ts.costopt_deferred = &stats.counter(p + "costopt_deferred");
  ts.costopt_deferred_shed = &stats.counter(p + "costopt_deferred_shed");
  ts.latency = &stats.histogram(p + "latency");
  ts.queue_wait = &stats.histogram(p + "queue_wait");
  for (int i = 0; i < kNumWaitClasses; ++i) {
    ts.stall[i] = &stats.gauge(
        p + "stall." + WaitClassName(static_cast<WaitClass>(i)));
  }
  // The report's per-tenant SLO-burn lines read the target back from here
  // (the report walks the ledger and registry; it never sees the engine).
  stats.gauge(p + "slo_seconds").Set(config.slo_seconds);
  admission_.RegisterTenant(config.name, config.rate_per_sec, config.burst);
  scheduler_.RegisterTenant(config.name, config.weight);
  return ts;
}

WorkloadEngine::TenantState& WorkloadEngine::TenantFor(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  TenantConfig config;
  config.name = name;
  return RegisterTenant(config);
}

uint64_t WorkloadEngine::Submit(const std::string& tenant, std::string tag,
                                SimTime arrival, QueryBody body) {
  MutexLock lock(&mu_);
  TenantFor(tenant);  // ensure instruments and limits exist
  auto job = std::make_unique<Job>();
  job->id = ++last_job_id_;
  job->tenant = tenant;
  job->tag = std::move(tag);
  job->body = std::move(body);
  job->arrival = std::max(arrival, clock_);
  uint64_t id = job->id;
  arrivals_.emplace(std::make_pair(job->arrival, id), std::move(job));
  return id;
}

Status WorkloadEngine::RunUntilIdle() {
  for (;;) {
    // One lock acquisition per event; the helpers below open MutexUnlock
    // windows around fiber resumes and user hooks.
    MutexLock lock(&mu_);
    SimTime t_arrival = 0;
    bool have_arrival = !arrivals_.empty();
    if (have_arrival) t_arrival = arrivals_.begin()->first.first;

    // The runnable job earliest in virtual time. Jobs sharing a node all
    // sit at that node's clock; ready_time (set when a job last stepped)
    // breaks the tie in favour of the job that has waited longest, so
    // co-resident jobs round-robin. Final tie: lowest id (map order).
    Job* best = nullptr;
    SimTime best_eff = 0;
    for (auto& [id, job] : running_) {
      (void)id;
      SimTime eff = std::max(job->ready_time,
                             job->db->node().clock().now());
      if (best == nullptr || eff < best_eff ||
          (eff == best_eff && job->ready_time < best->ready_time)) {
        best = job.get();
        best_eff = eff;
      }
    }

    if (have_arrival && (best == nullptr || t_arrival <= best_eff)) {
      ProcessNextArrival();
      continue;
    }
    if (best != nullptr && options_.resume_perturb_seed != 0) {
      // Stress-sweep mode: pick the next fiber to resume by a seeded
      // splitmix-style hash of (seed, job id, tick) instead of earliest
      // virtual time. The arrival-vs-step decision above still uses the
      // true earliest time, so arrivals are never starved; see
      // Options::resume_perturb_seed for why any order is legal.
      Job* pick = nullptr;
      uint64_t pick_hash = 0;
      for (auto& [id, job] : running_) {
        uint64_t h = options_.resume_perturb_seed +
                     0x9e3779b97f4a7c15ull * (id + 1) +
                     0xbf58476d1ce4e5b9ull * (perturb_ticks_ + 1);
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 27;
        h *= 0x94d049bb133111ebull;
        h ^= h >> 31;
        if (pick == nullptr || h > pick_hash) {
          pick = job.get();
          pick_hash = h;
        }
      }
      best = pick;
      ++perturb_ticks_;
    }
    if (best != nullptr) {
      StepJob(best);
      continue;
    }
    if (scheduler_.queued() > 0) {
      // No capacity consumer left to free a slot — cannot happen unless
      // the pool is empty of slots entirely.
      TryDispatch(clock_);
      if (running_.empty()) {
        return Status::FailedPrecondition(
            "queued jobs but no dispatch capacity");
      }
      continue;
    }
    if (!deferred_.empty()) {
      // Nothing running and nothing arriving: no future completion will
      // change the forecast the deferral cited, so the parked predicted
      // spend still breaches the budget — those jobs shed as budget
      // sheds (costopt_deferred_shed counts them apart).
      while (!deferred_.empty()) {
        std::unique_ptr<Job> job = std::move(deferred_.front());
        deferred_.pop_front();
        TenantFor(job->tenant).costopt_deferred_shed->Add();
        Shed(std::move(job),
             AdmissionController::Decision::kShedBudget);
      }
      continue;
    }
    return Status::Ok();
  }
}

void WorkloadEngine::ProcessNextArrival() {
  auto node = arrivals_.extract(arrivals_.begin());
  std::unique_ptr<Job> job = std::move(node.mapped());
  clock_ = std::max(clock_, job->arrival);
  if (event_hook_) {
    SimTime now = clock_;
    MutexUnlock unlock(&mu_);
    event_hook_(now);
  }
  TenantState& ts = TenantFor(job->tenant);
  ts.submitted->Add();
  bool can_dispatch = admission_.HasRunSlot() && FindFreeNode() >= 0;
  AdmissionController::Decision decision;
  if (options_.predictive_admission) {
    // Predictive admission: the decision cites the SpendPredictor's
    // estimate for this (tenant, tag) plus the predicted spend already
    // in flight — a job expected to breach the budget parks on the
    // deferred queue instead of running (or being wrongly shed).
    job->predicted_usd = predictor_.Predict(job->tenant, job->tag);
    decision = admission_.DecidePredictive(
        job->tenant, clock_, ts.spent_usd, job->predicted_usd,
        ts.inflight_predicted_usd, ts.config.cost_budget_usd, can_dispatch);
  } else {
    decision = admission_.Decide(job->tenant, clock_, ts.spent_usd,
                                 ts.config.cost_budget_usd, can_dispatch);
  }
  switch (decision) {
    case AdmissionController::Decision::kAdmit:
      ts.inflight_predicted_usd += job->predicted_usd;
      admission_.OnDispatch();
      Dispatch(std::move(job), clock_);
      break;
    case AdmissionController::Decision::kQueue: {
      ts.inflight_predicted_usd += job->predicted_usd;
      admission_.OnQueue();
      scheduler_.Enqueue(job->tenant, job->id, clock_);
      uint64_t id = job->id;
      queued_jobs_[id] = std::move(job);
      break;
    }
    case AdmissionController::Decision::kDefer:
      ts.costopt_deferred->Add();
      deferred_.push_back(std::move(job));
      break;
    default:
      Shed(std::move(job), decision);
      break;
  }
  queue_depth_->Set(static_cast<double>(admission_.queued()));
}

void WorkloadEngine::Shed(std::unique_ptr<Job> job,
                          AdmissionController::Decision decision) {
  TenantState& ts = TenantFor(job->tenant);
  switch (decision) {
    case AdmissionController::Decision::kShedQueueFull:
      ts.shed_queue_full->Add();
      break;
    case AdmissionController::Decision::kShedRateLimited:
      ts.shed_rate_limited->Add();
      break;
    case AdmissionController::Decision::kShedBudget:
      ts.shed_budget->Add();
      break;
    default:
      break;
  }
  if (completion_hook_) {
    Completion c;
    c.job_id = job->id;
    c.tenant = job->tenant;
    c.tag = job->tag;
    c.status = Status::Busy(AdmissionController::DecisionName(decision));
    c.shed = true;
    c.decision = decision;
    c.arrival = job->arrival;
    c.finish = clock_;
    MutexUnlock unlock(&mu_);
    completion_hook_(c);
  }
}

int WorkloadEngine::FindFreeNode() const {
  int best = -1;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (node_active_[i] >= options_.slots_per_node) continue;
    if (best < 0 || node_active_[i] < node_active_[best] ||
        (node_active_[i] == node_active_[best] &&
         nodes_[i]->node().clock().now() <
             nodes_[best]->node().clock().now())) {
      best = i;
    }
  }
  return best;
}

void WorkloadEngine::Dispatch(std::unique_ptr<Job> job, SimTime now) {
  int node_index = FindFreeNode();
  job->node_index = node_index;
  job->db = nodes_[node_index];
  ++node_active_[node_index];
  job->dispatch = now;
  job->ready_time = now;
  // The query cannot start before its dispatch instant; if the node is
  // mid-way through other work its clock is already later, and the job
  // simply continues from there (node-busy wait lands in its latency).
  job->db->node().clock().AdvanceTo(now);
  job->session = std::make_unique<Session>(job->db, job->tenant);
  TenantState& ts = TenantFor(job->tenant);
  // Stash the tenant's plan-choice constraints now, under the lock: the
  // fiber body stamps them onto the query context (SetCostConstraints)
  // without touching engine state. budget_left is what the chooser's
  // kMinLatencyUnderBudget compares predicted request-USD against.
  job->cost_policy = ts.config.cost_policy;
  job->slo_seconds = ts.config.slo_seconds;
  job->budget_left_usd =
      ts.config.cost_budget_usd > 0
          ? std::max(0.0, ts.config.cost_budget_usd - ts.spent_usd)
          : -1;
  double wait = std::max(0.0, now - job->arrival);
  ts.queue_wait->Record(wait);
  queue_wait_all_->Record(wait);
  Job* raw = job.get();
  raw->frame = env_->telemetry().profiler().NewFrame();
  raw->fiber = std::make_unique<StepFiber>([this, raw] { RunJobBody(raw); });
  running_[raw->id] = std::move(job);
}

void WorkloadEngine::RunJobBody(Job* job) {
  Database* db = job->db;
  Transaction* txn = db->Begin();
  QueryContext ctx = job->session->NewQuery(txn, job->tag);
  ctx.SetCostConstraints(job->cost_policy, job->slo_seconds,
                         job->budget_left_usd);
  job->query_attr = ctx.attribution();
  StepFiber* fiber = job->fiber.get();
  // Executor parallel sections (ScopedParallelSection) defer this hook
  // until the section closes, so a fiber suspends/resumes only with a
  // balanced profiler stack: the engine swaps the job's whole stall
  // frame around every resume, which must never happen with a parallel
  // node still open (its lanes would scale against the wrong window).
  // One deferred step fires per section — a section is one scheduling
  // unit, like a single charge.
  ctx.set_step_hook([fiber](const char*) { fiber->Yield(); });
  Status st;
  {
    // Query-level context for the whole Begin..Commit window; operator
    // scopes nest within it on this fiber's stack, and the engine swaps
    // the whole stack top in and out around every step.
    ScopedAttribution scope(&db->env().telemetry().ledger(),
                            ctx.attribution());
    // Account the job's pre-execution life under its own identity:
    // admission/scheduler queueing, then waiting for the node clock to
    // reach this fiber's first resume (dispatch metadata advances
    // nothing, so the node clock has not moved since). Together with the
    // query scope below, the tiles telescope: the job's wait-class sum
    // equals finish - arrival exactly.
    StallProfiler& profiler = db->env().telemetry().profiler();
    const SimClock& clock = db->node().clock();
    profiler.Charge(WaitClass::kAdmissionQueue, job->arrival, job->dispatch);
    profiler.Charge(WaitClass::kLockWait, job->dispatch, clock.now());
    // The rest of the job's life — body, commit/rollback — is one stall
    // scope: instrumented waits inside book their own classes, and the
    // unclaimed remainder (charged CPU work) lands on kCpuExec. Pinned so
    // the residual keeps the query key even though operator scopes swap
    // the ledger's current context underneath.
    ScopedStall stall(&profiler, &clock, WaitClass::kCpuExec);
    profiler.PinScopeAttribution();
    st = job->body ? job->body(job->session.get(), &ctx) : Status::Ok();
    if (st.ok()) {
      st = db->Commit(txn);
    } else {
      Status rollback = db->Rollback(txn);
      (void)rollback;  // the query's own error is the one to report
    }
  }
  job->result = st;
}

void WorkloadEngine::StepJob(Job* job) {
  NodeContext& node = job->db->node();
  SimTime before = node.clock().now();
  CostLedger& ledger = env_->telemetry().ledger();
  StallProfiler& profiler = env_->telemetry().profiler();
  // Restore exactly the attribution the fiber had current when it last
  // yielded; capture it back after the step. Other jobs' scopes never
  // leak in, even though all fibers share the one ledger slot. The stall
  // frame (the fiber's open scope stack) swaps in lockstep.
  AttributionContext host = ledger.Swap(job->saved_attr);
  StallProfiler::Frame* host_frame = profiler.SwapFrame(job->frame.get());
  if (job->stepped) {
    // While this fiber was parked, co-resident jobs advanced the node
    // clock past where it last yielded: time the query spent serialized
    // behind its neighbours, charged under the yield-point attribution.
    profiler.Charge(WaitClass::kLockWait, job->ready_time, before);
  }
  bool more;
  {
    // The resumed fiber runs a whole query slice — buffer pools, OCM,
    // transactions. None of that may see the engine lock held.
    MutexUnlock unlock(&mu_);
    more = job->fiber->Resume();
  }
  job->stepped = true;
  job->saved_attr = ledger.Swap(std::move(host));
  profiler.SwapFrame(host_frame);
  steps_->Add();
  double delta = node.clock().now() - before;
  job->active_seconds += delta;
  // Charge fair-share service as it accrues, not at completion: PickNext
  // then sees up-to-date virtual service, so weighted shares track even
  // when queries are long relative to the run.
  scheduler_.AddService(job->tenant, delta);
  job->ready_time = node.clock().now();
  if (!more) Complete(job);
}

void WorkloadEngine::Complete(Job* job) {
  uint64_t id = job->id;
  SimTime finish = job->db->node().clock().now();
  clock_ = std::max(clock_, finish);
  TenantState& ts = TenantFor(job->tenant);
  CostLedger& ledger = env_->telemetry().ledger();

  // Bill the job's *active* node time to the query, not its wall span:
  // wall spans of co-resident jobs overlap.
  double hourly = job->db->node().profile().hourly_usd;
  ledger.ChargeCompute(job->query_attr, job->active_seconds, hourly);

  double latency = finish - job->arrival;
  ts.latency->Record(latency);
  latency_all_->Record(latency);
  if (job->result.ok()) {
    ts.completed->Add();
  } else {
    ts.failed->Add();
  }
  if (ts.config.slo_seconds > 0) {
    (latency <= ts.config.slo_seconds ? ts.slo_met : ts.slo_missed)->Add();
  }
  double billed_usd = ledger.QueryTotal(job->query_attr.query_id)
                          .TotalUsd(ledger.prices());
  ts.spent_usd += billed_usd;
  if (options_.predictive_admission) {
    // Feed the predictor the job's actual bill and release its budget
    // reservation; the deferred queue re-prices on this new forecast
    // below (WakeDeferred).
    predictor_.Observe(job->tenant, job->tag, billed_usd);
    ts.inflight_predicted_usd =
        std::max(0.0, ts.inflight_predicted_usd - job->predicted_usd);
  }
  // Refresh the tenant's wait-class gauges (cumulative seconds, including
  // background shadow time its queries enqueued).
  CostLedger::Waits stall = ledger.TenantTotal(job->tenant).waits;
  for (int i = 0; i < kNumWaitClasses; ++i) {
    ts.stall[i]->Set(static_cast<double>(stall.ns[i]) * 1e-9);
  }
  admission_.OnComplete();
  --node_active_[job->node_index];
  env_->telemetry().tracer().CompleteSpan(
      job->db->node().trace_pid(), kTrackExec, "workload",
      job->tenant + "/" + job->tag, job->dispatch, finish);

  Completion c;
  c.job_id = id;
  c.tenant = job->tenant;
  c.tag = job->tag;
  c.status = job->result;
  c.arrival = job->arrival;
  c.dispatch = job->dispatch;
  c.finish = finish;
  c.active_seconds = job->active_seconds;
  running_.erase(id);  // job gone before hooks, so hooks may Submit
  if (event_hook_ || completion_hook_) {
    MutexUnlock unlock(&mu_);
    if (event_hook_) event_hook_(finish);
    if (completion_hook_) completion_hook_(c);
  }
  if (!deferred_.empty()) WakeDeferred(finish);
  TryDispatch(finish);
}

void WorkloadEngine::WakeDeferred(SimTime now) {
  // Every parked job gets one fresh DecidePredictive against the
  // post-completion history: spend and in-flight predictions moved, so
  // the earlier deferral verdict is stale. Jobs that still don't fit go
  // back to the end of the queue (FIFO within a wake round).
  std::deque<std::unique_ptr<Job>> parked;
  parked.swap(deferred_);
  while (!parked.empty()) {
    std::unique_ptr<Job> job = std::move(parked.front());
    parked.pop_front();
    TenantState& ts = TenantFor(job->tenant);
    bool can_dispatch = admission_.HasRunSlot() && FindFreeNode() >= 0;
    job->predicted_usd = predictor_.Predict(job->tenant, job->tag);
    AdmissionController::Decision decision = admission_.DecidePredictive(
        job->tenant, now, ts.spent_usd, job->predicted_usd,
        ts.inflight_predicted_usd, ts.config.cost_budget_usd, can_dispatch);
    switch (decision) {
      case AdmissionController::Decision::kAdmit:
        ts.inflight_predicted_usd += job->predicted_usd;
        admission_.OnDispatch();
        Dispatch(std::move(job), now);
        break;
      case AdmissionController::Decision::kQueue: {
        ts.inflight_predicted_usd += job->predicted_usd;
        admission_.OnQueue();
        scheduler_.Enqueue(job->tenant, job->id, now);
        uint64_t id = job->id;
        queued_jobs_[id] = std::move(job);
        break;
      }
      case AdmissionController::Decision::kDefer:
        deferred_.push_back(std::move(job));
        break;
      default:
        ts.costopt_deferred_shed->Add();
        Shed(std::move(job), decision);
        break;
    }
  }
  queue_depth_->Set(static_cast<double>(admission_.queued()));
}

void WorkloadEngine::TryDispatch(SimTime now) {
  while (admission_.HasRunSlot() && FindFreeNode() >= 0) {
    std::optional<FairScheduler::Pick> pick = scheduler_.PickNext(now);
    if (!pick.has_value()) break;
    auto it = queued_jobs_.find(pick->job_id);
    std::unique_ptr<Job> job = std::move(it->second);
    queued_jobs_.erase(it);
    admission_.OnDequeue();
    admission_.OnDispatch();
    Dispatch(std::move(job), now);
  }
  queue_depth_->Set(static_cast<double>(admission_.queued()));
}

WorkloadEngine::TenantCounts WorkloadEngine::Counts(
    const std::string& tenant) const {
  TenantCounts out;
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return out;
  const TenantState& ts = it->second;
  out.submitted = ts.submitted->value();
  out.completed = ts.completed->value();
  out.failed = ts.failed->value();
  out.shed_queue_full = ts.shed_queue_full->value();
  out.shed_rate_limited = ts.shed_rate_limited->value();
  out.shed_budget = ts.shed_budget->value();
  out.slo_met = ts.slo_met->value();
  out.slo_missed = ts.slo_missed->value();
  out.spent_usd = ts.spent_usd;
  return out;
}

const Histogram& WorkloadEngine::LatencyHistogram(
    const std::string& tenant) const {
  // Registry instruments outlive the engine; only the map lookup needs
  // the lock.
  MutexLock lock(&mu_);
  return *tenants_.at(tenant).latency;
}

const Histogram& WorkloadEngine::QueueWaitHistogram(
    const std::string& tenant) const {
  MutexLock lock(&mu_);
  return *tenants_.at(tenant).queue_wait;
}

uint64_t WorkloadEngine::steps() const { return steps_->value(); }

}  // namespace cloudiq

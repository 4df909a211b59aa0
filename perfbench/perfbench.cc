// CloudIQ benchmark: four workloads, end-to-end host and sim metrics, and
// a traced run with per-layer metrics. See perfbench/README.md for why
// each workload exists and which layer metric should move which
// end-to-end metric.
//
//   cloudiq_perfbench --workload power-warm --seed 1 --seconds 6
//                     --trace 0 --out DIR
//
// Prints host-probe and run-info lines, then one JSON object as the last
// line of stdout. perfbench/run.py builds this binary and wraps it.
//
// Every run repeats its workload in several rounds. Each round builds a
// fresh simulated cloud, sets it up (timed as setup), then runs a fixed
// amount of timed work. The first units of timed work form the round's
// "sim window"; every sim metric and per-layer count comes from windows,
// so they repeat exactly per seed. Rounds either repeat one window, and
// must then agree on it exactly (a determinism check inside one process),
// or run distinct fixed pass orders / arrival schedules whose windows are
// pooled.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench/bench_util.h"
#include "columnar/encoding.h"
#include "common/random.h"
#include "costopt/whatif.h"
#include "engine/consistency_check.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "exec/executor.h"
#include "multiplex/multiplex.h"
#include "perfbench/span_recorder.h"
#include "store/page_codec.h"
#include "telemetry/report.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_loader.h"
#include "workload/workload_engine.h"

namespace cloudiq {
namespace perfbench {
namespace {

SpanRecorder& Spans() {
  static SpanRecorder recorder;
  return recorder;
}

// ---------------------------------------------------------------------------
// Metric plumbing

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// Every digit a double carries, so repeated values compare exactly.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  size_t idx = n > 10 ? n - 11 : n - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / n;
  return t;
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 1469598103934665603ull;

// Order-sensitive digest of a query result: names, types and every value
// (doubles by bit pattern).
uint64_t DigestBatch(const Batch& b) {
  uint64_t h = kFnvBasis;
  for (size_t c = 0; c < b.columns.size(); ++c) {
    h = Fnv(h, b.names[c].data(), b.names[c].size());
    const ColumnVector& col = b.columns[c];
    uint8_t type = static_cast<uint8_t>(col.type);
    h = Fnv(h, &type, 1);
    for (int64_t v : col.ints) h = Fnv(h, &v, sizeof(v));
    for (double v : col.doubles) h = Fnv(h, &v, sizeof(v));
    for (const std::string& s : col.strings) {
      uint64_t len = s.size();
      h = Fnv(h, &len, sizeof(len));
      h = Fnv(h, s.data(), s.size());
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Host probe

struct HostProbe {
  unsigned nproc = 0;
  std::string cpu_model = "unknown";
  double effective_cores = 0;
  uint64_t alu_checksum = 0;  // keeps the probe loops observable
};

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

uint64_t AluLoop(uint64_t seed, uint64_t iters) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Effective parallel cores: the same ALU loop on 1 thread, then on nproc
// threads at once. nproc × t(1) / t(nproc) is how many cores really run.
HostProbe ProbeHost() {
  HostProbe probe;
  probe.nproc = std::max(1u, std::thread::hardware_concurrency());
  probe.cpu_model = CpuModel();
  const uint64_t iters = 40'000'000;
  std::vector<uint64_t> sink(probe.nproc);
  double t0 = WallNow();
  sink[0] = AluLoop(1, iters);
  double single = WallNow() - t0;
  t0 = WallNow();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < probe.nproc; ++i) {
    threads.emplace_back(
        [&sink, i, iters] { sink[i] = AluLoop(2 * i + 3, iters); });
  }
  for (std::thread& t : threads) t.join();
  double parallel = WallNow() - t0;
  for (uint64_t v : sink) probe.alu_checksum ^= v;
  probe.effective_cores = parallel > 0 ? probe.nproc * single / parallel : 0;
  return probe;
}

// ---------------------------------------------------------------------------
// Sim-side counters, sampled at the edges of the sim window.

using Counters = std::map<std::string, double>;

Counters SampleCounters(SimEnvironment* env,
                        const std::vector<Database*>& nodes) {
  Counters c;
  SimObjectStore::Stats s3 = env->object_store().stats();
  c["s3.gets"] = s3.gets;
  c["s3.puts"] = s3.puts;
  c["s3.deletes"] = s3.deletes;
  c["s3.ranged_gets"] = s3.ranged_gets;
  c["s3.selects"] = s3.selects;
  c["s3.throttle_events"] = s3.throttle_events;
  c["s3.stale_reads"] = s3.stale_reads;
  c["s3.select_scanned_bytes"] = s3.select_scanned_bytes;
  c["s3.select_returned_bytes"] = s3.select_returned_bytes;
  for (Database* db : nodes) {
    MetricsSnapshot m = CollectMetrics(db);
    c["store.pages_read"] += m.pages_read;
    c["store.pages_written"] += m.pages_written;
    c["store.not_found_retries"] += m.not_found_retries;
    c["store.transient_retries"] += m.transient_retries;
    c["buffer.hits"] += m.buffer_hits;
    c["buffer.misses"] += m.buffer_misses;
    c["buffer.churn_flushes"] += m.churn_flushes;
    c["buffer.commit_flushes"] += m.commit_flushes;
    c["ocm.hits"] += m.ocm_hits;
    c["ocm.misses"] += m.ocm_misses;
    c["ocm.evictions"] += m.ocm_evictions;
    c["ocm.bg_uploads"] += m.ocm_background_uploads;
    c["ocm.rerouted_reads"] += m.ocm_rerouted_reads;
    c["txn.gc_deleted_pages"] += m.gc_pages_deleted;
    c["keygen.range_fetches"] += m.key_fetches;
    c["keygen.max_key"] += m.max_allocated_key;
  }
  StallProfiler::Entry stall = env->telemetry().profiler().GrandTotal();
  for (int i = 0; i < kNumWaitClasses; ++i) {
    c[std::string("stall.") + WaitClassName(static_cast<WaitClass>(i))] =
        stall.ns[i] / 1e9;
  }
  const CostLedger& ledger = env->telemetry().ledger();
  c["ledger.usd"] = ledger.GrandTotal().TotalUsd(ledger.prices());
  for (const auto& [name, counter] : env->telemetry().stats().counters()) {
    auto ends_with = [&name](const char* suffix) {
      size_t n = std::strlen(suffix);
      return name.size() >= n &&
             name.compare(name.size() - n, n, suffix) == 0;
    };
    if (name == "ndp.pushdown_scans") c["ndp.pushed_scans"] = counter.value();
    if (name == "ndp.pull_scans") c["ndp.pulled_scans"] = counter.value();
    if (name.rfind("workload.", 0) == 0 && ends_with(".costopt_deferred")) {
      c["costopt.deferred"] += counter.value();
    }
  }
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Workload configuration

enum class Kind { kPowerWarm, kScanCold, kCommitChurn, kTenantMix };

struct Config {
  Kind kind = Kind::kPowerWarm;
  double sf = 0.02;
  int rounds = 3;
  int units_per_round = 1;  // timed units (pass / txn / chunk) per round
  int window_units = 1;     // leading units that form the sim window
  // commit-churn
  int churn_objects = 16;
  int churn_pages = 64;
  size_t churn_payload = 16 * 1024;
  // tenant-mix
  int tenant_queries = 16;  // per tenant per chunk
  // Rounds run distinct pass orders or arrival schedules and pool their
  // windows, instead of repeating one window exactly.
  bool distinct_rounds = false;
  bool kernels = false;    // run the kernel probes after the round
  int trace_block = 1;     // timed units per traced / untraced block
};

// Estimated at-rest bytes per unit of scale factor (20.6 MB at SF 0.02);
// sizes the scan-cold caches before the data exists.
constexpr double kAtRestBytesPerSf = 1.03e9;
constexpr uint64_t kChurnObjectBase = 1u << 20;
const std::vector<int> kTenantMix = {6, 14, 12};
// Per-tenant open-loop arrival rate (queries per sim second), fixed at
// 70% of the pool's capacity on this mix at SF 0.01 (2.35 queries per sim
// second when all 48 arrive at once); never recalibrated per run.
constexpr double kTenantRate = 0.55;
constexpr double kTenantSlo = 2.0;  // sim seconds
constexpr uint64_t kTenantScheduleSeed = 2021;
constexpr uint64_t kPassOrderSeed = 1992;

// What one round produced.
struct Round {
  double setup_s = 0;
  double timed_s = 0;
  std::vector<double> host_ms;      // one per timed op
  std::vector<double> sim_lat_s;    // one per window op
  double window_sim_s = 0;          // sim seconds the window spanned
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  Counters window;                  // counter deltas over the window
  std::map<std::string, double> extra;  // window values not from counters
  std::map<std::string, double> kernels;  // kernel probe results
  double bytes_at_rest = 0;
  double raw_bytes = 0;
  int index = 0;                    // round number within the run
  std::map<int, uint64_t> digests;  // TPC-H query -> result digest
  double traced_s = 0, plain_s = 0;
  int traced_units = 0, plain_units = 0;
};

void Fail(Round* r, const std::string& what) {
  ++r->failed;
  if (r->errors.size() < 5) r->errors.push_back(what);
}

// Runs one TPC-H query under full attribution and returns its result.
Result<Batch> RunQuery(Database* db, int q, double* sim_seconds) {
  SimTime before = db->node().clock().now();
  Transaction* txn = db->Begin();
  QueryContext ctx = db->NewQueryContext(txn, "Q" + std::to_string(q));
  Result<Batch> result = Status::Ok();
  {
    ScopedQueryAttribution scope(&ctx);
    StallProfiler& profiler = db->env().telemetry().profiler();
    ScopedStall stall(&profiler, &db->node().clock(), WaitClass::kCpuExec);
    profiler.PinScopeAttribution();
    {
      ScopedSpan span(&Spans(), "tpch", "tpch.RunTpchQuery.Q" +
                                            std::to_string(q));
      result = RunTpchQuery(&ctx, q);
    }
    if (!result.ok()) {
      (void)db->Rollback(txn);
      return result.status();
    }
    ScopedSpan span(&Spans(), "txn", "txn.Commit");
    CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
  }
  *sim_seconds = db->node().clock().now() - before;
  bench::ChargePhase(db, ctx.attribution(), *sim_seconds);
  return result;
}

Result<TpchLoadResult> TimedLoad(Database* db, TpchGenerator* gen) {
  CostLedger& ledger = db->env().telemetry().ledger();
  AttributionContext who;
  who.query_id = ledger.NextQueryId();
  who.node_id = db->node().trace_pid();
  who.tag = "load";
  Result<TpchLoadResult> load = Status::Ok();
  {
    ScopedAttribution scope(&ledger, who);
    StallProfiler& profiler = db->env().telemetry().profiler();
    ScopedStall stall(&profiler, &db->node().clock(), WaitClass::kCpuExec);
    profiler.PinScopeAttribution();
    ScopedSpan span(&Spans(), "tpch", "tpch.LoadTpch");
    load = LoadTpch(db, gen, {});
  }
  if (load.ok()) bench::ChargePhase(db, who, load->seconds);
  return load;
}

// Runs `q` and checks its digest against `expected` (recording it there
// when absent). Returns host milliseconds.
double QueryOp(Database* db, int q, std::map<int, uint64_t>* expected,
               Round* r, double* sim_seconds) {
  ScopedSpan op(&Spans(), "bench", "bench.op");
  double t0 = HostNow();
  Result<Batch> out = RunQuery(db, q, sim_seconds);
  double ms = (HostNow() - t0) * 1e3;
  ++r->attempted;
  if (!out.ok()) {
    Fail(r, "Q" + std::to_string(q) + ": " + out.status().ToString());
    return ms;
  }
  uint64_t d = DigestBatch(*out);
  auto [it, inserted] = expected->emplace(q, d);
  if (!inserted && it->second != d) {
    Fail(r, "Q" + std::to_string(q) + " result digest changed");
  }
  return ms;
}

// Runs `queries` once, unspanned, so per-layer query times describe the
// timed state only. The results seed the round's digests.
void WarmPass(Database* db, const std::vector<int>& queries, Round* r) {
  bool was = Spans().enabled();
  Spans().set_enabled(false);
  for (int q : queries) {
    double sim = 0;
    QueryOp(db, q, &r->digests, r, &sim);
  }
  Spans().set_enabled(was);
}

void CollectTelemetry(Database* db, const std::string& report_path) {
  ScopedSpan span(&Spans(), "telemetry", "telemetry.CollectMetrics");
  MetricsSnapshot m = CollectMetrics(db);
  if (report_path.empty()) return;
  RunReportInfo info;
  info.bench = "perfbench";
  info.sim_seconds = m.sim_seconds;
  SimEnvironment& env = db->env();
  (void)WriteRunReport(info, env.telemetry().stats(), env.telemetry().ledger(),
                       env.telemetry().profiler(), report_path);
}

// In a traced run, blocks of timed units alternate traced and untraced
// across the whole run; each unit's host time is booked on its side.
int g_unit_index = 0;

struct UnitClock {
  Round* r;
  bool traced_run;
  int block;  // units per block; a whole maintenance cycle in commit-churn
  bool traced = false;
  double t0 = 0;
  void Start() {
    traced = traced_run && g_unit_index++ / block % 2 == 0;
    Spans().set_enabled(traced);
    t0 = HostNow();
  }
  void Stop() {
    double dt = HostNow() - t0;
    if (traced) {
      r->traced_s += dt;
      ++r->traced_units;
    } else {
      r->plain_s += dt;
      ++r->plain_units;
    }
    Spans().set_enabled(traced_run);
  }
};

void RunKernelProbes(Database* db, uint64_t seed, double sf,
                     std::map<std::string, double>* out);

// ---------------------------------------------------------------------------
// power-warm and scan-cold: TPC-H Q1-Q22 in closed-loop single-stream
// passes, after one untimed warm pass.

Status TpchRound(const Config& cfg, uint64_t seed, bool traced,
                 const std::string& report_path, Round* r) {
  const bool cold = cfg.kind == Kind::kScanCold;
  double t_setup = HostNow();
  ObjectStoreOptions store;
  store.seed = seed;
  SimEnvironment env(store);
  Database::Options opts;
  opts.user_storage = UserStorage::kObjectStore;
  InstanceProfile profile = InstanceProfile::M5ad24xlarge();
  if (cold) {
    profile = InstanceProfile::M5ad4xlarge();
    double at_rest = kAtRestBytesPerSf * cfg.sf;
    opts.enable_ocm = true;
    opts.buffer_capacity_override = static_cast<uint64_t>(at_rest / 6);
    // The OCM's capacity is a fraction of the instance SSD. At 1/2 of
    // the data the 22 queries' pages still fit in it; 1/3 puts the
    // working set above both caches.
    opts.ocm.capacity_fraction = at_rest / 3 / (profile.ssd_gb * 1e9);
  }
  Database db(&env, profile, opts);
  TpchGenerator gen(cfg.sf, seed);
  Result<TpchLoadResult> load = TimedLoad(&db, &gen);
  if (!load.ok()) return load.status();
  r->raw_bytes = load->input_bytes;
  if (cold) {
    ScopedSpan span(&Spans(), "engine", "engine.CrashAndRecover");
    CLOUDIQ_RETURN_IF_ERROR(db.CrashAndRecover());
  }
  std::vector<int> order;
  for (int q = 1; q <= kTpchQueryCount; ++q) order.push_back(q);
  WarmPass(&db, order, r);
  r->setup_s = HostNow() - t_setup;

  std::vector<Database*> nodes = {&db};
  env.telemetry().stats().Reset();
  Counters before = SampleCounters(&env, nodes);
  SimTime window_start = db.node().clock().now();
  // Round 0 runs the power order Q1..Q22; later rounds run fixed
  // shuffles of it, so the pooled windows see several pass orders.
  Rng shuffle(kPassOrderSeed + r->index);
  for (size_t i = order.size(); r->index > 0 && i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.Uniform(i)]);
  }
  UnitClock clock{r, traced, cfg.trace_block};
  double t_timed = HostNow();
  for (int u = 0; u < cfg.units_per_round; ++u) {
    clock.Start();
    for (int q : order) {
      double sim = 0;
      r->host_ms.push_back(QueryOp(&db, q, &r->digests, r, &sim));
      if (u < cfg.window_units) r->sim_lat_s.push_back(sim);
    }
    clock.Stop();
    if (u + 1 == cfg.window_units) {
      r->window_sim_s = db.node().clock().now() - window_start;
      r->window = Delta(SampleCounters(&env, nodes), before);
      const Histogram& get = env.telemetry().stats().histogram("s3.get");
      r->extra["sim.s3_get_p50_ms"] = get.p50() * 1e3;
      r->extra["sim.s3_get_p99_ms"] = get.p99() * 1e3;
      r->bytes_at_rest = env.object_store().LiveBytes();
    }
  }
  r->timed_s = HostNow() - t_timed;
  CollectTelemetry(&db, report_path);
  if (cold) {
    ScopedSpan span(&Spans(), "engine", "engine.CheckConsistency");
    Result<ConsistencyReport> check = CheckConsistency(&db);
    if (!check.ok() || !check->ok()) Fail(r, "consistency check failed");
  }
  if (cfg.kernels) RunKernelProbes(&db, seed, cfg.sf, &r->kernels);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// commit-churn: one writer rewriting skewed pages of benchmark-owned
// objects, with periodic snapshots, drops, GC, expiry and checkpoints.

std::vector<uint8_t> Payload(uint64_t tag, size_t size) {
  // Half seeded noise, half a repeating pattern: the page codec has
  // something to compress, as it would on real column pages.
  std::vector<uint8_t> p(size);
  uint64_t x = tag * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < size / 2; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    p[i] = static_cast<uint8_t>(x);
  }
  for (size_t i = size / 2; i < size; ++i) p[i] = static_cast<uint8_t>(i % 7);
  return p;
}

// Committed content of the churn objects: object -> per-page payload tag.
using ChurnModel = std::map<uint64_t, std::vector<uint64_t>>;

// Skewed pick in [0, n): low indexes are hot.
uint64_t Skewed(Rng* rng, uint64_t n, int power) {
  double u = rng->NextDouble();
  double v = u;
  for (int i = 1; i < power; ++i) v *= u;
  return std::min<uint64_t>(n - 1, static_cast<uint64_t>(v * n));
}

// One churn transaction; the model changes only when it commits.
Status ChurnTxn(Database* db, Rng* rng, ChurnModel* model, uint64_t* next_tag,
                size_t payload, Round* r) {
  std::vector<uint64_t> objects;
  for (const auto& [id, pages] : *model) objects.push_back(id);
  uint64_t id = objects[Skewed(rng, objects.size(), 2)];
  std::vector<uint64_t> pages = (*model)[id];
  Transaction* txn = db->Begin();
  Status st = [&]() -> Status {
    Result<StorageObject*> obj = [&] {
      ScopedSpan span(&Spans(), "txn", "txn.OpenForWrite");
      return db->txn_mgr().OpenForWrite(txn, id);
    }();
    if (!obj.ok()) return obj.status();
    for (int k = 0; k < 3; ++k) {
      uint64_t page = Skewed(rng, pages.size(), 3);
      uint64_t tag = (*next_tag)++;
      ScopedSpan span(&Spans(), "txn", "txn.WritePage");
      CLOUDIQ_RETURN_IF_ERROR((*obj)->WritePage(page, Payload(tag, payload)));
      pages[page] = tag;
    }
    for (int k = 0; k < 2; ++k) {
      uint64_t tag = (*next_tag)++;
      ScopedSpan span(&Spans(), "txn", "txn.AppendPage");
      Result<uint64_t> page = (*obj)->AppendPage(Payload(tag, payload));
      if (!page.ok()) return page.status();
      if (*page != pages.size()) return Status::Corruption("append page");
      pages.push_back(tag);
    }
    uint64_t probe = rng->Uniform(pages.size());
    ScopedSpan span(&Spans(), "txn", "txn.ReadPage");
    Result<BufferManager::PageData> data = (*obj)->ReadPage(probe);
    if (!data.ok()) return data.status();
    if (**data != Payload(pages[probe], payload)) {
      return Status::Corruption("read-back differs inside the transaction");
    }
    return Status::Ok();
  }();
  if (!st.ok()) {
    (void)db->Rollback(txn);
    return st;
  }
  {
    ScopedSpan span(&Spans(), "txn", "txn.Commit");
    SimTime t0 = db->node().clock().now();
    CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
    r->extra["txn.commit_sim_s_sum"] += db->node().clock().now() - t0;
    r->extra["txn.commit_calls"] += 1;
  }
  (*model)[id] = std::move(pages);
  return Status::Ok();
}

Status CreateChurnObject(Database* db, uint64_t id, int pages, size_t payload,
                         uint64_t* next_tag, Transaction* txn,
                         ChurnModel* model) {
  Result<StorageObject*> obj = [&] {
    ScopedSpan span(&Spans(), "txn", "txn.CreateObject");
    return db->txn_mgr().CreateObject(txn, id, db->user_space());
  }();
  if (!obj.ok()) return obj.status();
  std::vector<uint64_t> tags;
  for (int p = 0; p < pages; ++p) {
    uint64_t tag = (*next_tag)++;
    Result<uint64_t> page = (*obj)->AppendPage(Payload(tag, payload));
    if (!page.ok()) return page.status();
    tags.push_back(tag);
  }
  (*model)[id] = std::move(tags);
  return Status::Ok();
}

// Maintenance on fixed periods (in committed transactions).
Status ChurnMaintenance(Database* db, uint64_t n, const Config& cfg,
                        ChurnModel* model, uint64_t* next_id,
                        uint64_t* next_tag, Round* r) {
  if (n % 20 == 0) {
    ScopedSpan span(&Spans(), "snapshot", "snapshot.TakeSnapshot");
    SimTime t0 = db->node().clock().now();
    Result<SnapshotManager::SnapshotInfo> snap = db->TakeSnapshot();
    if (!snap.ok()) return snap.status();
    r->extra["snapshot.take_sim_s_sum"] += db->node().clock().now() - t0;
    r->extra["snapshot.takes"] += 1;
    r->extra["snapshot.metadata_puts"] += 1;
    r->extra["snapshot.backup_bytes_sum"] += snap->backup_bytes;
  }
  if (n % 40 == 0) {
    // Drop the oldest object and create a fresh one in its place.
    Transaction* txn = db->Begin();
    uint64_t oldest = model->begin()->first;
    ChurnModel fresh;
    Status st = [&]() -> Status {
      {
        ScopedSpan span(&Spans(), "txn", "txn.DropObject");
        CLOUDIQ_RETURN_IF_ERROR(db->txn_mgr().DropObject(txn, oldest));
      }
      return CreateChurnObject(db, (*next_id)++, cfg.churn_pages,
                               cfg.churn_payload, next_tag, txn, &fresh);
    }();
    if (!st.ok()) {
      (void)db->Rollback(txn);
      return st;
    }
    {
      ScopedSpan span(&Spans(), "txn", "txn.Commit");
      CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
    }
    model->erase(oldest);
    model->insert(fresh.begin(), fresh.end());
  }
  if (n % 10 == 5) {
    ScopedSpan span(&Spans(), "txn", "txn.RunGarbageCollection");
    CLOUDIQ_RETURN_IF_ERROR(db->RunGarbageCollection());
  }
  if (n % 20 == 10) {
    uint64_t deleted = db->snapshot_mgr()->pages_permanently_deleted();
    {
      ScopedSpan span(&Spans(), "snapshot", "snapshot.CollectExpired");
      CLOUDIQ_RETURN_IF_ERROR(db->snapshot_mgr()->CollectExpired());
    }
    // Expiry rewrites the snapshot metadata object when it deleted pages.
    if (db->snapshot_mgr()->pages_permanently_deleted() != deleted) {
      r->extra["snapshot.metadata_puts"] += 1;
    }
  }
  if (n % 50 == 25) {
    ScopedSpan span(&Spans(), "txn", "txn.Checkpoint");
    CLOUDIQ_RETURN_IF_ERROR(db->Checkpoint());
  }
  return Status::Ok();
}

// Byte-exact read-back of every committed page.
void VerifyChurn(Database* db, const ChurnModel& model, size_t payload,
                 Round* r) {
  Transaction* txn = db->Begin();
  for (const auto& [id, tags] : model) {
    Result<std::unique_ptr<StorageObject>> obj =
        db->txn_mgr().OpenForRead(txn, id);
    if (!obj.ok()) {
      Fail(r, "object " + std::to_string(id) + " lost after recovery");
      continue;
    }
    if ((*obj)->page_count() != tags.size()) {
      Fail(r, "object " + std::to_string(id) + " page count changed");
      continue;
    }
    for (size_t p = 0; p < tags.size(); ++p) {
      Result<BufferManager::PageData> data = (*obj)->ReadPage(p);
      if (!data.ok() || **data != Payload(tags[p], payload)) {
        Fail(r, "object " + std::to_string(id) + " page " +
                    std::to_string(p) + " differs after recovery");
        break;
      }
    }
  }
  (void)db->Rollback(txn);
}

Status ChurnRound(const Config& cfg, uint64_t seed, bool traced,
                  const std::string& report_path, Round* r) {
  double t_setup = HostNow();
  ObjectStoreOptions store;
  store.seed = seed;
  SimEnvironment env(store);
  Database::Options opts;
  opts.user_storage = UserStorage::kObjectStore;
  opts.page_size = 64 * 1024;
  // A buffer of a few transactions' pages: dirty pages are also flushed
  // before commit (churn flushes, OCM write-back), not only at commit.
  opts.buffer_capacity_override = 256 * 1024;
  // Short enough that snapshot expiry runs several cycles per window.
  opts.snapshot_retention_seconds = 1.0;
  Database db(&env, InstanceProfile::M5ad4xlarge(), opts);
  Rng rng(seed);
  ChurnModel model;
  uint64_t next_tag = seed << 32;
  uint64_t next_id = kChurnObjectBase;
  {
    Transaction* txn = db.Begin();
    for (int i = 0; i < cfg.churn_objects; ++i) {
      CLOUDIQ_RETURN_IF_ERROR(CreateChurnObject(&db, next_id++,
                                                cfg.churn_pages,
                                                cfg.churn_payload, &next_tag,
                                                txn, &model));
    }
    ScopedSpan span(&Spans(), "txn", "txn.Commit");
    CLOUDIQ_RETURN_IF_ERROR(db.Commit(txn));
  }
  {
    ScopedSpan span(&Spans(), "txn", "txn.Checkpoint");
    CLOUDIQ_RETURN_IF_ERROR(db.Checkpoint());
  }
  r->setup_s = HostNow() - t_setup;

  std::vector<Database*> nodes = {&db};
  env.telemetry().stats().Reset();
  Counters before = SampleCounters(&env, nodes);
  SimTime window_start = db.node().clock().now();
  UnitClock clock{r, traced, cfg.trace_block};
  double t_timed = HostNow();
  for (int u = 0; u < cfg.units_per_round; ++u) {
    clock.Start();
    ScopedSpan op(&Spans(), "bench", "bench.op");
    SimTime s0 = db.node().clock().now();
    double h0 = HostNow();
    Status st = ChurnTxn(&db, &rng, &model, &next_tag, cfg.churn_payload, r);
    ++r->attempted;
    if (!st.ok()) Fail(r, "churn txn: " + st.ToString());
    if (u < cfg.window_units) {
      r->sim_lat_s.push_back(db.node().clock().now() - s0);
    }
    st = ChurnMaintenance(&db, u + 1, cfg, &model, &next_id, &next_tag, r);
    if (!st.ok()) Fail(r, "churn maintenance: " + st.ToString());
    r->host_ms.push_back((HostNow() - h0) * 1e3);
    // Node time of the transaction and its share of maintenance.
    bench::ChargePhase(&db, AttributionContext(),
                       db.node().clock().now() - s0);
    clock.Stop();
    if (u + 1 == cfg.window_units) {
      r->window_sim_s = db.node().clock().now() - window_start;
      r->window = Delta(SampleCounters(&env, nodes), before);
      const Histogram& get = env.telemetry().stats().histogram("s3.get");
      r->extra["sim.s3_get_p50_ms"] = get.p50() * 1e3;
      r->extra["sim.s3_get_p99_ms"] = get.p99() * 1e3;
      r->extra["snapshot.retained_pages"] =
          db.snapshot_mgr()->retained_page_count();
      r->bytes_at_rest = env.object_store().LiveBytes();
      uint64_t live_raw = 0;
      for (const auto& [id, tags] : model) live_raw += tags.size();
      r->raw_bytes = static_cast<double>(live_raw) * cfg.churn_payload;
    }
  }
  r->timed_s = HostNow() - t_timed;
  CollectTelemetry(&db, report_path);
  // Never-write-twice, checked exactly: the only key the store may see
  // rewritten is the snapshot manager's fixed metadata object (see
  // README.md for why the store's own tripwire stays off here).
  double meta_puts = r->extra["snapshot.metadata_puts"];
  double overwrites = env.object_store().stats().overwrites;
  if (overwrites != std::max(0.0, meta_puts - 1)) {
    Fail(r, "object keys rewritten: " + Num(overwrites) + " overwrites for " +
                Num(meta_puts) + " snapshot metadata writes");
  }
  {
    ScopedSpan span(&Spans(), "engine", "engine.CrashAndRecover");
    CLOUDIQ_RETURN_IF_ERROR(db.CrashAndRecover());
  }
  VerifyChurn(&db, model, cfg.churn_payload, r);
  ScopedSpan span(&Spans(), "engine", "engine.CheckConsistency");
  Result<ConsistencyReport> check = CheckConsistency(&db);
  if (!check.ok() || !check->ok()) Fail(r, "consistency check failed");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// tenant-mix: three tenants, open loop at a fixed rate, on a 2-node
// multiplex through the workload engine.

Status TenantRound(const Config& cfg, uint64_t seed, bool traced,
                   const std::string& report_path, Round* r) {
  double t_setup = HostNow();
  ObjectStoreOptions store;
  store.seed = seed;
  SimEnvironment env(store);
  Multiplex::Options mopts;
  mopts.db.user_storage = UserStorage::kObjectStore;
  mopts.db.ndp_mode = ndp::NdpMode::kAuto;
  // A small buffer and no OCM: scans reach the object store, so the
  // pushdown and plan-cost choices matter.
  mopts.db.enable_ocm = false;
  mopts.db.buffer_capacity_override =
      static_cast<uint64_t>(kAtRestBytesPerSf * cfg.sf / 20);
  Multiplex mx(&env, 2, mopts);
  TpchGenerator gen(cfg.sf, seed);
  Result<TpchLoadResult> load = TimedLoad(&mx.secondary(0), &gen);
  if (!load.ok()) return load.status();
  r->raw_bytes = load->input_bytes;
  {
    ScopedSpan span(&Spans(), "multiplex", "multiplex.SyncCatalogs");
    CLOUDIQ_RETURN_IF_ERROR(mx.SyncCatalogs());
  }
  for (int i = 0; i < 2; ++i) WarmPass(&mx.secondary(i), kTenantMix, r);

  std::vector<Database*> nodes = {&mx.secondary(0), &mx.secondary(1)};
  WorkloadEngine::Options eopts;
  eopts.admission.concurrency_limit = 3;
  eopts.admission.max_queue_depth = 64;
  eopts.slots_per_node = 2;
  std::vector<WorkloadEngine::TenantConfig> tenants;
  for (int t = 0; t < 3; ++t) {
    WorkloadEngine::TenantConfig tc;
    tc.name = "tenant" + std::to_string(t);
    tc.slo_seconds = kTenantSlo;
    tc.cost_policy = costopt::PlanPolicy::kMinCostUnderSlo;
    tenants.push_back(tc);
  }
  WorkloadEngine engine(nodes, eopts, tenants);
  r->setup_s = HostNow() - t_setup;

  struct Pending {
    double host_start = -1;
    double host_end = -1;
  };
  std::map<uint64_t, Pending> pending;  // by job id
  std::vector<WorkloadEngine::Completion> done;
  engine.set_completion_hook(
      [&done](const WorkloadEngine::Completion& c) { done.push_back(c); });
  std::vector<std::pair<uint64_t, costopt::WhatIfLog>> whatifs;

  env.telemetry().stats().Reset();
  Counters before = SampleCounters(&env, nodes);
  // Fixed Poisson draws of arrivals and query order, one per round, the
  // same for every seed: at 70% load the queueing of one episode swings
  // far more between draws than a code change would move it, so runs
  // compare the same schedules. The seed still varies the data and the
  // store.
  Rng rng(kTenantScheduleSeed + r->index);
  SimTime window_start = engine.now();
  UnitClock clock{r, traced, cfg.trace_block};
  double t_timed = HostNow();
  for (int u = 0; u < cfg.units_per_round; ++u) {
    clock.Start();
    ScopedSpan op(&Spans(), "bench", "bench.chunk");
    done.clear();
    SimTime start = engine.now();
    for (int t = 0; t < 3; ++t) {
      SimTime at = start;
      std::vector<int> order = kTenantMix;
      for (int n = 0; n < cfg.tenant_queries; ++n) {
        if (n % order.size() == 0) {
          for (size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.Uniform(i)]);
          }
        }
        int q = order[n % order.size()];
        at += rng.Exponential(1.0 / kTenantRate);
        // The body runs inside RunUntilIdle below, while every captured
        // reference is alive.
        engine.Submit(
            tenants[t].name, "Q" + std::to_string(q), at,
            [q, r, &pending, &whatifs](Session*, QueryContext* ctx) {
              uint64_t id = ctx->attribution().query_id;
              Pending& p = pending[id];
              // No span here: bodies yield mid-query and interleave, so
              // their spans would not nest. Query work counts as self
              // time of workload.RunUntilIdle.
              p.host_start = HostNow();
              Result<Batch> out = RunTpchQuery(ctx, q);
              p.host_end = HostNow();
              if (!out.ok()) return out.status();
              auto it = r->digests.find(q);
              if (it == r->digests.end() || it->second != DigestBatch(*out)) {
                Fail(r, "tenant Q" + std::to_string(q) + " digest differs");
              }
              whatifs.emplace_back(id, ctx->whatif());
              return Status::Ok();
            });
      }
    }
    {
      ScopedSpan span(&Spans(), "workload", "workload.RunUntilIdle");
      CLOUDIQ_RETURN_IF_ERROR(engine.RunUntilIdle());
    }
    clock.Stop();
    for (const WorkloadEngine::Completion& c : done) {
      ++r->attempted;
      if (c.shed) {
        Fail(r, "query shed by admission");
      } else if (!c.status.ok()) {
        Fail(r, "tenant query: " + c.status.ToString());
      }
    }
    for (const auto& [id, p] : pending) {
      if (p.host_end >= 0) {
        r->host_ms.push_back((p.host_end - p.host_start) * 1e3);
      }
    }
    pending.clear();
    if (u < cfg.window_units) {
      for (const WorkloadEngine::Completion& c : done) {
        r->sim_lat_s.push_back(c.finish - c.arrival);
      }
    }
    if (u + 1 == cfg.window_units) {
      r->window_sim_s = engine.now() - window_start;
      r->window = Delta(SampleCounters(&env, nodes), before);
      r->bytes_at_rest = env.object_store().LiveBytes();
      StatsRegistry& stats = env.telemetry().stats();
      r->extra["sim.s3_get_p50_ms"] = stats.histogram("s3.get").p50() * 1e3;
      r->extra["sim.s3_get_p99_ms"] = stats.histogram("s3.get").p99() * 1e3;
      r->extra["workload.queue_wait_p95_sim_s"] =
          stats.histogram("workload.queue_wait").p95();
      std::vector<double> completed;
      uint64_t shed = 0;
      for (const auto& t : tenants) {
        WorkloadEngine::TenantCounts counts = engine.Counts(t.name);
        completed.push_back(static_cast<double>(counts.completed));
        shed += counts.Shed();
      }
      double sum = 0, sq = 0;
      for (double c : completed) {
        sum += c;
        sq += c * c;
      }
      r->extra["workload.fairness"] =
          sq > 0 ? sum * sum / (completed.size() * sq) : 0;
      r->extra["workload.shed"] = static_cast<double>(shed);
      const CostLedger& ledger = env.telemetry().ledger();
      costopt::PredictionAccuracy accuracy;
      for (const auto& [id, log] : whatifs) {
        accuracy.Fold(costopt::ComparePredictions(log, ledger.entries(), id,
                                                  ledger.prices()));
      }
      r->extra["costopt.prediction_error"] = accuracy.RelativeError();
    }
    whatifs.clear();
  }
  r->timed_s = HostNow() - t_timed;
  CollectTelemetry(&mx.secondary(0), report_path);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Kernel probes: direct calls into exec, columnar, store and blockmap
// public functions on the round's loaded TPC-H data.

template <typename F>
double TimeIt(const char* layer, const std::string& name, F&& f) {
  ScopedSpan span(&Spans(), layer, name);
  double t0 = HostNow();
  f();
  return HostNow() - t0;
}

void RunKernelProbes(Database* db, uint64_t seed, double sf,
                     std::map<std::string, double>* out) {
  std::map<std::string, double>& m = *out;
  TpchGenerator gen(sf, seed);
  uint64_t rows = gen.RowCount(kLineitem);
  Batch generated;
  double t = TimeIt("tpch", "tpch.GenerateBatch", [&] {
    generated = gen.GenerateBatch(kLineitem, 0, rows);
  });
  m["tpch.gen_ns_per_row"] = t * 1e9 / rows;

  Transaction* txn = db->Begin();
  QueryContext ctx = db->NewQueryContext(txn, "kernels");
  Result<TableReader> li = ctx.OpenTable(kLineitem);
  Result<TableReader> orders = ctx.OpenTable(kOrders);
  if (!li.ok() || !orders.ok()) {
    (void)db->Rollback(txn);
    return;
  }
  const std::vector<std::string> cols = {
      "l_orderkey", "l_quantity", "l_extendedprice", "l_discount",
      "l_tax", "l_shipdate", "l_returnflag", "l_linestatus"};
  Result<Batch> scan = Status::Ok();
  t = TimeIt("exec", "exec.ScanTable",
             [&] { scan = ScanTable(&ctx, &*li, cols); });
  if (!scan.ok()) {
    (void)db->Rollback(txn);
    return;
  }
  m["exec.scan_ns_per_value"] = t * 1e9 / (scan->rows() * cols.size());
  Batch filtered;
  t = TimeIt("exec", "exec.FilterBatch", [&] {
    filtered = FilterBatch(&ctx, *scan, [](const Batch& b, size_t r) {
      return b.Int("l_quantity", r) < 24;
    });
  });
  m["exec.filter_ns_per_row"] = t * 1e9 / scan->rows();
  Result<Batch> ord = ScanTable(&ctx, &*orders, {"o_orderkey", "o_orderdate"});
  if (ord.ok()) {
    Result<Batch> joined = Status::Ok();
    t = TimeIt("exec", "exec.HashJoin", [&] {
      joined = HashJoin(&ctx, *scan, "l_orderkey", *ord, "o_orderkey",
                        JoinType::kInner);
    });
    m["exec.join_ns_per_row"] = t * 1e9 / (scan->rows() + ord->rows());
  }
  t = TimeIt("exec", "exec.HashAggregate", [&] {
    (void)HashAggregate(&ctx, *scan, {"l_returnflag", "l_linestatus"},
                        {{AggOp::kSum, "l_quantity", "sum_qty"},
                         {AggOp::kSum, "l_extendedprice", "sum_price"},
                         {AggOp::kAvg, "l_discount", "avg_disc"},
                         {AggOp::kCount, "", "n"}});
  });
  m["exec.agg_ns_per_row"] = t * 1e9 / scan->rows();
  size_t sort_rows = scan->rows();
  t = TimeIt("exec", "exec.SortBatch", [&] {
    (void)SortBatch(&ctx, *scan, {{"l_extendedprice", false}});
  });
  m["exec.sort_ns_per_row"] = t * 1e9 / sort_rows;

  // Page fetch, decode, re-encode and page codec over every lineitem
  // column page of the first partition.
  const TableMeta& meta = li->meta();
  std::vector<std::vector<uint8_t>> frames;
  size_t pages = 0;
  t = TimeIt("columnar", "columnar.FetchPage", [&] {
    const PartitionMeta& part = meta.partitions[0];
    for (size_t c = 0; c < part.columns.size(); ++c) {
      for (size_t p = 0; p < part.columns[c].zones.size(); ++p) {
        Result<BufferManager::PageData> data = li->FetchPage(0, c, p);
        if (data.ok()) frames.push_back(**data);
        ++pages;
      }
    }
  });
  m["columnar.fetch_us_per_page"] = pages ? t * 1e6 / pages : 0;
  std::vector<ColumnVector> decoded;
  uint64_t values = 0;
  t = TimeIt("columnar", "columnar.DecodeColumnPage", [&] {
    for (const std::vector<uint8_t>& f : frames) {
      Result<ColumnVector> v = DecodeColumnPage(f);
      if (v.ok()) {
        values += v->size();
        decoded.push_back(std::move(*v));
      }
    }
  });
  m["columnar.decode_ns_per_value"] = values ? t * 1e9 / values : 0;
  std::vector<std::vector<uint8_t>> encoded;
  double raw_bytes = 0, enc_bytes = 0;
  t = TimeIt("columnar", "columnar.EncodeColumnPage", [&] {
    for (const ColumnVector& v : decoded) {
      ZoneMapEntry zone;
      encoded.push_back(EncodeColumnPage(v, 0, v.size(), &zone));
    }
  });
  m["columnar.encode_ns_per_value"] = values ? t * 1e9 / values : 0;
  for (size_t i = 0; i < decoded.size(); ++i) {
    const ColumnVector& v = decoded[i];
    if (v.type == ColumnType::kString) {
      for (const std::string& s : v.strings) raw_bytes += s.size();
    } else {
      raw_bytes += 8.0 * v.size();
    }
    enc_bytes += encoded[i].size();
  }
  m["columnar.encoded_bytes_per_raw_byte"] =
      raw_bytes > 0 ? enc_bytes / raw_bytes : 0;
  std::vector<std::vector<uint8_t>> page_frames;
  double payload_bytes = 0, frame_bytes = 0;
  for (const auto& e : encoded) payload_bytes += e.size();
  t = TimeIt("store", "store.EncodePage", [&] {
    for (const auto& e : encoded) page_frames.push_back(EncodePage(e));
  });
  for (const auto& f : page_frames) frame_bytes += f.size();
  m["store.page_encode_ns_per_byte"] =
      payload_bytes > 0 ? t * 1e9 / payload_bytes : 0;
  m["store.frame_bytes_per_payload_byte"] =
      payload_bytes > 0 ? frame_bytes / payload_bytes : 0;
  t = TimeIt("store", "store.DecodePage", [&] {
    for (const auto& f : page_frames) (void)DecodePage(f);
  });
  m["store.page_decode_ns_per_byte"] =
      payload_bytes > 0 ? t * 1e9 / payload_bytes : 0;

  // n-bit packing at the widths TPC-H columns actually use.
  Rng rng(seed);
  const size_t n = 1 << 16;
  for (int w : {4, 13, 20, 32}) {
    std::vector<uint64_t> v(n);
    uint64_t mask = (uint64_t{1} << w) - 1;
    for (uint64_t& x : v) x = rng.Next() & mask;
    std::vector<uint8_t> packed;
    std::string ws = ".w" + std::to_string(w);
    t = TimeIt("columnar", "columnar.NBitPack" + ws,
               [&] { packed = NBitPack(v, w); });
    m["columnar.nbit_pack_ns_per_value" + ws] = t * 1e9 / n;
    std::vector<uint64_t> back;
    t = TimeIt("columnar", "columnar.NBitUnpack" + ws,
               [&] { back = NBitUnpack(packed, w, n); });
    m["columnar.nbit_unpack_ns_per_value" + ws] = t * 1e9 / n;
  }

  // Blockmap lookups on a read-only object: every page of each column
  // segment of the first partition.
  uint64_t lookups = 0;
  double lookup_s = 0;
  for (const SegmentMeta& seg : meta.partitions[0].columns) {
    Result<std::unique_ptr<StorageObject>> obj =
        db->txn_mgr().OpenForRead(txn, seg.object_id);
    if (!obj.ok()) continue;
    uint64_t count = (*obj)->page_count();
    lookup_s += TimeIt("blockmap", "blockmap.Lookup", [&] {
      for (int rep = 0; rep < 64; ++rep) {
        for (uint64_t p = 0; p < count; ++p) {
          (void)(*obj)->blockmap().Lookup(p);
        }
      }
    });
    lookups += 64 * count;
  }
  m["blockmap.lookup_ns"] = lookups ? lookup_s * 1e9 / lookups : 0;
  (void)db->Rollback(txn);
}

// ---------------------------------------------------------------------------
// Rounds and workload configuration

Status RunRound(const Config& cfg, uint64_t seed, bool traced,
                const std::string& report_path, Round* r) {
  switch (cfg.kind) {
    case Kind::kPowerWarm:
    case Kind::kScanCold:
      return TpchRound(cfg, seed, traced, report_path, r);
    case Kind::kCommitChurn:
      return ChurnRound(cfg, seed, traced, report_path, r);
    case Kind::kTenantMix:
      return TenantRound(cfg, seed, traced, report_path, r);
  }
  return Status::InvalidArgument("unknown workload");
}

// Timed units per round come from --seconds and each unit's host seconds
// on the reference 1-core x86 host, so a run measures about --seconds
// there. The work is fixed by --seconds, not stopped by a clock, so every
// run of one seed does the same ops and host percentiles compare like
// with like.
std::optional<Config> MakeConfig(const std::string& workload, double seconds) {
  Config c;
  auto units = [seconds](double unit_s, int rounds, int floor) {
    return std::max(floor, static_cast<int>(std::lround(
                               seconds / rounds / unit_s)));
  };
  if (workload == "power-warm") {
    c.kind = Kind::kPowerWarm;
    c.distinct_rounds = true;
    c.units_per_round = units(1.8, c.rounds, 1);
  } else if (workload == "scan-cold") {
    c.kind = Kind::kScanCold;
    c.distinct_rounds = true;
    c.units_per_round = units(1.8, c.rounds, 1);
  } else if (workload == "commit-churn") {
    c.kind = Kind::kCommitChurn;
    c.rounds = 5;
    c.trace_block = 200;  // one full cycle of the maintenance periods
    c.window_units = 120;
    c.units_per_round = units(0.0012, c.rounds, c.window_units);
  } else if (workload == "tenant-mix") {
    c.kind = Kind::kTenantMix;
    c.sf = 0.01;
    c.distinct_rounds = true;
    c.window_units = 2;
    c.units_per_round = units(2.4, c.rounds, c.window_units);
  } else {
    return std::nullopt;
  }
  return c;
}

// Tiny versions of every workload for the traced run: they exercise the
// layers the chosen workload does not touch, and host the kernel probes.
Config TourConfig(const std::string& workload) {
  Config c = *MakeConfig(workload, 1);
  c.rounds = 1;
  c.units_per_round = c.window_units;
  c.sf = 0.004;
  c.churn_objects = 4;
  c.churn_pages = 8;
  c.tenant_queries = 3;
  c.kernels = workload == "power-warm";
  return c;
}

// Host time per call of each spanned function, in the unit the metric
// names.
struct SpanMetric {
  const char* metric;
  const char* span;
  double scale;
  const char* unit;
};
const SpanMetric kSpanMetrics[] = {
    {"tpch.load_host_s", "tpch.LoadTpch", 1, "s"},
    {"txn.commit_host_ms", "txn.Commit", 1e3, "ms"},
    {"txn.write_page_us", "txn.WritePage", 1e6, "us"},
    {"txn.gc_host_ms", "txn.RunGarbageCollection", 1e3, "ms"},
    {"txn.checkpoint_host_ms", "txn.Checkpoint", 1e3, "ms"},
    {"snapshot.take_host_ms", "snapshot.TakeSnapshot", 1e3, "ms"},
    {"snapshot.collect_host_ms", "snapshot.CollectExpired", 1e3, "ms"},
    {"engine.recover_host_s", "engine.CrashAndRecover", 1, "s"},
    {"engine.consistency_check_host_s", "engine.CheckConsistency", 1, "s"},
    {"multiplex.sync_host_ms", "multiplex.SyncCatalogs", 1e3, "ms"},
    {"telemetry.collect_host_ms", "telemetry.CollectMetrics", 1e3, "ms"},
};

// Layers whose spans the workloads record, for the self-time shares.
const char* const kSpanLayers[] = {"bench",    "tpch",     "txn",
                                   "snapshot", "engine",   "multiplex",
                                   "workload", "telemetry"};

// Per-layer values computed from one round's window and extras.
std::map<std::string, double> WindowLayerValues(const Round& r) {
  std::map<std::string, double> v;
  const Counters& w = r.window;
  auto get = [&w](const std::string& k) {
    auto it = w.find(k);
    return it == w.end() ? 0.0 : it->second;
  };
  auto extra = [&r](const std::string& k) {
    auto it = r.extra.find(k);
    return it == r.extra.end() ? 0.0 : it->second;
  };
  auto rate = [](double a, double b) { return a + b > 0 ? a / (a + b) : 0; };
  v["store.pages_read"] = get("store.pages_read");
  v["store.pages_written"] = get("store.pages_written");
  v["store.not_found_retries"] = get("store.not_found_retries");
  v["store.transient_retries"] = get("store.transient_retries");
  v["buffer.hit_rate"] = rate(get("buffer.hits"), get("buffer.misses"));
  v["buffer.misses"] = get("buffer.misses");
  v["buffer.churn_flushes"] = get("buffer.churn_flushes");
  v["buffer.commit_flushes"] = get("buffer.commit_flushes");
  v["buffer.fill_sim_s"] = get("stall.buffer_fill");
  v["ocm.hit_rate"] = rate(get("ocm.hits"), get("ocm.misses"));
  v["ocm.misses"] = get("ocm.misses");
  v["ocm.evictions"] = get("ocm.evictions");
  v["ocm.bg_uploads"] = get("ocm.bg_uploads");
  v["ocm.rerouted_reads"] = get("ocm.rerouted_reads");
  v["ocm.fetch_sim_s"] = get("stall.ocm_fetch");
  v["ocm.upload_sim_s"] = get("stall.ocm_upload");
  v["sim.s3_gets"] = get("s3.gets");
  v["sim.s3_puts"] = get("s3.puts");
  v["sim.s3_deletes"] = get("s3.deletes");
  v["sim.s3_ranged_gets"] = get("s3.ranged_gets");
  v["sim.s3_selects"] = get("s3.selects");
  v["sim.throttle_events"] = get("s3.throttle_events");
  v["sim.stale_reads"] = get("s3.stale_reads");
  v["sim.network_sim_s"] = get("stall.network_transfer");
  v["sim.throttle_backoff_sim_s"] = get("stall.throttle_backoff");
  v["sim.s3_get_p50_ms"] = extra("sim.s3_get_p50_ms");
  v["sim.s3_get_p99_ms"] = extra("sim.s3_get_p99_ms");
  double commits = extra("txn.commit_calls");
  v["txn.commit_sim_ms"] =
      commits > 0 ? extra("txn.commit_sim_s_sum") * 1e3 / commits : 0;
  v["txn.gc_deleted_pages"] = get("txn.gc_deleted_pages");
  double fetches = get("keygen.range_fetches");
  v["keygen.range_fetches"] = fetches;
  v["keygen.keys_per_fetch"] =
      fetches > 0 ? get("keygen.max_key") / fetches : 0;
  double takes = extra("snapshot.takes");
  v["snapshot.take_sim_s"] =
      takes > 0 ? extra("snapshot.take_sim_s_sum") / takes : 0;
  v["snapshot.backup_bytes"] =
      takes > 0 ? extra("snapshot.backup_bytes_sum") / takes : 0;
  v["snapshot.retained_pages"] = extra("snapshot.retained_pages");
  v["ndp.pushed_scans"] = get("ndp.pushed_scans");
  v["ndp.pulled_scans"] = get("ndp.pulled_scans");
  v["ndp.select_sim_s"] = get("stall.ndp_select");
  double scanned = get("s3.select_scanned_bytes");
  v["ndp.returned_per_scanned_byte"] =
      scanned > 0 ? get("s3.select_returned_bytes") / scanned : 0;
  v["costopt.prediction_error"] = extra("costopt.prediction_error");
  v["costopt.deferred"] = get("costopt.deferred");
  v["workload.queue_wait_p95_sim_s"] = extra("workload.queue_wait_p95_sim_s");
  v["workload.admission_sim_s"] = get("stall.admission_queue");
  v["workload.lock_wait_sim_s"] = get("stall.lock_wait");
  v["workload.fairness"] = extra("workload.fairness");
  v["workload.shed"] = extra("workload.shed");
  return v;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// Sim metrics over the windows of `rs`.
std::vector<Metric> SimMetrics(const std::vector<const Round*>& rs,
                               Tail* tail) {
  std::vector<double> lat;
  double span = 0, usd = 0;
  for (const Round* r : rs) {
    lat.insert(lat.end(), r->sim_lat_s.begin(), r->sim_lat_s.end());
    span += r->window_sim_s;
    auto it = r->window.find("ledger.usd");
    if (it != r->window.end()) usd += it->second;
  }
  *tail = TailOf(lat);
  double ops = static_cast<double>(lat.size());
  const Round& r0 = *rs[0];
  return {
      {"sim_p50_s", Median(lat), "s"},
      {"sim_tail_s", tail->value, "s"},
      {"sim_ops_per_s", span > 0 ? ops / span : 0, "1/s"},
      {"usd_per_kop", ops > 0 ? usd / ops * 1000 : 0, "usd"},
      {"bytes_at_rest_per_raw",
       r0.raw_bytes > 0 ? r0.bytes_at_rest / r0.raw_bytes : 0, "B/B"},
  };
}

// The sim-side values that must repeat exactly for one seed, as text.
std::string Fingerprint(const Round& r,
                        const std::map<std::string, double>& layer,
                        const std::vector<Metric>& sim) {
  std::string s;
  for (const Metric& m : sim) s += m.name + "=" + Num(m.value) + ";";
  for (const auto& [k, v] : layer) s += k + "=" + Num(v) + ";";
  for (const auto& [q, d] : r.digests) {
    s += "Q" + std::to_string(q) + "=" + std::to_string(d) + ";";
  }
  return s;
}

// Row-at-a-time Q1 and Q6 over the generator's lineitem rows, compared
// against the answers of `db`, a database loaded apart from the workload.
// The answers must also match the workload's result digests. Returns an
// error description or "".
std::string CheckOracle(Database* db, const Config& cfg, uint64_t seed,
                        const std::map<int, uint64_t>& digests) {
  TpchGenerator gen(cfg.sf, seed);
  Batch all = gen.GenerateBatch(kLineitem, 0, gen.RowCount(kLineitem));
  double sim = 0;
  Result<Batch> q1 = RunQuery(db, 1, &sim);
  Result<Batch> q6 = RunQuery(db, 6, &sim);
  if (!q1.ok() || !q6.ok()) return "oracle queries failed";
  for (const auto& [q, b] : {std::pair{1, &*q1}, std::pair{6, &*q6}}) {
    auto it = digests.find(q);
    if (it == digests.end() || it->second != DigestBatch(*b)) {
      return "Q" + std::to_string(q) + " differs across configurations";
    }
  }
  struct Group {
    int64_t qty = 0, price = 0, count = 0;
    double disc_price = 0;
  };
  std::map<std::pair<std::string, std::string>, Group> groups;
  int64_t cutoff = DaysFromCivil(1998, 12, 1) - 90;
  int64_t lo = DaysFromCivil(1994, 1, 1), hi = DaysFromCivil(1995, 1, 1) - 1;
  double revenue = 0;
  for (size_t r = 0; r < all.rows(); ++r) {
    int64_t ship = all.Int("l_shipdate", r);
    int64_t disc = all.Int("l_discount", r);
    int64_t qty = all.Int("l_quantity", r);
    double price = DecimalToDouble(all.Int("l_extendedprice", r));
    if (ship <= cutoff) {
      Group& g =
          groups[{all.Str("l_returnflag", r), all.Str("l_linestatus", r)}];
      g.qty += qty;
      g.price += all.Int("l_extendedprice", r);
      g.count += 1;
      g.disc_price += price * (1 - disc / 100.0);
    }
    if (ship >= lo && ship <= hi && disc >= 5 && disc <= 7 && qty < 24) {
      revenue += price * (disc / 100.0);
    }
  }
  if (q1->rows() != groups.size()) return "Q1 group count differs from oracle";
  size_t row = 0;
  for (const auto& [key, g] : groups) {
    const Batch& b = *q1;
    // Int-family sums are exact; the discounted price is a double sum.
    auto near = [](double a, double e) {
      return std::fabs(a - e) <= std::fabs(e) * 1e-9 + 1e-6;
    };
    if (b.Str("l_returnflag", row) != key.first ||
        b.Str("l_linestatus", row) != key.second ||
        b.Int("count_order", row) != g.count ||
        b.Int("sum_qty", row) != g.qty ||
        b.Int("sum_base_price", row) != g.price ||
        !near(b.Double("sum_disc_price", row), g.disc_price)) {
      return "Q1 group " + key.first + key.second + " differs from oracle";
    }
    ++row;
  }
  double got = q6->Double("revenue", 0);
  if (std::fabs(got - revenue) > std::fabs(revenue) * 1e-9 + 1e-9) {
    return "Q6 revenue differs from oracle";
  }
  return "";
}

std::string LayerOf(const std::string& metric) {
  return metric.substr(0, metric.find('.'));
}

// Layers with at least one nonzero value.
std::set<std::string> ExercisedLayers(const std::map<std::string, double>& v) {
  std::set<std::string> layers;
  for (const auto& [k, x] : v) {
    if (x != 0) layers.insert(LayerOf(k));
  }
  return layers;
}

// The traced run's per-layer metrics. After the workload, a tour runs one
// small round of every workload plus the kernel probes; a metric takes the
// workload's value when the workload exercised it and the tour's
// otherwise, listed in `from_tour`. A host-time metric is exercised when
// the workload called the function; a window value when any value of its
// layer is nonzero.
std::vector<Metric> LayerMetrics(const std::vector<Round>& rounds,
                                 const std::string& workload, uint64_t seed,
                                 const std::string& out,
                                 std::vector<std::string>* from_tour,
                                 std::vector<std::string>* problems) {
  std::vector<Metric> m;
  Spans().Finish();
  std::map<std::string, SpanRecorder::Aggregate> by_name = Spans().ByName();
  std::map<std::string, double> self = Spans().SelfByLayer();
  double traced_s = 0, plain_s = 0;
  int traced_units = 0, plain_units = 0;
  for (const Round& r : rounds) {
    traced_s += r.traced_s;
    plain_s += r.plain_s;
    traced_units += r.traced_units;
    plain_units += r.plain_units;
  }
  const Round& r0 = rounds[0];
  std::map<std::string, double> layer = WindowLayerValues(r0);
  for (const auto& [k, v] : r0.extra) layer.emplace(k, v);
  std::map<std::string, double> tour_values;
  std::map<std::string, double> kernels;  // from the tour's kernel probes
  std::set<std::string> tour_layers;
  std::map<std::string, SpanRecorder::Aggregate> tour_by_name;
  {
    SpanRecorder saved = Spans();
    Spans() = SpanRecorder();
    Spans().set_enabled(true);
    for (const char* w :
         {"power-warm", "scan-cold", "commit-churn", "tenant-mix"}) {
      Round tr;
      g_unit_index = 0;  // the tour's first unit is traced
      Status st = RunRound(TourConfig(w), seed, true, "", &tr);
      if (!st.ok() || tr.failed > 0) {
        problems->push_back(std::string("tour ") + w + " failed");
      }
      kernels.insert(tr.kernels.begin(), tr.kernels.end());
      std::map<std::string, double> v = WindowLayerValues(tr);
      for (const auto& [k, x] : tr.extra) v.emplace(k, x);
      // The first tour round that exercised a layer supplies all of it.
      std::set<std::string> layers = ExercisedLayers(v);
      for (const auto& [k, x] : v) {
        if (layers.count(LayerOf(k)) > 0 &&
            tour_layers.count(LayerOf(k)) == 0) {
          tour_values[k] = x;
        }
      }
      tour_layers.insert(layers.begin(), layers.end());
    }
    Spans().Finish();
    tour_by_name = Spans().ByName();
    if (!out.empty()) Spans().WriteJson(out + workload + ".tour-spans.json");
    Spans() = std::move(saved);
  }
  // Window values go by layer: a layer the workload exercised reports all
  // of its values from the workload, any other layer all from the tour.
  std::set<std::string> exercised = ExercisedLayers(layer);
  auto pick = [&](const std::string& k) {
    if (exercised.count(LayerOf(k)) > 0) {
      auto it = layer.find(k);
      return it == layer.end() ? 0.0 : it->second;
    }
    auto t = tour_values.find(k);
    if (t == tour_values.end()) return 0.0;
    from_tour->push_back(k);
    return t->second;
  };
  // Mean host seconds per call of `span`, reported as `metric`.
  auto span_mean = [&](const std::string& metric, const std::string& span) {
    auto it = by_name.find(span);
    if (it != by_name.end() && it->second.calls > 0) {
      return it->second.total_s / it->second.calls;
    }
    auto t = tour_by_name.find(span);
    if (t != tour_by_name.end() && t->second.calls > 0) {
      from_tour->push_back(metric);
      return t->second.total_s / t->second.calls;
    }
    return 0.0;
  };
  for (int q = 1; q <= kTpchQueryCount; ++q) {
    std::string qs = std::to_string(q);
    m.push_back(
        {"tpch.query_host_ms.Q" + qs,
         span_mean("tpch.query_host_ms.Q" + qs, "tpch.RunTpchQuery.Q" + qs) *
             1e3,
         "ms"});
  }
  const char* const kKernelKeys[][2] = {
      {"tpch.gen_ns_per_row", "ns"},
      {"exec.scan_ns_per_value", "ns"},
      {"exec.filter_ns_per_row", "ns"},
      {"exec.join_ns_per_row", "ns"},
      {"exec.agg_ns_per_row", "ns"},
      {"exec.sort_ns_per_row", "ns"},
      {"columnar.fetch_us_per_page", "us"},
      {"columnar.decode_ns_per_value", "ns"},
      {"columnar.encode_ns_per_value", "ns"},
      {"columnar.nbit_pack_ns_per_value.w4", "ns"},
      {"columnar.nbit_pack_ns_per_value.w13", "ns"},
      {"columnar.nbit_pack_ns_per_value.w20", "ns"},
      {"columnar.nbit_pack_ns_per_value.w32", "ns"},
      {"columnar.nbit_unpack_ns_per_value.w4", "ns"},
      {"columnar.nbit_unpack_ns_per_value.w13", "ns"},
      {"columnar.nbit_unpack_ns_per_value.w20", "ns"},
      {"columnar.nbit_unpack_ns_per_value.w32", "ns"},
      {"columnar.encoded_bytes_per_raw_byte", "B/B"},
      {"store.page_encode_ns_per_byte", "ns"},
      {"store.page_decode_ns_per_byte", "ns"},
      {"store.frame_bytes_per_payload_byte", "B/B"},
      {"blockmap.lookup_ns", "ns"},
  };
  for (const auto& kv : kKernelKeys) {
    auto it = kernels.find(kv[0]);
    m.push_back({kv[0], it == kernels.end() ? 0.0 : it->second, kv[1]});
  }
  const char* const kWindowKeys[][2] = {
      {"store.pages_read", "count"},
      {"store.pages_written", "count"},
      {"store.not_found_retries", "count"},
      {"store.transient_retries", "count"},
      {"buffer.hit_rate", "ratio"},
      {"buffer.misses", "count"},
      {"buffer.churn_flushes", "count"},
      {"buffer.commit_flushes", "count"},
      {"buffer.fill_sim_s", "s"},
      {"ocm.hit_rate", "ratio"},
      {"ocm.misses", "count"},
      {"ocm.evictions", "count"},
      {"ocm.bg_uploads", "count"},
      {"ocm.rerouted_reads", "count"},
      {"ocm.fetch_sim_s", "s"},
      {"ocm.upload_sim_s", "s"},
      {"sim.s3_gets", "count"},
      {"sim.s3_puts", "count"},
      {"sim.s3_deletes", "count"},
      {"sim.s3_ranged_gets", "count"},
      {"sim.s3_selects", "count"},
      {"sim.throttle_events", "count"},
      {"sim.stale_reads", "count"},
      {"sim.network_sim_s", "s"},
      {"sim.throttle_backoff_sim_s", "s"},
      {"sim.s3_get_p50_ms", "ms"},
      {"sim.s3_get_p99_ms", "ms"},
      {"txn.commit_sim_ms", "ms"},
      {"txn.gc_deleted_pages", "count"},
      {"keygen.range_fetches", "count"},
      {"keygen.keys_per_fetch", "count"},
      {"snapshot.take_sim_s", "s"},
      {"snapshot.backup_bytes", "bytes"},
      {"snapshot.retained_pages", "count"},
      {"ndp.pushed_scans", "count"},
      {"ndp.pulled_scans", "count"},
      {"ndp.select_sim_s", "s"},
      {"ndp.returned_per_scanned_byte", "B/B"},
      {"costopt.prediction_error", "ratio"},
      {"costopt.deferred", "count"},
      {"workload.queue_wait_p95_sim_s", "s"},
      {"workload.admission_sim_s", "s"},
      {"workload.lock_wait_sim_s", "s"},
      {"workload.fairness", "ratio"},
      {"workload.shed", "count"},
  };
  for (const auto& kv : kWindowKeys) {
    m.push_back({kv[0], pick(kv[0]), kv[1]});
  }
  for (const SpanMetric& sm : kSpanMetrics) {
    m.push_back(
        {sm.metric, span_mean(sm.metric, sm.span) * sm.scale, sm.unit});
  }
  double traced_unit = traced_units ? traced_s / traced_units : 0;
  double plain_unit = plain_units ? plain_s / plain_units : 0;
  m.push_back(
      {"telemetry.trace_overhead_pct",
       plain_unit > 0 ? (traced_unit / plain_unit - 1) * 100 : 0, "%"});
  double all_self = 0;
  for (const auto& [l, s] : self) all_self += s;
  for (const char* l : kSpanLayers) {
    auto it = self.find(l);
    double s = it == self.end() ? 0 : it->second;
    m.push_back({std::string(l) + ".self_pct",
                             all_self > 0 ? 100 * s / all_self : 0, "%"});
  }
  if (!out.empty()) Spans().WriteJson(out + workload + ".spans.json");
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cloudiq_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  std::optional<Config> cfg = MakeConfig(args.workload, args.seconds);
  if (!cfg) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  HostProbe probe = ProbeHost();
  std::printf("perfbench.probe {\"nproc\": %u, \"cpu\": \"%s\", "
              "\"effective_cores\": %.3f, \"alu_checksum\": \"%016llx\"}\n",
              probe.nproc, JsonEscape(probe.cpu_model).c_str(),
              probe.effective_cores,
              static_cast<unsigned long long>(probe.alu_checksum));
  std::fflush(stdout);
  Spans().set_enabled(args.trace);
  std::string out = args.out_dir.empty() ? "" : args.out_dir + "/";

  std::vector<Round> rounds(cfg->rounds);
  std::vector<std::string> problems;
  std::string fingerprint;
  bool deterministic = true;
  for (int i = 0; i < cfg->rounds; ++i) {
    Round& r = rounds[i];
    r.index = i;
    // Every round writes the run report (the last one stays), so each
    // telemetry.collect_host_ms sample does the same work.
    std::string report =
        out.empty() ? "" : out + args.workload + ".report.json";
    Status st = RunRound(*cfg, args.seed, args.trace, report, &r);
    if (!st.ok()) {
      problems.push_back("round " + std::to_string(i) + ": " + st.ToString());
      ++r.failed;
      continue;
    }
    for (const std::string& e : r.errors) problems.push_back(e);
  }

  // End-to-end metrics. Host metrics pool every round's timed ops; sim
  // metrics come from the windows.
  std::vector<double> host_ms, setups;
  double timed_s = 0;
  uint64_t attempted = 0, failed = 0, timed_ops = 0;
  for (const Round& r : rounds) {
    host_ms.insert(host_ms.end(), r.host_ms.begin(), r.host_ms.end());
    setups.push_back(r.setup_s);
    timed_s += r.timed_s;
    timed_ops += r.host_ms.size();
    attempted += r.attempted;
    failed += r.failed;
  }
  const Round& r0 = rounds[0];
  for (size_t i = 1; i < rounds.size(); ++i) {
    if (rounds[i].digests != r0.digests) {
      problems.push_back("round " + std::to_string(i) +
                         " query results differ from round 0");
    }
  }
  std::vector<Metric> sim;
  Tail sim_tail;
  if (cfg->distinct_rounds) {
    // Each round ran its own order or schedule: pool every window.
    std::vector<const Round*> all;
    for (const Round& r : rounds) {
      all.push_back(&r);
      fingerprint += Fingerprint(r, WindowLayerValues(r), {});
    }
    sim = SimMetrics(all, &sim_tail);
    fingerprint += Fingerprint(r0, {}, sim);
  } else {
    // Identical rounds: each must reproduce round 0's window exactly.
    for (size_t i = 0; i < rounds.size(); ++i) {
      Tail t;
      std::vector<Metric> si = SimMetrics({&rounds[i]}, &t);
      std::string f = Fingerprint(rounds[i], WindowLayerValues(rounds[i]), si);
      if (i == 0) {
        sim = si;
        sim_tail = t;
        fingerprint = f;
      } else if (f != fingerprint) {
        deterministic = false;
        problems.push_back("round " + std::to_string(i) +
                           " sim window differs from round 0");
      }
    }
  }

  // Q1/Q6 oracle on the TPC-H workloads, on a fresh database.
  if (cfg->kind == Kind::kPowerWarm || cfg->kind == Kind::kScanCold) {
    SimEnvironment env;
    Database db(&env, InstanceProfile::M5ad24xlarge(), Database::Options());
    TpchGenerator gen(cfg->sf, args.seed);
    bool was = Spans().enabled();
    Spans().set_enabled(false);
    Result<TpchLoadResult> load = LoadTpch(&db, &gen, {});
    std::string err = load.ok()
                          ? CheckOracle(&db, *cfg, args.seed, r0.digests)
                          : "oracle load failed";
    Spans().set_enabled(was);
    attempted += 2;
    if (!err.empty()) {
      failed += 1;
      problems.push_back(err);
    }
  }

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  double rss_mb = usage.ru_maxrss / 1024.0;
  Tail host_tail = TailOf(host_ms);
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", Median(setups), "s"});
  metrics.push_back(
      {"ops_per_s", timed_s > 0 ? timed_ops / timed_s : 0, "1/s"});
  metrics.push_back({"host_p50_ms", Median(host_ms), "ms"});
  metrics.push_back({"host_tail_ms", host_tail.value, "ms"});
  metrics.insert(metrics.end(), sim.begin(), sim.end());
  metrics.push_back({"peak_rss_mb", rss_mb, "MB"});

  std::vector<Metric> layer_metrics;
  std::vector<std::string> from_tour;  // values the workload did not exercise
  if (args.trace) {
    layer_metrics = LayerMetrics(rounds, args.workload, args.seed, out,
                                 &from_tour, &problems);
  }

  // Info line: sizes, tail definition, counts, problems.
  std::printf("perfbench.info {\"workload\": \"%s\", \"seed\": %llu, "
              "\"rounds\": %d, \"timed_ops\": %llu, \"host_tail_pct\": %.2f, "
              "\"host_samples\": %zu, \"sim_tail_pct\": %.2f, "
              "\"sim_samples\": %zu, \"bytes_at_rest\": %.0f, "
              "\"raw_bytes\": %.0f, \"error_rate\": %s, "
              "\"deterministic\": %s, \"problems\": [",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), cfg->rounds,
              static_cast<unsigned long long>(timed_ops),
              host_tail.percentile, host_tail.samples, sim_tail.percentile,
              sim_tail.samples, r0.bytes_at_rest, r0.raw_bytes,
              Num(attempted ? static_cast<double>(failed) / attempted : 1)
                  .c_str(),
              deterministic ? "true" : "false");
  for (size_t i = 0; i < problems.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", JsonEscape(problems[i]).c_str());
  }
  std::printf("]}\n");
  if (args.trace) {
    std::printf("perfbench.from_tour [");
    for (size_t i = 0; i < from_tour.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", from_tour[i].c_str());
    }
    std::printf("]\n");
  }
  uint64_t fp = Fnv(kFnvBasis, fingerprint.data(), fingerprint.size());
  std::printf("perfbench.fingerprint %016llx\n",
              static_cast<unsigned long long>(fp));
  if (!r0.digests.empty() && cfg->kind != Kind::kTenantMix) {
    std::printf("perfbench.digests");
    for (const auto& [q, d] : r0.digests) {
      std::printf(" Q%d=%016llx", q, static_cast<unsigned long long>(d));
    }
    std::printf("\n");
  }

  bool correct = failed == 0 && deterministic && problems.empty();
  const std::vector<Metric>& shown = args.trace ? layer_metrics : metrics;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < shown.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                shown[i].name.c_str(), Num(shown[i].value).c_str(),
                shown[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace cloudiq

int main(int argc, char** argv) { return cloudiq::perfbench::Main(argc, argv); }

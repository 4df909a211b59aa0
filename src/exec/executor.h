#ifndef CLOUDIQ_EXEC_EXECUTOR_H_
#define CLOUDIQ_EXEC_EXECUTOR_H_

#include <cassert>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "columnar/table_reader.h"
#include "common/result.h"
#include "costopt/chooser.h"
#include "costopt/whatif.h"
#include "exec/batch.h"
#include "ndp/ndp_protocol.h"
#include "sim/environment.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

// Execution context for one query: tracks the transaction, opens table
// readers, and accounts CPU work onto the node's simulated clock with the
// node's intra-query parallelism. Operators charge a per-value cost; scans
// additionally charge per decoded byte.
class QueryContext {
 public:
  struct Options {
    double cpu_per_value = 1.2e-9;       // seconds per value touched
    double cpu_per_decoded_byte = 2e-9;  // decode/decompress cost
    // Near-data processing: whether range scans may be evaluated inside
    // the object store (kOn always pushes; kAuto lets ChoosePlan pick per
    // scan under cost_policy; see PlanNdpScan in executor.cc).
    ndp::NdpMode ndp_mode = ndp::NdpMode::kOff;
    // Cost-intelligent planning (src/costopt/). kCostBlind keeps the
    // bytes-moved rule in charge; the other policies hand the
    // pushdown-vs-pull decision to the cost model's USD/latency
    // estimates under the SLO / budget below.
    costopt::PlanPolicy cost_policy = costopt::PlanPolicy::kCostBlind;
    double slo_seconds = 0;       // <= 0: no latency SLO
    double budget_left_usd = -1;  // < 0: unlimited remaining budget
    // Morsel-driven parallelism (src/exec/morsel.h): worker threads per
    // parallel section (<= 1 runs morsels inline, in ascending order) and
    // target candidate rows per morsel / row chunk. The *simulated* run —
    // clock, ledger, stall profile, results — is identical across worker
    // counts; only host wall time differs (see DESIGN.md §5j).
    int exec_workers = 1;
    uint64_t morsel_rows = 16384;
  };

  QueryContext(TransactionManager* txn_mgr, Transaction* txn,
               SystemStore* system)
      : QueryContext(txn_mgr, txn, system, Options()) {}
  QueryContext(TransactionManager* txn_mgr, Transaction* txn,
               SystemStore* system, Options options)
      : txn_mgr_(txn_mgr), txn_(txn), system_(system), options_(options) {}

  // Loads a table's metadata (per-segment zone maps etc.). When a meta
  // provider is installed (the Database facade caches metadata after the
  // first open), repeated opens avoid the system-dbspace round trip — in
  // a multiplex, table metadata lives on the *shared* EFS volume, so this
  // is the difference between catalog reads scaling with queries or not.
  using MetaProvider = std::function<Result<TableMeta>(uint64_t table_id)>;
  void set_meta_provider(MetaProvider provider) {
    meta_provider_ = std::move(provider);
  }

  Result<TableReader> OpenTable(uint64_t table_id) {
    if (meta_provider_) {
      CLOUDIQ_ASSIGN_OR_RETURN(TableMeta meta, meta_provider_(table_id));
      return TableReader::Make(txn_mgr_, txn_, std::move(meta));
    }
    return TableReader::Open(txn_mgr_, txn_, system_, table_id);
  }

  // Charges `values` touched at the per-value rate; applied to the clock
  // with the node's vCPU parallelism.
  void ChargeValues(uint64_t values);
  void ChargeDecodedBytes(uint64_t bytes);

  // Per-morsel charge inside a parallel section: books the values at the
  // per-value rate and profiles the resulting clock advance as a
  // kCpuExec lane of the open parallel section, WITHOUT a step check
  // (the section defers stepping to its end — see ScopedParallelSection).
  // Called from the coordinator's fixed charge loop only, never from
  // worker threads.
  void ChargeMorselValues(uint64_t values);

  // --- cooperative stepping ------------------------------------------------
  // When a hook is installed, execution is sliced into resumable steps:
  // the executor invokes it at operator boundaries and after every CPU
  // charge, and the hook may suspend the query (the workload engine parks
  // the query's fiber so other sessions interleave on the sim clock).
  // Without a hook queries run straight through, as before.
  using StepHook = std::function<void(const char* where)>;
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }
  // Deferred inside a parallel section: a fiber's parallel section must
  // suspend and resume as one unit (the workload engine swaps the stall
  // profiler's frame around every fiber resume, which must not happen
  // with a parallel node open on the stack), so steps inside a section
  // are swallowed and ScopedParallelSection fires exactly one step after
  // the section closes.
  void CheckStep(const char* where) {
    if (parallel_depth_ > 0) return;
    if (step_hook_) step_hook_(where);
  }
  void BeginParallelSection() { ++parallel_depth_; }
  void EndParallelSection() { --parallel_depth_; }

  // --- attribution ---------------------------------------------------------
  // Stamps this query's identity (Database::NewQueryContext draws the id
  // from the cluster ledger; the node is implied by the context). The
  // context does NOT install itself — callers wrap execution in a
  // ScopedQueryAttribution so commit-time flushes are also covered.
  void SetAttribution(uint64_t query_id, std::string tag) {
    attr_.query_id = query_id;
    attr_.operator_id = -1;
    attr_.node_id = node()->trace_pid();
    attr_.tag = std::move(tag);
  }
  const AttributionContext& attribution() const { return attr_; }
  CostLedger& ledger() { return node()->telemetry().ledger(); }

  // Per-operator execution stats backing EXPLAIN ANALYZE. Every operator
  // call registers itself (ids are dense, in call order) and reports rows
  // and sim-time through OperatorScope.
  struct OperatorStats {
    std::string name;
    uint64_t rows = 0;
    uint64_t batches = 0;
    double sim_seconds = 0;
  };
  int RegisterOperator(std::string name) {
    operators_.push_back(OperatorStats{std::move(name), 0, 0, 0});
    return static_cast<int>(operators_.size()) - 1;
  }
  OperatorStats& operator_stats(int id) { return operators_[id]; }
  const std::vector<OperatorStats>& operators() const { return operators_; }

  TransactionManager* txn_mgr() { return txn_mgr_; }
  Transaction* txn() { return txn_; }
  NodeContext* node() { return txn_mgr_->storage().node(); }
  const Options& options() const { return options_; }

  // Per-tenant constraints for the plan chooser, stamped after
  // construction (the workload engine knows the tenant's SLO and
  // remaining budget only at dispatch time).
  void SetCostConstraints(costopt::PlanPolicy policy, double slo_seconds,
                          double budget_left_usd) {
    options_.cost_policy = policy;
    options_.slo_seconds = slo_seconds;
    options_.budget_left_usd = budget_left_usd;
  }

  // The query's plan decision trail: every candidate the scan planner
  // priced, the winner and the deciding estimate — what EXPLAIN WHATIF
  // prints and the prediction-error tracker compares with the ledger.
  costopt::WhatIfLog& whatif() { return whatif_; }
  const costopt::WhatIfLog& whatif() const { return whatif_; }

 private:
  TransactionManager* txn_mgr_;
  Transaction* txn_;
  SystemStore* system_;
  Options options_;
  MetaProvider meta_provider_;
  StepHook step_hook_;
  int parallel_depth_ = 0;
  AttributionContext attr_;
  std::vector<OperatorStats> operators_;
  costopt::WhatIfLog whatif_;
};

// Installs a query's attribution on the cluster ledger for the scope's
// lifetime. Wrap the whole Begin..Commit window so commit flushes and
// OCM promotions are charged to the query, not left unattributed.
class ScopedQueryAttribution {
 public:
  explicit ScopedQueryAttribution(QueryContext* ctx)
      : scope_(&ctx->ledger(), ctx->attribution()) {}

 private:
  ScopedAttribution scope_;
};

// One operator invocation: registers itself with the QueryContext,
// narrows the ledger attribution to its operator id, and on destruction
// records the operator's sim-time (the clock advances inside via charged
// CPU work and storage I/O). Operators report output rows via AddRows.
// Also opens a stall-profiler scope pinned to the operator's attribution:
// I/O and wait charges inside land on the operator's stall entry under
// their own wait classes, and the unclaimed remainder (charged CPU work)
// books as kCpuExec.
class OperatorScope {
 public:
  OperatorScope(QueryContext* ctx, std::string name);
  ~OperatorScope();
  OperatorScope(const OperatorScope&) = delete;
  OperatorScope& operator=(const OperatorScope&) = delete;

  void AddRows(uint64_t rows) { ctx_->operator_stats(op_id_).rows += rows; }

 private:
  QueryContext* ctx_;
  int op_id_;
  SimTime start_;
  ScopedAttribution scope_;
  // Declared after scope_: opens after the operator attribution is
  // installed (so the residual pins to this operator) and closes before
  // it is restored.
  ScopedStall stall_;
};

// One parallel region of an operator (a morsel batch): opens a stall-
// profiler parallel section so the coordinator's per-morsel kCpuExec
// charges land as lanes of this section (disjoint windows telescoping to
// the section's elapsed time, so EndParallel registers them unscaled and
// conservation stays exact), and defers fiber step checks so the section
// suspends/resumes as one unit.
//
// Call Finish() at the end of the happy path: it closes the section and
// fires the one deferred scheduler step. The destructor only closes the
// section (no step) so an error-return unwind never re-enters the fiber
// — StepFiber::Yield can throw its cancel tag, which must not escape a
// destructor.
class ScopedParallelSection {
 public:
  explicit ScopedParallelSection(QueryContext* ctx) : ctx_(ctx) {
    ctx_->BeginParallelSection();
    ctx_->node()->telemetry().profiler().BeginParallel(
        ctx_->node()->clock().now());
  }
  ~ScopedParallelSection() { Close(); }
  ScopedParallelSection(const ScopedParallelSection&) = delete;
  ScopedParallelSection& operator=(const ScopedParallelSection&) = delete;

  void Finish() {
    Close();
    ctx_->CheckStep("parallel_section");
  }

 private:
  void Close() {
    if (closed_) return;
    closed_ = true;
    ctx_->node()->telemetry().profiler().EndParallel(
        ctx_->node()->clock().now());
    ctx_->EndParallelSection();
  }

  QueryContext* ctx_;
  bool closed_ = false;
};

// Zone-map-prunable scan predicate: int-family column in [lo, hi].
struct ScanRange {
  std::string column;
  int64_t lo;
  int64_t hi;
};

// Scans `columns` of the table, prefetching pages in parallel. When
// `range` is given, partitions and pages are pruned with partition bounds
// and zone maps, and rows outside the range are filtered out.
Result<Batch> ScanTable(QueryContext* ctx, TableReader* reader,
                        const std::vector<std::string>& columns,
                        const std::optional<ScanRange>& range = {});

// Index-assisted scan: rows of one partition whose ids are in `row_ids`.
Result<Batch> ScanRowIds(QueryContext* ctx, TableReader* reader,
                         size_t partition,
                         const std::vector<std::string>& columns,
                         const IntervalSet& row_ids);

// The rows `rows` of `in`, in that order: one typed gather per column.
Batch GatherRows(const Batch& in, const std::vector<size_t>& rows);

// The rows r of `in` for which keep(in, r) holds, in order. `keep` is a
// template argument, so its body is inlined into the one loop over the
// rows: resolve the columns it reads once, before the call, and capture
// them (a per-row lookup by name would cost more than the test itself).
// Charges in.rows() values.
template <typename Keep>
Batch FilterBatch(QueryContext* ctx, const Batch& in, Keep&& keep) {
  OperatorScope op(ctx, "filter");
  const size_t n = in.rows();
  std::vector<size_t> kept(n);
  size_t k = 0;
  for (size_t r = 0; r < n; ++r) {
    kept[k] = r;  // written always, kept only when `keep` holds
    k += keep(in, r) ? 1 : 0;
  }
  kept.resize(k);
  Batch out = GatherRows(in, kept);
  ctx->ChargeValues(n);
  op.AddRows(out.rows());
  return out;
}

enum class JoinType { kInner, kLeftSemi, kLeftAnti };

// Hash join on one key column per side; both keys must be int-family
// (INT64 / DATE / DECIMAL) or both string, else InvalidArgument. Inner
// joins emit left columns followed by the right batch's non-key columns
// (right key dropped; name collisions keep the left column), in probe
// order with each left row's matches in ascending right-row order.
// Semi/anti joins emit left columns only.
Result<Batch> HashJoin(QueryContext* ctx, const Batch& left,
                       const std::string& left_key, const Batch& right,
                       const std::string& right_key, JoinType type);

// Aggregations.
enum class AggOp { kSum, kCount, kMin, kMax, kAvg };
struct AggSpec {
  AggOp op;
  std::string column;  // ignored for kCount
  std::string as;
};

// Hash aggregate grouped by `keys` (empty = single global group). Keys
// compare by typed value: doubles by value with -0.0 == 0.0 and all NaNs
// one group. Groups come out in order of their first row.
Result<Batch> HashAggregate(QueryContext* ctx, const Batch& in,
                            const std::vector<std::string>& keys,
                            const std::vector<AggSpec>& aggs);

struct SortKey {
  std::string column;
  bool ascending = true;
};

// Sorts (optionally truncating to `limit` rows).
Batch SortBatch(QueryContext* ctx, Batch in,
                const std::vector<SortKey>& sort_keys, size_t limit = 0);

// Appends column `name` of `type` whose row r is value(in, r). The value's
// C++ type picks the vector it fills: double for kDouble, std::string for
// a plain kString, an integer for the int family. As in FilterBatch,
// `value` is inlined into one loop over an output sized once; resolve its
// input columns before the call. (Capturing a column of the batch passed
// as `in` by reference is safe: moving a Batch keeps its columns where
// they are.) Charges in.rows() values.
template <typename Value>
Batch WithComputedColumn(QueryContext* ctx, Batch in, const std::string& name,
                         ColumnType type, Value&& value) {
  using T = std::decay_t<decltype(value(in, size_t{0}))>;
  OperatorScope op(ctx, "computed column " + name);
  ColumnVector vec;
  vec.type = type;
  auto& out = [&vec]() -> auto& {
    if constexpr (std::is_same_v<T, double>) {
      return vec.doubles;
    } else if constexpr (std::is_same_v<T, std::string>) {
      return vec.strings;
    } else {
      static_assert(std::is_integral_v<T>, "value must be numeric or text");
      return vec.ints;
    }
  }();
  assert((std::is_same_v<T, double>) == (type == ColumnType::kDouble) &&
         (std::is_same_v<T, std::string>) == (type == ColumnType::kString));
  const size_t n = in.rows();
  out.resize(n);
  for (size_t r = 0; r < n; ++r) out[r] = value(in, r);
  ctx->ChargeValues(n);
  in.AddColumn(name, std::move(vec));
  op.AddRows(in.rows());
  return in;
}

}  // namespace cloudiq

#endif  // CLOUDIQ_EXEC_EXECUTOR_H_

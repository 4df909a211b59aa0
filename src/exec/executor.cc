#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "columnar/encoding.h"
#include "columnar/range_scan.h"
#include "common/dense_key_index.h"
#include "common/task_pool.h"
#include "costopt/cost_model.h"
#include "exec/morsel.h"
#include "exec/row_key_table.h"

namespace cloudiq {

void QueryContext::ChargeValues(uint64_t values) {
  node()->io().AddCpuWork(values * costopt::kCpuPerValue,
                          node()->profile().vcpus);
  CheckStep("charge_values");
}

void QueryContext::ChargeDecodedBytes(uint64_t bytes) {
  node()->io().AddCpuWork(bytes * costopt::kCpuPerDecodedByte,
                          node()->profile().vcpus);
  CheckStep("charge_decoded");
}

void QueryContext::ChargeMorselValues(uint64_t values) {
  SimClock& clock = node()->clock();
  double start = clock.now();
  node()->io().AddCpuWork(values * costopt::kCpuPerValue,
                          node()->profile().vcpus);
  // Profiled explicitly as a lane of the enclosing parallel section:
  // consecutive morsel windows are disjoint and telescope to the
  // section's elapsed time, so EndParallel registers them unscaled and
  // per-morsel attribution stays conservation-exact. No step check here
  // — the section defers it (see ScopedParallelSection).
  node()->telemetry().profiler().Charge(WaitClass::kCpuExec, start,
                                        clock.now());
}

namespace {

AttributionContext OperatorAttribution(QueryContext* ctx, int op_id,
                                       const std::string& name) {
  AttributionContext attr = ctx->attribution();
  attr.operator_id = op_id;
  attr.tag = name;
  return attr;
}

}  // namespace

OperatorScope::OperatorScope(QueryContext* ctx, std::string name)
    : span_(&ctx->node()->telemetry().tracer(), &ctx->node()->clock(),
            ctx->node()->trace_pid(), kTrackExec, "exec",
            ctx->node()->telemetry().tracer().enabled() ? name
                                                        : std::string()),
      ctx_(ctx),
      op_id_(ctx->RegisterOperator(name)),
      start_(ctx->node()->clock().now()),
      scope_(&ctx->ledger(), OperatorAttribution(ctx, op_id_, name)),
      stall_(&ctx->node()->telemetry().profiler(), &ctx->node()->clock(),
             WaitClass::kCpuExec) {
  // Pin the stall residual to this operator: the fiber may be suspended
  // and resumed under a different installed attribution, but the scope's
  // unclaimed time must stay the operator's.
  ctx->node()->telemetry().profiler().PinScopeAttribution();
  ctx->CheckStep("operator");
}

OperatorScope::~OperatorScope() {
  double elapsed = ctx_->node()->clock().now() - start_;
  QueryContext::OperatorStats& stats = ctx_->operator_stats(op_id_);
  stats.sim_seconds += elapsed;
  ++stats.batches;
  // Recorded while our attribution scope is still installed, so the time
  // lands on this operator's ledger entry.
  ctx_->ledger().AddSimSeconds(elapsed);
}

namespace {

// Partition-level pruning with range-partition bounds.
bool PartitionMayMatch(const TableSchema& schema, size_t partition,
                       const std::optional<ScanRange>& range,
                       int range_col) {
  if (!range.has_value() || schema.partition_column < 0 ||
      range_col != schema.partition_column) {
    return true;
  }
  int64_t part_lo = partition == 0
                        ? INT64_MIN
                        : schema.partition_bounds[partition - 1];
  int64_t part_hi = partition < schema.partition_bounds.size()
                        ? schema.partition_bounds[partition] - 1
                        : INT64_MAX;
  return range->hi >= part_lo && range->lo <= part_hi;
}

// Pages of (partition, column) that contain any row in `rows`: one merge
// walk over the page boundaries and the runs.
std::vector<uint64_t> PagesForRows(const SegmentMeta& seg,
                                   const IntervalSet& rows) {
  std::vector<uint64_t> pages;
  const std::vector<IntervalSet::Interval>& runs = rows.Intervals();
  size_t run = 0;  // first run ending past `first`
  uint64_t first = 0;
  for (size_t page = 0; page < seg.page_rows.size(); ++page) {
    uint64_t last = first + seg.page_rows[page];  // exclusive
    while (run < runs.size() && runs[run].end <= first) ++run;
    if (run == runs.size()) break;
    if (runs[run].begin < last) pages.push_back(page);
    first = last;
  }
  return pages;
}

// Appends to `segments`, one list per read column, the pages of
// partition `p` that hold `rows`.
void AddScanSegments(const TableReader& reader, size_t p,
                     const std::vector<int>& col_ids, const IntervalSet& rows,
                     std::vector<TableReader::SegmentPages>* segments) {
  const PartitionMeta& pm = reader.meta().partitions[p];
  for (int column : col_ids) {
    segments->push_back({p, column, PagesForRows(pm.columns[column], rows)});
  }
}

// Fetches the pages of `segments` (one list per read column for each of
// the scan's partitions, in order) with one batched read-ahead and hands
// them to `scan` as pipeline pages; `frames` keeps their bytes alive.
Status FetchScanPages(TableReader* reader,
                      const std::vector<TableReader::SegmentPages>& segments,
                      std::vector<BufferManager::PageData>* frames,
                      PageScan* scan) {
  size_t next_frame = frames->size();
  CLOUDIQ_RETURN_IF_ERROR(reader->FetchPages(segments, frames));
  const size_t columns = scan->columns.size();
  for (size_t s = 0; s < segments.size(); ++s) {
    const TableReader::SegmentPages& sp = segments[s];
    const SegmentMeta& seg =
        reader->meta().partitions[sp.partition].columns[sp.column];
    uint64_t first_row = 0;
    size_t next = 0;  // the page that starts at `first_row`
    for (uint64_t page : sp.pages) {
      for (; next < page; ++next) first_row += seg.page_rows[next];
      scan->columns[s % columns].pages.push_back(
          {s / columns, first_row, seg.page_rows[page],
           (*frames)[next_frame++].get(), {}});
    }
  }
  return Status::Ok();
}

Batch MakeOutputShape(const TableSchema& schema,
                      const std::vector<std::string>& columns,
                      std::vector<int>* col_ids, Status* status) {
  Batch out;
  *status = Status::Ok();
  for (const std::string& name : columns) {
    int c = schema.ColumnIndex(name);
    if (c < 0) {
      *status = Status::InvalidArgument("unknown column " + name);
      return out;
    }
    col_ids->push_back(c);
    ColumnVector vec;
    vec.type = schema.columns[c].type;
    out.AddColumn(name, std::move(vec));
  }
  return out;
}

// --- morsel-parallel helpers -----------------------------------------------
//
// Every parallel region follows the same work-then-charge split:
//   * task lambdas run pure host CPU (decode, local build / accumulate,
//     placement) and touch no simulator state, writing only their own
//     index's output slot or their own disjoint rows of a presized
//     output;
//   * the coordinator then charges sim-time in a fixed loop over the
//     same indices, in order, whatever the worker count.
// The AddCpuWork / profiler call sequence is therefore identical across
// worker counts — which is the whole determinism contract (DESIGN.md §5j).

// --- near-data processing --------------------------------------------------

// Per-type encoded-width guess for the bytes-moved heuristic. Precision
// is secondary: the pull and push estimates use the same weights, so
// only the ratio (driven by selectivity and projection width) matters.
double EncodedWidth(ColumnType type) {
  switch (type) {
    // NOLINT(cloudiq-column-switch): a planner weight, not a value copy.
    case ColumnType::kDouble: return 8.0;
    // NOLINT(cloudiq-column-switch): a planner weight, not a value copy.
    case ColumnType::kString: return 16.0;
    default: return 4.0;
  }
}

struct NdpScanPlan {
  bool use = false;        // pushdown chosen for this scan
  bool considered = false; // planning ran (mode on/auto and scan eligible)
  std::vector<size_t> partitions;              // partitions with candidates
  std::vector<std::vector<uint8_t>> requests;  // parallel to partitions
  costopt::ScanWork work;     // what the cost model prices either way
};

// Reduces one node + the cluster's object-store service model to the
// plain numbers the cost model prices against.
costopt::NodeResources ResourcesFor(NodeContext* node) {
  const ObjectStoreOptions& store = node->env().object_store().options();
  const LocalSsdOptions& ssd = node->ssd().options();
  costopt::NodeResources r;
  r.vcpus = node->profile().vcpus;
  r.io_width = node->IoWidth();
  r.nic_bytes_per_sec = node->profile().nic_gbps * 1e9 / 8;
  r.hourly_usd = node->profile().hourly_usd;
  r.get_base_latency = store.get_base_latency;
  r.stream_bandwidth = store.stream_bandwidth;
  r.select_base_latency = store.select_base_latency;
  r.select_scan_bandwidth = store.select_scan_bandwidth;
  r.ssd_base_latency = ssd.base_latency;
  r.ssd_read_bandwidth =
      ssd.device_read_bandwidth * std::max(1, ssd.devices);
  return r;
}

// Builds one NdpRequest per candidate partition of a range scan and
// estimates bytes moved either way. Selectivity is estimated per zone-map
// survivor page assuming a uniform distribution between the page's
// min/max. Any page that is not cloud-resident (local dbspace, or not
// yet flushed) disables pushdown for the whole scan — mixed residency
// falls back to the pull path rather than splitting a scan across both.
NdpScanPlan PlanNdpScan(QueryContext* ctx, TableReader* reader,
                        const std::vector<std::string>& read_columns,
                        const std::vector<int>& col_ids,
                        size_t projected_count, int range_col,
                        size_t range_pos, const ScanRange& range) {
  NdpScanPlan plan;
  ndp::NdpMode mode = ctx->options().ndp_mode;
  if (mode == ndp::NdpMode::kOff) return plan;
  if (!reader->PushdownEligible()) return plan;
  if (!ctx->txn_mgr()->storage().object_io().SelectSupported()) return plan;
  plan.considered = true;
  const TableSchema& schema = reader->schema();
  for (size_t p = 0; p < reader->meta().partitions.size(); ++p) {
    const PartitionMeta& pm = reader->meta().partitions[p];
    if (pm.row_count == 0) continue;
    if (!PartitionMayMatch(schema, p, range, range_col)) continue;
    const SegmentMeta& range_seg = pm.columns[range_col];
    std::vector<uint64_t> range_pages =
        reader->PrunePagesInt(p, range_col, range.lo, range.hi);
    if (range_pages.empty()) continue;
    IntervalSet rows;
    double est_rows = 0;  // rows expected to pass the exact range filter
    for (uint64_t page : range_pages) {
      uint64_t first = reader->PageFirstRow(p, range_col, page);
      rows.InsertRange(first, first + range_seg.page_rows[page]);
      const ZoneMapEntry& z = range_seg.zones[page];
      double span = static_cast<double>(z.max_int - z.min_int) + 1;
      double overlap = static_cast<double>(std::min(range.hi, z.max_int) -
                                           std::max(range.lo, z.min_int)) +
                       1;
      est_rows += range_seg.page_rows[page] *
                  std::clamp(overlap / span, 0.0, 1.0);
    }
    ndp::NdpRequest req;
    for (size_t i = 0; i < read_columns.size(); ++i) {
      int c = col_ids[i];
      const SegmentMeta& seg = pm.columns[c];
      std::vector<uint64_t> pages =
          c == range_col ? range_pages : PagesForRows(seg, rows);
      Result<std::vector<TableReader::CloudPageRef>> refs =
          reader->CloudPageRefs(p, c, pages);
      if (!refs.ok()) return NdpScanPlan{};  // fall back to the pull path
      ndp::NdpColumn col;
      col.name = read_columns[i];
      col.type = schema.columns[c].type;
      col.projected = i < projected_count;
      col.pages.reserve(refs.value().size());
      uint64_t pull_rows = 0;
      for (const TableReader::CloudPageRef& ref : refs.value()) {
        col.pages.push_back(
            ndp::NdpPageRef{ref.store_key, ref.first_row, ref.row_count});
        pull_rows += ref.row_count;
      }
      double seg_bytes = pull_rows * EncodedWidth(col.type);
      // SELECT bills the stored frame bytes it scans, so price the push
      // from the loader-recorded per-page sizes.
      double stored_bytes = 0;
      for (uint64_t page : pages) stored_bytes += seg.page_bytes[page];
      // Plan-time residency: how many of these pages a pull would find
      // already in RAM or on the OCM's SSD. The store-side engine scans
      // them all either way.
      TableReader::Residency res = reader->ProbeResidency(p, c, pages);
      plan.work.pull_pages += res.pages;
      plan.work.pull_pages_buffer += res.in_buffer;
      plan.work.pull_pages_ocm += res.in_cloud_cache;
      plan.work.pull_bytes += seg_bytes;
      plan.work.push_scan_bytes += stored_bytes;
      if (col.projected) {
        plan.work.push_return_bytes += est_rows * EncodedWidth(col.type);
      }
      req.columns.push_back(std::move(col));
    }
    req.range_column = static_cast<uint32_t>(range_pos);
    req.lo = range.lo;
    req.hi = range.hi;
    std::vector<uint8_t> bytes = req.Serialize();
    plan.work.push_requests += 1;
    plan.work.push_request_bytes += static_cast<double>(bytes.size());
    plan.partitions.push_back(p);
    plan.requests.push_back(std::move(bytes));
  }
  if (plan.partitions.empty()) {
    plan.considered = false;  // nothing to push (or to pull)
    return plan;
  }

  // Price both shapes with the ledger's own tables — the prediction that
  // EXPLAIN WHATIF shows and that the run report scores against billing.
  costopt::CostModel model(ctx->ledger().prices());
  costopt::NodeResources local = ResourcesFor(ctx->node());
  std::vector<costopt::PlanEstimate> candidates;
  candidates.push_back(model.PricePull(plan.work, local));
  candidates.push_back(model.PricePush(plan.work, local));

  costopt::PlanPolicy policy = ctx->options().cost_policy;
  costopt::PlanChoice choice;
  if (mode == ndp::NdpMode::kOn) {
    choice.index = 1;
    choice.reason = "ndp=on: pushdown forced";
  } else {
    choice = costopt::ChoosePlan(candidates, policy,
                                 ctx->options().slo_seconds,
                                 ctx->options().budget_left_usd);
  }
  const int chosen = choice.index;
  plan.use = chosen == 1;

  // Record the decision trail. op_id anticipates the scan's OperatorScope,
  // which registers immediately after planning — that id is what ties the
  // prediction to the ledger entry the run bills.
  costopt::WhatIfScan record;
  record.op = "scan " + schema.name;
  record.op_id = static_cast<int>(ctx->operators().size());
  record.policy = costopt::PolicyName(policy);
  record.candidates = candidates;
  record.chosen = chosen;
  record.reason = std::move(choice.reason);
  // Reader-node placement, advisory: the chosen shape re-priced on every
  // node in the environment with compute-time USD at its hourly rate.
  SimEnvironment& env = ctx->node()->env();
  for (size_t n = 0; n < env.node_count(); ++n) {
    costopt::NodeResources remote = ResourcesFor(&env.node(n));
    record.placement.push_back(model.PricePlacement(
        plan.work, remote, plan.use,
        candidates[chosen].name + "@" + env.node(n).profile().name));
  }
  ctx->whatif().Add(std::move(record));
  return plan;
}

}  // namespace

Result<Batch> ScanTable(QueryContext* ctx, TableReader* reader,
                        const std::vector<std::string>& columns,
                        const std::optional<ScanRange>& range) {
  const TableSchema& schema = reader->schema();
  int range_col =
      range.has_value() ? schema.ColumnIndex(range->column) : -1;
  if (range.has_value() && range_col < 0) {
    return Status::InvalidArgument("unknown range column");
  }
  // Zone maps and the exact filter compare ints; other types carry no
  // int bounds to prune or filter on.
  if (range.has_value() && !IsIntFamily(schema.columns[range_col].type)) {
    return Status::InvalidArgument("range column " + range->column +
                                   " is not int-family");
  }
  // Read the range column too (for the exact post-filter), dropping it at
  // the end if the caller did not ask for it.
  std::vector<std::string> read_columns = columns;
  bool extra_range_col = false;
  size_t range_pos = 0;  // position of the range column in read_columns
  if (range.has_value()) {
    auto it = std::find(columns.begin(), columns.end(), range->column);
    if (it == columns.end()) {
      range_pos = read_columns.size();
      read_columns.push_back(range->column);
      extra_range_col = true;
    } else {
      range_pos = static_cast<size_t>(it - columns.begin());
    }
  }
  std::vector<int> col_ids;
  Status shape_status;
  Batch out = MakeOutputShape(schema, read_columns, &col_ids,
                              &shape_status);
  CLOUDIQ_RETURN_IF_ERROR(shape_status);

  // Near-data processing: with a range predicate, consider evaluating the
  // scan inside the object store instead of pulling pages. Planned before
  // the operator registers so EXPLAIN shows the decision in the name.
  NdpScanPlan plan;
  if (range.has_value()) {
    plan = PlanNdpScan(ctx, reader, read_columns, col_ids, columns.size(),
                       range_col, range_pos, *range);
  }

  OperatorScope op(ctx,
                   "scan " + schema.name + (plan.use ? " [ndp]" : ""));
  auto& stats = ctx->node()->telemetry().stats();

  if (plan.use) {
    // Server-side path: the store decodes, filters, and projects; only
    // the matching values cross the NIC. The server applies the exact
    // range filter, so there is no client post-filter, and the result
    // carries exactly the caller's columns (filter-only columns are not
    // projected). Row order matches the pull path: ascending within each
    // partition, partitions in order.
    std::vector<int> proj_ids;
    Status proj_status;
    Batch pushed = MakeOutputShape(schema, columns, &proj_ids,
                                   &proj_status);
    CLOUDIQ_RETURN_IF_ERROR(proj_status);
    ObjectStoreIo& io = ctx->txn_mgr()->storage().object_io();
    SimClock& clock = ctx->node()->clock();
    for (size_t i = 0; i < plan.partitions.size(); ++i) {
      SimTime done = clock.now();
      uint64_t scanned = 0;
      CLOUDIQ_ASSIGN_OR_RETURN(
          std::vector<uint8_t> result_bytes,
          io.Select(plan.requests[i], clock.now(), &done, &scanned));
      clock.AdvanceTo(done);
      CLOUDIQ_ASSIGN_OR_RETURN(ndp::NdpResult result,
                               ndp::NdpResult::Deserialize(result_bytes));
      if (result.columns.size() != pushed.columns.size()) {
        return Status::Corruption("NDP result shape mismatch");
      }
      for (size_t c = 0; c < result.columns.size(); ++c) {
        ColumnVector& dst = pushed.columns[c];
        const ColumnVector& src = result.columns[c];
        if (src.type != dst.type) {
          return Status::Corruption("NDP result type mismatch");
        }
        dst.AppendRange(src, 0, src.size());
      }
      // Client work: decode the (compressed) result and materialize it.
      ctx->ChargeDecodedBytes(result_bytes.size());
      ctx->ChargeValues(result.rows_matched * pushed.columns.size());
      uint64_t returned = result_bytes.size();
      stats.counter("ndp.requests").Add(1);
      stats.counter("ndp.bytes_scanned").Add(scanned);
      stats.counter("ndp.bytes_returned").Add(returned);
      if (scanned > returned) {
        stats.counter("ndp.bytes_saved").Add(scanned - returned);
      }
    }
    stats.counter("ndp.pushdown_scans").Add(1);
    op.AddRows(pushed.rows());
    return pushed;
  }
  if (plan.considered) stats.counter("ndp.pull_scans").Add(1);

  // --- morsel-parallel pull path -----------------------------------------
  // Phase A (coordinator, simulated): per partition, compute the
  // candidate row set (zone-map survivors under a range predicate, the
  // whole partition otherwise), plan page-aligned morsels on the leading
  // read column and list the pages each read column needs; then read
  // every listed page ahead in rounds that overlap across partitions and
  // columns, and fetch each *encoded* frame. All simulated I/O happens
  // here, in partition/column/page order, whatever the worker count.
  uint64_t decoded_before = reader->decoded_bytes();
  std::vector<Morsel> morsels;
  std::vector<size_t> morsel_part;  // morsel -> the scan's partition index
  size_t parts = 0;
  PageScan scan;
  for (const ColumnVector& col : out.columns) {
    scan.columns.push_back({col.type, true, {}});
  }
  if (extra_range_col) scan.columns[range_pos].write = false;
  std::vector<TableReader::SegmentPages> segments;
  for (size_t p = 0;
       !col_ids.empty() && p < reader->meta().partitions.size(); ++p) {
    const PartitionMeta& pm = reader->meta().partitions[p];
    if (pm.row_count == 0) continue;
    if (!PartitionMayMatch(schema, p, range, range_col)) continue;

    IntervalSet rows;
    if (range.has_value()) {
      const SegmentMeta& seg = pm.columns[range_col];
      std::vector<uint64_t> pages =
          reader->PrunePagesInt(p, range_col, range->lo, range->hi);
      for (uint64_t page : pages) {
        uint64_t first = reader->PageFirstRow(p, range_col, page);
        rows.InsertRange(first, first + seg.page_rows[page]);
      }
    } else {
      rows.InsertRange(0, pm.row_count);
    }
    if (rows.empty()) continue;

    size_t morsels_before = morsels.size();
    AppendMorsels(pm.columns[col_ids[0]], p, rows,
                  ctx->options().morsel_rows, &morsels);
    if (morsels.size() == morsels_before) continue;
    morsel_part.resize(morsels.size(), parts++);
    AddScanSegments(*reader, p, col_ids, rows, &segments);
  }
  std::vector<BufferManager::PageData> frames;
  CLOUDIQ_RETURN_IF_ERROR(FetchScanPages(reader, segments, &frames, &scan));
  // Every fetched frame is decoded exactly once below; charge the decode
  // CPU up front so the parallel section carries only per-morsel values.
  ctx->ChargeDecodedBytes(reader->decoded_bytes() - decoded_before);

  if (!morsels.empty()) {
    stats.counter("exec.parallel_sections").Add(1);
    stats.counter("exec.morsels").Add(morsels.size());

    ScopedParallelSection section(ctx);
    // The page-scan pipeline (workers, host CPU; DESIGN.md §5p) checks
    // and decodes the fetched pages and writes the survivors into `out`.
    for (size_t m = 0; m < morsels.size(); ++m) {
      scan.morsels.push_back({morsel_part[m], morsels[m].rows.Intervals()});
    }
    if (range.has_value()) {
      scan.range_column = range_pos;
      scan.lo = range->lo;
      scan.hi = range->hi;
    }
    scan.workers = ctx->options().exec_workers;
    CLOUDIQ_ASSIGN_OR_RETURN(ScannedRows scanned, ScanPages(scan));
    out.columns = std::move(scanned.columns);
    // The coordinator's fixed charge loop: each candidate row costs one
    // touch per read column plus (with a predicate) the exact filter
    // touch — the same totals the serial executor charged, attributed
    // per morsel in morsel order in both modes.
    for (const Morsel& morsel : morsels) {
      uint64_t values = morsel.row_count * col_ids.size();
      if (range.has_value()) values += morsel.row_count;
      ctx->ChargeMorselValues(values);
    }
    section.Finish();
  }

  if (range.has_value() && extra_range_col) {
    out.names.pop_back();
    out.columns.pop_back();
  }
  op.AddRows(out.rows());
  return out;
}

Result<Batch> ScanRowIds(QueryContext* ctx, TableReader* reader,
                         size_t partition,
                         const std::vector<std::string>& columns,
                         const IntervalSet& row_ids) {
  OperatorScope op(ctx, "scan row-ids " + reader->schema().name);
  std::vector<int> col_ids;
  Status shape_status;
  Batch out = MakeOutputShape(reader->schema(), columns, &col_ids,
                              &shape_status);
  CLOUDIQ_RETURN_IF_ERROR(shape_status);
  if (row_ids.empty()) return out;
  // Row ids from a stored posting are checked only to be canonical runs,
  // so they are clipped to the partition before anything is sized from
  // them.
  IntervalSet held;
  held.InsertRange(0, reader->meta().partitions[partition].row_count);
  const IntervalSet rows = IntervalSet::Intersect(row_ids, held);
  PageScan scan;
  for (const ColumnVector& col : out.columns) {
    scan.columns.push_back({col.type, true, {}});
  }
  std::vector<TableReader::SegmentPages> segments;
  AddScanSegments(*reader, partition, col_ids, rows, &segments);
  std::vector<BufferManager::PageData> frames;
  CLOUDIQ_RETURN_IF_ERROR(FetchScanPages(reader, segments, &frames, &scan));
  scan.morsels.push_back({0, rows.Intervals()});
  scan.workers = ctx->options().exec_workers;
  CLOUDIQ_ASSIGN_OR_RETURN(ScannedRows scanned, ScanPages(scan));
  out.columns = std::move(scanned.columns);
  ctx->ChargeValues(scanned.rows * col_ids.size());
  op.AddRows(out.rows());
  return out;
}

Batch GatherRows(const Batch& in, const std::vector<size_t>& rows) {
  Batch out = in.EmptyLike();
  for (size_t c = 0; c < in.columns.size(); ++c) {
    out.columns[c].Resize(rows.size());
    out.columns[c].Gather(in.columns[c], rows, 0);
  }
  return out;
}

namespace {

// One probe chunk's output rows, in emit order: the left row of each, and
// for an inner join the matching right row.
struct JoinMatches {
  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
};

// Int-family join keys, indexed by IntKeyIndex: a flat array over the
// build keys' range when it is dense enough, else a hash table.
class IntJoinKeys {
 public:
  IntJoinKeys(const std::vector<int64_t>& left,
              const std::vector<int64_t>& right)
      : left_(left),
        right_(right),
        index_(IntKeySpan::Of(right), right.size(), right.size()) {}

  uint32_t Insert(size_t r, bool* inserted) {
    return index_.FindOrInsert(right_[r], inserted);
  }
  uint32_t Find(size_t l) const { return index_.Find(left_[l]); }

 private:
  const std::vector<int64_t>& left_;
  const std::vector<int64_t>& right_;
  IntKeyIndex index_;
};

// String join keys, each side plain or coded, in a RowKeyTable. A coded
// cell hashes to its dictionary's stored HashKey, the plain string's own
// hash, so the two forms join; keys under one shared dictionary compare
// by code.
class StringJoinKeys {
 public:
  StringJoinKeys(const ColumnVector& left, const ColumnVector& right)
      : left_(left), right_(right), table_(right.size()) {}

  uint32_t Insert(size_t r, bool* inserted) {
    uint32_t id = table_.FindOrInsert(
        Hash(right_, r),
        [&](uint32_t k) { return CellsEqual(right_, first_row_[k], r); },
        inserted);
    if (*inserted) first_row_.push_back(r);
    return id;
  }
  uint32_t Find(size_t l) const {
    return table_.Find(Hash(left_, l),
                       [&](uint32_t k) { return Match(l, first_row_[k]); });
  }

 private:
  static uint64_t Hash(const ColumnVector& col, size_t r) {
    return col.dict != nullptr ? col.dict->hash[col.codes[r]]
                               : HashKey(col.strings[r]);
  }
  bool Match(size_t l, size_t r) const {
    if (left_.dict != nullptr && left_.dict == right_.dict) {
      return left_.codes[l] == right_.codes[r];
    }
    return left_.StringAt(l) == right_.StringAt(r);
  }

  const ColumnVector& left_;
  const ColumnVector& right_;
  RowKeyTable table_;
  std::vector<size_t> first_row_;  // per id
};

// HashJoin's build and probe over one key kind (IntJoinKeys or
// StringJoinKeys). `out` already has the output shape; `right_cols` are
// the emitted right columns.
template <typename Keys>
void JoinOnKeys(QueryContext* ctx, const Batch& left, const Batch& right,
                Keys& keys, JoinType type,
                const std::vector<int>& right_cols, Batch* out) {
  TaskPool& pool = TaskPool::Global();
  const int workers = ctx->options().exec_workers;
  auto& stats = ctx->node()->telemetry().stats();
  const bool inner = type == JoinType::kInner;

  // Build side: the right keys get dense ids in ascending row order. An
  // inner join lays each key's rows out as one CSR run,
  // rows[offsets[id] .. offsets[id + 1]), so every key's rows stay
  // ascending — exactly the serial build's match order. Semi and anti
  // joins need only the ids. The build runs on the coordinator; its
  // section charges each build chunk as a morsel.
  std::vector<size_t> offsets(1, 0);
  std::vector<size_t> rows;
  std::vector<RowChunk> build_chunks =
      MakeRowChunks(right.rows(), ctx->options().morsel_rows);
  if (!build_chunks.empty()) {
    stats.counter("exec.parallel_sections").Add(1);
    stats.counter("exec.morsels").Add(build_chunks.size());
    ScopedParallelSection section(ctx);
    bool inserted = false;
    if (inner) {
      std::vector<uint32_t> id_of(right.rows());
      for (size_t r = 0; r < right.rows(); ++r) {
        uint32_t id = keys.Insert(r, &inserted);
        if (inserted) offsets.push_back(0);
        id_of[r] = id;
        ++offsets[id + 1];
      }
      for (size_t id = 1; id < offsets.size(); ++id) {
        offsets[id] += offsets[id - 1];
      }
      std::vector<size_t> next(offsets.begin(), offsets.end() - 1);
      rows.resize(right.rows());
      for (size_t r = 0; r < right.rows(); ++r) rows[next[id_of[r]]++] = r;
    } else {
      for (size_t r = 0; r < right.rows(); ++r) keys.Insert(r, &inserted);
    }
    for (const RowChunk& chunk : build_chunks) {
      ctx->ChargeMorselValues(chunk.end - chunk.begin);
    }
    section.Finish();
  }

  // Probe side: each left chunk records its matches as row-index pairs
  // (probe order, each key's matches ascending); every output column is
  // then gathered once into the chunk's disjoint slot range of `out`.
  std::vector<RowChunk> probe_chunks =
      MakeRowChunks(left.rows(), ctx->options().morsel_rows);
  if (!probe_chunks.empty()) {
    stats.counter("exec.parallel_sections").Add(1);
    stats.counter("exec.morsels").Add(probe_chunks.size());
    std::vector<JoinMatches> matches(probe_chunks.size());
    ScopedParallelSection section(ctx);
    pool.RunIndexed(workers, probe_chunks.size(), [&](size_t i) {
      JoinMatches& m = matches[i];
      const RowChunk& chunk = probe_chunks[i];
      if (!inner) {
        // Semi and anti joins write every row and keep it by advancing
        // the output when the probe's hit is the wanted one.
        const bool want = type == JoinType::kLeftSemi;
        m.left_rows.resize(chunk.end - chunk.begin);
        size_t n = 0;
        for (size_t r = chunk.begin; r < chunk.end; ++r) {
          m.left_rows[n] = r;
          n += (keys.Find(r) != RowKeyTable::kNone) == want;
        }
        m.left_rows.resize(n);
        return;
      }
      for (size_t r = chunk.begin; r < chunk.end; ++r) {
        uint32_t id = keys.Find(r);
        if (id == RowKeyTable::kNone) continue;
        for (size_t k = offsets[id]; k < offsets[id + 1]; ++k) {
          m.left_rows.push_back(r);
          m.right_rows.push_back(rows[k]);
        }
      }
    });
    std::vector<size_t> at(probe_chunks.size() + 1, 0);
    for (size_t i = 0; i < probe_chunks.size(); ++i) {
      at[i + 1] = at[i] + matches[i].left_rows.size();
    }
    for (ColumnVector& col : out->columns) col.Resize(at.back());
    pool.RunIndexed(workers, probe_chunks.size(), [&](size_t i) {
      for (size_t c = 0; c < left.columns.size(); ++c) {
        out->columns[c].Gather(left.columns[c], matches[i].left_rows, at[i]);
      }
      for (size_t rc = 0; rc < right_cols.size(); ++rc) {
        out->columns[left.columns.size() + rc].Gather(
            right.columns[right_cols[rc]], matches[i].right_rows, at[i]);
      }
    });
    for (const RowChunk& chunk : probe_chunks) {
      ctx->ChargeMorselValues((chunk.end - chunk.begin) *
                              (1 + out->columns.size()));
    }
    section.Finish();
  }
}

}  // namespace

Result<Batch> HashJoin(QueryContext* ctx, const Batch& left,
                       const std::string& left_key, const Batch& right,
                       const std::string& right_key, JoinType type) {
  OperatorScope op(ctx, "hash join");
  int lk = left.Col(left_key);
  int rk = right.Col(right_key);
  if (lk < 0 || rk < 0) return Status::InvalidArgument("bad join key");
  ColumnType lt = left.columns[lk].type;
  ColumnType rt = right.columns[rk].type;
  bool string_key = lt == ColumnType::kString && rt == ColumnType::kString;
  if (!string_key && !(IsIntFamily(lt) && IsIntFamily(rt))) {
    return Status::InvalidArgument(
        "join keys must both be int-family or both be string");
  }

  // Output shape.
  Batch out = left.EmptyLike();
  std::vector<int> right_cols;  // emitted right columns (inner join)
  if (type == JoinType::kInner) {
    for (size_t c = 0; c < right.columns.size(); ++c) {
      if (static_cast<int>(c) == rk) continue;
      if (out.Col(right.names[c]) >= 0) continue;  // left name wins
      right_cols.push_back(static_cast<int>(c));
      out.AddColumn(right.names[c], right.columns[c].EmptyLike());
    }
  }

  if (string_key) {
    StringJoinKeys keys(left.columns[lk], right.columns[rk]);
    JoinOnKeys(ctx, left, right, keys, type, right_cols, &out);
  } else {
    IntJoinKeys keys(left.columns[lk].ints, right.columns[rk].ints);
    JoinOnKeys(ctx, left, right, keys, type, right_cols, &out);
  }
  op.AddRows(out.rows());
  return out;
}

namespace {

// Hashes the key cells of rows [chunk.begin, chunk.end) into `hashes`,
// one typed pass per key column (a coded column reads its dictionary's
// stored hashes). With no key columns every row hashes alike: one global
// group.
void HashRowKeys(const Batch& in, const std::vector<int>& key_cols,
                 const RowChunk& chunk, std::vector<uint64_t>* hashes) {
  hashes->assign(chunk.end - chunk.begin, 0);
  for (int c : key_cols) {
    const ColumnVector& col = in.columns[c];
    VisitValues(col, [&](const auto& vals) {
      for (size_t r = chunk.begin; r < chunk.end; ++r) {
        uint64_t& h = (*hashes)[r - chunk.begin];
        if constexpr (std::is_same_v<ElementOf<decltype(vals)>, uint32_t>) {
          h = HashCombine(h, col.dict->hash[vals[r]]);
        } else {
          h = HashCombine(h, HashKey(vals[r]));
        }
      }
    });
  }
}

// One aggregate's state over a set of groups, flat: one array holding the
// value the aggregate folds per group, chosen by its op and input type.
struct AggValues {
  // SUM / AVG / MIN / MAX of doubles, AVG of ints; SUM and AVG of strings
  // fold nothing and read 0.
  std::vector<double> doubles;
  // SUM of ints, modulo 2^64 (no signed overflow), as the int encodings
  // do.
  std::vector<uint64_t> int_sums;
  std::vector<int64_t> ints;  // MIN / MAX of ints
  // MIN / MAX of strings: views into the input batch, which outlives the
  // aggregate.
  std::vector<std::string_view> strings;
};

// The states of every aggregate over a set of groups. Every aggregate
// folds every row of its group, so one row count per group serves COUNT
// and AVG alike.
struct AggStates {
  std::vector<uint64_t> count;
  std::vector<AggValues> values;  // per aggregate; COUNT's stays empty
};

// Calls `f` with MIN's or MAX's combine function.
template <typename F>
void WithExtreme(AggOp op, F&& f) {
  if (op == AggOp::kMin) {
    f([](auto s, auto v) { return std::min(s, v); });
  } else {
    f([](auto s, auto v) { return std::max(s, v); });
  }
}

// Folds `value(r)` into the state of row r's group, `group[r -
// chunk.begin]`, for every row of the chunk. Each group sees its rows in
// row order, so sums associate exactly as in a row-at-a-time pass.
template <typename S, typename Value, typename Combine>
void FoldRows(const RowChunk& chunk, const std::vector<uint32_t>& group,
              Value value, Combine combine, std::vector<S>* states) {
  for (size_t r = chunk.begin; r < chunk.end; ++r) {
    S& s = (*states)[group[r - chunk.begin]];
    s = combine(s, value(r));
  }
}

// Folds input column `col` of a SUM / AVG / MIN / MAX aggregate over one
// chunk's rows into `out`, sized to the chunk's groups (`first_row` holds
// each group's first row).
void FoldAggColumn(AggOp op, const ColumnVector& col, const RowChunk& chunk,
                   const std::vector<uint32_t>& group,
                   const std::vector<size_t>& first_row, AggValues* out) {
  const size_t groups = first_row.size();
  const bool sum = op == AggOp::kSum || op == AggOp::kAvg;
  auto add = [](auto s, auto v) { return s + v; };
  // MIN and MAX seed each group with its first row's value, which folding
  // that row again leaves as it is.
  auto extreme = [&](auto value, auto* states) {
    states->resize(groups);
    for (size_t g = 0; g < groups; ++g) (*states)[g] = value(first_row[g]);
    WithExtreme(op, [&](auto combine) {
      FoldRows(chunk, group, value, combine, states);
    });
  };
  VisitValues(col, [&](const auto& vals) {
    using T = ElementOf<decltype(vals)>;
    if constexpr (std::is_same_v<T, double>) {
      auto value = [&](size_t r) { return vals[r]; };
      if (!sum) return extreme(value, &out->doubles);
      out->doubles.assign(groups, 0);
      FoldRows(chunk, group, value, add, &out->doubles);
    } else if constexpr (std::is_same_v<T, int64_t>) {
      if (op == AggOp::kSum) {
        out->int_sums.assign(groups, 0);
        FoldRows(chunk, group,
                 [&](size_t r) { return static_cast<uint64_t>(vals[r]); },
                 add, &out->int_sums);
      } else if (op == AggOp::kAvg) {
        out->doubles.assign(groups, 0);
        FoldRows(chunk, group,
                 [&](size_t r) { return static_cast<double>(vals[r]); }, add,
                 &out->doubles);
      } else {
        extreme([&](size_t r) { return vals[r]; }, &out->ints);
      }
    } else {
      // Strings: MIN and MAX only (HashAggregate refuses SUM and AVG).
      extreme(
          [&](size_t r) -> std::string_view {
            if constexpr (std::is_same_v<T, uint32_t>) {
              return col.dict->strings[vals[r]];
            } else {
              return vals[r];
            }
          },
          &out->strings);
    }
  });
}

// Merges one chunk's states `src` into the global `dst`: chunk group g is
// global group id[g]. A group's first chunk copies its state; later chunks
// combine into it in chunk order, so a double sum folds per-chunk partial
// sums — deterministic for a given morsel_rows.
template <typename S, typename Combine>
void MergeValues(const std::vector<S>& src, const std::vector<uint32_t>& id,
                 const std::vector<uint8_t>& first, Combine combine,
                 std::vector<S>* dst) {
  for (size_t g = 0; g < src.size(); ++g) {
    S& d = (*dst)[id[g]];
    d = first[g] ? src[g] : combine(d, src[g]);
  }
}

void MergeAggValues(AggOp op, const AggValues& src,
                    const std::vector<uint32_t>& id,
                    const std::vector<uint8_t>& first, AggValues* dst) {
  if (op == AggOp::kSum || op == AggOp::kAvg) {
    auto add = [](auto s, auto v) { return s + v; };
    MergeValues(src.doubles, id, first, add, &dst->doubles);
    MergeValues(src.int_sums, id, first, add, &dst->int_sums);
    return;
  }
  WithExtreme(op, [&](auto combine) {
    MergeValues(src.doubles, id, first, combine, &dst->doubles);
    MergeValues(src.ints, id, first, combine, &dst->ints);
    MergeValues(src.strings, id, first, combine, &dst->strings);
  });
}

}  // namespace

Result<Batch> HashAggregate(QueryContext* ctx, const Batch& in,
                            const std::vector<std::string>& keys,
                            const std::vector<AggSpec>& aggs) {
  OperatorScope op(ctx, "hash aggregate");
  std::vector<int> key_cols;
  for (const std::string& k : keys) {
    int c = in.Col(k);
    if (c < 0) return Status::InvalidArgument("unknown group key " + k);
    key_cols.push_back(c);
  }
  std::vector<int> agg_cols;
  for (const AggSpec& spec : aggs) {
    int c = spec.op == AggOp::kCount && spec.column.empty()
                ? 0
                : in.Col(spec.column);
    if (c < 0 && !(spec.op == AggOp::kCount && spec.column.empty())) {
      return Status::InvalidArgument("unknown agg column " + spec.column);
    }
    if ((spec.op == AggOp::kSum || spec.op == AggOp::kAvg) &&
        in.columns[c].type == ColumnType::kString) {
      return Status::InvalidArgument("SUM/AVG over string column " +
                                     spec.column);
    }
    agg_cols.push_back(c);
  }

  // Group rows by typed key cells. Chunked: each chunk groups its rows
  // and folds them into states of its own (the agg_merge idiom), then
  // chunks merge serially in chunk order — the first chunk containing a
  // group also contains its globally first row, so the global group order
  // and representative rows match a serial pass exactly. A single
  // int-family key goes through IntKeyIndex (a flat array when the key
  // range is dense); other keys hash their cells into a RowKeyTable.
  const std::vector<int64_t>* int_key =
      key_cols.size() == 1 && IsIntFamily(in.columns[key_cols[0]].type)
          ? &in.columns[key_cols[0]].ints
          : nullptr;
  auto keys_equal = [&](size_t a, size_t b) {
    for (int c : key_cols) {
      if (!CellsEqual(in.columns[c], a, b)) return false;
    }
    return true;
  };
  std::vector<size_t> group_of_first_row;  // representative row per group
  AggStates states;
  states.values.resize(aggs.size());

  struct LocalGroups {
    std::vector<size_t> first_row;  // global row ids, per chunk group
    std::vector<uint64_t> hash;     // key hash per chunk group (hashed keys)
    IntKeySpan range;               // of the chunk's int keys
    AggStates states;
    std::vector<uint32_t> id;     // global group id per chunk group
    std::vector<uint8_t> first;   // whether this is the group's first chunk
  };
  std::vector<RowChunk> chunks =
      MakeRowChunks(in.rows(), ctx->options().morsel_rows);
  if (!chunks.empty()) {
    TaskPool& pool = TaskPool::Global();
    const int workers = ctx->options().exec_workers;
    auto& stats = ctx->node()->telemetry().stats();
    stats.counter("exec.parallel_sections").Add(1);
    stats.counter("exec.morsels").Add(chunks.size());
    std::vector<LocalGroups> locals(chunks.size());
    ScopedParallelSection section(ctx);
    pool.RunIndexed(workers, chunks.size(), [&](size_t i) {
      LocalGroups& lg = locals[i];
      const RowChunk& chunk = chunks[i];
      std::vector<uint32_t> group(chunk.end - chunk.begin);
      bool inserted = false;
      if (int_key != nullptr) {
        std::span<const int64_t> key(int_key->data() + chunk.begin,
                                     group.size());
        lg.range = IntKeySpan::Of(key);
        IntKeyIndex index(lg.range, key.size());
        for (size_t r = 0; r < key.size(); ++r) {
          group[r] = index.FindOrInsert(key[r], &inserted);
          if (inserted) lg.first_row.push_back(chunk.begin + r);
        }
      } else {
        std::vector<uint64_t> hashes;
        HashRowKeys(in, key_cols, chunk, &hashes);
        RowKeyTable index;
        for (size_t r = chunk.begin; r < chunk.end; ++r) {
          uint64_t h = hashes[r - chunk.begin];
          group[r - chunk.begin] = index.FindOrInsert(
              h, [&](uint32_t k) { return keys_equal(lg.first_row[k], r); },
              &inserted);
          if (inserted) {
            lg.hash.push_back(h);
            lg.first_row.push_back(r);
          }
        }
      }
      lg.states.count.assign(lg.first_row.size(), 0);
      for (uint32_t g : group) ++lg.states.count[g];
      lg.states.values.resize(aggs.size());
      for (size_t a = 0; a < aggs.size(); ++a) {
        if (aggs[a].op == AggOp::kCount) continue;  // reads no values
        FoldAggColumn(aggs[a].op, in.columns[agg_cols[a]], chunk, group,
                      lg.first_row, &lg.states.values[a]);
      }
    });

    // Global ids, in chunk order; each index is sized from the chunks'
    // group counts.
    size_t chunk_groups = 0;
    IntKeySpan range;
    for (const LocalGroups& lg : locals) {
      chunk_groups += lg.first_row.size();
      range.Add(lg.range);
    }
    auto assign = [&](LocalGroups* lg, size_t g, uint32_t id,
                      bool inserted) {
      if (inserted) group_of_first_row.push_back(lg->first_row[g]);
      lg->id.push_back(id);
      lg->first.push_back(inserted);
    };
    bool inserted = false;
    if (int_key != nullptr) {
      IntKeyIndex groups(range, in.rows(), chunk_groups);
      for (LocalGroups& lg : locals) {
        for (size_t g = 0; g < lg.first_row.size(); ++g) {
          uint32_t id =
              groups.FindOrInsert((*int_key)[lg.first_row[g]], &inserted);
          assign(&lg, g, id, inserted);
        }
      }
    } else {
      RowKeyTable groups(chunk_groups);
      for (LocalGroups& lg : locals) {
        for (size_t g = 0; g < lg.first_row.size(); ++g) {
          uint32_t id = groups.FindOrInsert(
              lg.hash[g],
              [&](uint32_t k) {
                return keys_equal(group_of_first_row[k], lg.first_row[g]);
              },
              &inserted);
          assign(&lg, g, id, inserted);
        }
      }
    }

    // Merge the chunk states, sized once: every chunk sizes the same
    // arrays of an aggregate.
    const size_t groups = group_of_first_row.size();
    states.count.assign(groups, 0);
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggValues& like = locals[0].states.values[a];
      AggValues& v = states.values[a];
      v.doubles.resize(like.doubles.empty() ? 0 : groups);
      v.int_sums.resize(like.int_sums.empty() ? 0 : groups);
      v.ints.resize(like.ints.empty() ? 0 : groups);
      v.strings.resize(like.strings.empty() ? 0 : groups);
    }
    for (size_t i = 0; i < chunks.size(); ++i) {
      const LocalGroups& lg = locals[i];
      MergeValues(lg.states.count, lg.id, lg.first,
                  [](uint64_t s, uint64_t v) { return s + v; },
                  &states.count);
      for (size_t a = 0; a < aggs.size(); ++a) {
        MergeAggValues(aggs[a].op, lg.states.values[a], lg.id, lg.first,
                       &states.values[a]);
      }
      ctx->ChargeMorselValues((chunks[i].end - chunks[i].begin) *
                              (key_cols.size() + aggs.size()));
    }
    section.Finish();
  }

  // Materialize output: group keys, then aggregates.
  Batch out;
  for (size_t k = 0; k < keys.size(); ++k) {
    out.AddColumn(keys[k], in.columns[key_cols[k]].EmptyLike());
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    ColumnVector vec;
    const AggSpec& spec = aggs[a];
    if (spec.op == AggOp::kCount) {
      vec.type = ColumnType::kInt64;
    } else if (agg_cols[a] >= 0 &&
               in.columns[agg_cols[a]].type == ColumnType::kString) {
      vec.type = ColumnType::kString;
    } else if (agg_cols[a] >= 0 &&
               in.columns[agg_cols[a]].type != ColumnType::kDouble &&
               in.columns[agg_cols[a]].type != ColumnType::kString &&
               (spec.op == AggOp::kMin || spec.op == AggOp::kMax ||
                spec.op == AggOp::kSum)) {
      // Int-family inputs (INT64 / DATE / DECIMAL) keep exact int sums,
      // minima and maxima.
      vec.type = ColumnType::kInt64;
    } else {
      vec.type = ColumnType::kDouble;
    }
    out.AddColumn(spec.as, std::move(vec));
  }

  const size_t groups = group_of_first_row.size();
  for (size_t k = 0; k < key_cols.size(); ++k) {
    out.columns[k].Resize(groups);
    out.columns[k].Gather(in.columns[key_cols[k]], group_of_first_row, 0);
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const std::vector<uint64_t>& count = states.count;
    const AggValues& v = states.values[a];
    ColumnVector& dst = out.columns[key_cols.size() + a];
    switch (aggs[a].op) {
      case AggOp::kCount:
        dst.ints.assign(count.begin(), count.end());
        break;
      case AggOp::kSum:
        if (dst.type == ColumnType::kInt64) {
          dst.ints.assign(v.int_sums.begin(), v.int_sums.end());
        } else {
          dst.doubles = v.doubles;
        }
        break;
      case AggOp::kAvg:
        dst.doubles.resize(groups);
        for (size_t g = 0; g < groups; ++g) {
          dst.doubles[g] = count[g] > 0 ? v.doubles[g] / count[g] : 0;
        }
        break;
      case AggOp::kMin:
      case AggOp::kMax:
        if (dst.type == ColumnType::kString) {
          dst.strings.assign(v.strings.begin(), v.strings.end());
        } else if (dst.type == ColumnType::kInt64) {
          dst.ints = v.ints;
        } else {
          dst.doubles = v.doubles;
        }
        break;
    }
  }
  op.AddRows(out.rows());
  return out;
}

Batch SortBatch(QueryContext* ctx, Batch in,
                const std::vector<SortKey>& sort_keys, size_t limit) {
  OperatorScope op(ctx, "sort");
  std::vector<size_t> order(in.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Key columns resolved once; unknown keys are skipped.
  std::vector<std::pair<const ColumnVector*, bool>> keys;
  for (const SortKey& key : sort_keys) {
    int c = in.Col(key.column);
    if (c >= 0) keys.emplace_back(&in.columns[c], key.ascending);
  }
  // <0, 0 or >0 as row a sorts before, with or after row b.
  auto compare = [&](size_t a, size_t b) {
    for (const auto& [col, ascending] : keys) {
      int cmp = VisitValues(*col, [&](const auto& vals) {
        using T = ElementOf<decltype(vals)>;
        if constexpr (std::is_same_v<T, std::string> ||
                      std::is_same_v<T, uint32_t>) {
          // Dictionary codes are not in string order: compare strings.
          int c = col->StringAt(a).compare(col->StringAt(b));
          return c < 0 ? -1 : (c > 0 ? 1 : 0);
        } else {
          return vals[a] < vals[b] ? -1 : (vals[a] > vals[b] ? 1 : 0);
        }
      });
      if (cmp != 0) return ascending ? cmp : -cmp;
    }
    return 0;
  };
  if (limit > 0 && limit < order.size()) {
    // The first `limit` rows of the stable order: ties go by row index.
    std::partial_sort(order.begin(), order.begin() + limit, order.end(),
                      [&](size_t a, size_t b) {
                        int c = compare(a, b);
                        return c != 0 ? c < 0 : a < b;
                      });
    order.resize(limit);
  } else {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return compare(a, b) < 0;
    });
  }

  Batch out = GatherRows(in, order);
  // n log n comparisons, each touching the sort-key values.
  double n = static_cast<double>(in.rows());
  ctx->ChargeValues(static_cast<uint64_t>(
      n * (n > 1 ? std::log2(n) : 1) * sort_keys.size()));
  op.AddRows(out.rows());
  return out;
}

}  // namespace cloudiq

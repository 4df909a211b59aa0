#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "columnar/encoding.h"
#include "columnar/table_loader.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "ndp/ndp_engine.h"
#include "ndp/ndp_protocol.h"
#include "store/page_codec.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

using ndp::AggOp;
using ndp::CmpOp;
using ndp::ExprOp;
using ndp::NdpAggregate;
using ndp::NdpColumn;
using ndp::NdpEngine;
using ndp::NdpExpr;
using ndp::NdpMode;
using ndp::NdpPageRef;
using ndp::NdpRequest;
using ndp::NdpResult;

// --- protocol --------------------------------------------------------------

NdpRequest TwoColumnRequest() {
  NdpRequest req;
  NdpColumn k;
  k.name = "k";
  k.type = ColumnType::kInt64;
  k.projected = false;
  k.pages = {{"data/00/1", 0, 100}, {"data/00/2", 100, 50}};
  NdpColumn v;
  v.name = "v";
  v.type = ColumnType::kDouble;
  v.projected = true;
  v.pages = {{"data/01/1", 0, 150}};
  req.columns = {k, v};
  req.filter = NdpExpr::And({NdpExpr::CmpInt(0, CmpOp::kGe, 10),
                             NdpExpr::CmpInt(0, CmpOp::kLe, 90)});
  return req;
}

TEST(NdpProtocolTest, RequestRoundTrip) {
  NdpRequest req = TwoColumnRequest();
  NdpExpr note_cmp;
  note_cmp.op = ExprOp::kCmp;
  note_cmp.cmp = CmpOp::kNe;
  note_cmp.column = 1;
  note_cmp.literal_type = ColumnType::kDouble;
  note_cmp.double_literal = 2.5;
  NdpExpr inner = req.filter;
  NdpExpr negated;
  negated.op = ExprOp::kNot;
  negated.children = {note_cmp};
  req.filter = NdpExpr{};
  req.filter.op = ExprOp::kOr;
  req.filter.children = {inner, negated};
  req.aggregates = {{AggOp::kCount, 0}, {AggOp::kSum, 1}};

  Result<NdpRequest> round = NdpRequest::Deserialize(req.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const NdpRequest& r = round.value();
  ASSERT_EQ(r.columns.size(), 2u);
  EXPECT_EQ(r.columns[0].name, "k");
  EXPECT_FALSE(r.columns[0].projected);
  ASSERT_EQ(r.columns[0].pages.size(), 2u);
  EXPECT_EQ(r.columns[0].pages[1].key, "data/00/2");
  EXPECT_EQ(r.columns[0].pages[1].first_row, 100u);
  EXPECT_EQ(r.columns[0].pages[1].row_count, 50u);
  EXPECT_EQ(r.columns[1].type, ColumnType::kDouble);
  ASSERT_EQ(r.filter.op, ExprOp::kOr);
  ASSERT_EQ(r.filter.children.size(), 2u);
  EXPECT_EQ(r.filter.children[0].op, ExprOp::kAnd);
  ASSERT_EQ(r.filter.children[1].op, ExprOp::kNot);
  EXPECT_DOUBLE_EQ(r.filter.children[1].children[0].double_literal, 2.5);
  ASSERT_EQ(r.aggregates.size(), 2u);
  EXPECT_EQ(r.aggregates[1].op, AggOp::kSum);
  EXPECT_EQ(r.aggregates[1].column, 1u);
}

TEST(NdpProtocolTest, RejectsMalformedRequests) {
  // Filter referencing a column the request does not carry.
  NdpRequest req = TwoColumnRequest();
  req.filter = NdpExpr::CmpInt(7, CmpOp::kEq, 1);
  EXPECT_FALSE(NdpRequest::Deserialize(req.Serialize()).ok());

  // Page refs must ascend without overlap.
  req = TwoColumnRequest();
  req.columns[0].pages = {{"data/00/1", 0, 100}, {"data/00/2", 50, 50}};
  EXPECT_FALSE(NdpRequest::Deserialize(req.Serialize()).ok());

  // Aggregate over a missing column.
  req = TwoColumnRequest();
  req.aggregates = {{AggOp::kSum, 9}};
  EXPECT_FALSE(NdpRequest::Deserialize(req.Serialize()).ok());

  // Trailing garbage.
  req = TwoColumnRequest();
  std::vector<uint8_t> bytes = req.Serialize();
  bytes.push_back(0);
  EXPECT_FALSE(NdpRequest::Deserialize(bytes).ok());
}

TEST(NdpProtocolTest, ResultRoundTripRowMode) {
  NdpResult res;
  res.is_aggregate = false;
  res.rows_matched = 3;
  ColumnVector ints;
  ints.type = ColumnType::kInt64;
  ints.ints = {1, -5, 42};
  ColumnVector doubles;
  doubles.type = ColumnType::kDouble;
  doubles.doubles = {0.5, 2.25, -1.0};
  ColumnVector strings;
  strings.type = ColumnType::kString;
  strings.strings = {"a", "", "promo"};
  res.columns = {ints, doubles, strings};

  Result<NdpResult> round = NdpResult::Deserialize(res.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const NdpResult& r = round.value();
  EXPECT_FALSE(r.is_aggregate);
  EXPECT_EQ(r.rows_matched, 3u);
  ASSERT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.columns[0].ints, ints.ints);
  EXPECT_EQ(r.columns[1].doubles, doubles.doubles);
  EXPECT_EQ(r.columns[2].strings, strings.strings);
}

TEST(NdpProtocolTest, ResultRoundTripAggregateAndEmpty) {
  NdpResult res;
  res.is_aggregate = true;
  res.rows_matched = 0;
  ColumnVector count;
  count.type = ColumnType::kInt64;
  count.ints = {0};
  ColumnVector empty_min;
  empty_min.type = ColumnType::kDouble;  // no matching rows: zero-row col
  res.columns = {count, empty_min};

  Result<NdpResult> round = NdpResult::Deserialize(res.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(round.value().is_aggregate);
  ASSERT_EQ(round.value().columns.size(), 2u);
  EXPECT_EQ(round.value().columns[0].ints.size(), 1u);
  EXPECT_EQ(round.value().columns[1].type, ColumnType::kDouble);
  EXPECT_EQ(round.value().columns[1].doubles.size(), 0u);
}

TEST(NdpProtocolTest, RejectsRaggedResults) {
  ColumnVector three;
  three.type = ColumnType::kInt64;
  three.ints = {1, 2, 3};
  ColumnVector none;
  none.type = ColumnType::kString;
  ColumnVector two;
  two.type = ColumnType::kDouble;
  two.doubles = {0.5, 1.5};

  // Row mode: every column has exactly rows_matched rows.
  NdpResult res;
  res.rows_matched = 3;
  res.columns = {three, none};
  Result<NdpResult> ragged = NdpResult::Deserialize(res.Serialize());
  EXPECT_TRUE(ragged.status().IsCorruption()) << ragged.status().ToString();
  res.columns = {two};
  EXPECT_TRUE(NdpResult::Deserialize(res.Serialize()).status().IsCorruption());
  res.columns = {three, three};
  EXPECT_TRUE(NdpResult::Deserialize(res.Serialize()).ok());

  // Aggregate mode: at most one value per column.
  res.is_aggregate = true;
  res.rows_matched = 2;
  res.columns = {two};
  EXPECT_TRUE(NdpResult::Deserialize(res.Serialize()).status().IsCorruption());
}

// --- engine ----------------------------------------------------------------

// Encodes `values[begin, end)` the way stored cloud pages are framed.
std::vector<uint8_t> StoredFrame(const ColumnVector& values, size_t begin,
                                 size_t end) {
  ZoneMapEntry zone;
  return EncodePage(EncodeColumnPage(values, begin, end, &zone));
}

struct EngineFixture {
  EngineFixture() {
    k.type = ColumnType::kInt64;
    v.type = ColumnType::kDouble;
    for (int64_t i = 0; i < 200; ++i) {
      k.ints.push_back(i);
      v.doubles.push_back(i * 0.5);
    }
    k_pages = {StoredFrame(k, 0, 100), StoredFrame(k, 100, 200)};
    v_pages = {StoredFrame(v, 0, 100), StoredFrame(v, 100, 200)};

    req.columns.resize(2);
    req.columns[0].name = "k";
    req.columns[0].type = ColumnType::kInt64;
    req.columns[0].projected = false;
    req.columns[0].pages = {{"k/1", 0, 100}, {"k/2", 100, 100}};
    req.columns[1].name = "v";
    req.columns[1].type = ColumnType::kDouble;
    req.columns[1].projected = true;
    req.columns[1].pages = {{"v/1", 0, 100}, {"v/2", 100, 100}};
    req.filter = NdpExpr::And({NdpExpr::CmpInt(0, CmpOp::kGe, 90),
                               NdpExpr::CmpInt(0, CmpOp::kLe, 109)});
  }

  std::vector<const std::vector<uint8_t>*> Pages() const {
    return {&k_pages[0], &k_pages[1], &v_pages[0], &v_pages[1]};
  }

  ColumnVector k, v;
  std::vector<std::vector<uint8_t>> k_pages, v_pages;
  NdpRequest req;
};

TEST(NdpEngineTest, FilterAndProjectAcrossPages) {
  EngineFixture f;
  Result<NdpResult> result = NdpEngine::Evaluate(f.req, f.Pages());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const NdpResult& r = result.value();
  EXPECT_FALSE(r.is_aggregate);
  EXPECT_EQ(r.rows_matched, 20u);  // k in [90, 109] spans the page seam
  ASSERT_EQ(r.columns.size(), 1u);
  ASSERT_EQ(r.columns[0].doubles.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(r.columns[0].doubles[i], (90 + i) * 0.5);
  }
}

TEST(NdpEngineTest, Aggregates) {
  EngineFixture f;
  f.req.aggregates = {{AggOp::kCount, 0},
                      {AggOp::kSum, 1},
                      {AggOp::kMin, 1},
                      {AggOp::kMax, 1}};
  Result<NdpResult> result = NdpEngine::Evaluate(f.req, f.Pages());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const NdpResult& r = result.value();
  EXPECT_TRUE(r.is_aggregate);
  ASSERT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.columns[0].ints[0], 20);
  double sum = 0;
  for (int64_t x = 90; x <= 109; ++x) sum += x * 0.5;
  EXPECT_DOUBLE_EQ(r.columns[1].doubles[0], sum);
  EXPECT_DOUBLE_EQ(r.columns[2].doubles[0], 45.0);
  EXPECT_DOUBLE_EQ(r.columns[3].doubles[0], 54.5);
}

TEST(NdpEngineTest, AggregateOverNoMatchesIsEmpty) {
  EngineFixture f;
  f.req.filter = NdpExpr::CmpInt(0, CmpOp::kGt, 10000);
  f.req.aggregates = {{AggOp::kCount, 0}, {AggOp::kMin, 1}};
  Result<NdpResult> result = NdpEngine::Evaluate(f.req, f.Pages());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows_matched, 0u);
  EXPECT_EQ(result.value().columns[0].ints[0], 0);       // COUNT = 0
  EXPECT_EQ(result.value().columns[1].doubles.size(), 0u);  // MIN = empty
}

TEST(NdpEngineTest, RejectsShapeMismatchAndBadPayloads) {
  EngineFixture f;
  // A ref whose row_count disagrees with the decoded page.
  f.req.columns[0].pages[0].row_count = 99;
  EXPECT_FALSE(NdpEngine::Evaluate(f.req, f.Pages()).ok());

  // Corrupted frame bytes fail the page codec.
  EngineFixture g;
  std::vector<uint8_t> bad = g.k_pages[0];
  bad[bad.size() / 2] ^= 0xff;
  std::vector<const std::vector<uint8_t>*> pages = {
      &bad, &g.k_pages[1], &g.v_pages[0], &g.v_pages[1]};
  EXPECT_FALSE(NdpEngine::Evaluate(g.req, pages).ok());
}

// --- store-side Select: latency, billing, ledger == store stats -----------

TEST(NdpStoreTest, SelectBillsMeterAndLedger) {
  SimEnvironment env;
  EngineFixture f;
  SimObjectStore& store = env.object_store();
  SimTime done = 0;
  // NOLINT(cloudiq-direct-put): store-level test seeds hand-framed
  // pages under a fixture prefix disjoint from keygen-issued keys.
  ASSERT_TRUE(store.Put("k/1", f.k_pages[0], 0, &done).ok());
  // NOLINT(cloudiq-direct-put): same fixture prefix as above.
  ASSERT_TRUE(store.Put("k/2", f.k_pages[1], done, &done).ok());
  // NOLINT(cloudiq-direct-put): same fixture prefix as above.
  ASSERT_TRUE(store.Put("v/1", f.v_pages[0], done, &done).ok());
  // NOLINT(cloudiq-direct-put): same fixture prefix as above.
  ASSERT_TRUE(store.Put("v/2", f.v_pages[1], done, &done).ok());

  // No engine installed: Select is NotSupported (fallback signal).
  std::vector<uint8_t> request = f.req.Serialize();
  SimTime sel_done = 0;
  EXPECT_TRUE(store.Select(request, done + 60, &sel_done)
                  .status()
                  .IsNotSupported());

  NdpEngine engine;
  store.set_ndp_engine(&engine);
  ASSERT_TRUE(store.has_ndp_engine());
  uint64_t scanned = 0, returned = 0;
  Result<std::vector<uint8_t>> result =
      store.Select(request, done + 60, &sel_done, &scanned, &returned);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(sel_done, done + 60);

  uint64_t stored = f.k_pages[0].size() + f.k_pages[1].size() +
                    f.v_pages[0].size() + f.v_pages[1].size();
  EXPECT_EQ(scanned, stored);
  EXPECT_EQ(returned, result.value().size());
  EXPECT_LT(returned, scanned);  // the point of near-data processing

  // Server-side evaluation matches the client-side engine.
  Result<NdpResult> decoded = NdpResult::Deserialize(result.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rows_matched, 20u);

  // The store's own request counters (its meter) and the ledger agree on
  // the SELECT and on the PUTs before it.
  EXPECT_EQ(store.stats().selects, 1u);
  EXPECT_EQ(store.stats().select_scanned_bytes, scanned);
  EXPECT_EQ(store.stats().select_returned_bytes, returned);
  const CostLedger& ledger = env.telemetry().ledger();
  CostLedger::Entry total = ledger.GrandTotal();
  EXPECT_EQ(total.selects, 1u);
  EXPECT_EQ(total.select_scanned_bytes, scanned);
  EXPECT_EQ(total.select_returned_bytes, returned);
  testing_util::ExpectLedgerMatchesStoreStats(&env);
  // Four PUTs plus one SELECT at S3-Select rates.
  const CloudPrices& p = ledger.prices();
  EXPECT_NEAR(total.RequestUsd(p),
              4 * p.s3_put_per_1k / 1000 + p.s3_select_per_1k / 1000 +
                  scanned / 1e9 * p.s3_select_scanned_per_gb +
                  returned / 1e9 * p.s3_select_returned_per_gb,
              1e-15);
}

// --- executor pushdown -----------------------------------------------------

Database::Options NdpDbOptions(NdpMode mode) {
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 8192;
  options.blockmap_fanout = 16;
  options.enable_ocm = false;
  options.ndp_mode = mode;
  return options;
}

void LoadWide(Database* db) {
  TableSchema schema;
  schema.name = "t";
  schema.table_id = 7;
  schema.columns = {{"k", ColumnType::kInt64},
                    {"v", ColumnType::kDecimal},
                    {"note", ColumnType::kString}};
  Transaction* txn = db->Begin();
  TableLoader loader = db->NewTableLoader(txn, schema);
  Batch batch;
  batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("v", {ColumnType::kDecimal, {}, {}, {}});
  batch.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  for (int64_t i = 0; i < 20000; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].ints.push_back((i * 7) % 99991);
    batch.columns[2].strings.push_back(i % 3 == 0 ? "promo" : "reg");
  }
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(db->system()).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
}

Result<Batch> RangeScan(Database* db, std::vector<std::string> columns,
                        int64_t lo, int64_t hi, QueryContext* out_ctx) {
  Transaction* txn = db->Begin();
  QueryContext ctx = db->NewQueryContext(txn, "scan");
  Batch out;
  {
    ScopedQueryAttribution scope(&ctx);
    CLOUDIQ_ASSIGN_OR_RETURN(TableReader reader, ctx.OpenTable(7));
    CLOUDIQ_ASSIGN_OR_RETURN(
        out, ScanTable(&ctx, &reader, columns, ScanRange{"k", lo, hi}));
  }
  CLOUDIQ_RETURN_IF_ERROR(db->Commit(txn));
  if (out_ctx != nullptr) *out_ctx = std::move(ctx);
  return out;
}

void ExpectSameBatch(const Batch& coded_a, const Batch& coded_b) {
  Batch a = testing_util::Expanded(coded_a);
  Batch b = testing_util::Expanded(coded_b);
  ASSERT_EQ(a.names, b.names);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_EQ(a.columns[c].type, b.columns[c].type) << c;
    EXPECT_EQ(a.columns[c].ints, b.columns[c].ints) << c;
    EXPECT_EQ(a.columns[c].doubles, b.columns[c].doubles) << c;
    EXPECT_EQ(a.columns[c].strings, b.columns[c].strings) << c;
  }
}

TEST(NdpExecTest, PushdownMatchesPullExactly) {
  SimEnvironment env_off, env_on;
  Database off(&env_off, InstanceProfile::M5ad4xlarge(),
               NdpDbOptions(NdpMode::kOff));
  Database on(&env_on, InstanceProfile::M5ad4xlarge(),
              NdpDbOptions(NdpMode::kOn));
  LoadWide(&off);
  LoadWide(&on);

  // Filter-only range column (k not projected) plus a string column, so
  // the result path re-encodes every column family.
  QueryContext off_ctx(nullptr, nullptr, nullptr);
  QueryContext on_ctx(nullptr, nullptr, nullptr);
  Result<Batch> pulled =
      RangeScan(&off, {"v", "note"}, 1000, 1499, &off_ctx);
  Result<Batch> pushed = RangeScan(&on, {"v", "note"}, 1000, 1499, &on_ctx);
  ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_EQ(pulled.value().rows(), 500u);
  ExpectSameBatch(pulled.value(), pushed.value());

  // The pushed plan is visible in EXPLAIN (operator name) and telemetry.
  bool saw_ndp_op = false;
  for (const QueryContext::OperatorStats& op : on_ctx.operators()) {
    if (op.name.find("[ndp]") != std::string::npos) saw_ndp_op = true;
  }
  EXPECT_TRUE(saw_ndp_op);
  auto& on_stats = env_on.telemetry().stats();
  EXPECT_GE(on_stats.counter("ndp.pushdown_scans").value(), 1u);
  EXPECT_GT(on_stats.counter("ndp.bytes_scanned").value(), 0u);
  EXPECT_GT(on_stats.counter("ndp.bytes_saved").value(), 0u);
  EXPECT_GT(env_on.object_store().stats().selects, 0u);
  EXPECT_EQ(env_off.object_store().stats().selects, 0u);
  EXPECT_EQ(env_off.telemetry().stats().counter("ndp.pushdown_scans")
                .value(),
            0u);

  // The ledger bills every SELECT the store served.
  testing_util::ExpectLedgerMatchesStoreStats(&env_on);
}

TEST(NdpExecTest, AutoModePicksSidesByBytesMoved) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              NdpDbOptions(NdpMode::kAuto));
  LoadWide(&db);
  auto& stats = env.telemetry().stats();

  // Selective narrow scan: pushdown wins.
  Result<Batch> narrow = RangeScan(&db, {"v"}, 100, 199, nullptr);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow.value().rows(), 100u);
  EXPECT_EQ(stats.counter("ndp.pushdown_scans").value(), 1u);
  EXPECT_EQ(stats.counter("ndp.pull_scans").value(), 0u);

  // Near-full wide scan: the result would be nearly as large as the
  // pages, so auto keeps the pull path.
  Result<Batch> wide =
      RangeScan(&db, {"k", "v", "note"}, 0, 19999, nullptr);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide.value().rows(), 20000u);
  EXPECT_EQ(stats.counter("ndp.pushdown_scans").value(), 1u);
  EXPECT_EQ(stats.counter("ndp.pull_scans").value(), 1u);
}

TEST(NdpExecTest, EncryptedPagesFallBackToPull) {
  SimEnvironment env;
  Database::Options options = NdpDbOptions(NdpMode::kOn);
  options.encrypt_pages = true;  // the store has no key: not eligible
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  LoadWide(&db);
  Result<Batch> result = RangeScan(&db, {"v"}, 100, 199, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows(), 100u);
  EXPECT_EQ(env.telemetry().stats().counter("ndp.pushdown_scans").value(),
            0u);
  EXPECT_EQ(env.object_store().stats().selects, 0u);
}

TEST(NdpExecTest, MissingEngineFallsBackToPull) {
  // Mode forced on at the query level, but the database never installed
  // an engine (its own mode is off): the planner's SelectSupported check
  // keeps the scan on the pull path instead of erroring.
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              NdpDbOptions(NdpMode::kOff));
  LoadWide(&db);
  Transaction* txn = db.Begin();
  QueryContext::Options qopts;
  qopts.ndp_mode = NdpMode::kOn;
  QueryContext ctx(&db.txn_mgr(), txn, db.system(), qopts);
  Result<TableReader> reader = ctx.OpenTable(7);
  ASSERT_TRUE(reader.ok());
  Result<Batch> result =
      ScanTable(&ctx, &reader.value(), {"v"}, ScanRange{"k", 100, 199});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows(), 100u);
  EXPECT_EQ(env.object_store().stats().selects, 0u);
  ASSERT_TRUE(db.Commit(txn).ok());
}

}  // namespace
}  // namespace cloudiq

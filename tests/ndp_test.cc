#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "columnar/encoding.h"
#include "columnar/table_loader.h"
#include "common/random.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "ndp/ndp_engine.h"
#include "ndp/ndp_protocol.h"
#include "store/page_codec.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

using ndp::NdpColumn;
using ndp::NdpEngine;
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
  req.range_column = 0;
  req.lo = 10;
  req.hi = 90;
  return req;
}

TEST(NdpProtocolTest, RequestRoundTrip) {
  NdpRequest req = TwoColumnRequest();
  req.lo = std::numeric_limits<int64_t>::min();
  req.hi = -3;

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
  EXPECT_EQ(r.range_column, 0u);
  EXPECT_EQ(r.lo, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r.hi, -3);
}

TEST(NdpProtocolTest, RejectsMalformedRequests) {
  // A range over a column the request does not carry.
  NdpRequest req = TwoColumnRequest();
  req.range_column = 7;
  EXPECT_TRUE(NdpRequest::Deserialize(req.Serialize())
                  .status()
                  .IsInvalidArgument());

  // Page refs must ascend without overlap.
  req = TwoColumnRequest();
  req.columns[0].pages = {{"data/00/1", 0, 100}, {"data/00/2", 50, 50}};
  EXPECT_FALSE(NdpRequest::Deserialize(req.Serialize()).ok());

  // Trailing garbage.
  req = TwoColumnRequest();
  std::vector<uint8_t> bytes = req.Serialize();
  bytes.push_back(0);
  EXPECT_TRUE(NdpRequest::Deserialize(bytes).status().IsInvalidArgument());
}

TEST(NdpProtocolTest, ResultRoundTripRowMode) {
  NdpResult res;
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
  EXPECT_EQ(r.rows_matched, 3u);
  ASSERT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.columns[0].ints, ints.ints);
  EXPECT_EQ(r.columns[1].doubles, doubles.doubles);
  EXPECT_EQ(r.columns[2].strings, strings.strings);
}

TEST(NdpProtocolTest, ResultRoundTripEmpty) {
  NdpResult res;
  res.rows_matched = 0;
  ColumnVector ints;
  ints.type = ColumnType::kDate;
  ColumnVector doubles;
  doubles.type = ColumnType::kDouble;  // no matching rows: zero-row cols
  res.columns = {ints, doubles};

  Result<NdpResult> round = NdpResult::Deserialize(res.Serialize());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().rows_matched, 0u);
  ASSERT_EQ(round.value().columns.size(), 2u);
  EXPECT_EQ(round.value().columns[0].type, ColumnType::kDate);
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
    req.range_column = 0;
    req.lo = 90;
    req.hi = 109;
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
  EXPECT_EQ(r.rows_matched, 20u);  // k in [90, 109] spans the page seam
  ASSERT_EQ(r.columns.size(), 1u);
  ASSERT_EQ(r.columns[0].doubles.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(r.columns[0].doubles[i], (90 + i) * 0.5);
  }
}

TEST(NdpEngineTest, NoMatchesIsEmpty) {
  EngineFixture f;
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{10000, 20000},
                        {-5, -1},
                        {109, 90}}) {
    f.req.lo = lo;
    f.req.hi = hi;
    Result<NdpResult> result = NdpEngine::Evaluate(f.req, f.Pages());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().rows_matched, 0u);
    ASSERT_EQ(result.value().columns.size(), 1u);
    EXPECT_EQ(result.value().columns[0].type, ColumnType::kDouble);
    EXPECT_EQ(result.value().columns[0].doubles.size(), 0u);
  }
}

TEST(NdpEngineTest, RejectsShapeMismatchAndBadPayloads) {
  EngineFixture f;
  // A ref whose row_count disagrees with the decoded page.
  f.req.columns[0].pages[0].row_count = 99;
  EXPECT_TRUE(
      NdpEngine::Evaluate(f.req, f.Pages()).status().IsInvalidArgument());

  // A column whose type disagrees with its pages.
  EngineFixture typed;
  typed.req.columns[1].type = ColumnType::kInt64;
  EXPECT_TRUE(NdpEngine::Evaluate(typed.req, typed.Pages())
                  .status()
                  .IsInvalidArgument());

  // A range column out of range, or not int-family.
  EngineFixture ranged;
  ranged.req.range_column = 2;
  EXPECT_TRUE(NdpEngine::Evaluate(ranged.req, ranged.Pages())
                  .status()
                  .IsInvalidArgument());
  ranged.req.range_column = 1;  // v is DOUBLE
  EXPECT_TRUE(NdpEngine::Evaluate(ranged.req, ranged.Pages())
                  .status()
                  .IsInvalidArgument());

  // One payload short of the refs.
  EngineFixture shy;
  std::vector<const std::vector<uint8_t>*> three = shy.Pages();
  three.pop_back();
  EXPECT_TRUE(
      NdpEngine::Evaluate(shy.req, three).status().IsInvalidArgument());

  // Corrupted frame bytes fail the page codec.
  EngineFixture g;
  std::vector<uint8_t> bad = g.k_pages[0];
  bad[bad.size() / 2] ^= 0xff;
  std::vector<const std::vector<uint8_t>*> pages = {
      &bad, &g.k_pages[1], &g.v_pages[0], &g.v_pages[1]};
  EXPECT_TRUE(NdpEngine::Evaluate(g.req, pages).status().IsCorruption());

  // A corrupt column page in a sound frame, on a projected column the
  // range leaves empty: the page is still checked whole.
  EngineFixture h;
  ColumnVector codes;
  codes.type = ColumnType::kString;
  for (int i = 0; i < 30; ++i) codes.strings.push_back({char('a' + i % 3)});
  ZoneMapEntry zone;
  std::vector<uint8_t> dict_page = EncodeColumnPage(codes, 0, 30, &zone);
  // The last rows' 2-bit codes become 3, past the 3-entry dictionary.
  dict_page.back() = 0xff;
  std::vector<uint8_t> dict_frame = EncodePage(dict_page);
  h.req.columns[1].type = ColumnType::kString;
  h.req.columns[1].pages = {{"v/1", 0, 30}};
  h.req.lo = 150;
  h.req.hi = 160;
  EXPECT_TRUE(NdpEngine::Evaluate(h.req, {&h.k_pages[0], &h.k_pages[1],
                                          &dict_frame})
                  .status()
                  .IsCorruption());
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

// Request USD the store bills for one range scan run cold on a freshly
// loaded database under `mode`; `*pushed` says whether it went
// server-side.
double ScanRequestUsd(NdpMode mode, std::vector<std::string> columns,
                      int64_t lo, int64_t hi, bool* pushed) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(), NdpDbOptions(mode));
  LoadWide(&db);
  QueryContext ctx(nullptr, nullptr, nullptr);
  Result<Batch> out = RangeScan(&db, std::move(columns), lo, hi, &ctx);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.ok() ? out->rows() : 0u, static_cast<size_t>(hi - lo + 1));
  *pushed = env.telemetry().stats().counter("ndp.pushdown_scans").value() > 0;
  CostLedger& ledger = env.telemetry().ledger();
  return ledger.QueryTotal(ctx.attribution().query_id)
      .RequestUsd(ledger.prices());
}

// Auto runs whichever side the cost model prices cheaper, so it bills
// exactly what the cheaper of the forced pull and the forced push bills:
// for a selective narrow scan and for a near-full wide one.
TEST(NdpExecTest, AutoModeBillsTheCheaperSide) {
  struct Case {
    std::vector<std::string> columns;
    int64_t lo, hi;
  };
  const Case cases[] = {{{"v"}, 100, 199}, {{"k", "v", "note"}, 0, 19999}};
  for (const Case& c : cases) {
    bool off_pushed = true, on_pushed = false, auto_pushed = false;
    double pull = ScanRequestUsd(NdpMode::kOff, c.columns, c.lo, c.hi,
                                 &off_pushed);
    double push = ScanRequestUsd(NdpMode::kOn, c.columns, c.lo, c.hi,
                                 &on_pushed);
    double chosen = ScanRequestUsd(NdpMode::kAuto, c.columns, c.lo, c.hi,
                                   &auto_pushed);
    EXPECT_FALSE(off_pushed);
    EXPECT_TRUE(on_pushed);
    EXPECT_NE(pull, push) << c.columns.size() << " columns";
    EXPECT_EQ(auto_pushed, push < pull) << c.columns.size() << " columns";
    EXPECT_EQ(chosen, std::min(pull, push)) << c.columns.size()
                                            << " columns";
  }
}

TEST(NdpExecTest, EncryptedPagesFallBackToPull) {
  SimEnvironment env;
  Database::Options options = NdpDbOptions(NdpMode::kOn);
  options.storage.encrypt_pages = true;  // the store has no key
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  LoadWide(&db);
  Result<Batch> result = RangeScan(&db, {"v"}, 100, 199, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows(), 100u);
  EXPECT_EQ(env.telemetry().stats().counter("ndp.pushdown_scans").value(),
            0u);
  EXPECT_EQ(env.object_store().stats().selects, 0u);
}

// Page encryption is set in one place, the storage subsystem's options:
// a Database built with storage.encrypt_pages stores no column page in
// plaintext, and never pushes a scan to a store that has no key for it.
TEST(NdpExecTest, StorageEncryptionHidesPagesAndKeepsScansPulled) {
  SimEnvironment env;
  Database::Options options = NdpDbOptions(NdpMode::kOn);
  options.storage.encrypt_pages = true;
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  LoadWide(&db);
  // Every `note` page is a dictionary page holding "promo" and "reg".
  size_t objects = 0;
  for (const std::string& key : env.object_store().LiveKeys()) {
    SimTime done = 0;
    Result<std::vector<uint8_t>> stored = env.object_store().Get(
        key, db.node().clock().now() + 100, &done);
    ASSERT_TRUE(stored.ok()) << key << ": " << stored.status().ToString();
    const std::string bytes(stored->begin(), stored->end());
    EXPECT_EQ(bytes.find("promo"), std::string::npos) << key;
    ++objects;
  }
  EXPECT_GT(objects, 0u);

  Result<Batch> result = RangeScan(&db, {"k", "note"}, 100, 199, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows(), 100u);
  const ColumnVector& note = result->column("note");
  for (size_t r = 0; r < result->rows(); ++r) {
    EXPECT_EQ(note.StringAt(r),
              result->column("k").ints[r] % 3 == 0 ? "promo" : "reg");
  }
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

// --- golden wire bytes -----------------------------------------------------

// Serves every SELECT with the real engine and keeps each request it
// served and each result it returned.
class RecordingEngine : public NdpServerEngine {
 public:
  Result<std::vector<std::string>> KeysOf(
      const std::vector<uint8_t>& request) const override {
    return engine_.KeysOf(request);
  }

  Result<std::vector<uint8_t>> Execute(
      const std::vector<uint8_t>& request,
      const std::vector<const std::vector<uint8_t>*>& pages) const override {
    Result<std::vector<uint8_t>> result = engine_.Execute(request, pages);
    if (result.ok()) {
      requests.push_back(request);
      results.push_back(result.value());
    }
    return result;
  }

  mutable std::vector<std::vector<uint8_t>> requests;
  mutable std::vector<std::vector<uint8_t>> results;

 private:
  NdpEngine engine_;
};

std::string Hex(const uint8_t* data, size_t n) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 15]);
  }
  return out;
}

// The request the planner sends for one pushed range scan, and the
// result the server returns for it, byte for byte: both cross the
// simulated NIC and are billed, so a protocol change that moves a byte
// moves every NDP timing and bill.
TEST(NdpGoldenTest, PushedScanWireBytesArePinned) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              NdpDbOptions(NdpMode::kOn));
  LoadWide(&db);
  RecordingEngine recorder;
  env.object_store().set_ndp_engine(&recorder);
  Result<Batch> pushed = RangeScan(&db, {"v", "note"}, 1000, 1499, nullptr);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_EQ(recorder.requests.size(), 1u);
  const std::vector<uint8_t>& request = recorder.requests[0];
  const std::vector<uint8_t>& result = recorder.results[0];
  ASSERT_EQ(request.size(), 338u);
  EXPECT_EQ(testing_util::Fnv1a(request), 0xb63a4537ca3af8a2ull);
  // The range predicate: And(k >= 1000, k <= 1499) over request column 2
  // (k, read after the projected v and note), then no aggregates.
  const std::string kIntLiteral = "00000000";
  const std::string kNoDouble = "0000000000000000";
  const std::string kNoString = "00000000";
  EXPECT_EQ(Hex(request.data() + request.size() - 84, 84),
            "02000000" "02000000" +
                ("01000000" "05000000" "02000000" + kIntLiteral +
                 "e803000000000000" + kNoDouble + kNoString) +
                ("01000000" "03000000" "02000000" + kIntLiteral +
                 "db05000000000000" + kNoDouble + kNoString) +
                "00000000");
  ASSERT_EQ(result.size(), 347u);
  EXPECT_EQ(testing_util::Fnv1a(result), 0xd8acf728c9c2a3fbull);
  // A zero leading word, then 500 rows in 2 columns.
  EXPECT_EQ(Hex(result.data(), 16), "00000000f40100000000000002000000");
}

// --- server == pull --------------------------------------------------------

constexpr uint64_t kPropertyTable = 11;
constexpr int kPropertyRows = 9000;

// Candidate range columns k (INT64, ascending by 3), d (DATE, ascending
// with repeats) and m (DECIMAL, random), and projected columns x (INT64,
// random and wide), y (DOUBLE), flag (a dictionary string) and note (a
// raw string). Their encodings differ in width, so their pages break at
// different rows.
Batch PropertyRows() {
  Rng rng(0x5EED);
  Batch b;
  b.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
  b.AddColumn("d", {ColumnType::kDate, {}, {}, {}});
  b.AddColumn("m", {ColumnType::kDecimal, {}, {}, {}});
  b.AddColumn("x", {ColumnType::kInt64, {}, {}, {}});
  b.AddColumn("y", {ColumnType::kDouble, {}, {}, {}});
  b.AddColumn("flag", {ColumnType::kString, {}, {}, {}});
  b.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  for (int i = 0; i < kPropertyRows; ++i) {
    b.columns[0].ints.push_back(3 * i);
    b.columns[1].ints.push_back(9000 + i / 7);
    b.columns[2].ints.push_back(rng.UniformRange(-50000, 50000));
    b.columns[3].ints.push_back(static_cast<int64_t>(rng.Next() >> 8));
    b.columns[4].doubles.push_back(rng.NextDouble() * 1000);
    b.columns[5].strings.push_back(
        std::string(1, static_cast<char>('A' + rng.Uniform(20))));
    b.columns[6].strings.push_back("note " + std::to_string(rng.Next()));
  }
  return b;
}

void LoadRows(Database* db, uint64_t table_id, const Batch& rows) {
  TableSchema schema;
  schema.name = "p";
  schema.table_id = table_id;
  for (size_t c = 0; c < rows.columns.size(); ++c) {
    schema.columns.push_back({rows.names[c], rows.columns[c].type});
  }
  Transaction* txn = db->Begin();
  TableLoader loader = db->NewTableLoader(txn, schema);
  ASSERT_TRUE(loader.Append(rows.columns).ok());
  ASSERT_TRUE(loader.Finish(db->system()).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
}

// A range over `values` (one of the candidate range columns), of one of
// five kinds: inverted, outside the values, one value, around a page seam
// of the column (`seams` are its pages' first rows), or random.
std::pair<int64_t, int64_t> DrawRange(Rng& rng,
                                      const std::vector<int64_t>& values,
                                      const std::vector<uint64_t>& seams) {
  auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  const int64_t v = values[rng.Uniform(values.size())];
  switch (rng.Uniform(5)) {
    case 0:
      return {v + 1, v};
    case 1:
      return rng.Bernoulli(0.5) ? std::pair{*max_it + 1, *max_it + 1000}
                                : std::pair{*min_it - 1000, *min_it - 1};
    case 2:
      return {v, v};
    case 3: {
      const auto seam = static_cast<int64_t>(seams[rng.Uniform(seams.size())]);
      const auto width = static_cast<int64_t>(1 + rng.Uniform(20));
      auto first = values.begin() + std::max<int64_t>(0, seam - width);
      auto last = values.begin() +
                  std::min<int64_t>(kPropertyRows, seam + width);
      auto [lo, hi] = std::minmax_element(first, last);
      return {*lo, *hi};
    }
    default:
      return {v, v + rng.UniformRange(0, *max_it - *min_it)};
  }
}

// One column of `rows` as the server sees it: cut into pages of 100 to
// 700 rows at seeded boundaries, each framed as a stored page.
struct ServerColumn {
  NdpColumn column;
  std::vector<std::vector<uint8_t>> frames;
  std::vector<uint64_t> seams;  // every page's first row but the first
};

ServerColumn CutPages(Rng& rng, const std::string& name,
                      const ColumnVector& values) {
  ServerColumn out;
  out.column.name = name;
  out.column.type = values.type;
  for (size_t first = 0; first < values.size();) {
    size_t end = std::min(values.size(), first + 100 + rng.Uniform(601));
    out.column.pages.push_back({name + "/" + std::to_string(first), first,
                                static_cast<uint32_t>(end - first)});
    out.frames.push_back(StoredFrame(values, first, end));
    if (first > 0) out.seams.push_back(first);
    first = end;
  }
  return out;
}

// NdpEngine::Evaluate returns, value for value, what the pull path's
// ScanTable returns at 1 and 8 workers, and what ScanRowIds returns for
// the rows the range selects, for seeded ranges over INT64,
// DATE and DECIMAL columns. The server's pages break at other rows than
// the loader's, and at other rows in every column.
TEST(NdpPropertyTest, ServerScanEqualsPullScan) {
  SimEnvironment env;
  Database::Options options = NdpDbOptions(NdpMode::kOff);
  options.page_size = 4096;
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  const Batch rows = PropertyRows();
  LoadRows(&db, kPropertyTable, rows);

  Transaction* txn = db.Begin();
  QueryContext::Options qopts;
  qopts.morsel_rows = 1000;
  QueryContext serial(&db.txn_mgr(), txn, db.system(), qopts);
  qopts.exec_workers = 8;
  QueryContext parallel(&db.txn_mgr(), txn, db.system(), qopts);
  Result<TableReader> reader = serial.OpenTable(kPropertyTable);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->meta().partitions.size(), 1u);
  const PartitionMeta& pm = reader->meta().partitions[0];

  Rng rng(0xD1CE);
  std::vector<ServerColumn> server_columns;
  for (size_t c = 0; c < rows.columns.size(); ++c) {
    server_columns.push_back(CutPages(rng, rows.names[c], rows.columns[c]));
    // Range draws aim at the loader's page seams as well as the server's.
    uint64_t first = 0;
    for (uint32_t page_rows : pm.columns[c].page_rows) {
      if (first > 0) server_columns[c].seams.push_back(first);
      first += page_rows;
    }
  }
  // The projected strings include a dictionary and a raw column.
  auto dictionary = [&](size_t c) {
    Result<std::vector<uint8_t>> payload =
        DecodePage(server_columns[c].frames[0]);
    ParsedColumnPage parsed;
    return payload.ok() && ParseColumnPage(*payload, &parsed).ok() &&
           parsed.IsDictionary();
  };
  EXPECT_TRUE(dictionary(5));
  EXPECT_FALSE(dictionary(6));

  const std::vector<std::string> projected = {"x", "y", "flag", "note"};
  for (int draw = 0; draw < 90; ++draw) {
    const int range = draw % 3;
    const auto [lo, hi] =
        DrawRange(rng, rows.columns[range].ints, server_columns[range].seams);
    const bool project_range = rng.Bernoulli(0.5);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + rows.names[range] +
                 " in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                 "]" + (project_range ? " projected" : ""));

    std::vector<std::string> names = projected;
    NdpRequest req;
    std::vector<const std::vector<uint8_t>*> pages;
    for (int c : {3, 4, 5, 6, range}) {
      req.columns.push_back(server_columns[c].column);
      for (const std::vector<uint8_t>& frame : server_columns[c].frames) {
        pages.push_back(&frame);
      }
    }
    req.columns.back().projected = project_range;
    req.range_column = 4;
    req.lo = lo;
    req.hi = hi;
    if (project_range) names.push_back(rows.names[range]);
    Result<NdpResult> server = NdpEngine::Evaluate(req, pages);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    // x straight from the rows, by the predicate's definition.
    std::vector<int64_t> want_x;
    for (int i = 0; i < kPropertyRows; ++i) {
      const int64_t v = rows.columns[range].ints[i];
      if (v >= lo && v <= hi) want_x.push_back(rows.columns[3].ints[i]);
    }
    EXPECT_EQ(server->columns[0].ints, want_x);

    auto expect_server_result = [&](Result<Batch> scanned) {
      ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
      Batch pull = testing_util::Expanded(std::move(scanned).value());
      ASSERT_EQ(server->rows_matched, pull.rows());
      ASSERT_EQ(server->columns.size(), pull.columns.size());
      for (size_t c = 0; c < pull.columns.size(); ++c) {
        EXPECT_EQ(server->columns[c].type, pull.columns[c].type) << c;
        EXPECT_EQ(server->columns[c].ints, pull.columns[c].ints) << c;
        EXPECT_EQ(server->columns[c].doubles, pull.columns[c].doubles) << c;
        EXPECT_EQ(server->columns[c].strings, pull.columns[c].strings) << c;
      }
    };
    // The row-id scan over the rows the range selects reads them too.
    IntervalSet selected;
    for (int i = 0; i < kPropertyRows; ++i) {
      const int64_t v = rows.columns[range].ints[i];
      if (v >= lo && v <= hi) selected.Insert(static_cast<uint64_t>(i));
    }
    for (QueryContext* ctx : {&serial, &parallel}) {
      SCOPED_TRACE(ctx == &serial ? "1 worker" : "8 workers");
      expect_server_result(ScanTable(ctx, &reader.value(), names,
                                     ScanRange{rows.names[range], lo, hi}));
      expect_server_result(
          ScanRowIds(ctx, &reader.value(), 0, names, selected));
    }
  }
  ASSERT_TRUE(db.Commit(txn).ok());
}

}  // namespace
}  // namespace cloudiq

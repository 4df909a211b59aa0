#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <variant>

#include "columnar/encoding.h"
#include "columnar/table_loader.h"
#include "common/dense_key_index.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "exec/morsel.h"
#include "exec/row_key_table.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

using testing_util::SingleNodeHarness;

// --- morsel partitioning -----------------------------------------------

SegmentMeta MakeSeg(std::vector<uint32_t> page_rows) {
  SegmentMeta seg;
  for (uint32_t pr : page_rows) {
    seg.page_rows.push_back(pr);
    seg.row_count += pr;
  }
  return seg;
}

IntervalSet AllRows(const SegmentMeta& seg) {
  IntervalSet rows;
  rows.InsertRange(0, seg.row_count);
  return rows;
}

bool IsDictionaryPage(const std::vector<uint8_t>& bytes) {
  ParsedColumnPage page;
  return ParseColumnPage(bytes, &page).ok() && page.IsDictionary();
}

TEST(MorselTest, EmptyRowSetMakesNoMorsels) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, IntervalSet(), 100, &out);
  EXPECT_TRUE(out.empty());
}

TEST(MorselTest, TargetLargerThanTableYieldsOneMorsel) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  std::vector<Morsel> out;
  AppendMorsels(seg, 3, AllRows(seg), 10000, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].partition, 3u);
  EXPECT_EQ(out[0].row_begin, 0u);
  EXPECT_EQ(out[0].row_end, 250u);
  EXPECT_EQ(out[0].row_count, 250u);
}

TEST(MorselTest, SinglePageTableYieldsOneMorsel) {
  SegmentMeta seg = MakeSeg({100});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, AllRows(seg), 64, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row_begin, 0u);
  EXPECT_EQ(out[0].row_end, 100u);
}

TEST(MorselTest, CutsAtPageBoundariesWithRemainderTail) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, AllRows(seg), 100, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].row_begin, 0u);
  EXPECT_EQ(out[0].row_end, 100u);
  EXPECT_EQ(out[1].row_begin, 100u);
  EXPECT_EQ(out[1].row_end, 200u);
  // The 50-row tail never reaches the target: remainder morsel.
  EXPECT_EQ(out[2].row_begin, 200u);
  EXPECT_EQ(out[2].row_end, 250u);
  EXPECT_EQ(out[2].row_count, 50u);
}

TEST(MorselTest, MorselCoversMultiplePagesUntilTarget) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, AllRows(seg), 150, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].row_end, 200u);  // closed by the page reaching >= 150
  EXPECT_EQ(out[0].row_count, 200u);
  EXPECT_EQ(out[1].row_begin, 200u);
  EXPECT_EQ(out[1].row_count, 50u);
}

TEST(MorselTest, PagesWithoutCandidatesExtendNoMorsel) {
  SegmentMeta seg = MakeSeg({100, 100, 50});
  IntervalSet rows;
  rows.InsertRange(210, 220);  // only the last page has candidates
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, rows, 100, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row_begin, 200u);
  EXPECT_EQ(out[0].row_end, 250u);
  EXPECT_EQ(out[0].row_count, 10u);
  EXPECT_EQ(out[0].rows.Count(), 10u);
}

TEST(MorselTest, TargetZeroTreatedAsOne) {
  SegmentMeta seg = MakeSeg({10, 10});
  std::vector<Morsel> out;
  AppendMorsels(seg, 0, AllRows(seg), 0, &out);
  EXPECT_EQ(out.size(), 2u);  // every non-empty page closes a morsel
}

TEST(MorselTest, RowChunksCoverRangeInOrder) {
  EXPECT_TRUE(MakeRowChunks(0, 16).empty());
  std::vector<RowChunk> chunks = MakeRowChunks(10, 4);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 4u);
  EXPECT_EQ(chunks[2].begin, 8u);
  EXPECT_EQ(chunks[2].end, 10u);
  EXPECT_EQ(MakeRowChunks(3, 0).size(), 3u);  // target 0 -> 1
}

TEST(TaskPoolTest, NativeRunsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  TaskPool::Global().RunIndexed(4, kCount,
                                [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // More than one worker means real threads, not an inline loop.
  EXPECT_GE(TaskPool::Global().thread_count(), 1);
}

TEST(TaskPoolTest, OneWorkerRunsInlineInAscendingOrder) {
  const int threads_before = TaskPool::Global().thread_count();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool all_on_caller = true;
  TaskPool::Global().RunIndexed(1, 5, [&](size_t i) {
    order.push_back(i);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(TaskPool::Global().thread_count(), threads_before);
}

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() {
    TransactionManager::Options opts;
    opts.blockmap_fanout = 16;
    opts.buffer_capacity_bytes = 8 << 20;
    txn_mgr_ = std::make_unique<TransactionManager>(h_.storage.get(),
                                                    &h_.system, opts);
    txn_mgr_->set_commit_listener(
        [this](NodeId node, const IntervalSet& keys) {
          h_.keygen.OnTransactionCommitted(node, keys);
        });
    LoadSales();
    txn_ = txn_mgr_->Begin();
    ctx_ = std::make_unique<QueryContext>(txn_mgr_.get(), txn_,
                                          &h_.system);
  }

  ~ExecTest() override { (void)txn_mgr_->Commit(txn_); }

  // sales(id, region_id, amount DECIMAL, day DATE-ish int, note)
  void LoadSales() {
    TableSchema schema;
    schema.name = "sales";
    schema.table_id = 10;
    schema.columns = {{"id", ColumnType::kInt64},
                      {"region_id", ColumnType::kInt64},
                      {"amount", ColumnType::kDecimal},
                      {"day", ColumnType::kInt64},
                      {"note", ColumnType::kString}};
    schema.partition_column = 3;
    schema.partition_bounds = {50};
    Transaction* txn = txn_mgr_->Begin();
    TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
    Batch batch;
    batch.AddColumn("id", {ColumnType::kInt64, {}, {}, {}});
    batch.AddColumn("region_id", {ColumnType::kInt64, {}, {}, {}});
    batch.AddColumn("amount", {ColumnType::kDecimal, {}, {}, {}});
    batch.AddColumn("day", {ColumnType::kInt64, {}, {}, {}});
    batch.AddColumn("note", {ColumnType::kString, {}, {}, {}});
    for (int64_t i = 0; i < 1000; ++i) {
      batch.columns[0].ints.push_back(i);
      batch.columns[1].ints.push_back(i % 4);
      batch.columns[2].ints.push_back((i % 10 + 1) * 100);  // 1.00-10.00
      batch.columns[3].ints.push_back(i % 100);
      batch.columns[4].strings.push_back(i % 7 == 0 ? "promo sale"
                                                    : "regular");
    }
    ASSERT_TRUE(loader.Append(batch.columns).ok());
    ASSERT_TRUE(loader.Finish(&h_.system).ok());
    ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

    // regions(region_id, region_name)
    TableSchema rschema;
    rschema.name = "regions";
    rschema.table_id = 11;
    rschema.columns = {{"region_id", ColumnType::kInt64},
                       {"region_name", ColumnType::kString}};
    Transaction* rtxn = txn_mgr_->Begin();
    TableLoader rloader(txn_mgr_.get(), rtxn, h_.cloud_space, rschema);
    Batch rbatch;
    rbatch.AddColumn("region_id", {ColumnType::kInt64, {}, {}, {}});
    rbatch.AddColumn("region_name", {ColumnType::kString, {}, {}, {}});
    const char* names[3] = {"NORTH", "SOUTH", "EAST"};  // region 3 missing
    for (int64_t i = 0; i < 3; ++i) {
      rbatch.columns[0].ints.push_back(i);
      rbatch.columns[1].strings.push_back(names[i]);
    }
    ASSERT_TRUE(rloader.Append(rbatch.columns).ok());
    ASSERT_TRUE(rloader.Finish(&h_.system).ok());
    ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
  }

  SingleNodeHarness h_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  Transaction* txn_ = nullptr;
  std::unique_ptr<QueryContext> ctx_;
};

TEST_F(ExecTest, FullScan) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  Result<Batch> batch =
      ScanTable(ctx_.get(), &*reader, {"id", "amount", "note"});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->rows(), 1000u);
  EXPECT_EQ(batch->column("note").StringAt(0), "promo sale");
  EXPECT_GT(ctx_->node()->clock().now(), 0.0);  // scan consumed sim time
}

TEST_F(ExecTest, RangeScanPrunesAndFilters) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  Result<Batch> batch =
      ScanTable(ctx_.get(), &*reader, {"id", "day"},
                ScanRange{"day", 10, 19});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows(), 100u);  // 10 days x 10 rows/day
  for (size_t r = 0; r < batch->rows(); ++r) {
    EXPECT_GE(batch->Int("day", r), 10);
    EXPECT_LE(batch->Int("day", r), 19);
  }
}

TEST_F(ExecTest, RangeColumnNotInProjectionIsDropped) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  // Filter on `day` without selecting it: the scan reads it internally
  // for the exact filter but must not leak it into the output shape.
  Result<Batch> batch = ScanTable(ctx_.get(), &*reader, {"id"},
                                  ScanRange{"day", 10, 19});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows(), 100u);
  EXPECT_EQ(batch->columns.size(), 1u);
  EXPECT_EQ(batch->names, std::vector<std::string>{"id"});
}

TEST_F(ExecTest, EmptyRangeYieldsEmptyShapedBatch) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  Result<Batch> batch = ScanTable(ctx_.get(), &*reader, {"id", "note"},
                                  ScanRange{"day", 1000, 2000});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows(), 0u);
  EXPECT_EQ(batch->columns.size(), 2u);
  EXPECT_EQ(batch->columns[1].type, ColumnType::kString);
}

TEST_F(ExecTest, PartitionPruningOnPartitionColumn) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  // day >= 60 lives entirely in partition 1.
  Result<Batch> batch = ScanTable(ctx_.get(), &*reader, {"day"},
                                  ScanRange{"day", 60, 99});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows(), 400u);
}

TEST_F(ExecTest, RangeOnNonIntColumnIsRejected) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  // String pages carry no int zone bounds, so nothing would prune them
  // and the exact filter would read a string column as ints.
  Result<Batch> batch =
      ScanTable(ctx_.get(), &*reader, {"id"}, ScanRange{"note", 0, 0});
  EXPECT_TRUE(batch.status().IsInvalidArgument());
  // DECIMAL is int-family: its range scan still works.
  Result<Batch> amounts = ScanTable(ctx_.get(), &*reader, {"id"},
                                    ScanRange{"amount", 100, 100});
  ASSERT_TRUE(amounts.ok()) << amounts.status().ToString();
  EXPECT_EQ(amounts->rows(), 100u);
}

TEST_F(ExecTest, PagesDisagreeingWithTheirSegmentAreCorruption) {
  Result<TableReader> good = ctx_->OpenTable(10);
  ASSERT_TRUE(good.ok());
  IntervalSet rows;
  rows.InsertRange(0, 10);
  // Metadata that calls the string `note` pages INT64, or promises one
  // row more than `id`'s first page holds: both scan paths must refuse
  // the pages instead of reading past their values.
  TableMeta wrong_type = good->meta();
  wrong_type.schema.columns[4].type = ColumnType::kInt64;
  TableMeta wrong_rows = good->meta();
  wrong_rows.partitions[0].columns[0].page_rows[0] += 1;
  for (const TableMeta& meta : {wrong_type, wrong_rows}) {
    Result<TableReader> bad = TableReader::Make(txn_mgr_.get(), txn_, meta);
    ASSERT_TRUE(bad.ok()) << bad.status().ToString();
    Result<Batch> scan = ScanTable(ctx_.get(), &*bad, {"id", "note"});
    EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
    Result<Batch> by_id =
        ScanRowIds(ctx_.get(), &*bad, 0, {"id", "note"}, rows);
    EXPECT_TRUE(by_id.status().IsCorruption()) << by_id.status().ToString();
  }
}

// Metas that TableMeta::Deserialize accepts but that do not match their
// schema: a partition missing a column's segment, a partition past the
// schema's bounds, an index list the schema has no column for. Opening
// one is Corruption, before any scan indexes the missing entries.
TEST_F(ExecTest, TableMetaShorterThanItsSchemaIsCorruption) {
  Result<TableReader> good = ctx_->OpenTable(10);
  ASSERT_TRUE(good.ok());
  TableMeta short_columns = good->meta();
  short_columns.partitions[1].columns.pop_back();
  TableMeta extra_partition = good->meta();
  extra_partition.partitions.push_back(extra_partition.partitions[1]);
  TableMeta extra_index = good->meta();
  extra_index.partitions[0].index_objects.push_back(7);
  extra_index.partitions[0].index_page_ranges.push_back({{0, 1}});
  for (const TableMeta& meta : {short_columns, extra_partition, extra_index}) {
    Result<TableMeta> stored = TableMeta::Deserialize(meta.Serialize());
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    QueryContext ctx(txn_mgr_.get(), txn_, &h_.system);
    ctx.set_meta_provider(
        [&stored](uint64_t) -> Result<TableMeta> { return *stored; });
    Result<TableReader> reader = ctx.OpenTable(10);
    if (reader.ok()) {
      Result<Batch> scan = ScanTable(&ctx, &*reader, {"id", "note"},
                                     ScanRange{"day", 0, 99});
      EXPECT_FALSE(scan.ok());
    }
    EXPECT_TRUE(reader.status().IsCorruption())
        << reader.status().ToString();
  }
}

// An in-memory meta whose segment has a frame size, a zone or a row
// count too few: TableReader::Make refuses it, so no scan or NDP plan
// indexes a page past one of the three lists.
TEST_F(ExecTest, SegmentPageCountsThatDifferAreCorruption) {
  Result<TableReader> good = ctx_->OpenTable(10);
  ASSERT_TRUE(good.ok());
  for (std::vector<uint32_t> SegmentMeta::*list :
       {&SegmentMeta::page_bytes, &SegmentMeta::page_rows}) {
    TableMeta meta = good->meta();
    (meta.partitions[0].columns[0].*list).pop_back();
    Result<TableReader> bad = TableReader::Make(txn_mgr_.get(), txn_, meta);
    EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  }
  TableMeta missing_zone = good->meta();
  missing_zone.partitions[0].columns[0].zones.pop_back();
  Result<TableReader> bad =
      TableReader::Make(txn_mgr_.get(), txn_, missing_zone);
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
}

// Every scan reads each row of a partition from every read column's
// pages, so a segment whose pages hold fewer rows than its partition is
// Corruption when the table opens, before a scan leaves rows unread.
TEST_F(ExecTest, SegmentShorterThanItsPartitionIsCorruption) {
  Result<TableReader> good = ctx_->OpenTable(10);
  ASSERT_TRUE(good.ok());
  TableMeta meta = good->meta();
  meta.partitions[1].columns[4].page_rows.back() -= 1;
  Result<TableReader> bad = TableReader::Make(txn_mgr_.get(), txn_, meta);
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
}

TEST_F(ExecTest, FilterBatchRowwise) {
  Result<TableReader> reader = ctx_->OpenTable(10);
  ASSERT_TRUE(reader.ok());
  Result<Batch> batch = ScanTable(ctx_.get(), &*reader, {"id", "note"});
  ASSERT_TRUE(batch.ok());
  Batch promo = FilterBatch(ctx_.get(), *batch, [](const Batch& b, size_t r) {
    return b.Str("note", r) == "promo sale";
  });
  EXPECT_EQ(promo.rows(), 1000u / 7 + 1);
}

TEST_F(ExecTest, InnerJoinBringsRightColumns) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  Result<TableReader> regions = ctx_->OpenTable(11);
  ASSERT_TRUE(sales.ok() && regions.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "region_id"});
  Result<Batch> g =
      ScanTable(ctx_.get(), &*regions, {"region_id", "region_name"});
  ASSERT_TRUE(s.ok() && g.ok());
  Result<Batch> joined = HashJoin(ctx_.get(), *s, "region_id", *g,
                                  "region_id", JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  // Region 3 has no match: 250 rows drop out.
  EXPECT_EQ(joined->rows(), 750u);
  EXPECT_GE(joined->Col("region_name"), 0);
  for (size_t r = 0; r < joined->rows(); ++r) {
    int64_t id = joined->Int("region_id", r);
    const char* names[3] = {"NORTH", "SOUTH", "EAST"};
    EXPECT_EQ(joined->Str("region_name", r), names[id]);
  }
}

TEST_F(ExecTest, SemiAndAntiJoin) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  Result<TableReader> regions = ctx_->OpenTable(11);
  ASSERT_TRUE(sales.ok() && regions.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "region_id"});
  Result<Batch> g = ScanTable(ctx_.get(), &*regions, {"region_id"});
  ASSERT_TRUE(s.ok() && g.ok());
  Result<Batch> semi = HashJoin(ctx_.get(), *s, "region_id", *g,
                                "region_id", JoinType::kLeftSemi);
  Result<Batch> anti = HashJoin(ctx_.get(), *s, "region_id", *g,
                                "region_id", JoinType::kLeftAnti);
  ASSERT_TRUE(semi.ok() && anti.ok());
  EXPECT_EQ(semi->rows(), 750u);
  EXPECT_EQ(anti->rows(), 250u);
  EXPECT_EQ(semi->rows() + anti->rows(), s->rows());
  // Anti rows are exactly region 3.
  for (size_t r = 0; r < anti->rows(); ++r) {
    EXPECT_EQ(anti->Int("region_id", r), 3);
  }
}

TEST_F(ExecTest, StringKeyJoin) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "note"});
  ASSERT_TRUE(s.ok());
  Batch right;
  right.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  right.AddColumn("weight", {ColumnType::kInt64, {}, {}, {}});
  right.columns[0].strings = {"promo sale"};
  right.columns[1].ints = {9};
  Result<Batch> joined =
      HashJoin(ctx_.get(), *s, "note", right, "note", JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->rows(), 1000u / 7 + 1);
  EXPECT_EQ(joined->Int("weight", 0), 9);
}

TEST_F(ExecTest, HashAggregateAllOps) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s =
      ScanTable(ctx_.get(), &*sales, {"region_id", "amount", "id"});
  ASSERT_TRUE(s.ok());
  Result<Batch> agg =
      HashAggregate(ctx_.get(), *s, {"region_id"},
                    {{AggOp::kCount, "", "n"},
                     {AggOp::kSum, "amount", "total"},
                     {AggOp::kMin, "id", "min_id"},
                     {AggOp::kMax, "id", "max_id"},
                     {AggOp::kAvg, "amount", "avg_amount"}});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->rows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(agg->Int("n", r), 250);
    int64_t region = agg->Int("region_id", r);
    EXPECT_EQ(agg->Int("min_id", r), region);
    EXPECT_EQ(agg->Int("max_id", r), 996 + region);
    // amount pattern repeats every 10 ids; per region sum is constant.
    EXPECT_GT(agg->Int("total", r), 0);
    EXPECT_NEAR(agg->Double("avg_amount", r),
                static_cast<double>(agg->Int("total", r)) / 250, 1e-6);
  }
}

TEST_F(ExecTest, GlobalAggregateNoKeys) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"amount"});
  ASSERT_TRUE(s.ok());
  Result<Batch> agg = HashAggregate(ctx_.get(), *s, {},
                                    {{AggOp::kCount, "", "n"},
                                     {AggOp::kSum, "amount", "total"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->rows(), 1u);
  EXPECT_EQ(agg->Int("n", 0), 1000);
  // 100 full cycles of (1+..+10)*100 scaled cents = 100 * 5500.
  EXPECT_EQ(agg->Int("total", 0), 100 * 5500);
}

TEST_F(ExecTest, SortAndLimit) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "amount"});
  ASSERT_TRUE(s.ok());
  Batch sorted = SortBatch(ctx_.get(), *s,
                           {{"amount", false}, {"id", true}}, 5);
  ASSERT_EQ(sorted.rows(), 5u);
  // Highest amount = 1000 (ids 9, 19, ...), ties broken by id asc.
  EXPECT_EQ(sorted.Int("amount", 0), 1000);
  EXPECT_EQ(sorted.Int("id", 0), 9);
  EXPECT_EQ(sorted.Int("id", 1), 19);
}

TEST_F(ExecTest, ComputedColumn) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"amount"});
  ASSERT_TRUE(s.ok());
  const std::vector<int64_t>& amount = s->column("amount").ints;
  Batch with = WithComputedColumn(
      ctx_.get(), *s, "dollars", ColumnType::kDouble,
      [&](const Batch&, size_t r) { return DecimalToDouble(amount[r]); });
  ASSERT_EQ(with.rows(), s->rows());
  EXPECT_EQ(with.column("dollars").size(), s->rows());
  EXPECT_DOUBLE_EQ(with.Double("dollars", 0),
                   with.Int("amount", 0) / 100.0);
}

TEST_F(ExecTest, ScanRowIdsReadsOnlyRequestedRows) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  IntervalSet rows;
  rows.InsertRange(5, 8);   // partition-local rows
  rows.Insert(100);
  Result<Batch> batch =
      ScanRowIds(ctx_.get(), &*sales, 0, {"id", "note"}, rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->rows(), 4u);
}

// Row ids from a stored DATE or TEXT posting are only checked to be
// canonical runs, so a corrupt one may claim rows far past the partition.
// The scan returns the rows the partition holds and sizes nothing from
// the claim.
TEST_F(ExecTest, ScanRowIdsBoundsRowsPastThePartition) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  IntervalSet claim;
  claim.InsertRange(0, uint64_t{1} << 62);
  std::vector<uint8_t> posting = claim.Serialize();
  Result<IntervalSet> rows =
      IntervalSet::Deserialize(posting.data(), posting.size());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  Result<Batch> batch =
      ScanRowIds(ctx_.get(), &*sales, 0, {"id", "note"}, *rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const uint64_t held = sales->meta().partitions[0].row_count;
  EXPECT_EQ(batch->rows(), held);
  EXPECT_EQ(batch->columns[1].size(), held);
}

// A row-id scan keeps a string column dictionary-coded iff every page it
// reads of the column is a dictionary page, as the pull scan does, and
// either way reads the strings a plain scan would. `flag` pages are all
// dictionary pages, `note` pages all raw; `mixed` has dictionary pages
// in its first half and raw ones in its second.
TEST_F(ExecTest, ScanRowIdsKeepsCodesIffEveryPageIsADictionary) {
  TableSchema schema;
  schema.name = "labels";
  schema.table_id = 12;
  schema.columns = {{"id", ColumnType::kInt64},
                    {"flag", ColumnType::kString},
                    {"note", ColumnType::kString},
                    {"mixed", ColumnType::kString}};
  Batch batch;
  batch.AddColumn("id", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("flag", {ColumnType::kString, {}, {}, {}});
  batch.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  batch.AddColumn("mixed", {ColumnType::kString, {}, {}, {}});
  constexpr int64_t kRows = 2000;
  for (int64_t i = 0; i < kRows; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].strings.push_back(i % 3 == 0 ? "R" : "N");
    batch.columns[2].strings.push_back("note " + std::to_string(i * 7919));
    batch.columns[3].strings.push_back(
        i < kRows / 2 ? "m" + std::to_string(i % 3)
                      : "mixed " + std::to_string(i * 104729));
  }
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(&h_.system).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  // A transaction begun after the load sees the table.
  Transaction* read_txn = txn_mgr_->Begin();
  QueryContext ctx(txn_mgr_.get(), read_txn, &h_.system);
  Result<TableReader> reader = ctx.OpenTable(12);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // `mixed`'s first page holds first-half rows only.
  const uint64_t first_page_rows =
      reader->meta().partitions[0].columns[3].page_rows[0];
  ASSERT_LE(first_page_rows, static_cast<uint64_t>(kRows / 2));
  ASSERT_GT(first_page_rows, 200u);

  const std::vector<std::string> names = {"id", "flag", "note", "mixed"};
  auto check = [&](const IntervalSet& rows, bool mixed_coded) {
    Result<Batch> got = ScanRowIds(&ctx, &*reader, 0, names, rows);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->rows(), rows.Count());
    EXPECT_NE(got->column("flag").dict, nullptr);
    EXPECT_EQ(got->column("note").dict, nullptr);
    EXPECT_EQ(got->column("mixed").dict != nullptr, mixed_coded);
    size_t r = 0;
    for (const IntervalSet::Interval& iv : rows.Intervals()) {
      for (uint64_t row = iv.begin; row < iv.end; ++row, ++r) {
        EXPECT_EQ(got->column("id").ints[r], static_cast<int64_t>(row));
        for (size_t c = 1; c < names.size(); ++c) {
          EXPECT_EQ(got->columns[c].StringAt(r),
                    batch.columns[c].strings[row])
              << names[c] << " row " << row;
        }
      }
    }
  };
  IntervalSet first_half;
  first_half.InsertRange(3, 40);
  first_half.Insert(100);
  first_half.InsertRange(first_page_rows / 2, first_page_rows);
  check(first_half, /*mixed_coded=*/true);
  IntervalSet both_halves = first_half;
  both_halves.InsertRange(990, 1010);
  both_halves.InsertRange(1990, kRows);
  check(both_halves, /*mixed_coded=*/false);
  EXPECT_TRUE(txn_mgr_->Commit(read_txn).ok());
}

TEST_F(ExecTest, OperatorsRegisterDenselyWithStats) {
  CostLedger& ledger = h_.env.telemetry().ledger();
  ctx_->SetAttribution(ledger.NextQueryId(), "stats-query");
  ScopedQueryAttribution scope(ctx_.get());

  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "region_id"});
  ASSERT_TRUE(s.ok());
  Batch big = FilterBatch(ctx_.get(), *s, [](const Batch& b, size_t r) {
    return b.Int("id", r) >= 500;
  });
  Result<Batch> agg = HashAggregate(ctx_.get(), big, {"region_id"},
                                    {{AggOp::kCount, "", "n"}});
  ASSERT_TRUE(agg.ok());

  const auto& ops = ctx_->operators();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].name, "scan sales");
  EXPECT_EQ(ops[1].name, "filter");
  EXPECT_EQ(ops[2].name, "hash aggregate");
  EXPECT_EQ(ops[0].rows, 1000u);
  EXPECT_EQ(ops[1].rows, 500u);
  EXPECT_EQ(ops[2].rows, 4u);
  for (const auto& op : ops) {
    EXPECT_EQ(op.batches, 1u);
    EXPECT_GT(op.sim_seconds, 0) << op.name;
  }
}

TEST_F(ExecTest, ExplainAnalyzeOperatorRowsSumToQueryLedger) {
  CostLedger& ledger = h_.env.telemetry().ledger();
  uint64_t query_id = ledger.NextQueryId();
  ctx_->SetAttribution(query_id, "explain-query");
  {
    ScopedQueryAttribution scope(ctx_.get());
    Result<TableReader> sales = ctx_->OpenTable(10);
    ASSERT_TRUE(sales.ok());
    Result<Batch> s =
        ScanTable(ctx_.get(), &*sales, {"id", "day", "amount"});
    ASSERT_TRUE(s.ok());
    Result<Batch> agg = HashAggregate(ctx_.get(), *s, {"day"},
                                      {{AggOp::kSum, "amount", "total"}});
    ASSERT_TRUE(agg.ok());
  }

  // Fold every ledger entry of this query: the per-operator rows EXPLAIN
  // prints, plus the query-level row (operator_id -1, work outside any
  // operator scope). Their sum must be exactly the query total.
  CostLedger::Entry folded;
  uint64_t operator_entries = 0;
  for (const auto& [key, entry] : ledger.entries()) {
    if (key.query_id != query_id) continue;
    EXPECT_EQ(key.node_id, ctx_->attribution().node_id);
    if (key.operator_id >= 0) {
      ASSERT_LT(static_cast<size_t>(key.operator_id),
                ctx_->operators().size());
      ++operator_entries;
    }
    folded.Fold(entry);
  }
  EXPECT_GT(operator_entries, 0u);

  CostLedger::Entry total = ledger.QueryTotal(query_id);
  EXPECT_EQ(folded.Requests(), total.Requests());
  EXPECT_EQ(folded.buffer_hits + folded.buffer_misses,
            total.buffer_hits + total.buffer_misses);
  EXPECT_DOUBLE_EQ(folded.sim_seconds, total.sim_seconds);
  EXPECT_DOUBLE_EQ(folded.TotalUsd(ledger.prices()),
                   total.TotalUsd(ledger.prices()));
  // The scan touched pages, so the buffer manager charged this query.
  EXPECT_GT(total.buffer_hits + total.buffer_misses, 0u);
  EXPECT_GT(total.sim_seconds, 0);

  std::string text = FormatExplainAnalyze(ctx_.get());
  EXPECT_NE(text.find("EXPLAIN ANALYZE explain-query"), std::string::npos);
  EXPECT_NE(text.find("scan sales"), std::string::npos);
  EXPECT_NE(text.find("hash aggregate"), std::string::npos);
  EXPECT_NE(text.find("total (incl. query-level work)"), std::string::npos);
}

// --- parallel executor: multi-worker output == serial output -----------

void ExpectBatchesIdentical(const Batch& coded_a, const Batch& coded_b) {
  Batch a = testing_util::Expanded(coded_a);
  Batch b = testing_util::Expanded(coded_b);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.rows(), b.rows());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_EQ(a.columns[c].type, b.columns[c].type) << a.names[c];
    EXPECT_EQ(a.columns[c].ints, b.columns[c].ints) << a.names[c];
    EXPECT_EQ(a.columns[c].doubles, b.columns[c].doubles) << a.names[c];
    EXPECT_EQ(a.columns[c].strings, b.columns[c].strings) << a.names[c];
  }
}

// ExecTest with a second context at 4 workers and a tiny
// morsel target, so even the 1000-row fixture fans out across many
// morsels/chunks. Output must be bitwise identical to the default serial
// context: same row order, same group order, same strings.
class ParallelExecTest : public ExecTest {
 protected:
  ParallelExecTest() {
    QueryContext::Options opts;
    opts.exec_workers = 4;
    opts.morsel_rows = 64;
    par_ctx_ = std::make_unique<QueryContext>(txn_mgr_.get(), txn_,
                                              &h_.system, opts);
  }

  std::unique_ptr<QueryContext> par_ctx_;
};

TEST_F(ParallelExecTest, FullScanMatchesSerial) {
  Result<TableReader> r1 = ctx_->OpenTable(10);
  Result<TableReader> r2 = par_ctx_->OpenTable(10);
  ASSERT_TRUE(r1.ok() && r2.ok());
  std::vector<std::string> cols = {"id", "region_id", "amount", "day",
                                   "note"};
  Result<Batch> serial = ScanTable(ctx_.get(), &*r1, cols);
  Result<Batch> parallel = ScanTable(par_ctx_.get(), &*r2, cols);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(parallel->rows(), 1000u);
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ParallelExecTest, RangeScanMatchesSerial) {
  Result<TableReader> r1 = ctx_->OpenTable(10);
  Result<TableReader> r2 = par_ctx_->OpenTable(10);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ScanRange range{"day", 10, 19};
  Result<Batch> serial = ScanTable(ctx_.get(), &*r1, {"id", "note"}, range);
  Result<Batch> parallel =
      ScanTable(par_ctx_.get(), &*r2, {"id", "note"}, range);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(parallel->rows(), 100u);
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ParallelExecTest, HashJoinMatchesSerial) {
  Result<TableReader> s1 = ctx_->OpenTable(10);
  Result<TableReader> g1 = ctx_->OpenTable(11);
  ASSERT_TRUE(s1.ok() && g1.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*s1, {"id", "region_id"});
  Result<Batch> g =
      ScanTable(ctx_.get(), &*g1, {"region_id", "region_name"});
  ASSERT_TRUE(s.ok() && g.ok());
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    Result<Batch> serial = HashJoin(ctx_.get(), *s, "region_id", *g,
                                    "region_id", type);
    Result<Batch> parallel = HashJoin(par_ctx_.get(), *s, "region_id", *g,
                                      "region_id", type);
    ASSERT_TRUE(serial.ok() && parallel.ok());
    ExpectBatchesIdentical(*serial, *parallel);
  }
}

TEST_F(ParallelExecTest, StringKeyJoinMatchesSerial) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id", "note"});
  ASSERT_TRUE(s.ok());
  Batch right;
  right.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  right.AddColumn("weight", {ColumnType::kInt64, {}, {}, {}});
  right.columns[0].strings = {"promo sale"};
  right.columns[1].ints = {9};
  Result<Batch> serial =
      HashJoin(ctx_.get(), *s, "note", right, "note", JoinType::kInner);
  Result<Batch> parallel = HashJoin(par_ctx_.get(), *s, "note", right,
                                    "note", JoinType::kInner);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ParallelExecTest, HashAggregateMatchesSerial) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s =
      ScanTable(ctx_.get(), &*sales, {"region_id", "amount", "id"});
  ASSERT_TRUE(s.ok());
  std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"},
                               {AggOp::kSum, "amount", "total"},
                               {AggOp::kMin, "id", "min_id"},
                               {AggOp::kMax, "id", "max_id"},
                               {AggOp::kAvg, "amount", "avg_amount"}};
  Result<Batch> serial = HashAggregate(ctx_.get(), *s, {"region_id"}, aggs);
  Result<Batch> parallel =
      HashAggregate(par_ctx_.get(), *s, {"region_id"}, aggs);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  // Group order is first-occurrence order in both modes; sums over the
  // decimal column are integer-exact, so even doubles match bitwise.
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ParallelExecTest, GlobalAggregateMatchesSerial) {
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"amount"});
  ASSERT_TRUE(s.ok());
  std::vector<AggSpec> aggs = {{AggOp::kCount, "", "n"},
                               {AggOp::kSum, "amount", "total"}};
  Result<Batch> serial = HashAggregate(ctx_.get(), *s, {}, aggs);
  Result<Batch> parallel = HashAggregate(par_ctx_.get(), *s, {}, aggs);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectBatchesIdentical(*serial, *parallel);
}

TEST_F(ExecTest, UnattributedWorkStaysOffQueryLedgers) {
  CostLedger& ledger = h_.env.telemetry().ledger();
  uint64_t query_id = ledger.NextQueryId();
  ctx_->SetAttribution(query_id, "scoped");
  // No ScopedQueryAttribution installed: operator scopes still narrow the
  // context, but outside them the default (query 0) is current.
  Result<TableReader> sales = ctx_->OpenTable(10);
  ASSERT_TRUE(sales.ok());
  Result<Batch> s = ScanTable(ctx_.get(), &*sales, {"id"});
  ASSERT_TRUE(s.ok());

  // The scan ran inside an OperatorScope built from the query's
  // attribution, so its work is still charged to the query...
  EXPECT_GT(ledger.QueryTotal(query_id).sim_seconds, 0);
  // ...but nothing leaked onto other query ids.
  for (const auto& [key, entry] : ledger.entries()) {
    EXPECT_TRUE(key.query_id == query_id || key.query_id == 0)
        << "unexpected query " << key.query_id;
  }
}

// --- row-key table -------------------------------------------------------

uint32_t InsertInt(RowKeyTable* table, std::vector<int64_t>* keys,
                   int64_t key, bool* inserted) {
  uint32_t id = table->FindOrInsert(
      HashKey(key), [&](uint32_t k) { return (*keys)[k] == key; }, inserted);
  if (*inserted) keys->push_back(key);
  return id;
}

uint32_t FindInt(const RowKeyTable& table, const std::vector<int64_t>& keys,
                 int64_t key) {
  return table.Find(HashKey(key),
                    [&](uint32_t k) { return keys[k] == key; });
}

TEST(RowKeyTableTest, EmptyTableFindsNothing) {
  RowKeyTable table;
  std::vector<int64_t> keys;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(FindInt(table, keys, 0), RowKeyTable::kNone);
  EXPECT_EQ(FindInt(table, keys, -1), RowKeyTable::kNone);
}

TEST(RowKeyTableTest, SingleEntry) {
  RowKeyTable table;
  std::vector<int64_t> keys;
  bool inserted = false;
  EXPECT_EQ(InsertInt(&table, &keys, 42, &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(InsertInt(&table, &keys, 42, &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(FindInt(table, keys, 42), 0u);
  EXPECT_EQ(FindInt(table, keys, 43), RowKeyTable::kNone);
}

TEST(RowKeyTableTest, GrowsAcrossResizesKeepingDenseIds) {
  RowKeyTable table;
  std::vector<int64_t> keys;
  const int64_t n = 20000;
  size_t capacity = table.capacity();
  int resizes = 0;
  for (int64_t i = 0; i < n; ++i) {
    bool inserted = false;
    ASSERT_EQ(InsertInt(&table, &keys, i * 7919 - n, &inserted),
              static_cast<uint32_t>(i));
    ASSERT_TRUE(inserted);
    ASSERT_LE(2 * table.size(), table.capacity());  // load factor <= 1/2
    if (table.capacity() != capacity) {
      ++resizes;
      capacity = table.capacity();
    }
  }
  EXPECT_GE(resizes, 5);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(FindInt(table, keys, i * 7919 - n), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(FindInt(table, keys, n * 7919), RowKeyTable::kNone);
}

TEST(RowKeyTableTest, KeysDifferingOnlyInHighBitsStayDistinct) {
  RowKeyTable table;
  std::vector<int64_t> keys;
  bool inserted = false;
  InsertInt(&table, &keys, 5, &inserted);
  for (int bit = 32; bit < 64; ++bit) {
    int64_t key = static_cast<int64_t>((uint64_t{1} << bit) | 5);
    InsertInt(&table, &keys, key, &inserted);
    EXPECT_TRUE(inserted) << "bit " << bit;
  }
  EXPECT_EQ(table.size(), 33u);
  for (size_t id = 0; id < keys.size(); ++id) {
    EXPECT_EQ(FindInt(table, keys, keys[id]), id);
  }
}

TEST(RowKeyTableTest, EqualityDecidesWhenHashesCollide) {
  // Every key shares one hash, so only the caller's equality tells them
  // apart.
  RowKeyTable table;
  std::vector<std::string> distinct;
  for (const char* key : {"a", "b", "c", "a", "b", "d"}) {
    bool inserted = false;
    table.FindOrInsert(
        7, [&](uint32_t k) { return distinct[k] == key; }, &inserted);
    if (inserted) distinct.push_back(key);
  }
  EXPECT_EQ(distinct, (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(table.Find(7, [&](uint32_t k) { return distinct[k] == "c"; }),
            2u);
  EXPECT_EQ(table.Find(7, [&](uint32_t k) { return distinct[k] == "e"; }),
            RowKeyTable::kNone);
}

TEST(RowKeyTableTest, DoubleKeysFoldNegativeZeroAndNaN) {
  double nan1 = std::nan("1");
  double nan2 = -std::nan("2");
  EXPECT_EQ(HashKey(0.0), HashKey(-0.0));
  EXPECT_EQ(HashKey(nan1), HashKey(nan2));
  EXPECT_NE(HashKey(1e-7), HashKey(2e-7));
  ColumnVector col{ColumnType::kDouble, {}, {0.0, -0.0, nan1, nan2, 1e-7},
                   {}};
  EXPECT_TRUE(CellsEqual(col, 0, 1));
  EXPECT_TRUE(CellsEqual(col, 2, 3));
  EXPECT_FALSE(CellsEqual(col, 0, 2));
  EXPECT_FALSE(CellsEqual(col, 0, 4));
}

// --- DenseKeyIndex / IntKeyIndex ------------------------------------------

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

// The widest span DenseKeyIndex::Fits takes for `rows` keys.
uint64_t MaxDenseSpan(size_t rows) { return 64 * rows + 65535; }

TEST(DenseKeyIndexTest, FitsUpToTheSpanBoundAndNoFurther) {
  for (size_t rows : {0u, 1u, 100u, 16384u}) {
    SCOPED_TRACE(rows);
    IntKeySpan under{-7, -7 + static_cast<int64_t>(MaxDenseSpan(rows))};
    IntKeySpan over{under.min, under.max + 1};
    EXPECT_TRUE(DenseKeyIndex::Fits(under, rows));
    EXPECT_FALSE(DenseKeyIndex::Fits(over, rows));
  }
  EXPECT_FALSE(DenseKeyIndex::Fits(IntKeySpan{}, 10));  // no keys
  EXPECT_TRUE(DenseKeyIndex::Fits(IntKeySpan{5, 5}, 1));
}

TEST(DenseKeyIndexTest, SpansPastInt64NeverFit) {
  // max - min overflows int64 for these; in uint64 they stay huge.
  EXPECT_FALSE(DenseKeyIndex::Fits({kInt64Min, kInt64Max}, size_t{1} << 40));
  EXPECT_FALSE(DenseKeyIndex::Fits({-1, kInt64Max}, 1));
  EXPECT_FALSE(DenseKeyIndex::Fits({kInt64Min, 0}, 1));
  // Narrow spans at either end of the int64 range fit.
  EXPECT_TRUE(DenseKeyIndex::Fits({kInt64Max - 10, kInt64Max}, 1));
  EXPECT_TRUE(DenseKeyIndex::Fits({kInt64Min, kInt64Min + 10}, 1));
  DenseKeyIndex top({kInt64Max - 10, kInt64Max});
  bool inserted = false;
  EXPECT_EQ(top.FindOrInsert(kInt64Max, &inserted), 0u);
  EXPECT_EQ(top.Find(kInt64Max), 0u);
  EXPECT_EQ(top.Find(kInt64Min), DenseKeyIndex::kNone);
  EXPECT_EQ(top.Find(0), DenseKeyIndex::kNone);
}

TEST(DenseKeyIndexTest, NegativeKeysGetIdsInFirstInsertionOrder) {
  DenseKeyIndex index({-500, -400});
  const std::vector<int64_t> keys = {-400, -500, -450, -400, -499, -500};
  const std::vector<uint32_t> ids = {0, 1, 2, 0, 3, 1};
  const std::vector<bool> fresh = {true, true, true, false, true, false};
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    EXPECT_EQ(index.FindOrInsert(keys[i], &inserted), ids[i]) << i;
    EXPECT_EQ(inserted, fresh[i]) << i;
  }
  EXPECT_EQ(index.size(), 4u);
  EXPECT_EQ(index.Find(-450), 2u);
  EXPECT_EQ(index.Find(-451), DenseKeyIndex::kNone);  // in range, absent
  for (int64_t outside : {int64_t{-501}, int64_t{-399}, int64_t{0},
                          kInt64Min, kInt64Max}) {
    EXPECT_EQ(index.Find(outside), DenseKeyIndex::kNone) << outside;
  }
}

TEST(DenseKeyIndexTest, BothKindsOfIntKeyIndexHandOutTheSameIds) {
  Rng rng(99);
  std::vector<int64_t> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(rng.UniformRange(-300, 300));
  IntKeyIndex dense(IntKeySpan::Of(keys), keys.size());
  // A range claimed wider than any array forces the hash kind.
  IntKeyIndex hashed(IntKeySpan{kInt64Min, kInt64Max}, keys.size());
  ASSERT_TRUE(dense.dense());
  ASSERT_FALSE(hashed.dense());
  for (int64_t k : keys) {
    bool a = false;
    bool b = false;
    ASSERT_EQ(dense.FindOrInsert(k, &a), hashed.FindOrInsert(k, &b)) << k;
    ASSERT_EQ(a, b) << k;
  }
  EXPECT_EQ(dense.size(), hashed.size());
  for (int64_t k = -310; k <= 310; ++k) {
    EXPECT_EQ(dense.Find(k), hashed.Find(k)) << k;
  }
  for (int64_t k : {kInt64Min, kInt64Max}) {
    EXPECT_EQ(dense.Find(k), IntKeyIndex::kNone);
    EXPECT_EQ(hashed.Find(k), IntKeyIndex::kNone);
  }
}

// --- typed keys through the operators -----------------------------------

TEST_F(ExecTest, JoinRejectsMismatchedKeyTypes) {
  Batch strings;
  strings.AddColumn("k", {ColumnType::kString, {}, {}, {"a", "b", "c"}});
  Batch ints;
  ints.AddColumn("k", {ColumnType::kInt64, {0, 1, 2, 3, 4, 5, 6, 7}, {}, {}});
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    Result<Batch> str_int =
        HashJoin(ctx_.get(), strings, "k", ints, "k", type);
    EXPECT_TRUE(str_int.status().IsInvalidArgument());
    Result<Batch> int_str =
        HashJoin(ctx_.get(), ints, "k", strings, "k", type);
    EXPECT_TRUE(int_str.status().IsInvalidArgument());
  }
  // Int-family keys of different column types still join by value.
  Batch dates;
  dates.AddColumn("d", {ColumnType::kDate, {3, 9}, {}, {}});
  Result<Batch> joined =
      HashJoin(ctx_.get(), dates, "d", ints, "k", JoinType::kInner);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->column("d").ints, std::vector<int64_t>{3});
}

TEST_F(ExecTest, AggregateKeepsStringKeysContainingSeparatorsApart) {
  Batch in;
  in.AddColumn("a", {ColumnType::kString, {}, {}, {"x\x1fy", "x"}});
  in.AddColumn("b", {ColumnType::kString, {}, {}, {"z", "y\x1fz"}});
  Result<Batch> agg =
      HashAggregate(ctx_.get(), in, {"a", "b"}, {{AggOp::kCount, "", "n"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->rows(), 2u);
  EXPECT_EQ(agg->column("a").strings,
            (std::vector<std::string>{"x\x1fy", "x"}));
  EXPECT_EQ(agg->column("n").ints, (std::vector<int64_t>{1, 1}));
}

TEST_F(ExecTest, AggregateKeepsDoubleKeysThatPrintAlikeApart) {
  Batch in;
  in.AddColumn("d", {ColumnType::kDouble, {}, {1e-7, 2e-7, 1e-7}, {}});
  Result<Batch> agg =
      HashAggregate(ctx_.get(), in, {"d"}, {{AggOp::kCount, "", "n"}});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->column("d").doubles, (std::vector<double>{1e-7, 2e-7}));
  EXPECT_EQ(agg->column("n").ints, (std::vector<int64_t>{2, 1}));
}

TEST_F(ExecTest, AggregateFoldsNegativeZeroAndNaNKeys) {
  Batch in;
  in.AddColumn("d", {ColumnType::kDouble,
                     {},
                     {-0.0, 0.0, std::nan("1"), -std::nan("2"), 0.0},
                     {}});
  Result<Batch> agg =
      HashAggregate(ctx_.get(), in, {"d"}, {{AggOp::kCount, "", "n"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->rows(), 2u);
  // The group's representative is its first row.
  EXPECT_TRUE(std::signbit(agg->column("d").doubles[0]));
  EXPECT_TRUE(std::isnan(agg->column("d").doubles[1]));
  EXPECT_EQ(agg->column("n").ints, (std::vector<int64_t>{3, 2}));
}

// Double inputs fold into the double sum/min/max only: NaN, infinities
// and values past the int64 range must never be cast to an integer.
TEST_F(ExecTest, AggregateFoldsNonFiniteAndHugeDoubles) {
  const double inf = std::numeric_limits<double>::infinity();
  Batch in;
  in.AddColumn("k", {ColumnType::kInt64, {1, 1, 1, 1, 2, 2, 2}, {}, {}});
  in.AddColumn("d", {ColumnType::kDouble,
                     {},
                     {std::nan(""), inf, -inf, 1e300, 1e300, -inf, inf},
                     {}});
  Result<Batch> agg = HashAggregate(ctx_.get(), in, {"k"},
                                    {{AggOp::kSum, "d", "sum"},
                                     {AggOp::kMin, "d", "lo"},
                                     {AggOp::kMax, "d", "hi"},
                                     {AggOp::kAvg, "d", "avg"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->rows(), 2u);
  for (const char* name : {"sum", "lo", "hi", "avg"}) {
    EXPECT_EQ(agg->column(name).type, ColumnType::kDouble) << name;
  }
  // Group 1 starts at NaN, which no later comparison displaces.
  EXPECT_TRUE(std::isnan(agg->Double("sum", 0)));
  EXPECT_TRUE(std::isnan(agg->Double("lo", 0)));
  EXPECT_TRUE(std::isnan(agg->Double("hi", 0)));
  EXPECT_TRUE(std::isnan(agg->Double("avg", 0)));
  // Group 2: 1e300 + -inf + inf.
  EXPECT_TRUE(std::isnan(agg->Double("sum", 1)));
  EXPECT_EQ(agg->Double("lo", 1), -inf);
  EXPECT_EQ(agg->Double("hi", 1), inf);
}

// --- oracle: join and aggregate against std::map references -------------

// `rows` keys of `type` drawn from `distinct` values. Int keys also differ
// in high bits; string lengths straddle the hash's 8-byte words; double
// keys include both zeros and values that print alike.
ColumnVector RandomKeys(ColumnType type, size_t rows, uint64_t distinct,
                        Rng* rng) {
  ColumnVector col;
  col.type = type;
  for (size_t r = 0; r < rows; ++r) {
    uint64_t v = rng->Uniform(distinct);
    switch (type) {
      case ColumnType::kInt64:
        col.ints.push_back(static_cast<int64_t>(v << 36) - 7);
        break;
      case ColumnType::kDate:
        col.ints.push_back(8000 + static_cast<int64_t>(v));
        break;
      case ColumnType::kDecimal:
        col.ints.push_back(static_cast<int64_t>(v) * 100 - 5000);
        break;
      case ColumnType::kString:
        col.strings.push_back(std::string(v % 20, 'p') + std::to_string(v));
        break;
      case ColumnType::kDouble:
        col.doubles.push_back(v == 0 ? (rng->Bernoulli(0.5) ? 0.0 : -0.0)
                                     : static_cast<double>(v) * 1e-7);
        break;
    }
  }
  return col;
}

ColumnVector OfType(ColumnType type) {
  ColumnVector col;
  col.type = type;
  return col;
}

using RefCell = std::variant<int64_t, double, std::string>;

RefCell Cell(const ColumnVector& col, size_t r) {
  switch (col.type) {
    case ColumnType::kDouble:
      return col.doubles[r];
    case ColumnType::kString:
      return col.StringAt(r);
    default:
      return col.ints[r];
  }
}

void AppendCell(const ColumnVector& src, size_t r, ColumnVector* dst) {
  switch (src.type) {
    case ColumnType::kDouble:
      dst->doubles.push_back(src.doubles[r]);
      break;
    case ColumnType::kString:
      dst->strings.push_back(src.StringAt(r));
      break;
    default:
      dst->ints.push_back(src.ints[r]);
  }
}

// Like ExpectBatchesIdentical, but doubles compare bit for bit.
void ExpectBatchesBitwise(const Batch& expected, const Batch& actual) {
  ExpectBatchesIdentical(expected, actual);
  for (size_t c = 0;
       c < expected.columns.size() && c < actual.columns.size(); ++c) {
    const std::vector<double>& a = expected.columns[c].doubles;
    const std::vector<double>& b = actual.columns[c].doubles;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(a.empty() ||
                std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                    0)
        << expected.names[c];
  }
}

// Plain nested-map join: probe order, each key's right rows ascending.
Batch ReferenceJoin(const Batch& left, int lk, const Batch& right, int rk,
                    JoinType type) {
  std::map<RefCell, std::vector<size_t>> build;
  for (size_t r = 0; r < right.rows(); ++r) {
    build[Cell(right.columns[rk], r)].push_back(r);
  }
  Batch out = left.EmptyLike();
  std::vector<int> right_cols;
  if (type == JoinType::kInner) {
    for (size_t c = 0; c < right.columns.size(); ++c) {
      if (static_cast<int>(c) == rk || out.Col(right.names[c]) >= 0) {
        continue;
      }
      right_cols.push_back(static_cast<int>(c));
      out.AddColumn(right.names[c], OfType(right.columns[c].type));
    }
  }
  for (size_t l = 0; l < left.rows(); ++l) {
    auto it = build.find(Cell(left.columns[lk], l));
    bool found = it != build.end();
    if (type != JoinType::kInner) {
      if (found == (type == JoinType::kLeftSemi)) left.AppendRowTo(&out, l);
      continue;
    }
    if (!found) continue;
    for (size_t r : it->second) {
      left.AppendRowTo(&out, l);
      for (size_t rc = 0; rc < right_cols.size(); ++rc) {
        AppendCell(right.columns[right_cols[rc]], r,
                   &out.columns[left.columns.size() + rc]);
      }
    }
  }
  return out;
}

// Plain map aggregate with the executor's documented arithmetic: groups in
// first-row order, keyed by typed value; a group's double sum folds its
// per-chunk partial sums (chunk = row / morsel_rows) in chunk order.
Batch ReferenceAggregate(const Batch& in, const std::vector<int>& key_cols,
                         const std::vector<std::string>& key_names,
                         uint64_t morsel_rows) {
  struct Group {
    size_t first_row = 0;
    int64_t count = 0;
    int64_t qty_sum = 0;
    int64_t qty_min = 0;
    int64_t qty_max = 0;
    double price_sum = 0;
    double price_partial = 0;
    size_t partial_chunk = 0;
    bool started = false;  // price_sum holds a folded partial
    double price_min = 0;
    double price_max = 0;
    std::string name_min;
    std::string name_max;
  };
  const ColumnVector& qty = in.column("qty");
  const ColumnVector& price = in.column("price");
  const ColumnVector& name = in.column("name");
  std::map<std::vector<RefCell>, size_t> index;
  std::vector<Group> groups;
  auto flush = [](Group* g) {
    g->price_sum = g->started ? g->price_sum + g->price_partial
                              : g->price_partial;
    g->started = true;
    g->price_partial = 0;
  };
  for (size_t r = 0; r < in.rows(); ++r) {
    std::vector<RefCell> key;
    for (int c : key_cols) key.push_back(Cell(in.columns[c], r));
    auto [it, inserted] = index.emplace(key, groups.size());
    size_t chunk = r / morsel_rows;
    if (inserted) {
      Group g;
      g.first_row = r;
      g.qty_min = g.qty_max = qty.ints[r];
      g.price_min = g.price_max = price.doubles[r];
      g.name_min = g.name_max = name.StringAt(r);
      g.partial_chunk = chunk;
      groups.push_back(g);
    }
    Group& g = groups[it->second];
    if (g.partial_chunk != chunk) {
      flush(&g);
      g.partial_chunk = chunk;
    }
    ++g.count;
    g.qty_sum += qty.ints[r];
    g.qty_min = std::min(g.qty_min, qty.ints[r]);
    g.qty_max = std::max(g.qty_max, qty.ints[r]);
    g.price_partial += price.doubles[r];
    g.price_min = std::min(g.price_min, price.doubles[r]);
    g.price_max = std::max(g.price_max, price.doubles[r]);
    g.name_min = std::min(g.name_min, name.StringAt(r));
    g.name_max = std::max(g.name_max, name.StringAt(r));
  }
  Batch out;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    out.AddColumn(key_names[k], OfType(in.columns[key_cols[k]].type));
  }
  for (const char* n : {"n", "qty_sum", "qty_min", "qty_max"}) {
    out.AddColumn(n, OfType(ColumnType::kInt64));
  }
  for (const char* n : {"price_sum", "price_avg", "price_min", "price_max"}) {
    out.AddColumn(n, OfType(ColumnType::kDouble));
  }
  for (const char* n : {"name_min", "name_max"}) {
    out.AddColumn(n, OfType(ColumnType::kString));
  }
  for (Group& g : groups) {
    flush(&g);
    size_t k = key_cols.size();
    for (size_t i = 0; i < k; ++i) {
      AppendCell(in.columns[key_cols[i]], g.first_row, &out.columns[i]);
    }
    out.columns[k].ints.push_back(g.count);
    out.columns[k + 1].ints.push_back(g.qty_sum);
    out.columns[k + 2].ints.push_back(g.qty_min);
    out.columns[k + 3].ints.push_back(g.qty_max);
    out.columns[k + 4].doubles.push_back(g.price_sum);
    out.columns[k + 5].doubles.push_back(g.price_sum / g.count);
    out.columns[k + 6].doubles.push_back(g.price_min);
    out.columns[k + 7].doubles.push_back(g.price_max);
    out.columns[k + 8].strings.push_back(g.name_min);
    out.columns[k + 9].strings.push_back(g.name_max);
  }
  return out;
}

const std::vector<AggSpec>& OracleAggs() {
  static const std::vector<AggSpec> aggs = {
      {AggOp::kCount, "", "n"},
      {AggOp::kSum, "qty", "qty_sum"},
      {AggOp::kMin, "qty", "qty_min"},
      {AggOp::kMax, "qty", "qty_max"},
      {AggOp::kSum, "price", "price_sum"},
      {AggOp::kAvg, "price", "price_avg"},
      {AggOp::kMin, "price", "price_min"},
      {AggOp::kMax, "price", "price_max"},
      {AggOp::kMin, "name", "name_min"},
      {AggOp::kMax, "name", "name_max"}};
  return aggs;
}

// Appends OracleAggs' input columns, `rows` random values each.
void AddOracleAggInputs(size_t rows, Rng* rng, Batch* in) {
  ColumnVector qty = OfType(ColumnType::kDecimal);
  ColumnVector price = OfType(ColumnType::kDouble);
  ColumnVector name = OfType(ColumnType::kString);
  for (size_t r = 0; r < rows; ++r) {
    qty.ints.push_back(rng->UniformRange(-500, 500));
    price.doubles.push_back(rng->NextDouble() * 100 - 50);
    name.strings.push_back("n" + std::to_string(rng->Uniform(1000)));
  }
  in->AddColumn("qty", std::move(qty));
  in->AddColumn("price", std::move(price));
  in->AddColumn("name", std::move(name));
}

// Runs each operator at 1, 2 and 4 workers, all at one morsel size: the
// one-worker output must equal the reference, and every multi-worker
// output must equal the one-worker output.
class ExecOracleTest : public ExecTest {
 protected:
  std::unique_ptr<QueryContext> Context(int workers, uint64_t morsel_rows) {
    QueryContext::Options opts;
    opts.exec_workers = workers;
    opts.morsel_rows = morsel_rows;
    return std::make_unique<QueryContext>(txn_mgr_.get(), txn_, &h_.system,
                                          opts);
  }

  template <typename Op>
  void ExpectAllModes(uint64_t morsel_rows, const Batch& expected, Op op) {
    Result<Batch> one = op(Context(1, morsel_rows).get());
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ExpectBatchesBitwise(expected, *one);
    for (int workers : {2, 4}) {
      Result<Batch> many = op(Context(workers, morsel_rows).get());
      ASSERT_TRUE(many.ok()) << many.status().ToString();
      ExpectBatchesBitwise(*one, *many);
    }
  }
};

struct JoinCase {
  ColumnType left_type;
  ColumnType right_type;  // an int-family type retags the left values
  size_t left_rows;
  size_t right_rows;
  uint64_t distinct;
};

TEST_F(ExecOracleTest, HashJoinMatchesMapReference) {
  const std::vector<JoinCase> cases = {
      {ColumnType::kInt64, ColumnType::kInt64, 400, 200, 50},  // heavy dups
      {ColumnType::kDate, ColumnType::kDate, 300, 300, 500},
      {ColumnType::kDecimal, ColumnType::kDecimal, 300, 250, 5000},
      {ColumnType::kString, ColumnType::kString, 300, 150, 40},
      {ColumnType::kDate, ColumnType::kInt64, 200, 100, 60},  // mixed types
      {ColumnType::kInt64, ColumnType::kInt64, 60, 30, 1},    // one key
      {ColumnType::kString, ColumnType::kString, 50, 20, 1},
      {ColumnType::kInt64, ColumnType::kInt64, 0, 100, 10},   // empty probe
      {ColumnType::kString, ColumnType::kString, 100, 0, 10}, // empty build
      {ColumnType::kInt64, ColumnType::kInt64, 0, 0, 10},
  };
  Rng rng(1515);
  for (size_t i = 0; i < cases.size(); ++i) {
    const JoinCase& jc = cases[i];
    SCOPED_TRACE("case " + std::to_string(i));
    Batch left;
    left.AddColumn("lid", OfType(ColumnType::kInt64));
    left.AddColumn("lkey", RandomKeys(jc.left_type, jc.left_rows,
                                      jc.distinct, &rng));
    left.AddColumn("tag", OfType(ColumnType::kString));
    left.AddColumn("lval", OfType(ColumnType::kDouble));
    for (size_t r = 0; r < jc.left_rows; ++r) {
      left.columns[0].ints.push_back(static_cast<int64_t>(r));
      left.columns[2].strings.push_back("L" + std::to_string(r));
      left.columns[3].doubles.push_back(rng.NextDouble());
    }
    Batch right;
    right.AddColumn("rkey", RandomKeys(jc.left_type, jc.right_rows,
                                       jc.distinct, &rng));
    right.columns[0].type = jc.right_type;
    right.AddColumn("tag", OfType(ColumnType::kString));
    right.AddColumn("rid", OfType(ColumnType::kInt64));
    right.AddColumn("rval", OfType(ColumnType::kDouble));
    for (size_t r = 0; r < jc.right_rows; ++r) {
      right.columns[1].strings.push_back("R" + std::to_string(r));
      right.columns[2].ints.push_back(static_cast<int64_t>(r));
      right.columns[3].doubles.push_back(rng.NextDouble());
    }
    for (JoinType type :
         {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      Batch expected = ReferenceJoin(left, 1, right, 0, type);
      for (uint64_t morsel_rows : {7u, 64u, 16384u}) {
        ExpectAllModes(morsel_rows, expected, [&](QueryContext* ctx) {
          return HashJoin(ctx, left, "lkey", right, "rkey", type);
        });
      }
    }
  }
}

struct AggCase {
  std::vector<ColumnType> key_types;
  size_t rows;
  uint64_t distinct;
};

TEST_F(ExecOracleTest, HashAggregateMatchesMapReference) {
  const std::vector<AggCase> cases = {
      {{ColumnType::kInt64}, 2000, 30},  // heavy dups
      {{ColumnType::kDate}, 1500, 400},
      {{ColumnType::kDecimal}, 1500, 5000},
      {{ColumnType::kString}, 1500, 60},
      {{ColumnType::kString, ColumnType::kInt64}, 1500, 12},
      {{ColumnType::kDouble}, 1000, 20},
      {{ColumnType::kString}, 500, 1},  // one key
      {{}, 700, 1},                     // global group
      {{ColumnType::kInt64}, 0, 10},    // empty input
  };
  Rng rng(2626);
  for (size_t i = 0; i < cases.size(); ++i) {
    const AggCase& ac = cases[i];
    SCOPED_TRACE("case " + std::to_string(i));
    Batch in;
    std::vector<std::string> keys;
    std::vector<int> key_cols;
    for (size_t k = 0; k < ac.key_types.size(); ++k) {
      keys.push_back("k" + std::to_string(k));
      key_cols.push_back(static_cast<int>(k));
      in.AddColumn(keys.back(),
                   RandomKeys(ac.key_types[k], ac.rows, ac.distinct, &rng));
    }
    AddOracleAggInputs(ac.rows, &rng, &in);
    for (uint64_t morsel_rows : {7u, 64u, 16384u}) {
      Batch expected = ReferenceAggregate(in, key_cols, keys, morsel_rows);
      ExpectAllModes(morsel_rows, expected, [&](QueryContext* ctx) {
        return HashAggregate(ctx, in, keys, OracleAggs());
      });
    }
  }
}

// `rows` keys in [lo, lo + span], both ends included.
std::vector<int64_t> SpreadKeys(size_t rows, int64_t lo, uint64_t span,
                                Rng* rng) {
  std::vector<int64_t> keys = {lo, lo + static_cast<int64_t>(span)};
  while (keys.size() < rows) {
    keys.push_back(lo + static_cast<int64_t>(rng->Uniform(span + 1)));
  }
  keys.resize(rows);
  return keys;
}

ColumnVector IntColumn(ColumnType type, std::vector<int64_t> ints) {
  ColumnVector col = OfType(type);
  col.ints = std::move(ints);
  return col;
}

// Int join keys on either side of DenseKeyIndex's span bound, through
// every join type at every morsel size and worker count. Probes hit build
// keys, miss inside the build range, and fall outside it.
TEST_F(ExecOracleTest, IntJoinOnEitherSideOfTheDenseBoundMatchesMapReference) {
  Rng rng(4141);
  struct DenseJoinCase {
    const char* name;
    std::vector<int64_t> build;
    bool dense;  // the build keys take the flat array
  };
  const std::vector<DenseJoinCase> cases = {
      {"span just under", SpreadKeys(100, -1000, MaxDenseSpan(100), &rng),
       true},
      {"span just over", SpreadKeys(100, -1000, MaxDenseSpan(100) + 1, &rng),
       false},
      {"negative keys", SpreadKeys(80, -500, 100, &rng), true},
      {"int64 extremes", {kInt64Min, kInt64Max, kInt64Min, 0, kInt64Max},
       false},
      {"empty build", {}, false},
      {"one key", {42}, true},
      {"all duplicates", std::vector<int64_t>(50, -3), true},
  };
  for (const DenseJoinCase& jc : cases) {
    SCOPED_TRACE(jc.name);
    EXPECT_EQ(DenseKeyIndex::Fits(IntKeySpan::Of(jc.build), jc.build.size()),
              jc.dense);
    std::vector<int64_t> probe = {kInt64Min, kInt64Min + 1, -1, 0, 1,
                                  kInt64Max - 1, kInt64Max};
    if (!jc.build.empty()) {
      IntKeySpan span = IntKeySpan::Of(jc.build);
      if (span.min > kInt64Min) probe.push_back(span.min - 1);
      if (span.max < kInt64Max) probe.push_back(span.max + 1);
      uint64_t width = static_cast<uint64_t>(span.max) -
                       static_cast<uint64_t>(span.min);
      while (probe.size() < 300) {
        probe.push_back(
            rng.Bernoulli(0.6)
                ? jc.build[rng.Uniform(jc.build.size())]
                : static_cast<int64_t>(static_cast<uint64_t>(span.min) +
                                       rng.Uniform(width / 2 + 1) * 2));
      }
    }
    Batch left;
    left.AddColumn("lid", OfType(ColumnType::kInt64));
    left.AddColumn("lkey", IntColumn(ColumnType::kInt64, probe));
    left.AddColumn("lval", OfType(ColumnType::kDouble));
    for (size_t r = 0; r < probe.size(); ++r) {
      left.columns[0].ints.push_back(static_cast<int64_t>(r));
      left.columns[2].doubles.push_back(rng.NextDouble());
    }
    Batch right;
    right.AddColumn("rkey", IntColumn(ColumnType::kDate, jc.build));
    right.AddColumn("rid", OfType(ColumnType::kInt64));
    right.AddColumn("tag", OfType(ColumnType::kString));
    for (size_t r = 0; r < jc.build.size(); ++r) {
      right.columns[1].ints.push_back(static_cast<int64_t>(r));
      right.columns[2].strings.push_back("R" + std::to_string(r));
    }
    for (JoinType type :
         {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      Batch expected = ReferenceJoin(left, 1, right, 0, type);
      for (uint64_t morsel_rows : {7u, 64u, 16384u}) {
        ExpectAllModes(morsel_rows, expected, [&](QueryContext* ctx) {
          return HashJoin(ctx, left, "lkey", right, "rkey", type);
        });
      }
    }
  }
}

// One int group key on either side of DenseKeyIndex's span bound, for the
// whole input (`dense`) and for its chunks: a chunk may take the flat
// array while the merge hashes, and the other way round. Double sums are
// compared bit for bit.
TEST_F(ExecOracleTest, IntGroupKeyOnEitherSideOfTheDenseBoundMatchesMapReference) {
  Rng rng(5252);
  const size_t rows = 1500;
  std::vector<int64_t> sorted_wide;  // chunks dense, the whole input not
  for (size_t r = 0; r < rows; ++r) {
    sorted_wide.push_back(static_cast<int64_t>(r / 2) * 300);
  }
  std::vector<int64_t> extremes;
  for (size_t r = 0; r < rows; ++r) {
    const int64_t pick[] = {kInt64Min, kInt64Max, 0, -1, kInt64Min + 1};
    extremes.push_back(pick[rng.Uniform(5)]);
  }
  struct DenseAggCase {
    const char* name;
    ColumnType type;
    std::vector<int64_t> keys;
    bool dense;
  };
  const std::vector<DenseAggCase> cases = {
      {"negative keys", ColumnType::kInt64,
       SpreadKeys(rows, -500, 60, &rng), true},
      {"span just under", ColumnType::kDate,
       SpreadKeys(rows, 3, MaxDenseSpan(rows), &rng), true},
      {"span just over", ColumnType::kDecimal,
       SpreadKeys(rows, 3, MaxDenseSpan(rows) + 1, &rng), false},
      {"sorted wide", ColumnType::kInt64, sorted_wide, false},
      {"int64 extremes", ColumnType::kInt64, extremes, false},
      {"one key", ColumnType::kInt64, std::vector<int64_t>(rows, 7), true},
  };
  for (const DenseAggCase& ac : cases) {
    SCOPED_TRACE(ac.name);
    EXPECT_EQ(DenseKeyIndex::Fits(IntKeySpan::Of(ac.keys), rows), ac.dense);
    Batch in;
    in.AddColumn("k0", IntColumn(ac.type, ac.keys));
    AddOracleAggInputs(rows, &rng, &in);
    for (uint64_t morsel_rows : {7u, 64u, 16384u}) {
      Batch expected = ReferenceAggregate(in, {0}, {"k0"}, morsel_rows);
      ExpectAllModes(morsel_rows, expected, [&](QueryContext* ctx) {
        return HashAggregate(ctx, in, {"k0"}, OracleAggs());
      });
    }
  }
}

// Int SUM wraps modulo 2^64 rather than overflowing a signed sum, within
// a chunk and where chunk partials merge.
TEST_F(ExecOracleTest, IntSumWrapsModulo2To64) {
  Batch in;
  in.AddColumn("k", IntColumn(ColumnType::kInt64, {1, 1, 2, 2}));
  in.AddColumn("v", IntColumn(ColumnType::kDecimal,
                              {kInt64Max, 1, kInt64Min, -1}));
  for (uint64_t morsel_rows : {1u, 16384u}) {
    SCOPED_TRACE(morsel_rows);
    for (int workers : {1, 2}) {
      auto ctx = Context(workers, morsel_rows);
      Result<Batch> grouped =
          HashAggregate(ctx.get(), in, {"k"}, {{AggOp::kSum, "v", "s"}});
      ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
      EXPECT_EQ(grouped->column("s").ints,
                (std::vector<int64_t>{kInt64Min, kInt64Max}));
      Result<Batch> global =
          HashAggregate(ctx.get(), in, {}, {{AggOp::kSum, "v", "s"}});
      ASSERT_TRUE(global.ok()) << global.status().ToString();
      EXPECT_EQ(global->column("s").ints, (std::vector<int64_t>{-1}));
    }
  }
}

// --- FilterBatch / SortBatch / aggregate keys over every column type ----

Batch CodedCopy(const Batch& b);

// 240 rows of every ColumnType, with repeats so sort keys tie and
// aggregate keys group; the doubles include -0.0 next to 0.0.
Batch AllTypesBatch() {
  Batch in;
  in.AddColumn("i", OfType(ColumnType::kInt64));
  in.AddColumn("d", OfType(ColumnType::kDouble));
  in.AddColumn("s", OfType(ColumnType::kString));
  in.AddColumn("day", OfType(ColumnType::kDate));
  in.AddColumn("dec", OfType(ColumnType::kDecimal));
  Rng rng(77);
  for (int r = 0; r < 240; ++r) {
    in.columns[0].ints.push_back(static_cast<int64_t>(rng.Uniform(5)) - 2);
    uint64_t d = rng.Uniform(4);
    in.columns[1].doubles.push_back(d == 0   ? (r % 2 ? 0.0 : -0.0)
                                    : d == 1 ? -1.5
                                             : d * 0.25);
    in.columns[2].strings.push_back(
        std::string(rng.Uniform(3) * 9, 'x') +
        std::to_string(rng.Uniform(3)));
    in.columns[3].ints.push_back(9000 + static_cast<int64_t>(rng.Uniform(2)));
    in.columns[4].ints.push_back(static_cast<int64_t>(rng.Uniform(3)) * 100);
  }
  return in;
}

// Row-at-a-time reference: the rows `rows` of `in`, in order.
Batch ReferenceRows(const Batch& in, const std::vector<size_t>& rows) {
  Batch out = in.EmptyLike();
  for (size_t r : rows) {
    for (size_t c = 0; c < in.columns.size(); ++c) {
      AppendCell(in.columns[c], r, &out.columns[c]);
    }
  }
  return out;
}

TEST_F(ExecTest, FilterBatchMatchesRowwiseOverEveryType) {
  Batch in = AllTypesBatch();
  auto keep = [](const Batch& b, size_t r) {
    return b.columns[0].ints[r] != 0 && b.columns[2].strings[r].size() > 1;
  };
  std::vector<size_t> rows;
  for (size_t r = 0; r < in.rows(); ++r) {
    if (keep(in, r)) rows.push_back(r);
  }
  ASSERT_GT(rows.size(), 0u);
  ASSERT_LT(rows.size(), in.rows());
  ExpectBatchesBitwise(ReferenceRows(in, rows),
                       FilterBatch(ctx_.get(), in, keep));
  ExpectBatchesBitwise(
      in.EmptyLike(),
      FilterBatch(ctx_.get(), in, [](const Batch&, size_t) { return false; }));

  // The form the query bodies use: columns resolved once and captured,
  // a string predicate evaluated into a StringMask, on both string forms.
  for (const Batch& b : {in, CodedCopy(in)}) {
    const std::vector<int64_t>& ints = b.column("i").ints;
    const std::vector<double>& doubles = b.column("d").doubles;
    const std::vector<int64_t>& days = b.column("day").ints;
    std::vector<uint8_t> long_string = StringMask(
        b.column("s"), [](const std::string& v) { return v.size() > 1; });
    auto spans = [&](const Batch&, size_t r) {
      return (ints[r] < 0 || doubles[r] > 0.25) && long_string[r] &&
             days[r] == 9000;
    };
    std::vector<size_t> span_rows;
    for (size_t r = 0; r < b.rows(); ++r) {
      const std::string& v = b.columns[2].StringAt(r);
      if ((b.columns[0].ints[r] < 0 || b.columns[1].doubles[r] > 0.25) &&
          v.size() > 1 && b.columns[3].ints[r] == 9000) {
        span_rows.push_back(r);
      }
    }
    ASSERT_GT(span_rows.size(), 0u);
    ASSERT_LT(span_rows.size(), b.rows());
    Batch got = FilterBatch(ctx_.get(), b, spans);
    EXPECT_EQ(got.columns[2].dict, b.columns[2].dict);
    ExpectBatchesBitwise(ReferenceRows(testing_util::Expanded(b), span_rows),
                         got);
  }
}

// WithComputedColumn against a row loop, bit for bit, for each kind of
// output vector: int (from a date), double (decimal arithmetic, in the
// order the query bodies use), string (Q22's country-code prefix, over a
// plain and a coded column) and an empty input.
TEST_F(ExecTest, ComputedColumnMatchesRowLoopOverEveryOutputType) {
  Batch in = AllTypesBatch();
  for (const Batch& b : {in, CodedCopy(in), in.EmptyLike()}) {
    SCOPED_TRACE("rows " + std::to_string(b.rows()));
    const std::vector<int64_t>& days = b.column("day").ints;
    const std::vector<int64_t>& dec = b.column("dec").ints;
    const std::vector<double>& d = b.column("d").doubles;
    const ColumnVector& s = b.column("s");

    Batch want = b;
    ColumnVector year = OfType(ColumnType::kInt64);
    ColumnVector price = OfType(ColumnType::kDouble);
    ColumnVector prefix = OfType(ColumnType::kString);
    for (size_t r = 0; r < b.rows(); ++r) {
      year.ints.push_back(b.columns[3].ints[r] / 365 + 1970);
      price.doubles.push_back(DecimalToDouble(b.columns[4].ints[r]) *
                              (1.0 - b.columns[1].doubles[r] / 100.0));
      prefix.strings.push_back(b.columns[2].StringAt(r).substr(0, 2));
    }
    want.AddColumn("year", year);
    want.AddColumn("price", price);
    want.AddColumn("prefix", prefix);

    Batch got = WithComputedColumn(
        ctx_.get(), b, "year", ColumnType::kInt64,
        [&](const Batch&, size_t r) { return days[r] / 365 + 1970; });
    got = WithComputedColumn(
        ctx_.get(), std::move(got), "price", ColumnType::kDouble,
        [&](const Batch&, size_t r) {
          return DecimalToDouble(dec[r]) * (1.0 - d[r] / 100.0);
        });
    got = WithComputedColumn(
        ctx_.get(), std::move(got), "prefix", ColumnType::kString,
        [&](const Batch&, size_t r) { return s.StringAt(r).substr(0, 2); });
    for (const ColumnVector& col : got.columns) {
      EXPECT_EQ(col.size(), b.rows());
    }
    ExpectBatchesBitwise(want, got);
  }
}

TEST_F(ExecTest, SortBatchMatchesRowwiseOverEveryType) {
  Batch in = AllTypesBatch();
  const std::vector<std::vector<SortKey>> cases = {
      {{"d", false}, {"s", true}},
      {{"s", true}, {"missing", true}, {"day", false}},
      {{"dec", true}, {"i", false}, {"d", true}},
      {{"missing", false}},
      {}};
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const std::vector<SortKey>& keys = cases[i];
    std::vector<size_t> rows(in.rows());
    for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
    std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      for (const SortKey& key : keys) {
        int c = in.Col(key.column);
        if (c < 0) continue;  // unknown keys are skipped
        RefCell x = Cell(in.columns[c], a);
        RefCell y = Cell(in.columns[c], b);
        if (x < y) return key.ascending;
        if (y < x) return !key.ascending;
      }
      return false;
    });
    ExpectBatchesBitwise(ReferenceRows(in, rows),
                         SortBatch(ctx_.get(), in, keys));
    // A limit keeps the first rows of the stable order: the keys repeat,
    // so ties at the cut must fall to the earlier row.
    for (size_t limit : {size_t{1}, size_t{3}, size_t{17}, in.rows() - 1,
                         in.rows(), in.rows() + 1}) {
      SCOPED_TRACE("limit " + std::to_string(limit));
      std::vector<size_t> top(rows.begin(),
                              rows.begin() + std::min(limit, rows.size()));
      ExpectBatchesBitwise(ReferenceRows(in, top),
                           SortBatch(ctx_.get(), in, keys, limit));
    }
  }
}

TEST_F(ExecTest, AggregateKeyOutputMatchesRowwiseOverEveryType) {
  Batch in = AllTypesBatch();
  const std::vector<std::string> keys = in.names;
  // Groups in first-row order, keyed by typed value (-0.0 == 0.0); each
  // key column shows its group's first row.
  std::map<std::vector<RefCell>, size_t> index;
  std::vector<size_t> first_rows;
  std::vector<int64_t> counts;
  for (size_t r = 0; r < in.rows(); ++r) {
    std::vector<RefCell> key;
    for (const ColumnVector& col : in.columns) key.push_back(Cell(col, r));
    auto [it, inserted] = index.emplace(key, first_rows.size());
    if (inserted) {
      first_rows.push_back(r);
      counts.push_back(0);
    }
    ++counts[it->second];
  }
  ASSERT_GT(first_rows.size(), 1u);
  ASSERT_LT(first_rows.size(), in.rows());
  Batch expected = ReferenceRows(in, first_rows);
  expected.AddColumn("n", OfType(ColumnType::kInt64));
  expected.columns.back().ints = counts;
  Result<Batch> agg =
      HashAggregate(ctx_.get(), in, keys, {{AggOp::kCount, "", "n"}});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ExpectBatchesBitwise(expected, *agg);
}

// --- dictionary-coded string columns: coded == plain -------------------
//
// Every operator must give the same batch, after expansion, on a coded
// string column as on its plain copy, and keep the codes (share the input
// dictionary) where its output is built from an input column.

// `plain` (a kString column) coded against a fresh dictionary whose
// entries come in first-appearance order.
ColumnVector Coded(const ColumnVector& plain) {
  auto dict = std::make_shared<StringDict>();
  std::map<std::string, uint32_t> index;
  ColumnVector out = OfType(ColumnType::kString);
  for (const std::string& s : plain.strings) {
    auto [it, inserted] = index.emplace(
        s, static_cast<uint32_t>(dict->strings.size()));
    if (inserted) {
      dict->strings.push_back(s);
      dict->hash.push_back(HashKey(s));
    }
    out.codes.push_back(it->second);
  }
  out.dict = std::move(dict);
  return out;
}

// `b` with every string column coded, each against its own dictionary.
Batch CodedCopy(const Batch& b) {
  Batch out = b;
  for (ColumnVector& col : out.columns) {
    if (col.type == ColumnType::kString) col = Coded(col);
  }
  return out;
}

// (id, tag, name, qty): two string columns over small vocabularies whose
// lengths straddle the hash's 8-byte words, one with a shared prefix.
Batch CodedFixture(size_t rows, uint64_t seed) {
  const char* tags[] = {"", "A", "REG AIR", "AIR", "DELIVER IN PERSON"};
  Rng rng(seed);
  Batch b;
  b.AddColumn("id", OfType(ColumnType::kInt64));
  b.AddColumn("tag", OfType(ColumnType::kString));
  b.AddColumn("name", OfType(ColumnType::kString));
  b.AddColumn("qty", OfType(ColumnType::kDecimal));
  for (size_t r = 0; r < rows; ++r) {
    b.columns[0].ints.push_back(static_cast<int64_t>(r));
    b.columns[1].strings.push_back(tags[rng.Uniform(5)]);
    b.columns[2].strings.push_back("name#" +
                                   std::to_string(rng.Uniform(13)));
    b.columns[3].ints.push_back(static_cast<int64_t>(rng.Uniform(50)));
  }
  return b;
}

void ExpectSharesDictionaries(const Batch& coded_out) {
  for (size_t c = 0; c < coded_out.columns.size(); ++c) {
    if (coded_out.columns[c].type != ColumnType::kString) continue;
    EXPECT_NE(coded_out.columns[c].dict, nullptr) << coded_out.names[c];
  }
}

class CodedColumnTest : public ParallelExecTest {};

TEST_F(CodedColumnTest, FilterKeepsCodes) {
  Batch plain = CodedFixture(500, 1);
  Batch coded = CodedCopy(plain);
  auto keep = [](const Batch& b, size_t r) {
    return b.Str("tag", r).size() > 1 && b.Str("name", r) != "name#3";
  };
  for (QueryContext* ctx : {ctx_.get(), par_ctx_.get()}) {
    Batch want = FilterBatch(ctx, plain, keep);
    Batch got = FilterBatch(ctx, coded, keep);
    ASSERT_GT(want.rows(), 0u);
    ExpectSharesDictionaries(got);
    EXPECT_EQ(got.columns[1].dict, coded.columns[1].dict);
    ExpectBatchesIdentical(want, got);
  }
}

TEST_F(CodedColumnTest, StringMaskMatchesPerRowPredicate) {
  Batch plain = CodedFixture(300, 2);
  Batch coded = CodedCopy(plain);
  auto by_air = [](const std::string& s) {
    return s == "AIR" || s == "REG AIR";
  };
  std::vector<uint8_t> want = StringMask(plain.column("tag"), by_air);
  EXPECT_EQ(StringMask(coded.column("tag"), by_air), want);
  for (size_t r = 0; r < plain.rows(); ++r) {
    EXPECT_EQ(want[r] != 0, by_air(plain.Str("tag", r))) << r;
  }
}

TEST_F(CodedColumnTest, SortOnStringKeysMatchesPlain) {
  Batch plain = CodedFixture(400, 3);
  Batch coded = CodedCopy(plain);
  std::vector<SortKey> keys = {{"tag", true}, {"name", false}, {"id", true}};
  Batch want = SortBatch(ctx_.get(), plain, keys);
  Batch got = SortBatch(ctx_.get(), coded, keys);
  ExpectSharesDictionaries(got);
  ExpectBatchesIdentical(want, got);
  Batch top = SortBatch(ctx_.get(), coded, {{"name", true}}, 7);
  Batch top_want = SortBatch(ctx_.get(), plain, {{"name", true}}, 7);
  ExpectBatchesIdentical(top_want, top);
}

TEST_F(CodedColumnTest, AggregateOnStringKeysMatchesPlain) {
  Batch plain = CodedFixture(600, 4);
  Batch coded = CodedCopy(plain);
  std::vector<AggSpec> aggs = {{AggOp::kSum, "qty", "sum_qty"},
                               {AggOp::kMin, "name", "min_name"},
                               {AggOp::kMax, "name", "max_name"},
                               {AggOp::kCount, "", "n"}};
  for (QueryContext* ctx : {ctx_.get(), par_ctx_.get()}) {
    for (const std::vector<std::string>& keys :
         {std::vector<std::string>{"tag"},
          std::vector<std::string>{"tag", "name"},
          std::vector<std::string>{}}) {
      Result<Batch> want = HashAggregate(ctx, plain, keys, aggs);
      Result<Batch> got = HashAggregate(ctx, coded, keys, aggs);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_GT(got->rows(), 0u);
      for (size_t k = 0; k < keys.size(); ++k) {
        EXPECT_EQ(got->columns[k].dict, coded.column(keys[k]).dict);
      }
      ExpectBatchesIdentical(*want, *got);
    }
  }
}

// SUM and AVG have no meaning over strings: refused before any work is
// charged, on either string form, grouped or not.
TEST_F(CodedColumnTest, SumAndAvgOverStringsAreInvalid) {
  Batch plain;
  plain.AddColumn("k", OfType(ColumnType::kInt64));
  plain.AddColumn("s", OfType(ColumnType::kString));
  plain.columns[0].ints = {1, 1, 2};
  plain.columns[1].strings = {"a", "b", "c"};
  Batch coded = CodedCopy(plain);
  for (QueryContext* ctx : {ctx_.get(), par_ctx_.get()}) {
    for (const Batch* in : {&plain, &coded}) {
      for (AggOp op : {AggOp::kSum, AggOp::kAvg}) {
        for (const std::vector<std::string>& keys :
             {std::vector<std::string>{"k"}, std::vector<std::string>{}}) {
          const SimTime before = ctx->node()->clock().now();
          Result<Batch> agg = HashAggregate(ctx, *in, keys, {{op, "s", "x"}});
          EXPECT_TRUE(agg.status().IsInvalidArgument())
              << agg.status().ToString();
          EXPECT_EQ(ctx->node()->clock().now(), before);
        }
      }
    }
  }
}

TEST_F(CodedColumnTest, StringKeyJoinsMatchPlainInEveryForm) {
  Batch left_plain = CodedFixture(400, 5);
  Batch right_plain = CodedFixture(60, 6);
  right_plain.names = {"rid", "rtag", "name", "rqty"};
  Batch left_coded = CodedCopy(left_plain);
  Batch right_coded = CodedCopy(right_plain);
  // The right side filtered keeps the left's dictionary: one shared
  // dictionary, compared by code.
  Batch right_shared = FilterBatch(
      ctx_.get(), left_coded, [](const Batch&, size_t r) { return r < 50; });
  right_shared.names = {"rid", "rtag", "name", "rqty"};
  Batch right_shared_plain = testing_util::Expanded(right_shared);
  struct Case {
    const Batch* left;
    const Batch* right;
    const Batch* right_plain;
    const char* what;
  };
  std::vector<Case> cases = {
      {&left_coded, &right_coded, &right_plain, "coded x coded"},
      {&left_coded, &right_plain, &right_plain, "coded x plain"},
      {&left_plain, &right_coded, &right_plain, "plain x coded"},
      {&left_coded, &right_shared, &right_shared_plain, "shared dict"},
  };
  for (QueryContext* ctx : {ctx_.get(), par_ctx_.get()}) {
    for (const Case& c : cases) {
      for (JoinType type :
           {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
        for (const char* key : {"tag", "name"}) {
          std::string rkey = std::string(key) == "tag" ? "rtag" : "name";
          Result<Batch> want = HashJoin(ctx, left_plain, key, *c.right_plain,
                                        rkey, type);
          Result<Batch> got = HashJoin(ctx, *c.left, key, *c.right, rkey,
                                       type);
          ASSERT_TRUE(want.ok() && got.ok()) << c.what;
          if (type != JoinType::kLeftAnti) {
            ASSERT_GT(want->rows(), 0u) << c.what << " " << key;
          }
          SCOPED_TRACE(std::string(c.what) + " on " + key);
          ExpectBatchesIdentical(*want, *got);
        }
      }
    }
  }
}

TEST_F(CodedColumnTest, AppendRangeAcrossDictionariesExpands) {
  Batch a = CodedFixture(40, 7);
  Batch b = CodedFixture(30, 8);
  ColumnVector dst = Coded(a.column("name"));
  ColumnVector src = Coded(b.column("name"));
  // Same dictionary: codes append, the column stays coded.
  ColumnVector same = dst;
  same.AppendRange(dst, 5, 15);
  EXPECT_EQ(same.dict, dst.dict);
  EXPECT_EQ(same.size(), 50u);
  // A different dictionary, or a plain source, expands the destination.
  std::vector<std::string> want = a.column("name").strings;
  want.insert(want.end(), b.column("name").strings.begin() + 3,
              b.column("name").strings.begin() + 20);
  for (const ColumnVector* from :
       {static_cast<const ColumnVector*>(&src), &b.column("name")}) {
    ColumnVector out = dst;
    out.AppendRange(*from, 3, 20);
    EXPECT_EQ(out.dict, nullptr);
    EXPECT_EQ(out.strings, want);
  }
  // A coded source appended to a plain column arrives as strings.
  ColumnVector plain = a.column("name");
  plain.AppendRange(src, 3, 20);
  EXPECT_EQ(plain.strings, want);
}

TEST_F(CodedColumnTest, GatherMatchesPlain) {
  Batch a = CodedFixture(50, 9);
  ColumnVector coded = Coded(a.column("tag"));
  std::vector<size_t> rows = {7, 7, 0, 49, 3, 12};
  ColumnVector out = coded.EmptyLike();
  out.Resize(rows.size() + 2);
  out.Gather(coded, rows, 2);
  EXPECT_EQ(out.dict, coded.dict);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out.StringAt(2 + i), a.Str("tag", rows[i])) << i;
  }
  // Into a plain column: the strings.
  ColumnVector plain = OfType(ColumnType::kString);
  plain.Resize(rows.size());
  plain.Gather(coded, rows, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(plain.strings[i], a.Str("tag", rows[i])) << i;
  }
}

// The all-dictionary `note` column scans coded at every worker count,
// with one scan dictionary of distinct entries; expanded, it is the
// loaded data.
TEST_F(CodedColumnTest, ScanCodesAllDictionaryColumnAtAnyWorkerCount) {
  for (int workers : {1, 2, 4}) {
    QueryContext::Options opts;
    opts.exec_workers = workers;
    opts.morsel_rows = 64;
    QueryContext ctx(txn_mgr_.get(), txn_, &h_.system, opts);
    Result<TableReader> reader = ctx.OpenTable(10);
    ASSERT_TRUE(reader.ok());
    Result<Batch> scan = ScanTable(&ctx, &*reader, {"id", "note"});
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan->rows(), 1000u);
    const ColumnVector& note = scan->column("note");
    ASSERT_NE(note.dict, nullptr) << workers;
    std::set<std::string> entries(note.dict->strings.begin(),
                                  note.dict->strings.end());
    EXPECT_EQ(entries.size(), note.dict->strings.size());
    EXPECT_EQ(entries, (std::set<std::string>{"promo sale", "regular"}));
    for (size_t i = 0; i < note.dict->strings.size(); ++i) {
      EXPECT_EQ(note.dict->hash[i], HashKey(note.dict->strings[i]));
    }
    for (size_t r = 0; r < scan->rows(); ++r) {
      int64_t id = scan->Int("id", r);
      EXPECT_EQ(scan->Str("note", r), id % 7 == 0 ? "promo sale" : "regular")
          << "row " << r << " at " << workers << " workers";
    }
    Result<Batch> serial = ScanTable(ctx_.get(), &*reader, {"id", "note"});
    ASSERT_TRUE(serial.ok());
    ExpectBatchesIdentical(*serial, *scan);
  }
}

// A column whose pages mix raw and dictionary encodings scans plain. An
// all-dictionary column whose pages hold different dictionaries scans
// coded against their merge, at any worker count.
TEST_F(CodedColumnTest, ScanMergesPageDictionariesAndLeavesMixedPlain) {
  TableSchema schema;
  schema.name = "mixed";
  schema.table_id = 12;
  schema.columns = {{"id", ColumnType::kInt64},
                    {"s", ColumnType::kString},
                    {"t", ColumnType::kString}};
  const char* words[] = {"zeta", "alpha", "mid", "beta", "omega", "kappa"};
  std::vector<std::string> want_s;
  std::vector<std::string> want_t;
  {
    Transaction* txn = txn_mgr_->Begin();
    TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
    Batch batch;
    batch.AddColumn("id", OfType(ColumnType::kInt64));
    batch.AddColumn("s", OfType(ColumnType::kString));
    batch.AddColumn("t", OfType(ColumnType::kString));
    for (int64_t i = 0; i < 2000; ++i) {
      // s: distinct strings first (raw pages), then two values
      // (dictionary pages). t: a few words, a different few per page.
      want_s.push_back(i < 300 ? "unique comment number " + std::to_string(i)
                               : (i % 2 == 0 ? "even" : "odd"));
      want_t.push_back(words[(i / 500 + (i % 2) * 3) % 6]);
      batch.columns[0].ints.push_back(i);
      batch.columns[1].strings.push_back(want_s.back());
      batch.columns[2].strings.push_back(want_t.back());
    }
    ASSERT_TRUE(loader.Append(batch.columns).ok());
    ASSERT_TRUE(loader.Finish(&h_.system).ok());
    ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  }
  Transaction* txn = txn_mgr_->Begin();
  QueryContext ctx(txn_mgr_.get(), txn, &h_.system);
  Result<TableReader> reader = ctx.OpenTable(12);
  ASSERT_TRUE(reader.ok());
  // Page encodings as the scan sees them.
  auto page_frames = [&](int column) {
    std::vector<BufferManager::PageData> frames;
    size_t pages =
        reader->meta().partitions[0].columns[column].page_rows.size();
    for (size_t page = 0; page < pages; ++page) {
      Result<BufferManager::PageData> frame =
          reader->FetchPage(0, column, page);
      EXPECT_TRUE(frame.ok());
      if (frame.ok()) frames.push_back(*frame);
    }
    return frames;
  };
  size_t s_dict_pages = 0;
  std::vector<BufferManager::PageData> s_frames = page_frames(1);
  for (const BufferManager::PageData& frame : s_frames) {
    s_dict_pages += IsDictionaryPage(*frame) ? 1 : 0;
  }
  ASSERT_GT(s_dict_pages, 0u);
  ASSERT_LT(s_dict_pages, s_frames.size());
  std::set<std::vector<std::string>> t_page_dicts;
  for (const BufferManager::PageData& frame : page_frames(2)) {
    ASSERT_TRUE(IsDictionaryPage(*frame));
    Result<ColumnVector> page = DecodeColumnPageCoded(*frame);
    ASSERT_TRUE(page.ok());
    t_page_dicts.insert(page->dict->strings);
  }
  ASSERT_GT(t_page_dicts.size(), 1u);

  for (int workers : {0, 1, 2, 4}) {
    QueryContext::Options opts;
    if (workers > 0) {
      opts.exec_workers = workers;
      opts.morsel_rows = 64;
    }
    QueryContext scan_ctx(txn_mgr_.get(), txn, &h_.system, opts);
    Result<Batch> scan = ScanTable(&scan_ctx, &*reader, {"id", "s", "t"});
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->column("s").dict, nullptr) << workers;
    EXPECT_EQ(scan->column("s").strings, want_s) << workers;
    const ColumnVector& t = scan->column("t");
    ASSERT_NE(t.dict, nullptr) << workers;
    EXPECT_EQ(std::set<std::string>(t.dict->strings.begin(),
                                    t.dict->strings.end())
                  .size(),
              t.dict->strings.size());
    EXPECT_EQ(testing_util::Expanded(*scan).column("t").strings, want_t)
        << workers;
  }
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
}

// --- in-place scan decode ------------------------------------------------

// ExecTest plus events(key, tag, note, amount, price): `key` is sorted
// (delta pages), `tag` holds three long strings (dictionary pages, several
// per `key` page), `note` distinct strings (raw pages), `amount` random
// decimals (frame-of-reference pages) and `price` doubles.
class ScanDecodeTest : public ExecTest {
 protected:
  static constexpr uint64_t kEventsTable = 13;
  static constexpr int64_t kRowsPerKey = 50;

  ScanDecodeTest() {
    TableSchema schema;
    schema.name = "events";
    schema.table_id = kEventsTable;
    schema.columns = {{"key", ColumnType::kInt64},
                      {"tag", ColumnType::kString},
                      {"note", ColumnType::kString},
                      {"amount", ColumnType::kDecimal},
                      {"price", ColumnType::kDouble}};
    const char* tags[] = {"tag red, padded to a long dictionary entry",
                          "tag green, padded to a long dictionary entry",
                          "tag blue, padded to a long dictionary entry"};
    Rng rng(77);
    Batch batch;
    for (const ColumnDef& c : schema.columns) {
      batch.AddColumn(c.name, OfType(c.type));
    }
    for (int64_t i = 0; i < 4000; ++i) {
      batch.columns[0].ints.push_back(i / kRowsPerKey);
      batch.columns[1].strings.push_back(tags[i % 3]);
      batch.columns[2].strings.push_back("note " + std::to_string(i * 7919));
      batch.columns[3].ints.push_back(
          static_cast<int64_t>(rng.Uniform(100000)));
      batch.columns[4].doubles.push_back(rng.NextDouble());
    }
    events_ = testing_util::Expanded(batch);
    Transaction* txn = txn_mgr_->Begin();
    TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
    EXPECT_TRUE(loader.Append(batch.columns).ok());
    EXPECT_TRUE(loader.Finish(&h_.system).ok());
    EXPECT_TRUE(txn_mgr_->Commit(txn).ok());
  }

  // The rows of `events_` with lo <= key <= hi, projected to `columns`.
  Batch Expected(const std::vector<std::string>& columns, int64_t lo,
                 int64_t hi) const {
    Batch out;
    for (const std::string& name : columns) {
      out.AddColumn(name, events_.column(name).EmptyLike());
    }
    for (size_t r = 0; r < events_.rows(); ++r) {
      int64_t key = events_.Int("key", r);
      if (key < lo || key > hi) continue;
      for (size_t c = 0; c < columns.size(); ++c) {
        out.columns[c].AppendRange(events_.column(columns[c]), r, r + 1);
      }
    }
    return out;
  }

  Batch events_;  // every row, in load order
};

// Coded, plain and range scans give the same batch at 1 and at 8 workers
// (the same values, the same coded columns and scan dictionaries), and
// both match the loaded rows.
TEST_F(ScanDecodeTest, OneAndEightWorkersReturnIdenticalBatches) {
  struct Case {
    std::vector<std::string> columns;
    std::optional<ScanRange> range;
  };
  const std::vector<Case> cases = {
      {{"key", "tag", "note", "amount", "price"}, std::nullopt},
      {{"tag", "note", "price"}, ScanRange{"key", 3, 40}},
      {{"key", "amount", "tag"}, ScanRange{"key", 5, 7}},
      {{"note", "amount"}, ScanRange{"key", 79, 1000}},
  };
  Transaction* txn = txn_mgr_->Begin();
  for (const Case& c : cases) {
    std::vector<Batch> scans;
    for (int workers : {1, 8}) {
      QueryContext::Options opts;
      opts.exec_workers = workers;
      opts.morsel_rows = 64;
      QueryContext ctx(txn_mgr_.get(), txn, &h_.system, opts);
      Result<TableReader> reader = ctx.OpenTable(kEventsTable);
      ASSERT_TRUE(reader.ok());
      Result<Batch> scan = ScanTable(&ctx, &*reader, c.columns, c.range);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      scans.push_back(std::move(scan).value());
    }
    SCOPED_TRACE(c.columns.front() + (c.range ? " with a range" : ""));
    ExpectBatchesIdentical(scans[0], scans[1]);
    for (size_t i = 0; i < c.columns.size(); ++i) {
      const ColumnVector& one = scans[0].columns[i];
      const ColumnVector& eight = scans[1].columns[i];
      EXPECT_EQ(one.codes, eight.codes) << c.columns[i];
      EXPECT_EQ(one.dict == nullptr, eight.dict == nullptr) << c.columns[i];
      if (one.dict != nullptr && eight.dict != nullptr) {
        EXPECT_EQ(one.dict->strings, eight.dict->strings) << c.columns[i];
      }
      EXPECT_EQ(one.dict != nullptr, c.columns[i] == "tag") << c.columns[i];
    }
    Batch want = c.range ? Expected(c.columns, c.range->lo, c.range->hi)
                         : Expected(c.columns, INT64_MIN, INT64_MAX);
    ExpectBatchesIdentical(scans[0], want);
  }
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
}

// A page whose rows the range filter drops entirely is still fetched, so
// it is still checked whole: a corrupt dictionary code in it fails the
// scan, although no value of the page would reach the result.
TEST_F(ScanDecodeTest, RangeScanRefusesCorruptPageItsFilterEmpties) {
  const ScanRange range{"key", 2, 2};  // rows [100, 150)
  Transaction* reader_txn = txn_mgr_->Begin();
  QueryContext reader_ctx(txn_mgr_.get(), reader_txn, &h_.system);
  Result<TableReader> reader = reader_ctx.OpenTable(kEventsTable);
  ASSERT_TRUE(reader.ok());
  const SegmentMeta& key_seg = reader->meta().partitions[0].columns[0];
  const SegmentMeta& tag_seg = reader->meta().partitions[0].columns[1];
  ASSERT_GT(key_seg.page_rows[0], 150u);
  // A `tag` page inside the first `key` page (all candidate rows) that
  // holds none of the surviving rows.
  size_t victim = tag_seg.page_rows.size();
  for (size_t page = 0, first = 0; page < tag_seg.page_rows.size();
       first += tag_seg.page_rows[page++]) {
    size_t last = first + tag_seg.page_rows[page];
    if (last <= key_seg.page_rows[0] && (last <= 100 || first >= 150)) {
      victim = page;
      break;
    }
  }
  ASSERT_LT(victim, tag_seg.page_rows.size());
  Result<Batch> before = ScanTable(&reader_ctx, &*reader, {"tag"}, range);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows(), 50u);

  // Its last code now reads 3, past the three-entry dictionary.
  Result<BufferManager::PageData> frame =
      reader->FetchPage(0, 1, victim);
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> bytes = **frame;
  ASSERT_TRUE(IsDictionaryPage(bytes));
  bytes.back() = 0xff;
  ASSERT_TRUE(DecodeColumnPageCoded(bytes).status().IsCorruption());
  Transaction* writer = txn_mgr_->Begin();
  Result<StorageObject*> object =
      txn_mgr_->OpenForWrite(writer, tag_seg.object_id);
  ASSERT_TRUE(object.ok());
  ASSERT_TRUE((*object)->WritePage(victim, bytes).ok());
  ASSERT_TRUE(txn_mgr_->Commit(writer).ok());
  ASSERT_TRUE(txn_mgr_->Commit(reader_txn).ok());

  for (int workers : {1, 8}) {
    Transaction* txn = txn_mgr_->Begin();
    QueryContext::Options opts;
    opts.exec_workers = workers;
    QueryContext ctx(txn_mgr_.get(), txn, &h_.system, opts);
    Result<TableReader> after = ctx.OpenTable(kEventsTable);
    ASSERT_TRUE(after.ok());
    Result<Batch> scan = ScanTable(&ctx, &*after, {"tag"}, range);
    EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
    ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  }
}


// --- batched read-ahead ------------------------------------------------------

// A four-partition table read after a crash, so its pages come from the
// object store. The store has no visibility lag, so every page read is one
// GET; each test reads the blockmaps first, so the timed scan's GETs are
// data pages only.
struct ColdTable {
  static constexpr uint64_t kTable = 20;
  static constexpr int64_t kRows = 2000;

  static ObjectStoreOptions NoLag() {
    ObjectStoreOptions options;
    options.lag_probability = 0;
    return options;
  }

  ColdTable() : h_(4096, NoLag()) {}

  ~ColdTable() {
    if (txn_ != nullptr) (void)txn_mgr_->Commit(txn_);
  }

  // Loads the table under a buffer of `buffer_bytes`, then drops every
  // cached page and opens a reader in a fresh transaction.
  void LoadThenCrash(uint64_t buffer_bytes) {
    TransactionManager::Options opts;
    opts.blockmap_fanout = 16;
    opts.buffer_capacity_bytes = buffer_bytes;
    txn_mgr_ = std::make_unique<TransactionManager>(h_.storage.get(),
                                                    &h_.system, opts);
    txn_mgr_->set_commit_listener(
        [this](NodeId node, const IntervalSet& keys) {
          h_.keygen.OnTransactionCommitted(node, keys);
        });
    TableSchema schema;
    schema.name = "items";
    schema.table_id = kTable;
    schema.columns = {{"id", ColumnType::kInt64},
                      {"qty", ColumnType::kInt64},
                      {"note", ColumnType::kString}};
    schema.partition_column = 0;
    schema.partition_bounds = {kRows / 4, kRows / 2, 3 * kRows / 4};
    for (const ColumnDef& c : schema.columns) {
      rows_.AddColumn(c.name, OfType(c.type));
    }
    for (int64_t i = 0; i < kRows; ++i) {
      rows_.columns[0].ints.push_back(i);
      rows_.columns[1].ints.push_back(i * 37 % 1000);
      rows_.columns[2].strings.push_back("item " + std::to_string(i));
    }
    Transaction* txn = txn_mgr_->Begin();
    TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
    ASSERT_TRUE(loader.Append(rows_.columns).ok());
    ASSERT_TRUE(loader.Finish(&h_.system).ok());
    ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

    txn_mgr_->SimulateCrash();
    ASSERT_TRUE(txn_mgr_->RecoverAfterCrash().ok());
    txn_ = txn_mgr_->Begin();
    ctx_ = std::make_unique<QueryContext>(txn_mgr_.get(), txn_, &h_.system);
    Result<TableReader> reader = ctx_->OpenTable(kTable);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    reader_ = std::make_unique<TableReader>(std::move(reader).value());
  }

  // Reads the blockmaps of `partitions` (every column) and returns how
  // many data pages they hold.
  uint64_t WarmBlockmaps(const std::vector<size_t>& partitions) {
    uint64_t pages = 0;
    for (size_t p : partitions) {
      const PartitionMeta& pm = reader_->meta().partitions[p];
      for (size_t c = 0; c < pm.columns.size(); ++c) {
        std::vector<uint64_t> all(pm.columns[c].page_rows.size());
        for (size_t i = 0; i < all.size(); ++i) all[i] = i;
        reader_->ProbeResidency(p, static_cast<int>(c), all);
        pages += all.size();
      }
    }
    return pages;
  }

  // One GET of a full page at the store's base latency.
  double GetLatency() {
    const ObjectStoreOptions& store = h_.env.object_store().options();
    return store.get_base_latency + 4096.0 / store.stream_bandwidth;
  }

  uint64_t Gets() { return h_.env.object_store().stats().gets; }

  SingleNodeHarness h_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  Transaction* txn_ = nullptr;
  std::unique_ptr<QueryContext> ctx_;
  std::unique_ptr<TableReader> reader_;
  Batch rows_;  // every row, in load order
};

// The GETs of every partition and column overlap: the scan takes about
// one GET latency per I/O-width of pages, not one per partition.
TEST(ColdScanTest, ScanTableOverlapsGetsAcrossPartitions) {
  ColdTable t;
  t.LoadThenCrash(8 << 20);
  ASSERT_EQ(t.reader_->meta().partitions.size(), 4u);
  const uint64_t pages = t.WarmBlockmaps({0, 1, 2, 3});
  const int width = t.ctx_->node()->IoWidth();
  const uint64_t gets = t.Gets();
  const double start = t.ctx_->node()->clock().now();
  Result<Batch> batch =
      ScanTable(t.ctx_.get(), t.reader_.get(), {"id", "qty", "note"});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const double elapsed = t.ctx_->node()->clock().now() - start;
  EXPECT_EQ(t.Gets() - gets, pages);
  const uint64_t rounds = (pages + width - 1) / width;
  EXPECT_LE(elapsed, static_cast<double>(rounds + 1) * t.GetLatency())
      << pages << " pages at I/O width " << width;
  ExpectBatchesBitwise(t.rows_, *batch);
}

// A row-id scan reads the pages of all its columns in one round.
TEST(ColdScanTest, ScanRowIdsReadsEveryColumnInOneRound) {
  ColdTable t;
  t.LoadThenCrash(8 << 20);
  const uint64_t pages = t.WarmBlockmaps({1});
  ASSERT_GE(pages, 3u);
  ASSERT_LE(pages, static_cast<uint64_t>(t.ctx_->node()->IoWidth()));
  IntervalSet rows;
  rows.InsertRange(0, t.reader_->meta().partitions[1].row_count);
  const uint64_t gets = t.Gets();
  const double start = t.ctx_->node()->clock().now();
  Result<Batch> batch = ScanRowIds(t.ctx_.get(), t.reader_.get(), 1,
                                   {"id", "qty", "note"}, rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const double elapsed = t.ctx_->node()->clock().now() - start;
  EXPECT_EQ(t.Gets() - gets, pages);
  EXPECT_LE(elapsed, 2 * t.GetLatency());
  EXPECT_EQ(batch->rows(), rows.Count());
  EXPECT_EQ(batch->Int("id", 0), ColdTable::kRows / 4);
}

// A scan larger than the buffer reads ahead in rounds that fit it: every
// page still comes from storage exactly once, and the rows are the same as
// a warm scan's.
TEST(ColdScanTest, ScanLargerThanTheBufferReadsEachPageOnce) {
  constexpr uint64_t kBuffer = 8 << 10;
  ColdTable t;
  t.LoadThenCrash(kBuffer);
  const uint64_t pages = t.WarmBlockmaps({0, 1, 2, 3});
  uint64_t scan_bytes = 0;
  for (const PartitionMeta& pm : t.reader_->meta().partitions) {
    for (const SegmentMeta& seg : pm.columns) {
      for (uint32_t b : seg.page_bytes) scan_bytes += b;
    }
  }
  ASSERT_GT(scan_bytes, 2 * kBuffer);
  const uint64_t gets = t.Gets();
  const uint64_t misses = t.txn_mgr_->buffer().stats().misses;
  Result<Batch> cold =
      ScanTable(t.ctx_.get(), t.reader_.get(), {"id", "qty", "note"});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(t.Gets() - gets, pages);
  EXPECT_EQ(t.txn_mgr_->buffer().stats().misses - misses, 0u);
  ExpectBatchesBitwise(t.rows_, *cold);

  // The same scan under a buffer that holds the whole table, read twice.
  ColdTable big;
  big.LoadThenCrash(8 << 20);
  ASSERT_TRUE(
      ScanTable(big.ctx_.get(), big.reader_.get(), {"id", "qty", "note"})
          .ok());
  Result<Batch> warm =
      ScanTable(big.ctx_.get(), big.reader_.get(), {"id", "qty", "note"});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectBatchesBitwise(*warm, *cold);
}

}  // namespace
}  // namespace cloudiq

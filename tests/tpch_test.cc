#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "engine/database.h"
#include "tpch/queries.h"
#include "tpch/queries_internal.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_loader.h"

namespace cloudiq {
namespace {

constexpr double kTestScale = 0.005;  // ~7.5k orders, 30k lineitems

Database::Options TestDbOptions() {
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  options.page_size = 64 * 1024;
  return options;
}

// Shared fixture: load once for the whole suite (expensive).
class TpchTest : public ::testing::Test {
 protected:
  // The loaded database is shared across every suite derived from this
  // fixture (loading is the expensive part); it is deliberately released
  // only at process exit.
  static void SetUpTestSuite() {
    if (db_ != nullptr) return;
    env_ = new SimEnvironment();
    db_ = new Database(env_, InstanceProfile::M5ad4xlarge(),
                       TestDbOptions());
    gen_ = new TpchGenerator(kTestScale);
    TpchLoadOptions load;
    load.partitions = 4;
    Result<TpchLoadResult> result = LoadTpch(db_, gen_, load);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    load_result_ = *result;
  }

  Result<Batch> Run(int q) {
    Transaction* txn = db_->Begin();
    QueryContext ctx(&db_->txn_mgr(), txn, db_->system());
    Result<Batch> result = RunTpchQuery(&ctx, q);
    EXPECT_TRUE(db_->Commit(txn).ok());
    return result;
  }

  static SimEnvironment* env_;
  static Database* db_;
  static TpchGenerator* gen_;
  static TpchLoadResult load_result_;
};

SimEnvironment* TpchTest::env_ = nullptr;
Database* TpchTest::db_ = nullptr;
TpchGenerator* TpchTest::gen_ = nullptr;
TpchLoadResult TpchTest::load_result_;

TEST(TpchGeneratorTest, DeterministicAcrossBatchBoundaries) {
  TpchGenerator a(0.01), b(0.01);
  Batch whole = a.GenerateBatch(kLineitem, 0, 100);
  Batch part1 = b.GenerateBatch(kLineitem, 0, 37);
  Batch part2 = b.GenerateBatch(kLineitem, 37, 63);
  for (size_t c = 0; c < whole.columns.size(); ++c) {
    if (whole.columns[c].type == ColumnType::kString) {
      for (size_t r = 0; r < 37; ++r) {
        EXPECT_EQ(whole.columns[c].strings[r], part1.columns[c].strings[r]);
      }
      for (size_t r = 37; r < 100; ++r) {
        EXPECT_EQ(whole.columns[c].strings[r],
                  part2.columns[c].strings[r - 37]);
      }
    } else if (whole.columns[c].type != ColumnType::kDouble) {
      for (size_t r = 0; r < 37; ++r) {
        EXPECT_EQ(whole.columns[c].ints[r], part1.columns[c].ints[r]);
      }
    }
  }
}

TEST(TpchGeneratorTest, DomainsRespectSpec) {
  TpchGenerator gen(0.01);
  Batch items = gen.GenerateBatch(kLineitem, 0, 5000);
  for (size_t r = 0; r < items.rows(); ++r) {
    EXPECT_GE(items.Int("l_quantity", r), 1);
    EXPECT_LE(items.Int("l_quantity", r), 50);
    EXPECT_GE(items.Int("l_discount", r), 0);
    EXPECT_LE(items.Int("l_discount", r), 10);
    EXPECT_GE(items.Int("l_tax", r), 0);
    EXPECT_LE(items.Int("l_tax", r), 8);
    EXPECT_GT(items.Int("l_shipdate", r), TpchGenerator::MinOrderDate());
    EXPECT_GT(items.Int("l_receiptdate", r), items.Int("l_shipdate", r));
    EXPECT_GE(items.Int("l_suppkey", r), 1);
    EXPECT_LE(items.Int("l_suppkey", r),
              static_cast<int64_t>(gen.RowCount(kSupplier)));
    const std::string& rf = items.Str("l_returnflag", r);
    EXPECT_TRUE(rf == "R" || rf == "A" || rf == "N");
  }
  Batch orders = gen.GenerateBatch(kOrders, 0, 2000);
  for (size_t r = 0; r < orders.rows(); ++r) {
    EXPECT_NE(orders.Int("o_custkey", r) % 3, 0)
        << "a third of customers place no orders";
    EXPECT_GT(orders.Int("o_totalprice", r), 0);
  }
}

TEST(TpchGeneratorTest, RowCountsScale) {
  TpchGenerator gen(0.01);
  EXPECT_EQ(gen.RowCount(kRegion), 5u);
  EXPECT_EQ(gen.RowCount(kNation), 25u);
  EXPECT_EQ(gen.RowCount(kOrders), 15000u);
  // Variable 1-7 lineitems per order, averaging 4: the total lands near
  // 4x orders.
  EXPECT_NEAR(static_cast<double>(gen.RowCount(kLineitem)),
              4.0 * gen.RowCount(kOrders),
              0.05 * 4.0 * gen.RowCount(kOrders));
  EXPECT_EQ(gen.RowCount(kPartSupp), 4 * gen.RowCount(kPart));
}

TEST(TpchGeneratorTest, VariableLineitemsMapBackToOrders) {
  TpchGenerator gen(0.005);
  // Walk the whole lineitem table; per-order line counts must match
  // LinesPerOrder and linenumbers must be 1..count in sequence.
  Batch items = gen.GenerateBatch(kLineitem, 0, gen.RowCount(kLineitem));
  std::map<int64_t, int64_t> counts;
  int64_t prev_order = 0;
  int64_t prev_line = 0;
  for (size_t r = 0; r < items.rows(); ++r) {
    int64_t order = items.Int("l_orderkey", r);
    int64_t line = items.Int("l_linenumber", r);
    ++counts[order];
    if (order == prev_order) {
      EXPECT_EQ(line, prev_line + 1);
    } else {
      EXPECT_EQ(line, 1);
      EXPECT_EQ(order, prev_order + 1);  // dense, ascending
    }
    prev_order = order;
    prev_line = line;
  }
  std::set<int64_t> distinct_counts;
  for (const auto& [order, n] : counts) {
    EXPECT_EQ(n, TpchGenerator::LinesPerOrder(order)) << order;
    distinct_counts.insert(n);
  }
  EXPECT_GT(distinct_counts.size(), 3u);  // genuinely variable
}

TEST_F(TpchTest, LoadedAllTables) {
  EXPECT_EQ(load_result_.rows,
            gen_->RowCount(kRegion) + gen_->RowCount(kNation) +
                gen_->RowCount(kSupplier) + gen_->RowCount(kCustomer) +
                gen_->RowCount(kPart) + gen_->RowCount(kPartSupp) +
                gen_->RowCount(kOrders) + gen_->RowCount(kLineitem));
  EXPECT_GT(load_result_.seconds, 0.0);
  EXPECT_GT(load_result_.bytes_at_rest, 0u);
  // Columnar encodings beat the raw text size.
  EXPECT_LT(load_result_.bytes_at_rest, load_result_.input_bytes);
}

TEST_F(TpchTest, Q1MatchesDirectComputation) {
  Result<Batch> result = Run(1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Compute expected aggregates straight from the generator.
  int64_t cutoff = DaysFromCivil(1998, 12, 1) - 90;
  double expected_sum_qty = 0;
  uint64_t expected_count = 0;
  Batch all = gen_->GenerateBatch(kLineitem, 0, gen_->RowCount(kLineitem));
  for (size_t r = 0; r < all.rows(); ++r) {
    if (all.Int("l_shipdate", r) <= cutoff) {
      expected_sum_qty += all.Int("l_quantity", r);
      ++expected_count;
    }
  }
  double got_qty = 0;
  int64_t got_count = 0;
  for (size_t r = 0; r < result->rows(); ++r) {
    got_qty += result->Int("sum_qty", r);
    got_count += result->Int("count_order", r);
  }
  EXPECT_EQ(got_count, static_cast<int64_t>(expected_count));
  EXPECT_NEAR(got_qty, expected_sum_qty, 1e-6);
  // At most 4 (returnflag, linestatus) combinations survive.
  EXPECT_LE(result->rows(), 4u);
  EXPECT_GE(result->rows(), 3u);
}

TEST_F(TpchTest, Q6MatchesDirectComputation) {
  Result<Batch> result = Run(6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows(), 1u);
  int64_t lo = DaysFromCivil(1994, 1, 1);
  int64_t hi = DaysFromCivil(1995, 1, 1) - 1;
  double expected = 0;
  Batch all = gen_->GenerateBatch(kLineitem, 0, gen_->RowCount(kLineitem));
  for (size_t r = 0; r < all.rows(); ++r) {
    int64_t ship = all.Int("l_shipdate", r);
    int64_t disc = all.Int("l_discount", r);
    if (ship >= lo && ship <= hi && disc >= 5 && disc <= 7 &&
        all.Int("l_quantity", r) < 24) {
      expected +=
          DecimalToDouble(all.Int("l_extendedprice", r)) * (disc / 100.0);
    }
  }
  EXPECT_NEAR(result->Double("revenue", 0), expected,
              std::abs(expected) * 1e-9 + 1e-9);
}

TEST_F(TpchTest, Q3TopTenOrderedByRevenue) {
  Result<Batch> result = Run(3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->rows(), 0u);
  ASSERT_LE(result->rows(), 10u);
  for (size_t r = 1; r < result->rows(); ++r) {
    EXPECT_GE(result->Double("revenue", r - 1),
              result->Double("revenue", r));
  }
}

TEST_F(TpchTest, Q4CountsEachPriority) {
  Result<Batch> result = Run(4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows(), 5u);  // five priorities, sorted
  EXPECT_EQ(result->Str("o_orderpriority", 0), "1-URGENT");
  for (size_t r = 0; r < result->rows(); ++r) {
    EXPECT_GT(result->Int("order_count", r), 0);
  }
}

TEST_F(TpchTest, Q14MatchesDirectComputation) {
  // Q14 resolves its month predicate through the DATE index; verify the
  // promo fraction against a direct pass over the generated data.
  Result<Batch> result = Run(14);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows(), 1u);

  Batch items = gen_->GenerateBatch(kLineitem, 0, gen_->RowCount(kLineitem));
  Batch parts = gen_->GenerateBatch(kPart, 0, gen_->RowCount(kPart));
  std::vector<bool> is_promo(gen_->RowCount(kPart) + 1, false);
  for (size_t r = 0; r < parts.rows(); ++r) {
    is_promo[parts.Int("p_partkey", r)] =
        parts.Str("p_type", r).rfind("PROMO", 0) == 0;
  }
  double promo = 0, total = 0;
  for (size_t r = 0; r < items.rows(); ++r) {
    int y, m, d;
    CivilFromDays(items.Int("l_shipdate", r), &y, &m, &d);
    if (y != 1995 || m != 9) continue;
    double revenue = DecimalToDouble(items.Int("l_extendedprice", r)) *
                     (1.0 - items.Int("l_discount", r) / 100.0);
    total += revenue;
    if (is_promo[items.Int("l_partkey", r)]) promo += revenue;
  }
  double expected_pct = total > 0 ? 100.0 * promo / total : 0.0;
  EXPECT_NEAR(result->Double("promo_pct", 0), expected_pct, 1e-6);
  EXPECT_NEAR(result->Double("total", 0), total, std::abs(total) * 1e-9);
}

// The DATE-index month scan fetches each partition's rows by id
// (ScanRowIds) and appends the partitions' batches, whose string columns
// may each come back coded with their own dictionary or plain. The
// month's rows span every lineitem partition; the scan returns exactly
// the generator's rows and strings for it.
TEST_F(TpchTest, ScanByMonthReadsEveryPartitionsRows) {
  Transaction* txn = db_->Begin();
  QueryContext ctx(&db_->txn_mgr(), txn, db_->system());
  Result<TableReader> lineitem = ctx.OpenTable(kLineitem);
  ASSERT_TRUE(lineitem.ok()) << lineitem.status().ToString();
  const int shipdate = lineitem->schema().ColumnIndex("l_shipdate");
  size_t partitions_hit = 0;
  for (size_t p = 0; p < lineitem->meta().partitions.size(); ++p) {
    Result<IntervalSet> rows = lineitem->DateIndexMonth(p, shipdate, 1995, 9);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows->empty()) ++partitions_hit;
  }
  EXPECT_GT(partitions_hit, 1u);

  Result<Batch> got = tpch_internal::ScanByMonth(
      &ctx, &*lineitem, shipdate, 1995, 9,
      {"l_orderkey", "l_linenumber", "l_shipmode", "l_comment"});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Batch items = gen_->GenerateBatch(kLineitem, 0, gen_->RowCount(kLineitem));
  std::map<std::pair<int64_t, int64_t>, std::pair<std::string, std::string>>
      want;
  for (size_t r = 0; r < items.rows(); ++r) {
    int y, m, d;
    CivilFromDays(items.Int("l_shipdate", r), &y, &m, &d);
    if (y != 1995 || m != 9) continue;
    want[{items.Int("l_orderkey", r), items.Int("l_linenumber", r)}] = {
        items.Str("l_shipmode", r), items.Str("l_comment", r)};
  }
  ASSERT_GT(want.size(), 0u);
  ASSERT_EQ(got->rows(), want.size());
  const ColumnVector& shipmode = got->column("l_shipmode");
  const ColumnVector& comment = got->column("l_comment");
  for (size_t r = 0; r < got->rows(); ++r) {
    auto it = want.find({got->column("l_orderkey").ints[r],
                         got->column("l_linenumber").ints[r]});
    ASSERT_NE(it, want.end()) << r;
    EXPECT_EQ(shipmode.StringAt(r), it->second.first) << r;
    EXPECT_EQ(comment.StringAt(r), it->second.second) << r;
    want.erase(it);  // each row once
  }
  EXPECT_TRUE(db_->Commit(txn).ok());
}

TEST_F(TpchTest, Q4MatchesDirectComputation) {
  Result<Batch> result = Run(4);
  ASSERT_TRUE(result.ok());
  // Direct computation: orders in 1993Q3 with >= 1 late line, by priority.
  Batch orders = gen_->GenerateBatch(kOrders, 0, gen_->RowCount(kOrders));
  Batch items = gen_->GenerateBatch(kLineitem, 0, gen_->RowCount(kLineitem));
  std::set<int64_t> late_orders;
  for (size_t r = 0; r < items.rows(); ++r) {
    if (items.Int("l_commitdate", r) < items.Int("l_receiptdate", r)) {
      late_orders.insert(items.Int("l_orderkey", r));
    }
  }
  std::map<std::string, int64_t> expected;
  int64_t lo = DaysFromCivil(1993, 7, 1);
  int64_t hi = DaysFromCivil(1993, 10, 1) - 1;
  for (size_t r = 0; r < orders.rows(); ++r) {
    int64_t d = orders.Int("o_orderdate", r);
    if (d < lo || d > hi) continue;
    if (late_orders.count(orders.Int("o_orderkey", r)) == 0) continue;
    ++expected[orders.Str("o_orderpriority", r)];
  }
  ASSERT_EQ(result->rows(), expected.size());
  for (size_t r = 0; r < result->rows(); ++r) {
    EXPECT_EQ(result->Int("order_count", r),
              expected[result->Str("o_orderpriority", r)])
        << result->Str("o_orderpriority", r);
  }
}

TEST_F(TpchTest, Q12MatchesDirectComputation) {
  Result<Batch> result = Run(12);
  ASSERT_TRUE(result.ok());
  Batch orders = gen_->GenerateBatch(kOrders, 0, gen_->RowCount(kOrders));
  std::vector<bool> high(gen_->RowCount(kOrders) + 1, false);
  for (size_t r = 0; r < orders.rows(); ++r) {
    const std::string& p = orders.Str("o_orderpriority", r);
    high[orders.Int("o_orderkey", r)] = p == "1-URGENT" || p == "2-HIGH";
  }
  Batch items = gen_->GenerateBatch(kLineitem, 0, gen_->RowCount(kLineitem));
  std::map<std::string, std::pair<int64_t, int64_t>> expected;
  int64_t lo = DaysFromCivil(1994, 1, 1);
  int64_t hi = DaysFromCivil(1995, 1, 1) - 1;
  for (size_t r = 0; r < items.rows(); ++r) {
    const std::string& mode = items.Str("l_shipmode", r);
    if (mode != "MAIL" && mode != "SHIP") continue;
    int64_t receipt = items.Int("l_receiptdate", r);
    if (receipt < lo || receipt > hi) continue;
    if (!(items.Int("l_commitdate", r) < receipt &&
          items.Int("l_shipdate", r) < items.Int("l_commitdate", r))) {
      continue;
    }
    auto& counts = expected[mode];
    if (high[items.Int("l_orderkey", r)]) {
      ++counts.first;
    } else {
      ++counts.second;
    }
  }
  ASSERT_EQ(result->rows(), expected.size());
  for (size_t r = 0; r < result->rows(); ++r) {
    const auto& counts = expected[result->Str("l_shipmode", r)];
    EXPECT_EQ(result->Int("high_line_count", r), counts.first);
    EXPECT_EQ(result->Int("low_line_count", r), counts.second);
  }
}

TEST_F(TpchTest, Q13IncludesZeroOrderCustomers) {
  Result<Batch> result = Run(13);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The histogram must contain a c_count = 0 bucket (a third of
  // customers place no orders).
  bool has_zero = false;
  int64_t zero_bucket = 0;
  for (size_t r = 0; r < result->rows(); ++r) {
    if (result->Int("c_count", r) == 0) {
      has_zero = true;
      zero_bucket = result->Int("custdist", r);
    }
  }
  EXPECT_TRUE(has_zero);
  EXPECT_NEAR(static_cast<double>(zero_bucket),
              gen_->RowCount(kCustomer) / 3.0,
              gen_->RowCount(kCustomer) * 0.1);
}

TEST_F(TpchTest, Q15FindsTheMaxRevenueSupplier) {
  Result<Batch> result = Run(15);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->rows(), 1u);
  EXPECT_GE(result->Col("s_name"), 0);
  EXPECT_GT(result->Double("total_revenue", 0), 0.0);

  // Reference: compute the per-supplier 1996Q1 revenue directly and
  // verify the engine surfaced exactly the arg-max supplier(s).
  Batch items = gen_->GenerateBatch(kLineitem, 0, gen_->RowCount(kLineitem));
  std::map<int64_t, double> revenue;
  int64_t lo = DaysFromCivil(1996, 1, 1);
  int64_t hi = DaysFromCivil(1996, 4, 1) - 1;
  for (size_t r = 0; r < items.rows(); ++r) {
    int64_t ship = items.Int("l_shipdate", r);
    if (ship < lo || ship > hi) continue;
    revenue[items.Int("l_suppkey", r)] +=
        DecimalToDouble(items.Int("l_extendedprice", r)) *
        (1.0 - items.Int("l_discount", r) / 100.0);
  }
  double max_revenue = 0;
  for (const auto& [supp, rev] : revenue) {
    max_revenue = std::max(max_revenue, rev);
  }
  for (size_t r = 0; r < result->rows(); ++r) {
    EXPECT_NEAR(result->Double("total_revenue", r), max_revenue,
                max_revenue * 1e-9);
    EXPECT_NEAR(revenue[result->Int("l_suppkey", r)], max_revenue,
                max_revenue * 1e-9);
  }
}

TEST_F(TpchTest, Q17MatchesDirectComputation) {
  Result<Batch> result = Run(17);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows(), 1u);

  Batch parts = gen_->GenerateBatch(kPart, 0, gen_->RowCount(kPart));
  std::set<int64_t> target_parts;
  for (size_t r = 0; r < parts.rows(); ++r) {
    if (parts.Str("p_brand", r) == "Brand#23" &&
        parts.Str("p_container", r) == "MED BOX") {
      target_parts.insert(parts.Int("p_partkey", r));
    }
  }
  Batch items = gen_->GenerateBatch(kLineitem, 0, gen_->RowCount(kLineitem));
  std::map<int64_t, std::pair<double, int64_t>> qty;  // sum, count
  for (size_t r = 0; r < items.rows(); ++r) {
    int64_t part = items.Int("l_partkey", r);
    if (target_parts.count(part) == 0) continue;
    qty[part].first += items.Int("l_quantity", r);
    qty[part].second += 1;
  }
  double expected = 0;
  for (size_t r = 0; r < items.rows(); ++r) {
    int64_t part = items.Int("l_partkey", r);
    auto it = qty.find(part);
    if (it == qty.end()) continue;
    double avg = it->second.first / it->second.second;
    if (items.Int("l_quantity", r) < 0.2 * avg) {
      expected += DecimalToDouble(items.Int("l_extendedprice", r));
    }
  }
  EXPECT_NEAR(result->Double("avg_yearly", 0), expected / 7.0,
              std::abs(expected) * 1e-9 + 1e-9);
}

TEST_F(TpchTest, Q18RespectsThresholdAndOrder) {
  Result<Batch> result = Run(18);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->rows(), 0u);
  for (size_t r = 1; r < result->rows(); ++r) {
    EXPECT_GE(result->Int("o_totalprice", r - 1),
              result->Int("o_totalprice", r));
  }
}

TEST_F(TpchTest, Q22AntiJoinProducesCountryGroups) {
  Result<Batch> result = Run(22);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->rows(), 0u);
  for (size_t r = 0; r < result->rows(); ++r) {
    EXPECT_GT(result->Int("numcust", r), 0);
    EXPECT_GT(result->Double("totacctbal", r), 0.0);
  }
}

// --- golden answers --------------------------------------------------------

// Order-sensitive digest of a query result, column by column: name, type
// byte, then every value (ints and doubles by bytes, strings as length
// then bytes), folded with 64-bit FNV-1a.
uint64_t DigestBatch(const Batch& b) {
  uint64_t h = 1469598103934665603ull;
  auto fold = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (size_t c = 0; c < b.columns.size(); ++c) {
    fold(b.names[c].data(), b.names[c].size());
    const ColumnVector& col = b.columns[c];
    uint8_t type = static_cast<uint8_t>(col.type);
    fold(&type, 1);
    for (int64_t v : col.ints) fold(&v, sizeof(v));
    for (double v : col.doubles) fold(&v, sizeof(v));
    for (const std::string& s : col.strings) {
      uint64_t len = s.size();
      fold(&len, sizeof(len));
      fold(s.data(), s.size());
    }
  }
  return h;
}

// Every query's answer at SF 0.002 with the generator's seed fixed, as
// digests. Any change to what a query returns (a value, a row's order, a
// column's type or the plain strings a result carries) changes its digest.
class TpchGoldenTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.002;
  static constexpr uint64_t kSeed = 20210620;

  static void SetUpTestSuite() {
    env_ = new SimEnvironment();
    db_ = new Database(env_, InstanceProfile::M5ad4xlarge(),
                       TestDbOptions());
    TpchGenerator gen(kScale, kSeed);
    TpchLoadOptions load;
    load.partitions = 4;
    Result<TpchLoadResult> result = LoadTpch(db_, &gen, load);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  static void TearDownTestSuite() {
    delete db_;
    delete env_;
    db_ = nullptr;
    env_ = nullptr;
  }

  static SimEnvironment* env_;
  static Database* db_;
};

SimEnvironment* TpchGoldenTest::env_ = nullptr;
Database* TpchGoldenTest::db_ = nullptr;

TEST_F(TpchGoldenTest, AllQueriesMatchPinnedDigests) {
  const uint64_t kGolden[kTpchQueryCount] = {
      0xc79fd4d1b64ced66ull, 0x767fd8ee242242c2ull, 0x0b9ca412bb6f7998ull,
      0x91b99f331ec23a48ull, 0xf6911fcfd117a028ull, 0x574f08ff0d4cca47ull,
      0x2a15994a5cabd33eull, 0xb46db4c38a91d6f4ull, 0x1b0a4af88f126127ull,
      0x0bba1d509874db77ull, 0xe328c821688662cfull, 0x7ace44349742fbf7ull,
      0x26032b89baa7a289ull, 0x9a02d7b0b4b90facull, 0xd38ec06a54c92037ull,
      0xd9a15887a5328efcull, 0xcd13b71cbeaeae43ull, 0x3cdfb2e5eee38c44ull,
      0xaddd58153f95bcc4ull, 0x16ddf2f5d9551a6bull, 0xf825d0640c4ddbefull,
      0x5c7c069bc38994ecull};
  for (int q = 1; q <= kTpchQueryCount; ++q) {
    Transaction* txn = db_->Begin();
    QueryContext ctx(&db_->txn_mgr(), txn, db_->system());
    Result<Batch> result = RunTpchQuery(&ctx, q);
    ASSERT_TRUE(db_->Commit(txn).ok());
    ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
    uint64_t digest = DigestBatch(*result);
    EXPECT_EQ(digest, kGolden[q - 1])
        << "Q" << q << " digest 0x" << std::hex << digest << std::dec
        << " (" << result->rows() << " rows)";
  }
}

// Every query must run clean and cost simulated time.
class TpchAllQueriesTest : public TpchTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(TpchAllQueriesTest, RunsClean) {
  int q = GetParam();
  SimTime before = db_->node().clock().now();
  Result<Batch> result = Run(q);
  ASSERT_TRUE(result.ok()) << "Q" << q << ": " << result.status().ToString();
  EXPECT_GT(db_->node().clock().now(), before) << "Q" << q;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchAllQueriesTest,
                         ::testing::Range(1, kTpchQueryCount + 1));

// Every query must produce bitwise-identical output on four worker
// threads: same rows, same order, same doubles. The morsel
// target is identical in both runs, so chunked double accumulation
// reassociates identically and even floating-point columns match
// exactly.
class TpchParallelEqualityTest : public TpchTest,
                                 public ::testing::WithParamInterface<int> {
 protected:
  Result<Batch> RunNative(int q) {
    QueryContext::Options opts;
    opts.exec_workers = 4;
    Transaction* txn = db_->Begin();
    QueryContext ctx(&db_->txn_mgr(), txn, db_->system(), opts);
    Result<Batch> result = RunTpchQuery(&ctx, q);
    EXPECT_TRUE(db_->Commit(txn).ok());
    return result;
  }
};

TEST_P(TpchParallelEqualityTest, NativeMatchesSerialBitwise) {
  int q = GetParam();
  Result<Batch> serial = Run(q);
  Result<Batch> native = RunNative(q);
  ASSERT_TRUE(serial.ok()) << "Q" << q << ": "
                           << serial.status().ToString();
  ASSERT_TRUE(native.ok()) << "Q" << q << ": "
                           << native.status().ToString();
  ASSERT_EQ(serial->columns.size(), native->columns.size()) << "Q" << q;
  EXPECT_EQ(serial->names, native->names) << "Q" << q;
  ASSERT_EQ(serial->rows(), native->rows()) << "Q" << q;
  for (size_t c = 0; c < serial->columns.size(); ++c) {
    EXPECT_EQ(serial->columns[c].ints, native->columns[c].ints)
        << "Q" << q << " " << serial->names[c];
    EXPECT_EQ(serial->columns[c].doubles, native->columns[c].doubles)
        << "Q" << q << " " << serial->names[c];
    EXPECT_EQ(serial->columns[c].strings, native->columns[c].strings)
        << "Q" << q << " " << serial->names[c];
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchParallelEqualityTest,
                         ::testing::Range(1, kTpchQueryCount + 1));

}  // namespace
}  // namespace cloudiq

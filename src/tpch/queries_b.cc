#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/dense_key_index.h"
#include "tpch/queries.h"
#include "tpch/queries_internal.h"

namespace cloudiq {
namespace tpch_internal {

// Q12: shipping modes and order priority. lineitem (receiptdate in 1994,
// modes MAIL/SHIP) joined to orders; high/low priority line counts.
Result<Batch> Q12(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  int64_t lo = D(1994, 1, 1);
  int64_t hi = D(1995, 1, 1) - 1;
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_shipmode", "l_commitdate", "l_shipdate",
                 "l_receiptdate"},
                ScanRange{"l_receiptdate", lo, hi}));
  std::vector<uint8_t> mail_or_ship =
      StringMask(items.column("l_shipmode"), [](const std::string& mode) {
        return mode == "MAIL" || mode == "SHIP";
      });
  const std::vector<int64_t>& commit = items.column("l_commitdate").ints;
  const std::vector<int64_t>& receipt = items.column("l_receiptdate").ints;
  const std::vector<int64_t>& ship = items.column("l_shipdate").ints;
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return mail_or_ship[r] && commit[r] < receipt[r] && ship[r] < commit[r];
  });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord,
      ScanTable(ctx, &orders, {"o_orderkey", "o_orderpriority"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_orderkey", ord,
                                           "o_orderkey", JoinType::kInner));
  std::vector<uint8_t> urgent =
      StringMask(items.column("o_orderpriority"), [](const std::string& p) {
        return p == "1-URGENT" || p == "2-HIGH";
      });
  items = WithComputedColumn(
      ctx, std::move(items), "high_line", ColumnType::kInt64,
      [&](const Batch&, size_t r) { return int64_t{urgent[r]}; });
  items = WithComputedColumn(
      ctx, std::move(items), "low_line", ColumnType::kInt64,
      [&](const Batch&, size_t r) { return int64_t{1} - urgent[r]; });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, items, {"l_shipmode"},
                    {{AggOp::kSum, "high_line", "high_line_count"},
                     {AggOp::kSum, "low_line", "low_line_count"}}));
  return SortBatch(ctx, std::move(agg), {{"l_shipmode", true}});
}

// Q13: customer order-count distribution (customers with zero orders
// included via anti-join).
Result<Batch> Q13(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader customer, ctx->OpenTable(kCustomer));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));

  // NOT LIKE '%special%requests%': the TEXT index (§1's text-indexing
  // niche index) yields the candidate rows containing both words; only
  // those few rows have their comments decoded for the exact ordered
  // check — the heavy o_comment column is never scanned in full.
  int comment_col = orders.schema().ColumnIndex("o_comment");
  Batch excluded;
  excluded.AddColumn("x_orderkey", {ColumnType::kInt64, {}, {}, {}});
  for (size_t p = 0; p < orders.meta().partitions.size(); ++p) {
    if (orders.meta().partitions[p].row_count == 0) continue;
    CLOUDIQ_ASSIGN_OR_RETURN(
        IntervalSet candidates,
        orders.TextIndexAllWords(p, comment_col, {"special", "requests"}));
    CLOUDIQ_ASSIGN_OR_RETURN(
        Batch rows, ScanRowIds(ctx, &orders, p,
                               {"o_orderkey", "o_comment"}, candidates));
    const std::vector<int64_t>& orderkey = rows.column("o_orderkey").ints;
    const ColumnVector& comment = rows.column("o_comment");
    for (size_t r = 0; r < rows.rows(); ++r) {
      const std::string& c = comment.StringAt(r);
      size_t pos = c.find("special");
      if (pos != std::string::npos &&
          c.find("requests", pos) != std::string::npos) {
        excluded.columns[0].ints.push_back(orderkey[r]);
      }
    }
  }
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord, ScanTable(ctx, &orders, {"o_orderkey", "o_custkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(ord,
                           HashJoin(ctx, ord, "o_orderkey", excluded,
                                    "x_orderkey", JoinType::kLeftAnti));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch counts, HashAggregate(ctx, ord, {"o_custkey"},
                                  {{AggOp::kCount, "", "c_count"}}));

  CLOUDIQ_ASSIGN_OR_RETURN(Batch customers,
                           ScanTable(ctx, &customer, {"c_custkey"}));
  // Customers with no surviving orders count as zero.
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch zero, HashJoin(ctx, customers, "c_custkey", counts,
                           "o_custkey", JoinType::kLeftAnti));
  zero = WithComputedColumn(ctx, std::move(zero), "c_count",
                            ColumnType::kInt64,
                            [](const Batch&, size_t) { return int64_t{0}; });

  // Histogram over both populations.
  Batch combined;
  combined.AddColumn("c_count", ColumnVector{ColumnType::kInt64, {}, {}, {}});
  for (int64_t v : counts.column("c_count").ints) {
    combined.columns[0].ints.push_back(v);
  }
  for (int64_t v : zero.column("c_count").ints) {
    combined.columns[0].ints.push_back(v);
  }
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch hist, HashAggregate(ctx, combined, {"c_count"},
                                {{AggOp::kCount, "", "custdist"}}));
  return SortBatch(ctx, std::move(hist),
                   {{"custdist", false}, {"c_count", false}});
}

// Q14: promotion effect in 1995-09. The month predicate is exactly what
// the DATE index (§1's datepart niche index) answers: one posting probe
// per partition instead of a shipdate column scan.
Result<Batch> Q14(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader part, ctx->OpenTable(kPart));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  int shipdate_col = lineitem.schema().ColumnIndex("l_shipdate");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanByMonth(ctx, &lineitem, shipdate_col, 1995, 9,
                  {"l_partkey", "l_extendedprice", "l_discount"}));
  CLOUDIQ_ASSIGN_OR_RETURN(Batch parts,
                           ScanTable(ctx, &part, {"p_partkey", "p_type"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_partkey", parts,
                                           "p_partkey", JoinType::kInner));
  items = WithRevenue(ctx, std::move(items), "l_extendedprice",
                      "l_discount", "revenue");
  std::vector<uint8_t> promo =
      StringMask(items.column("p_type"), [](const std::string& t) {
        return StartsWith(t, "PROMO");
      });
  const std::vector<double>& revenue = items.column("revenue").doubles;
  items = WithComputedColumn(
      ctx, std::move(items), "promo_revenue", ColumnType::kDouble,
      [&](const Batch&, size_t r) { return promo[r] ? revenue[r] : 0.0; });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg, HashAggregate(ctx, items, {},
                               {{AggOp::kSum, "promo_revenue", "promo"},
                                {AggOp::kSum, "revenue", "total"}}));
  const std::vector<double>& promo_sum = agg.column("promo").doubles;
  const std::vector<double>& total = agg.column("total").doubles;
  return WithComputedColumn(
      ctx, std::move(agg), "promo_pct", ColumnType::kDouble,
      [&](const Batch&, size_t r) {
        return total[r] > 0 ? 100.0 * promo_sum[r] / total[r] : 0.0;
      });
}

// Q15: top supplier for 1996Q1.
Result<Batch> Q15(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  int64_t lo = D(1996, 1, 1);
  int64_t hi = D(1996, 4, 1) - 1;
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"},
                ScanRange{"l_shipdate", lo, hi}));
  items = WithRevenue(ctx, std::move(items), "l_extendedprice",
                      "l_discount", "revenue");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch by_supp, HashAggregate(ctx, items, {"l_suppkey"},
                                   {{AggOp::kSum, "revenue",
                                     "total_revenue"}}));
  double max_revenue = 0;
  for (double v : by_supp.column("total_revenue").doubles) {
    max_revenue = std::max(max_revenue, v);
  }
  const std::vector<double>& total_revenue =
      by_supp.column("total_revenue").doubles;
  by_supp = FilterBatch(ctx, by_supp, [&](const Batch&, size_t r) {
    return total_revenue[r] >= max_revenue - 1e-9;
  });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier,
                {"s_suppkey", "s_name", "s_address", "s_phone"}));
  CLOUDIQ_ASSIGN_OR_RETURN(Batch joined,
                           HashJoin(ctx, by_supp, "l_suppkey", suppliers,
                                    "s_suppkey", JoinType::kInner));
  return SortBatch(ctx, std::move(joined), {{"l_suppkey", true}});
}

// Q16: parts/supplier relationship. Distinct supplier counts by
// brand/type/size, excluding complaint suppliers.
Result<Batch> Q16(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader part, ctx->OpenTable(kPart));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader partsupp, ctx->OpenTable(kPartSupp));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch parts, ScanTable(ctx, &part,
                             {"p_partkey", "p_brand", "p_type", "p_size"}));
  const std::set<int64_t> kSizes{1, 14, 23, 45, 19, 3, 36, 9};
  std::vector<uint8_t> brand45 = EqualsMask(parts, "p_brand", "Brand#45");
  std::vector<uint8_t> polished =
      StringMask(parts.column("p_type"), [](const std::string& t) {
        return StartsWith(t, "MEDIUM POLISHED");
      });
  const std::vector<int64_t>& size = parts.column("p_size").ints;
  parts = FilterBatch(ctx, parts, [&](const Batch&, size_t r) {
    return !brand45[r] && !polished[r] && kSizes.count(size[r]) > 0;
  });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch complainers,
      ScanTable(ctx, &supplier, {"s_suppkey", "s_comment"}));
  complainers = FilterStrings(
      ctx, complainers, "s_comment", [](const std::string& c) {
        size_t p = c.find("Customer");
        return p != std::string::npos &&
               c.find("Complaints", p) != std::string::npos;
      });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ps, ScanTable(ctx, &partsupp, {"ps_partkey", "ps_suppkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(ps, HashJoin(ctx, ps, "ps_suppkey", complainers,
                                        "s_suppkey", JoinType::kLeftAnti));
  CLOUDIQ_ASSIGN_OR_RETURN(ps, HashJoin(ctx, ps, "ps_partkey", parts,
                                        "p_partkey", JoinType::kInner));

  // Distinct suppliers per group.
  std::unordered_map<std::string, std::unordered_set<int64_t>> distinct;
  std::unordered_map<std::string, size_t> rep_row;
  const ColumnVector& brand = ps.column("p_brand");
  const ColumnVector& type = ps.column("p_type");
  const std::vector<int64_t>& ps_size = ps.column("p_size").ints;
  const std::vector<int64_t>& supp = ps.column("ps_suppkey").ints;
  for (size_t r = 0; r < ps.rows(); ++r) {
    std::string key = brand.StringAt(r) + '\x1f' + type.StringAt(r) + '\x1f' +
                      std::to_string(ps_size[r]);
    distinct[key].insert(supp[r]);
    rep_row.emplace(key, r);
  }
  ctx->ChargeValues(ps.rows() * 2);

  Batch out;
  out.AddColumn("p_brand", ColumnVector{ColumnType::kString, {}, {}, {}});
  out.AddColumn("p_type", ColumnVector{ColumnType::kString, {}, {}, {}});
  out.AddColumn("p_size", ColumnVector{ColumnType::kInt64, {}, {}, {}});
  out.AddColumn("supplier_cnt", ColumnVector{ColumnType::kInt64, {}, {}, {}});
  for (const auto& [key, supps] : distinct) {
    size_t r = rep_row[key];
    out.columns[0].strings.push_back(brand.StringAt(r));
    out.columns[1].strings.push_back(type.StringAt(r));
    out.columns[2].ints.push_back(ps_size[r]);
    out.columns[3].ints.push_back(static_cast<int64_t>(supps.size()));
  }
  return SortBatch(ctx, std::move(out),
                   {{"supplier_cnt", false},
                    {"p_brand", true},
                    {"p_type", true},
                    {"p_size", true}});
}

// Q17: small-quantity-order revenue for one brand/container.
Result<Batch> Q17(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader part, ctx->OpenTable(kPart));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch parts, ScanTable(ctx, &part,
                             {"p_partkey", "p_brand", "p_container"}));
  std::vector<uint8_t> brand23 = EqualsMask(parts, "p_brand", "Brand#23");
  std::vector<uint8_t> med_box = EqualsMask(parts, "p_container", "MED BOX");
  parts = FilterBatch(ctx, parts, [&](const Batch&, size_t r) {
    return brand23[r] && med_box[r];
  });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_partkey", "l_quantity", "l_extendedprice"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_partkey", parts,
                                           "p_partkey", JoinType::kLeftSemi));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch avg_qty, HashAggregate(ctx, items, {"l_partkey"},
                                   {{AggOp::kAvg, "l_quantity",
                                     "avg_quantity"}}));
  CLOUDIQ_ASSIGN_OR_RETURN(items,
                           HashJoin(ctx, items, "l_partkey", avg_qty,
                                    "l_partkey", JoinType::kInner));
  const std::vector<int64_t>& qty = items.column("l_quantity").ints;
  const std::vector<double>& avg = items.column("avg_quantity").doubles;
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return qty[r] < 0.2 * avg[r];
  });
  const std::vector<int64_t>& price = items.column("l_extendedprice").ints;
  items = WithComputedColumn(
      ctx, std::move(items), "price", ColumnType::kDouble,
      [&](const Batch&, size_t r) { return DecimalToDouble(price[r]); });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, items, {}, {{AggOp::kSum, "price", "sum_price"}}));
  const std::vector<double>& sum_price = agg.column("sum_price").doubles;
  return WithComputedColumn(
      ctx, std::move(agg), "avg_yearly", ColumnType::kDouble,
      [&](const Batch&, size_t r) { return sum_price[r] / 7.0; });
}

// Q18: large-volume customers. (Threshold rescaled from the spec's 300
// to 150: with 1-7 lines per order the 300 threshold is hit too rarely at
// bench scale factors to exercise the join pipeline.)
Result<Batch> Q18(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader customer, ctx->OpenTable(kCustomer));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items, ScanTable(ctx, &lineitem, {"l_orderkey", "l_quantity"}));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch qty, HashAggregate(ctx, items, {"l_orderkey"},
                               {{AggOp::kSum, "l_quantity", "sum_qty"}}));
  const std::vector<int64_t>& sum_qty = qty.column("sum_qty").ints;
  qty = FilterBatch(ctx, qty,
                    [&](const Batch&, size_t r) { return sum_qty[r] > 150; });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord,
      ScanTable(ctx, &orders,
                {"o_orderkey", "o_custkey", "o_orderdate",
                 "o_totalprice"}));
  CLOUDIQ_ASSIGN_OR_RETURN(ord, HashJoin(ctx, ord, "o_orderkey", qty,
                                         "l_orderkey", JoinType::kInner));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch customers,
      ScanTable(ctx, &customer, {"c_custkey", "c_name"}));
  CLOUDIQ_ASSIGN_OR_RETURN(ord, HashJoin(ctx, ord, "o_custkey", customers,
                                         "c_custkey", JoinType::kInner));
  return SortBatch(ctx, std::move(ord),
                   {{"o_totalprice", false}, {"o_orderdate", true}}, 100);
}

// Q19: discounted revenue, disjunctive brand/container/quantity brackets.
Result<Batch> Q19(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader part, ctx->OpenTable(kPart));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch parts,
      ScanTable(ctx, &part,
                {"p_partkey", "p_brand", "p_container", "p_size"}));
  std::vector<uint8_t> b12 = EqualsMask(parts, "p_brand", "Brand#12");
  std::vector<uint8_t> b23 = EqualsMask(parts, "p_brand", "Brand#23");
  std::vector<uint8_t> b34 = EqualsMask(parts, "p_brand", "Brand#34");
  auto starts = [&](const char* prefix) {
    return StringMask(parts.column("p_container"),
                      [prefix](const std::string& c) {
                        return StartsWith(c, prefix);
                      });
  };
  std::vector<uint8_t> sm = starts("SM");
  std::vector<uint8_t> med = starts("MED");
  std::vector<uint8_t> lg = starts("LG");
  const std::vector<int64_t>& size = parts.column("p_size").ints;
  parts = FilterBatch(ctx, parts, [&](const Batch&, size_t r) {
    int64_t s = size[r];
    bool in1 = b12[r] && sm[r] && s >= 1 && s <= 5;
    bool in2 = b23[r] && med[r] && s >= 1 && s <= 10;
    bool in3 = b34[r] && lg[r] && s >= 1 && s <= 15;
    return in1 || in2 || in3;
  });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount", "l_shipmode", "l_shipinstruct"}));
  std::vector<uint8_t> by_air =
      StringMask(items.column("l_shipmode"), [](const std::string& mode) {
        return mode == "AIR" || mode == "REG AIR";
      });
  std::vector<uint8_t> in_person =
      EqualsMask(items, "l_shipinstruct", "DELIVER IN PERSON");
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return by_air[r] && in_person[r];
  });
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_partkey", parts,
                                           "p_partkey", JoinType::kInner));
  std::vector<uint8_t> item_b12 = EqualsMask(items, "p_brand", "Brand#12");
  std::vector<uint8_t> item_b23 = EqualsMask(items, "p_brand", "Brand#23");
  const std::vector<int64_t>& qty = items.column("l_quantity").ints;
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    int64_t q = qty[r];
    if (item_b12[r]) return q >= 1 && q <= 11;
    if (item_b23[r]) return q >= 10 && q <= 20;
    return q >= 20 && q <= 30;
  });
  items = WithRevenue(ctx, std::move(items), "l_extendedprice",
                      "l_discount", "revenue");
  return HashAggregate(ctx, items, {},
                       {{AggOp::kSum, "revenue", "revenue"}});
}

// Q20: potential part promotion — suppliers in CANADA with excess stock
// of parts shipped during 1994.
Result<Batch> Q20(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader part, ctx->OpenTable(kPart));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader partsupp, ctx->OpenTable(kPartSupp));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));

  CLOUDIQ_ASSIGN_OR_RETURN(Batch parts,
                           ScanTable(ctx, &part, {"p_partkey", "p_name"}));
  parts = FilterStrings(ctx, parts, "p_name", [](const std::string& n) {
    return StartsWith(n, "f");  // 'forest%' stand-in
  });

  int64_t lo = D(1994, 1, 1);
  int64_t hi = D(1995, 1, 1) - 1;
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_partkey", "l_suppkey", "l_quantity", "l_shipdate"},
                ScanRange{"l_shipdate", lo, hi}));
  const std::vector<int64_t>& l_part = items.column("l_partkey").ints;
  const std::vector<int64_t>& l_supp = items.column("l_suppkey").ints;
  items = WithComputedColumn(
      ctx, std::move(items), "ps_pair", ColumnType::kInt64,
      [&](const Batch&, size_t r) { return l_part[r] * 100000 + l_supp[r]; });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch shipped, HashAggregate(ctx, items, {"ps_pair"},
                                   {{AggOp::kSum, "l_quantity",
                                     "shipped_qty"}}));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ps, ScanTable(ctx, &partsupp,
                          {"ps_partkey", "ps_suppkey", "ps_availqty"}));
  CLOUDIQ_ASSIGN_OR_RETURN(ps, HashJoin(ctx, ps, "ps_partkey", parts,
                                        "p_partkey", JoinType::kLeftSemi));
  const std::vector<int64_t>& ps_part = ps.column("ps_partkey").ints;
  const std::vector<int64_t>& ps_supp = ps.column("ps_suppkey").ints;
  ps = WithComputedColumn(
      ctx, std::move(ps), "pair", ColumnType::kInt64,
      [&](const Batch&, size_t r) { return ps_part[r] * 100000 + ps_supp[r]; });
  CLOUDIQ_ASSIGN_OR_RETURN(ps, HashJoin(ctx, ps, "pair", shipped, "ps_pair",
                                        JoinType::kInner));
  const std::vector<int64_t>& availqty = ps.column("ps_availqty").ints;
  const std::vector<int64_t>& shipped_qty = ps.column("shipped_qty").ints;
  ps = FilterBatch(ctx, ps, [&](const Batch&, size_t r) {
    return availqty[r] > shipped_qty[r] / 2;
  });

  CLOUDIQ_ASSIGN_OR_RETURN(Batch nations,
                           ScanTable(ctx, &nation,
                                     {"n_nationkey", "n_name"}));
  nations = FilterEquals(ctx, nations, "n_name", "CANADA");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier,
                {"s_suppkey", "s_name", "s_address", "s_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_nationkey", nations,
                                    "n_nationkey", JoinType::kLeftSemi));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_suppkey", ps,
                                    "ps_suppkey", JoinType::kLeftSemi));
  return SortBatch(ctx, std::move(suppliers), {{"s_name", true}});
}

// Q21: suppliers who kept orders waiting. Multi-pass over lineitem with
// exists / not-exists conditions.
Result<Batch> Q21(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_suppkey", "l_commitdate",
                 "l_receiptdate"}));
  // Late lines: receipt after commit.
  const std::vector<int64_t>& receipt = items.column("l_receiptdate").ints;
  const std::vector<int64_t>& commit = items.column("l_commitdate").ints;
  Batch late = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return receipt[r] > commit[r];
  });

  // Per order: its first supplier, and whether a second, distinct one
  // appears — over all lines and over late lines. Late lines are a
  // subset of all lines, so one order-key table indexes both.
  struct Suppliers {
    int64_t first = 0;
    bool any = false;
    bool multi = false;
    void Add(int64_t supp) {
      if (!any) {
        first = supp;
        any = true;
      } else if (supp != first) {
        multi = true;
      }
    }
  };
  const std::vector<int64_t>& item_order = items.column("l_orderkey").ints;
  const std::vector<int64_t>& item_supp = items.column("l_suppkey").ints;
  IntKeyIndex order_ids(IntKeySpan::Of(item_order), items.rows(),
                        items.rows());  // at most one order per item
  std::vector<Suppliers> all;           // per id
  for (size_t r = 0; r < items.rows(); ++r) {
    bool inserted = false;
    uint32_t id = order_ids.FindOrInsert(item_order[r], &inserted);
    if (inserted) all.emplace_back();
    all[id].Add(item_supp[r]);
  }
  const std::vector<int64_t>& late_order = late.column("l_orderkey").ints;
  const std::vector<int64_t>& late_supp = late.column("l_suppkey").ints;
  std::vector<Suppliers> late_supps(all.size());
  for (size_t r = 0; r < late.rows(); ++r) {
    late_supps[order_ids.Find(late_order[r])].Add(late_supp[r]);
  }
  ctx->ChargeValues(items.rows() + late.rows());

  // Orders with status F whose *only* late supplier is the candidate:
  // exists other supplier, not exists other late supplier.
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord, ScanTable(ctx, &orders, {"o_orderkey", "o_orderstatus"}));
  std::vector<uint8_t> f_order(all.size());  // per id: status F
  std::vector<uint8_t> status_f = EqualsMask(ord, "o_orderstatus", "F");
  const std::vector<int64_t>& order_key = ord.column("o_orderkey").ints;
  for (size_t r = 0; r < ord.rows(); ++r) {
    if (!status_f[r]) continue;
    uint32_t id = order_ids.Find(order_key[r]);
    if (id != IntKeyIndex::kNone) f_order[id] = 1;
  }

  late = FilterBatch(ctx, late, [&](const Batch&, size_t r) {
    uint32_t id = order_ids.Find(late_order[r]);
    if (!f_order[id]) return false;
    const Suppliers& late_of = late_supps[id];
    return all[id].multi && late_of.any && !late_of.multi &&
           late_of.first == late_supp[r];
  });

  CLOUDIQ_ASSIGN_OR_RETURN(Batch nations,
                           ScanTable(ctx, &nation,
                                     {"n_nationkey", "n_name"}));
  nations = FilterEquals(ctx, nations, "n_name", "SAUDI ARABIA");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier, {"s_suppkey", "s_name", "s_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_nationkey", nations,
                                    "n_nationkey", JoinType::kLeftSemi));
  CLOUDIQ_ASSIGN_OR_RETURN(late,
                           HashJoin(ctx, late, "l_suppkey", suppliers,
                                    "s_suppkey", JoinType::kInner));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg, HashAggregate(ctx, late, {"s_name"},
                               {{AggOp::kCount, "", "numwait"}}));
  return SortBatch(ctx, std::move(agg),
                   {{"numwait", false}, {"s_name", true}}, 100);
}

// Q22: global sales opportunity — well-funded customers with no orders.
Result<Batch> Q22(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader customer, ctx->OpenTable(kCustomer));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));

  const std::set<std::string> kCodes{"13", "31", "23", "29", "30", "18",
                                     "17"};
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch customers,
      ScanTable(ctx, &customer, {"c_custkey", "c_phone", "c_acctbal"}));
  customers = FilterStrings(
      ctx, customers, "c_phone", [&](const std::string& phone) {
        return kCodes.count(phone.substr(0, 2)) > 0;
      });

  // Average positive balance of the candidate population.
  const std::vector<int64_t>& acctbal = customers.column("c_acctbal").ints;
  Batch positive = FilterBatch(ctx, customers, [&](const Batch&, size_t r) {
    return acctbal[r] > 0;
  });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch avg, HashAggregate(ctx, positive, {},
                               {{AggOp::kAvg, "c_acctbal", "avg_bal"}}));
  double avg_bal = avg.rows() > 0 ? avg.column("avg_bal").doubles[0] : 0;

  customers = FilterBatch(ctx, customers, [&](const Batch&, size_t r) {
    return acctbal[r] > avg_bal;
  });

  CLOUDIQ_ASSIGN_OR_RETURN(Batch ord,
                           ScanTable(ctx, &orders, {"o_custkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(customers,
                           HashJoin(ctx, customers, "c_custkey", ord,
                                    "o_custkey", JoinType::kLeftAnti));
  const ColumnVector& phone = customers.column("c_phone");
  customers = WithComputedColumn(
      ctx, std::move(customers), "cntrycode", ColumnType::kString,
      [&](const Batch&, size_t r) { return phone.StringAt(r).substr(0, 2); });
  const std::vector<int64_t>& balance = customers.column("c_acctbal").ints;
  customers = WithComputedColumn(
      ctx, std::move(customers), "acctbal", ColumnType::kDouble,
      [&](const Batch&, size_t r) { return DecimalToDouble(balance[r]); });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, customers, {"cntrycode"},
                    {{AggOp::kCount, "", "numcust"},
                     {AggOp::kSum, "acctbal", "totacctbal"}}));
  return SortBatch(ctx, std::move(agg), {{"cntrycode", true}});
}

}  // namespace tpch_internal
}  // namespace cloudiq

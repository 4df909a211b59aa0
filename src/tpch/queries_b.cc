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
  items = FilterBatch(ctx, items, [&](const Batch& b, size_t r) {
    return mail_or_ship[r] &&
           b.Int("l_commitdate", r) < b.Int("l_receiptdate", r) &&
           b.Int("l_shipdate", r) < b.Int("l_commitdate", r);
  });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord,
      ScanTable(ctx, &orders, {"o_orderkey", "o_orderpriority"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_orderkey", ord,
                                           "o_orderkey", JoinType::kInner));
  items = WithComputedColumn(
      ctx, std::move(items), "high_line", ColumnType::kInt64,
      [](const Batch& b, size_t r, ColumnVector* out) {
        const std::string& p = b.Str("o_orderpriority", r);
        out->ints.push_back(p == "1-URGENT" || p == "2-HIGH" ? 1 : 0);
      });
  items = WithComputedColumn(
      ctx, std::move(items), "low_line", ColumnType::kInt64,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->ints.push_back(1 - b.Int("high_line", r));
      });
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
    for (size_t r = 0; r < rows.rows(); ++r) {
      const std::string& c = rows.Str("o_comment", r);
      size_t pos = c.find("special");
      if (pos != std::string::npos &&
          c.find("requests", pos) != std::string::npos) {
        excluded.columns[0].ints.push_back(rows.Int("o_orderkey", r));
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
  zero = WithComputedColumn(
      ctx, std::move(zero), "c_count", ColumnType::kInt64,
      [](const Batch&, size_t, ColumnVector* out) {
        out->ints.push_back(0);
      });

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
  items = WithComputedColumn(
      ctx, std::move(items), "promo_revenue", ColumnType::kDouble,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->doubles.push_back(StartsWith(b.Str("p_type", r), "PROMO")
                                   ? b.Double("revenue", r)
                                   : 0.0);
      });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg, HashAggregate(ctx, items, {},
                               {{AggOp::kSum, "promo_revenue", "promo"},
                                {AggOp::kSum, "revenue", "total"}}));
  return WithComputedColumn(
      ctx, std::move(agg), "promo_pct", ColumnType::kDouble,
      [](const Batch& b, size_t r, ColumnVector* out) {
        double total = b.Double("total", r);
        out->doubles.push_back(
            total > 0 ? 100.0 * b.Double("promo", r) / total : 0.0);
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
  by_supp = FilterBatch(ctx, by_supp,
                        [max_revenue](const Batch& b, size_t r) {
                          return b.Double("total_revenue", r) >=
                                 max_revenue - 1e-9;
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
  parts = FilterBatch(ctx, parts, [&kSizes](const Batch& b, size_t r) {
    return b.Str("p_brand", r) != "Brand#45" &&
           !StartsWith(b.Str("p_type", r), "MEDIUM POLISHED") &&
           kSizes.count(b.Int("p_size", r)) > 0;
  });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch complainers,
      ScanTable(ctx, &supplier, {"s_suppkey", "s_comment"}));
  complainers = FilterBatch(ctx, complainers, [](const Batch& b, size_t r) {
    const std::string& c = b.Str("s_comment", r);
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
  for (size_t r = 0; r < ps.rows(); ++r) {
    std::string key = ps.Str("p_brand", r) + '\x1f' + ps.Str("p_type", r) +
                      '\x1f' + std::to_string(ps.Int("p_size", r));
    distinct[key].insert(ps.Int("ps_suppkey", r));
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
    out.columns[0].strings.push_back(ps.Str("p_brand", r));
    out.columns[1].strings.push_back(ps.Str("p_type", r));
    out.columns[2].ints.push_back(ps.Int("p_size", r));
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
  parts = FilterBatch(ctx, parts, [](const Batch& b, size_t r) {
    return b.Str("p_brand", r) == "Brand#23" &&
           b.Str("p_container", r) == "MED BOX";
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
  items = FilterBatch(ctx, items, [](const Batch& b, size_t r) {
    return b.Int("l_quantity", r) < 0.2 * b.Double("avg_quantity", r);
  });
  items = WithComputedColumn(
      ctx, std::move(items), "price", ColumnType::kDouble,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->doubles.push_back(
            DecimalToDouble(b.Int("l_extendedprice", r)));
      });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, items, {}, {{AggOp::kSum, "price", "sum_price"}}));
  return WithComputedColumn(
      ctx, std::move(agg), "avg_yearly", ColumnType::kDouble,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->doubles.push_back(b.Double("sum_price", r) / 7.0);
      });
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
  qty = FilterBatch(ctx, qty, [](const Batch& b, size_t r) {
    return b.Int("sum_qty", r) > 150;
  });
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
  parts = FilterBatch(ctx, parts, [](const Batch& b, size_t r) {
    const std::string& brand = b.Str("p_brand", r);
    const std::string& cont = b.Str("p_container", r);
    int64_t size = b.Int("p_size", r);
    bool b1 = brand == "Brand#12" &&
              (StartsWith(cont, "SM")) && size >= 1 && size <= 5;
    bool b2 = brand == "Brand#23" &&
              (StartsWith(cont, "MED")) && size >= 1 && size <= 10;
    bool b3 = brand == "Brand#34" &&
              (StartsWith(cont, "LG")) && size >= 1 && size <= 15;
    return b1 || b2 || b3;
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
  std::vector<uint8_t> in_person = StringMask(
      items.column("l_shipinstruct"), [](const std::string& instruct) {
        return instruct == "DELIVER IN PERSON";
      });
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return by_air[r] && in_person[r];
  });
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_partkey", parts,
                                           "p_partkey", JoinType::kInner));
  items = FilterBatch(ctx, items, [](const Batch& b, size_t r) {
    const std::string& brand = b.Str("p_brand", r);
    int64_t q = b.Int("l_quantity", r);
    if (brand == "Brand#12") return q >= 1 && q <= 11;
    if (brand == "Brand#23") return q >= 10 && q <= 20;
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
  parts = FilterBatch(ctx, parts, [](const Batch& b, size_t r) {
    return StartsWith(b.Str("p_name", r), "f");  // 'forest%' stand-in
  });

  int64_t lo = D(1994, 1, 1);
  int64_t hi = D(1995, 1, 1) - 1;
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_partkey", "l_suppkey", "l_quantity", "l_shipdate"},
                ScanRange{"l_shipdate", lo, hi}));
  items = WithComputedColumn(
      ctx, std::move(items), "ps_pair", ColumnType::kInt64,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->ints.push_back(b.Int("l_partkey", r) * 100000 +
                            b.Int("l_suppkey", r));
      });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch shipped, HashAggregate(ctx, items, {"ps_pair"},
                                   {{AggOp::kSum, "l_quantity",
                                     "shipped_qty"}}));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ps, ScanTable(ctx, &partsupp,
                          {"ps_partkey", "ps_suppkey", "ps_availqty"}));
  CLOUDIQ_ASSIGN_OR_RETURN(ps, HashJoin(ctx, ps, "ps_partkey", parts,
                                        "p_partkey", JoinType::kLeftSemi));
  ps = WithComputedColumn(
      ctx, std::move(ps), "pair", ColumnType::kInt64,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->ints.push_back(b.Int("ps_partkey", r) * 100000 +
                            b.Int("ps_suppkey", r));
      });
  CLOUDIQ_ASSIGN_OR_RETURN(ps, HashJoin(ctx, ps, "pair", shipped, "ps_pair",
                                        JoinType::kInner));
  ps = FilterBatch(ctx, ps, [](const Batch& b, size_t r) {
    return b.Int("ps_availqty", r) > b.Int("shipped_qty", r) / 2;
  });

  CLOUDIQ_ASSIGN_OR_RETURN(Batch nations,
                           ScanTable(ctx, &nation,
                                     {"n_nationkey", "n_name"}));
  nations = FilterBatch(ctx, nations, [](const Batch& b, size_t r) {
    return b.Str("n_name", r) == "CANADA";
  });
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
  Batch late = FilterBatch(ctx, items, [](const Batch& b, size_t r) {
    return b.Int("l_receiptdate", r) > b.Int("l_commitdate", r);
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
  const ColumnVector& status = ord.column("o_orderstatus");
  const std::vector<int64_t>& order_key = ord.column("o_orderkey").ints;
  for (size_t r = 0; r < ord.rows(); ++r) {
    if (status.StringAt(r) != "F") continue;
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
  nations = FilterBatch(ctx, nations, [](const Batch& b, size_t r) {
    return b.Str("n_name", r) == "SAUDI ARABIA";
  });
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
  customers = FilterBatch(ctx, customers, [&](const Batch& b, size_t r) {
    return kCodes.count(b.Str("c_phone", r).substr(0, 2)) > 0;
  });

  // Average positive balance of the candidate population.
  Batch positive = FilterBatch(ctx, customers, [](const Batch& b, size_t r) {
    return b.Int("c_acctbal", r) > 0;
  });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch avg, HashAggregate(ctx, positive, {},
                               {{AggOp::kAvg, "c_acctbal", "avg_bal"}}));
  double avg_bal = avg.rows() > 0 ? avg.Double("avg_bal", 0) : 0;

  customers = FilterBatch(ctx, customers,
                          [avg_bal](const Batch& b, size_t r) {
                            return b.Int("c_acctbal", r) > avg_bal;
                          });

  CLOUDIQ_ASSIGN_OR_RETURN(Batch ord,
                           ScanTable(ctx, &orders, {"o_custkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(customers,
                           HashJoin(ctx, customers, "c_custkey", ord,
                                    "o_custkey", JoinType::kLeftAnti));
  customers = WithComputedColumn(
      ctx, std::move(customers), "cntrycode", ColumnType::kString,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->strings.push_back(b.Str("c_phone", r).substr(0, 2));
      });
  customers = WithComputedColumn(
      ctx, std::move(customers), "acctbal", ColumnType::kDouble,
      [](const Batch& b, size_t r, ColumnVector* out) {
        out->doubles.push_back(DecimalToDouble(b.Int("c_acctbal", r)));
      });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, customers, {"cntrycode"},
                    {{AggOp::kCount, "", "numcust"},
                     {AggOp::kSum, "acctbal", "totacctbal"}}));
  return SortBatch(ctx, std::move(agg), {{"cntrycode", true}});
}

}  // namespace tpch_internal
}  // namespace cloudiq

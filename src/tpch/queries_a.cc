#include "tpch/queries.h"
#include "tpch/queries_internal.h"

namespace cloudiq {
namespace tpch_internal {

Batch WithRevenue(QueryContext* ctx, Batch in, const std::string& ext,
                  const std::string& disc, const std::string& as) {
  const std::vector<int64_t>& price = in.column(ext).ints;
  const std::vector<int64_t>& discount = in.column(disc).ints;
  return WithComputedColumn(
      ctx, std::move(in), as, ColumnType::kDouble,
      [&](const Batch&, size_t r) {
        return DecimalToDouble(price[r]) * (1.0 - discount[r] / 100.0);
      });
}

Result<Batch> ScanByMonth(QueryContext* ctx, TableReader* reader,
                          int date_column, int year, int month,
                          const std::vector<std::string>& columns) {
  Batch out;
  bool first = true;
  for (size_t p = 0; p < reader->meta().partitions.size(); ++p) {
    if (reader->meta().partitions[p].row_count == 0) continue;
    CLOUDIQ_ASSIGN_OR_RETURN(
        IntervalSet rows,
        reader->DateIndexMonth(p, date_column, year, month));
    CLOUDIQ_ASSIGN_OR_RETURN(Batch part,
                             ScanRowIds(ctx, reader, p, columns, rows));
    if (first) {
      out = std::move(part);
      first = false;
    } else {
      for (size_t c = 0; c < part.columns.size(); ++c) {
        out.columns[c].AppendRange(part.columns[c], 0, part.rows());
      }
    }
  }
  if (first) {
    // No partitions had rows: produce the correct (empty) shape.
    return ScanRowIds(ctx, reader, 0, columns, IntervalSet());
  }
  return out;
}

// Q1: pricing summary report. Full lineitem scan with a shipdate cutoff;
// wide aggregate grouped by (returnflag, linestatus).
Result<Batch> Q1(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  ScanRange range{"l_shipdate", INT64_MIN, D(1998, 12, 1) - 90};
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch rows,
      ScanTable(ctx, &lineitem,
                {"l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"},
                range));
  rows = WithRevenue(ctx, std::move(rows), "l_extendedprice", "l_discount",
                     "disc_price");
  const std::vector<double>& disc_price = rows.column("disc_price").doubles;
  const std::vector<int64_t>& tax = rows.column("l_tax").ints;
  rows = WithComputedColumn(
      ctx, std::move(rows), "charge", ColumnType::kDouble,
      [&](const Batch&, size_t r) {
        return disc_price[r] * (1.0 + tax[r] / 100.0);
      });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, rows, {"l_returnflag", "l_linestatus"},
                    {{AggOp::kSum, "l_quantity", "sum_qty"},
                     {AggOp::kSum, "l_extendedprice", "sum_base_price"},
                     {AggOp::kSum, "disc_price", "sum_disc_price"},
                     {AggOp::kSum, "charge", "sum_charge"},
                     {AggOp::kAvg, "l_quantity", "avg_qty"},
                     {AggOp::kAvg, "l_extendedprice", "avg_price"},
                     {AggOp::kAvg, "l_discount", "avg_disc"},
                     {AggOp::kCount, "", "count_order"}}));
  return SortBatch(ctx, std::move(agg),
                   {{"l_returnflag", true}, {"l_linestatus", true}});
}

// Q2: minimum-cost supplier. Small-table join pipeline over part,
// partsupp, supplier, nation, region — short running, latency bound.
Result<Batch> Q2(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader part, ctx->OpenTable(kPart));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader partsupp, ctx->OpenTable(kPartSupp));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader region, ctx->OpenTable(kRegion));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch parts,
      ScanTable(ctx, &part, {"p_partkey", "p_mfgr", "p_size", "p_type"}));
  const std::vector<int64_t>& size = parts.column("p_size").ints;
  std::vector<uint8_t> brass = StringMask(
      parts.column("p_type"),
      [](const std::string& t) { return EndsWith(t, "BRASS"); });
  parts = FilterBatch(ctx, parts, [&](const Batch&, size_t r) {
    return size[r] == 15 && brass[r];
  });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch regions, ScanTable(ctx, &region, {"r_regionkey", "r_name"}));
  regions = FilterEquals(ctx, regions, "r_name", "EUROPE");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch nations,
      ScanTable(ctx, &nation, {"n_nationkey", "n_regionkey", "n_name"}));
  CLOUDIQ_ASSIGN_OR_RETURN(nations,
                           HashJoin(ctx, nations, "n_regionkey", regions,
                                    "r_regionkey", JoinType::kLeftSemi));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier,
                {"s_suppkey", "s_name", "s_nationkey", "s_acctbal",
                 "s_address", "s_phone", "s_comment"}));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_nationkey", nations,
                                    "n_nationkey", JoinType::kInner));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ps, ScanTable(ctx, &partsupp,
                          {"ps_partkey", "ps_suppkey", "ps_supplycost"}));
  CLOUDIQ_ASSIGN_OR_RETURN(
      ps, HashJoin(ctx, ps, "ps_partkey", parts, "p_partkey",
                   JoinType::kInner));
  CLOUDIQ_ASSIGN_OR_RETURN(
      ps, HashJoin(ctx, ps, "ps_suppkey", suppliers, "s_suppkey",
                   JoinType::kInner));

  // Keep rows achieving the per-part minimum supply cost.
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch mins,
      HashAggregate(ctx, ps, {"ps_partkey"},
                    {{AggOp::kMin, "ps_supplycost", "min_cost"}}));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch joined, HashJoin(ctx, ps, "ps_partkey", mins, "ps_partkey",
                             JoinType::kInner));
  const std::vector<int64_t>& cost = joined.column("ps_supplycost").ints;
  const std::vector<int64_t>& min_cost = joined.column("min_cost").ints;
  joined = FilterBatch(ctx, joined, [&](const Batch&, size_t r) {
    return cost[r] == min_cost[r];
  });
  return SortBatch(ctx, std::move(joined),
                   {{"s_acctbal", false},
                    {"n_name", true},
                    {"s_name", true},
                    {"ps_partkey", true}},
                   100);
}

// Q3: shipping priority. customer (BUILDING) x orders x lineitem, top 10
// by revenue — a long-running scan-join over the two big tables.
Result<Batch> Q3(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader customer, ctx->OpenTable(kCustomer));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  int64_t cutoff = D(1995, 3, 15);

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch customers,
      ScanTable(ctx, &customer, {"c_custkey", "c_mktsegment"}));
  customers = FilterEquals(ctx, customers, "c_mktsegment", "BUILDING");

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord, ScanTable(ctx, &orders,
                           {"o_orderkey", "o_custkey", "o_orderdate",
                            "o_shippriority"}));
  const std::vector<int64_t>& orderdate = ord.column("o_orderdate").ints;
  ord = FilterBatch(ctx, ord, [&](const Batch&, size_t r) {
    return orderdate[r] < cutoff;
  });
  CLOUDIQ_ASSIGN_OR_RETURN(ord,
                           HashJoin(ctx, ord, "o_custkey", customers,
                                    "c_custkey", JoinType::kLeftSemi));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"},
                ScanRange{"l_shipdate", cutoff + 1, INT64_MAX}));
  CLOUDIQ_ASSIGN_OR_RETURN(items,
                           HashJoin(ctx, items, "l_orderkey", ord,
                                    "o_orderkey", JoinType::kInner));
  items = WithRevenue(ctx, std::move(items), "l_extendedprice",
                      "l_discount", "revenue");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, items,
                    {"l_orderkey", "o_orderdate", "o_shippriority"},
                    {{AggOp::kSum, "revenue", "revenue"}}));
  return SortBatch(ctx, std::move(agg),
                   {{"revenue", false}, {"o_orderdate", true}}, 10);
}

// Q4: order priority checking. Orders of 1993Q3 with at least one late
// lineitem (semi-join), counted by priority.
Result<Batch> Q4(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord,
      ScanTable(ctx, &orders,
                {"o_orderkey", "o_orderdate", "o_orderpriority"}));
  int64_t lo = D(1993, 7, 1);
  int64_t hi = D(1993, 10, 1) - 1;
  const std::vector<int64_t>& orderdate = ord.column("o_orderdate").ints;
  ord = FilterBatch(ctx, ord, [&](const Batch&, size_t r) {
    return orderdate[r] >= lo && orderdate[r] <= hi;
  });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_commitdate", "l_receiptdate"}));
  const std::vector<int64_t>& commit = items.column("l_commitdate").ints;
  const std::vector<int64_t>& receipt = items.column("l_receiptdate").ints;
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return commit[r] < receipt[r];
  });
  CLOUDIQ_ASSIGN_OR_RETURN(ord,
                           HashJoin(ctx, ord, "o_orderkey", items,
                                    "l_orderkey", JoinType::kLeftSemi));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg, HashAggregate(ctx, ord, {"o_orderpriority"},
                               {{AggOp::kCount, "", "order_count"}}));
  return SortBatch(ctx, std::move(agg), {{"o_orderpriority", true}});
}

// Q5: local supplier volume within ASIA in 1994. Six-way join.
Result<Batch> Q5(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader customer, ctx->OpenTable(kCustomer));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader region, ctx->OpenTable(kRegion));

  CLOUDIQ_ASSIGN_OR_RETURN(Batch regions,
                           ScanTable(ctx, &region,
                                     {"r_regionkey", "r_name"}));
  regions = FilterEquals(ctx, regions, "r_name", "ASIA");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch nations,
      ScanTable(ctx, &nation, {"n_nationkey", "n_regionkey", "n_name"}));
  CLOUDIQ_ASSIGN_OR_RETURN(nations,
                           HashJoin(ctx, nations, "n_regionkey", regions,
                                    "r_regionkey", JoinType::kLeftSemi));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier, {"s_suppkey", "s_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_nationkey", nations,
                                    "n_nationkey", JoinType::kInner));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch customers,
      ScanTable(ctx, &customer, {"c_custkey", "c_nationkey"}));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord,
      ScanTable(ctx, &orders, {"o_orderkey", "o_custkey", "o_orderdate"}));
  int64_t lo = D(1994, 1, 1);
  int64_t hi = D(1995, 1, 1) - 1;
  const std::vector<int64_t>& orderdate = ord.column("o_orderdate").ints;
  ord = FilterBatch(ctx, ord, [&](const Batch&, size_t r) {
    return orderdate[r] >= lo && orderdate[r] <= hi;
  });
  CLOUDIQ_ASSIGN_OR_RETURN(ord, HashJoin(ctx, ord, "o_custkey", customers,
                                         "c_custkey", JoinType::kInner));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_orderkey", ord,
                                           "o_orderkey", JoinType::kInner));
  CLOUDIQ_ASSIGN_OR_RETURN(items,
                           HashJoin(ctx, items, "l_suppkey", suppliers,
                                    "s_suppkey", JoinType::kInner));
  // "Local" volume: customer and supplier from the same nation.
  const std::vector<int64_t>& cust_nation = items.column("c_nationkey").ints;
  const std::vector<int64_t>& supp_nation = items.column("s_nationkey").ints;
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return cust_nation[r] == supp_nation[r];
  });
  items = WithRevenue(ctx, std::move(items), "l_extendedprice",
                      "l_discount", "revenue");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg, HashAggregate(ctx, items, {"n_name"},
                               {{AggOp::kSum, "revenue", "revenue"}}));
  return SortBatch(ctx, std::move(agg), {{"revenue", false}});
}

// Q6: forecasting revenue change. Pure lineitem predicate scan — the
// benchmark's simplest I/O shape.
Result<Batch> Q6(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  int64_t lo = D(1994, 1, 1);
  int64_t hi = D(1995, 1, 1) - 1;
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_shipdate", "l_discount", "l_quantity",
                 "l_extendedprice"},
                ScanRange{"l_shipdate", lo, hi}));
  const std::vector<int64_t>& disc = items.column("l_discount").ints;
  const std::vector<int64_t>& qty = items.column("l_quantity").ints;
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return disc[r] >= 5 && disc[r] <= 7 && qty[r] < 24;
  });
  const std::vector<int64_t>& price = items.column("l_extendedprice").ints;
  const std::vector<int64_t>& kept_disc = items.column("l_discount").ints;
  items = WithComputedColumn(
      ctx, std::move(items), "revenue", ColumnType::kDouble,
      [&](const Batch&, size_t r) {
        return DecimalToDouble(price[r]) * (kept_disc[r] / 100.0);
      });
  return HashAggregate(ctx, items, {},
                       {{AggOp::kSum, "revenue", "revenue"}});
}

// Q7: volume shipping between FRANCE and GERMANY by year.
Result<Batch> Q7(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader customer, ctx->OpenTable(kCustomer));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch nations, ScanTable(ctx, &nation, {"n_nationkey", "n_name"}));
  nations = FilterStrings(ctx, nations, "n_name", [](const std::string& n) {
    return n == "FRANCE" || n == "GERMANY";
  });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier, {"s_suppkey", "s_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_nationkey", nations,
                                    "n_nationkey", JoinType::kInner));
  // n_name now tags the supplier nation.
  Batch supp_tagged = suppliers;
  supp_tagged.names[supp_tagged.Col("n_name")] = "supp_nation";

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch customers,
      ScanTable(ctx, &customer, {"c_custkey", "c_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(customers,
                           HashJoin(ctx, customers, "c_nationkey", nations,
                                    "n_nationkey", JoinType::kInner));
  Batch cust_tagged = customers;
  cust_tagged.names[cust_tagged.Col("n_name")] = "cust_nation";

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord, ScanTable(ctx, &orders, {"o_orderkey", "o_custkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(ord,
                           HashJoin(ctx, ord, "o_custkey", cust_tagged,
                                    "c_custkey", JoinType::kInner));

  int64_t lo = D(1995, 1, 1);
  int64_t hi = D(1996, 12, 31);
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"},
                ScanRange{"l_shipdate", lo, hi}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_orderkey", ord,
                                           "o_orderkey", JoinType::kInner));
  CLOUDIQ_ASSIGN_OR_RETURN(items,
                           HashJoin(ctx, items, "l_suppkey", supp_tagged,
                                    "s_suppkey", JoinType::kInner));
  std::vector<uint8_t> s_fr = EqualsMask(items, "supp_nation", "FRANCE");
  std::vector<uint8_t> s_de = EqualsMask(items, "supp_nation", "GERMANY");
  std::vector<uint8_t> c_fr = EqualsMask(items, "cust_nation", "FRANCE");
  std::vector<uint8_t> c_de = EqualsMask(items, "cust_nation", "GERMANY");
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return (s_fr[r] && c_de[r]) || (s_de[r] && c_fr[r]);
  });
  items = WithRevenue(ctx, std::move(items), "l_extendedprice",
                      "l_discount", "volume");
  const std::vector<int64_t>& shipdate = items.column("l_shipdate").ints;
  items = WithComputedColumn(
      ctx, std::move(items), "l_year", ColumnType::kInt64,
      [&](const Batch&, size_t r) { return YearOf(shipdate[r]); });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, items, {"supp_nation", "cust_nation", "l_year"},
                    {{AggOp::kSum, "volume", "revenue"}}));
  return SortBatch(ctx, std::move(agg),
                   {{"supp_nation", true},
                    {"cust_nation", true},
                    {"l_year", true}});
}

// Q8: national market share of BRAZIL within AMERICA for one part type.
Result<Batch> Q8(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader part, ctx->OpenTable(kPart));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader customer, ctx->OpenTable(kCustomer));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader region, ctx->OpenTable(kRegion));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch parts, ScanTable(ctx, &part, {"p_partkey", "p_type"}));
  parts = FilterEquals(ctx, parts, "p_type", "ECONOMY ANODIZED STEEL");

  CLOUDIQ_ASSIGN_OR_RETURN(Batch regions,
                           ScanTable(ctx, &region,
                                     {"r_regionkey", "r_name"}));
  regions = FilterEquals(ctx, regions, "r_name", "AMERICA");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch nations,
      ScanTable(ctx, &nation, {"n_nationkey", "n_regionkey", "n_name"}));
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch america_nations,
      HashJoin(ctx, nations, "n_regionkey", regions, "r_regionkey",
               JoinType::kLeftSemi));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch customers,
      ScanTable(ctx, &customer, {"c_custkey", "c_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(customers,
                           HashJoin(ctx, customers, "c_nationkey",
                                    america_nations, "n_nationkey",
                                    JoinType::kLeftSemi));

  int64_t lo = D(1995, 1, 1);
  int64_t hi = D(1996, 12, 31);
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord,
      ScanTable(ctx, &orders, {"o_orderkey", "o_custkey", "o_orderdate"}));
  const std::vector<int64_t>& orderdate = ord.column("o_orderdate").ints;
  ord = FilterBatch(ctx, ord, [&](const Batch&, size_t r) {
    return orderdate[r] >= lo && orderdate[r] <= hi;
  });
  CLOUDIQ_ASSIGN_OR_RETURN(ord, HashJoin(ctx, ord, "o_custkey", customers,
                                         "c_custkey", JoinType::kLeftSemi));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
                 "l_discount"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_partkey", parts,
                                           "p_partkey", JoinType::kLeftSemi));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_orderkey", ord,
                                           "o_orderkey", JoinType::kInner));

  // Supplier nation name for the numerator.
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier, {"s_suppkey", "s_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_nationkey", nations,
                                    "n_nationkey", JoinType::kInner));
  CLOUDIQ_ASSIGN_OR_RETURN(items,
                           HashJoin(ctx, items, "l_suppkey", suppliers,
                                    "s_suppkey", JoinType::kInner));

  items = WithRevenue(ctx, std::move(items), "l_extendedprice",
                      "l_discount", "volume");
  const std::vector<int64_t>& item_date = items.column("o_orderdate").ints;
  items = WithComputedColumn(
      ctx, std::move(items), "o_year", ColumnType::kInt64,
      [&](const Batch&, size_t r) { return YearOf(item_date[r]); });
  std::vector<uint8_t> brazil = EqualsMask(items, "n_name", "BRAZIL");
  const std::vector<double>& volume = items.column("volume").doubles;
  items = WithComputedColumn(
      ctx, std::move(items), "brazil_volume", ColumnType::kDouble,
      [&](const Batch&, size_t r) { return brazil[r] ? volume[r] : 0.0; });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg,
      HashAggregate(ctx, items, {"o_year"},
                    {{AggOp::kSum, "brazil_volume", "brazil"},
                     {AggOp::kSum, "volume", "total"}}));
  const std::vector<double>& brazil_sum = agg.column("brazil").doubles;
  const std::vector<double>& total = agg.column("total").doubles;
  agg = WithComputedColumn(
      ctx, std::move(agg), "mkt_share", ColumnType::kDouble,
      [&](const Batch&, size_t r) {
        return total[r] > 0 ? brazil_sum[r] / total[r] : 0.0;
      });
  return SortBatch(ctx, std::move(agg), {{"o_year", true}});
}

// Q9: product-type profit by nation and year for green parts.
Result<Batch> Q9(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader part, ctx->OpenTable(kPart));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader partsupp, ctx->OpenTable(kPartSupp));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));

  CLOUDIQ_ASSIGN_OR_RETURN(Batch parts,
                           ScanTable(ctx, &part, {"p_partkey", "p_name"}));
  parts = FilterStrings(ctx, parts, "p_name", [](const std::string& n) {
    return Contains(n, "furiously");  // the "green" stand-in
  });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_partkey", parts,
                                           "p_partkey", JoinType::kLeftSemi));

  // ps_supplycost via composite (partkey, suppkey): join on partkey then
  // match suppkey.
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ps, ScanTable(ctx, &partsupp,
                          {"ps_partkey", "ps_suppkey", "ps_supplycost"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_partkey", ps,
                                           "ps_partkey", JoinType::kInner));
  const std::vector<int64_t>& l_supp = items.column("l_suppkey").ints;
  const std::vector<int64_t>& ps_supp = items.column("ps_suppkey").ints;
  items = FilterBatch(ctx, items, [&](const Batch&, size_t r) {
    return l_supp[r] == ps_supp[r];
  });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord, ScanTable(ctx, &orders, {"o_orderkey", "o_orderdate"}));
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_orderkey", ord,
                                           "o_orderkey", JoinType::kInner));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier, {"s_suppkey", "s_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(Batch nations,
                           ScanTable(ctx, &nation,
                                     {"n_nationkey", "n_name"}));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_nationkey", nations,
                                    "n_nationkey", JoinType::kInner));
  CLOUDIQ_ASSIGN_OR_RETURN(items,
                           HashJoin(ctx, items, "l_suppkey", suppliers,
                                    "s_suppkey", JoinType::kInner));

  const std::vector<int64_t>& price = items.column("l_extendedprice").ints;
  const std::vector<int64_t>& disc = items.column("l_discount").ints;
  const std::vector<int64_t>& supplycost = items.column("ps_supplycost").ints;
  const std::vector<int64_t>& qty = items.column("l_quantity").ints;
  items = WithComputedColumn(
      ctx, std::move(items), "amount", ColumnType::kDouble,
      [&](const Batch&, size_t r) {
        double revenue = DecimalToDouble(price[r]) * (1.0 - disc[r] / 100.0);
        double cost = DecimalToDouble(supplycost[r]) * qty[r];
        return revenue - cost;
      });
  const std::vector<int64_t>& orderdate = items.column("o_orderdate").ints;
  items = WithComputedColumn(
      ctx, std::move(items), "o_year", ColumnType::kInt64,
      [&](const Batch&, size_t r) { return YearOf(orderdate[r]); });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg, HashAggregate(ctx, items, {"n_name", "o_year"},
                               {{AggOp::kSum, "amount", "sum_profit"}}));
  return SortBatch(ctx, std::move(agg),
                   {{"n_name", true}, {"o_year", false}});
}

// Q10: returned-item reporting, top 20 customers by lost revenue.
Result<Batch> Q10(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader customer, ctx->OpenTable(kCustomer));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader orders, ctx->OpenTable(kOrders));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader lineitem, ctx->OpenTable(kLineitem));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));

  int64_t lo = D(1993, 10, 1);
  int64_t hi = D(1994, 1, 1) - 1;
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ord,
      ScanTable(ctx, &orders, {"o_orderkey", "o_custkey", "o_orderdate"}));
  const std::vector<int64_t>& orderdate = ord.column("o_orderdate").ints;
  ord = FilterBatch(ctx, ord, [&](const Batch&, size_t r) {
    return orderdate[r] >= lo && orderdate[r] <= hi;
  });

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch items,
      ScanTable(ctx, &lineitem,
                {"l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"}));
  items = FilterEquals(ctx, items, "l_returnflag", "R");
  CLOUDIQ_ASSIGN_OR_RETURN(items, HashJoin(ctx, items, "l_orderkey", ord,
                                           "o_orderkey", JoinType::kInner));
  items = WithRevenue(ctx, std::move(items), "l_extendedprice",
                      "l_discount", "revenue");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch by_cust, HashAggregate(ctx, items, {"o_custkey"},
                                   {{AggOp::kSum, "revenue", "revenue"}}));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch customers,
      ScanTable(ctx, &customer,
                {"c_custkey", "c_name", "c_acctbal", "c_nationkey",
                 "c_phone"}));
  CLOUDIQ_ASSIGN_OR_RETURN(Batch nations,
                           ScanTable(ctx, &nation,
                                     {"n_nationkey", "n_name"}));
  CLOUDIQ_ASSIGN_OR_RETURN(customers,
                           HashJoin(ctx, customers, "c_nationkey", nations,
                                    "n_nationkey", JoinType::kInner));
  CLOUDIQ_ASSIGN_OR_RETURN(Batch joined,
                           HashJoin(ctx, by_cust, "o_custkey", customers,
                                    "c_custkey", JoinType::kInner));
  return SortBatch(ctx, std::move(joined), {{"revenue", false}}, 20);
}

// Q11: important stock identification in GERMANY.
Result<Batch> Q11(QueryContext* ctx) {
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader partsupp, ctx->OpenTable(kPartSupp));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader supplier, ctx->OpenTable(kSupplier));
  CLOUDIQ_ASSIGN_OR_RETURN(TableReader nation, ctx->OpenTable(kNation));

  CLOUDIQ_ASSIGN_OR_RETURN(Batch nations,
                           ScanTable(ctx, &nation,
                                     {"n_nationkey", "n_name"}));
  nations = FilterEquals(ctx, nations, "n_name", "GERMANY");
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch suppliers,
      ScanTable(ctx, &supplier, {"s_suppkey", "s_nationkey"}));
  CLOUDIQ_ASSIGN_OR_RETURN(suppliers,
                           HashJoin(ctx, suppliers, "s_nationkey", nations,
                                    "n_nationkey", JoinType::kLeftSemi));

  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch ps,
      ScanTable(ctx, &partsupp,
                {"ps_partkey", "ps_suppkey", "ps_availqty",
                 "ps_supplycost"}));
  CLOUDIQ_ASSIGN_OR_RETURN(ps, HashJoin(ctx, ps, "ps_suppkey", suppliers,
                                        "s_suppkey", JoinType::kLeftSemi));
  const std::vector<int64_t>& supplycost = ps.column("ps_supplycost").ints;
  const std::vector<int64_t>& availqty = ps.column("ps_availqty").ints;
  ps = WithComputedColumn(
      ctx, std::move(ps), "value", ColumnType::kDouble,
      [&](const Batch&, size_t r) {
        return DecimalToDouble(supplycost[r]) * availqty[r];
      });
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch total_batch,
      HashAggregate(ctx, ps, {}, {{AggOp::kSum, "value", "total"}}));
  double threshold = total_batch.rows() > 0
                         ? total_batch.column("total").doubles[0] * 0.0001
                         : 0.0;
  CLOUDIQ_ASSIGN_OR_RETURN(
      Batch agg, HashAggregate(ctx, ps, {"ps_partkey"},
                               {{AggOp::kSum, "value", "value"}}));
  const std::vector<double>& value = agg.column("value").doubles;
  agg = FilterBatch(ctx, agg, [&](const Batch&, size_t r) {
    return value[r] > threshold;
  });
  return SortBatch(ctx, std::move(agg), {{"value", false}});
}

}  // namespace tpch_internal

namespace {

Result<Batch> RunQuery(QueryContext* ctx, int query_number) {
  using namespace tpch_internal;
  switch (query_number) {
    case 1: return Q1(ctx);
    case 2: return Q2(ctx);
    case 3: return Q3(ctx);
    case 4: return Q4(ctx);
    case 5: return Q5(ctx);
    case 6: return Q6(ctx);
    case 7: return Q7(ctx);
    case 8: return Q8(ctx);
    case 9: return Q9(ctx);
    case 10: return Q10(ctx);
    case 11: return Q11(ctx);
    case 12: return Q12(ctx);
    case 13: return Q13(ctx);
    case 14: return Q14(ctx);
    case 15: return Q15(ctx);
    case 16: return Q16(ctx);
    case 17: return Q17(ctx);
    case 18: return Q18(ctx);
    case 19: return Q19(ctx);
    case 20: return Q20(ctx);
    case 21: return Q21(ctx);
    case 22: return Q22(ctx);
    default:
      return Status::InvalidArgument("TPC-H query number out of range");
  }
}

}  // namespace

Result<Batch> RunTpchQuery(QueryContext* ctx, int query_number) {
  CLOUDIQ_ASSIGN_OR_RETURN(Batch result, RunQuery(ctx, query_number));
  // The expansion boundary: operators carry dictionary codes; the few
  // result rows get their strings here.
  for (ColumnVector& col : result.columns) col.ExpandStrings();
  return result;
}

const char* TpchQueryDescription(int query_number) {
  switch (query_number) {
    case 1: return "pricing summary: full lineitem scan + wide aggregate";
    case 2: return "min-cost supplier: small-table join pipeline";
    case 3: return "shipping priority: customer x orders x lineitem top-n";
    case 4: return "order priority: orders semi-join late lineitems";
    case 5: return "local supplier volume: six-way join";
    case 6: return "revenue forecast: pure lineitem predicate scan";
    case 7: return "nation volume shipping: two-nation join by year";
    case 8: return "national market share: eight-table join";
    case 9: return "product profit: five-way join, group by nation/year";
    case 10: return "returned items: top customers by lost revenue";
    case 11: return "important stock: partsupp value concentration";
    case 12: return "shipmode priority: lineitem x orders counts";
    case 13: return "customer distribution: orders per customer histogram";
    case 14: return "promo revenue: lineitem x part monthly fraction";
    case 15: return "top supplier: quarterly revenue ranking";
    case 16: return "parts/supplier relationship: distinct supplier counts";
    case 17: return "small-quantity revenue: avg-quantity correlated agg";
    case 18: return "large-volume customers: quantity-heavy orders top-n";
    case 19: return "discounted revenue: disjunctive part predicates";
    case 20: return "potential promotion: nested semi-joins on stock";
    case 21: return "waiting suppliers: multi-pass lineitem self-joins";
    case 22: return "global sales opportunity: anti-join on orders";
  }
  return "unknown";
}

}  // namespace cloudiq

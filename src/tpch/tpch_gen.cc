#include "tpch/tpch_gen.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

namespace cloudiq {
namespace {

// Deterministic per-entity RNG: the same (seed, table, entity) always
// produces the same values, so batches can be generated in any split.
Rng EntityRng(uint64_t seed, uint64_t table, uint64_t entity) {
  return Rng(seed ^ (table * 0x9e3779b97f4a7c15ULL) ^
             (entity * 0xc2b2ae3d27d4eb4fULL));
}

const char* kRegionNames[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                               "MIDDLE EAST"};
const char* kNationNames[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
// region of each nation, per the TPC-H spec.
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};

const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                            "HOUSEHOLD", "MACHINERY"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                              "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[7] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR",
                             "SHIP", "TRUCK"};
const char* kShipInstructs[4] = {"COLLECT COD", "DELIVER IN PERSON",
                                 "NONE", "TAKE BACK RETURN"};
const char* kTypes1[6] = {"STANDARD", "SMALL",   "MEDIUM",
                          "LARGE",    "ECONOMY", "PROMO"};
const char* kTypes2[5] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                          "BRUSHED"};
const char* kTypes3[5] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainers1[5] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainers2[8] = {"CASE", "BOX", "BAG", "JAR",
                               "PKG",  "PACK", "CAN", "DRUM"};
const char* kWords[24] = {
    "furiously", "quickly", "slyly",    "carefully", "blithely", "even",
    "final",     "ironic",  "pending",  "regular",   "special",  "express",
    "accounts",  "deposits", "requests", "packages", "theodolites",
    "instructions", "foxes", "pinto", "beans", "dependencies", "platelets",
    "asymptotes"};

constexpr int kMaxCommentWords = 20;

// Draws the words first, so the comment is built at its final size.
std::string RandomComment(Rng& rng, int min_words, int max_words) {
  assert(max_words <= kMaxCommentWords);
  int n = static_cast<int>(rng.UniformRange(min_words, max_words));
  const char* words[kMaxCommentWords];
  size_t lengths[kMaxCommentWords];
  size_t size = n > 0 ? n - 1 : 0;  // the spaces
  for (int i = 0; i < n; ++i) {
    words[i] = kWords[rng.Uniform(24)];
    lengths[i] = std::strlen(words[i]);
    size += lengths[i];
  }
  std::string out;
  out.reserve(size);
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out.append(words[i], lengths[i]);
  }
  return out;
}

std::string Phone(Rng& rng, int64_t nationkey) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d",
                static_cast<int>(10 + nationkey),
                static_cast<int>(rng.UniformRange(100, 999)),
                static_cast<int>(rng.UniformRange(100, 999)),
                static_cast<int>(rng.UniformRange(1000, 9999)));
  return buf;
}

std::string KeyedName(const char* prefix, uint64_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s#%09llu", prefix,
                static_cast<unsigned long long>(key));
  return buf;
}

// Retail price formula from the spec (scaled decimal, 2 digits).
int64_t PartRetailPrice(uint64_t partkey) {
  return 90000 + ((partkey / 10) % 20001) + 100 * (partkey % 1000);
}

constexpr int kMaxLinesPerOrder = 7;

}  // namespace

// 1-7 lines, uniform (the spec's distribution; average 4). Deterministic
// in the order key alone so the mapping never depends on batch splits.
int TpchGenerator::LinesPerOrder(uint64_t orderkey) {
  uint64_t h = orderkey * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return 1 + static_cast<int>(h % kMaxLinesPerOrder);
}

void TpchGenerator::EnsureLinePrefix() const {
  if (!line_prefix_.empty()) return;
  uint64_t orders = RowCount(kOrders);
  line_prefix_.resize(orders + 1, 0);
  for (uint64_t o = 1; o <= orders; ++o) {
    line_prefix_[o] = line_prefix_[o - 1] + LinesPerOrder(o);
  }
}

void TpchGenerator::OrderForLineRow(uint64_t row, uint64_t* order_index,
                                    int* linenumber) const {
  EnsureLinePrefix();
  // Binary search the prefix sums: first order whose cumulative count
  // exceeds `row`.
  uint64_t lo = 0;
  uint64_t hi = line_prefix_.size() - 1;
  while (lo < hi) {
    uint64_t mid = (lo + hi) / 2;
    if (line_prefix_[mid + 1] > row) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  *order_index = lo;  // 0-based; orderkey = lo + 1
  *linenumber = static_cast<int>(row - line_prefix_[lo]);
}

TpchGenerator::TpchGenerator(double scale, uint64_t seed)
    : scale_(scale), seed_(seed) {}

int64_t TpchGenerator::MinOrderDate() { return DaysFromCivil(1992, 1, 1); }
int64_t TpchGenerator::MaxOrderDate() { return DaysFromCivil(1998, 8, 2); }

uint64_t TpchGenerator::RowCount(TpchTable table) const {
  auto scaled = [&](double base) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(base * scale_));
  };
  switch (table) {
    case kRegion:
      return 5;
    case kNation:
      return 25;
    case kSupplier:
      return scaled(10000);
    case kCustomer:
      return scaled(150000);
    case kPart:
      return scaled(200000);
    case kPartSupp:
      return scaled(200000) * 4;
    case kOrders:
      return scaled(1500000);
    case kLineitem:
      EnsureLinePrefix();
      return line_prefix_.back();
  }
  return 0;
}

uint64_t TpchGenerator::RawRowBytes(TpchTable table) {
  switch (table) {
    case kRegion:
      return 80;
    case kNation:
      return 90;
    case kSupplier:
      return 140;
    case kCustomer:
      return 160;
    case kPart:
      return 120;
    case kPartSupp:
      return 145;
    case kOrders:
      return 110;
    case kLineitem:
      return 130;
  }
  return 100;
}

TableSchema TpchGenerator::SchemaFor(TpchTable table,
                                     size_t partitions) const {
  TableSchema s;
  s.table_id = table;
  auto bounds_for = [&](uint64_t max_key) {
    std::vector<int64_t> bounds;
    for (size_t i = 1; i < partitions; ++i) {
      bounds.push_back(static_cast<int64_t>(max_key * i / partitions) + 1);
    }
    return bounds;
  };
  using CT = ColumnType;
  switch (table) {
    case kRegion:
      s.name = "region";
      s.columns = {{"r_regionkey", CT::kInt64},
                   {"r_name", CT::kString},
                   {"r_comment", CT::kString}};
      break;
    case kNation:
      s.name = "nation";
      s.columns = {{"n_nationkey", CT::kInt64},
                   {"n_name", CT::kString},
                   {"n_regionkey", CT::kInt64},
                   {"n_comment", CT::kString}};
      s.hg_index_columns = {2};  // n_regionkey
      break;
    case kSupplier:
      s.name = "supplier";
      s.columns = {{"s_suppkey", CT::kInt64},  {"s_name", CT::kString},
                   {"s_address", CT::kString}, {"s_nationkey", CT::kInt64},
                   {"s_phone", CT::kString},   {"s_acctbal", CT::kDecimal},
                   {"s_comment", CT::kString}};
      s.hg_index_columns = {3};  // s_nationkey
      break;
    case kCustomer:
      s.name = "customer";
      s.columns = {{"c_custkey", CT::kInt64},
                   {"c_name", CT::kString},
                   {"c_address", CT::kString},
                   {"c_nationkey", CT::kInt64},
                   {"c_phone", CT::kString},
                   {"c_acctbal", CT::kDecimal},
                   {"c_mktsegment", CT::kString},
                   {"c_comment", CT::kString}};
      s.partition_column = 0;
      s.partition_bounds = bounds_for(RowCount(kCustomer));
      s.hg_index_columns = {3};  // c_nationkey
      break;
    case kPart:
      s.name = "part";
      s.columns = {{"p_partkey", CT::kInt64},
                   {"p_name", CT::kString},
                   {"p_mfgr", CT::kString},
                   {"p_brand", CT::kString},
                   {"p_type", CT::kString},
                   {"p_size", CT::kInt64},
                   {"p_container", CT::kString},
                   {"p_retailprice", CT::kDecimal},
                   {"p_comment", CT::kString}};
      s.partition_column = 0;
      s.partition_bounds = bounds_for(RowCount(kPart));
      break;
    case kPartSupp:
      s.name = "partsupp";
      s.columns = {{"ps_partkey", CT::kInt64},
                   {"ps_suppkey", CT::kInt64},
                   {"ps_availqty", CT::kInt64},
                   {"ps_supplycost", CT::kDecimal},
                   {"ps_comment", CT::kString}};
      s.partition_column = 0;
      s.partition_bounds = bounds_for(RowCount(kPart));
      s.hg_index_columns = {1, 0};  // ps_suppkey, ps_partkey
      break;
    case kOrders:
      s.name = "orders";
      s.columns = {{"o_orderkey", CT::kInt64},
                   {"o_custkey", CT::kInt64},
                   {"o_orderstatus", CT::kString},
                   {"o_totalprice", CT::kDecimal},
                   {"o_orderdate", CT::kDate},
                   {"o_orderpriority", CT::kString},
                   {"o_clerk", CT::kString},
                   {"o_shippriority", CT::kInt64},
                   {"o_comment", CT::kString}};
      s.partition_column = 0;
      s.partition_bounds = bounds_for(RowCount(kOrders));
      s.hg_index_columns = {1};    // o_custkey
      s.date_index_columns = {4};  // o_orderdate
      s.text_index_columns = {8};  // o_comment
      break;
    case kLineitem:
      s.name = "lineitem";
      s.columns = {{"l_orderkey", CT::kInt64},
                   {"l_partkey", CT::kInt64},
                   {"l_suppkey", CT::kInt64},
                   {"l_linenumber", CT::kInt64},
                   {"l_quantity", CT::kInt64},
                   {"l_extendedprice", CT::kDecimal},
                   {"l_discount", CT::kDecimal},
                   {"l_tax", CT::kDecimal},
                   {"l_returnflag", CT::kString},
                   {"l_linestatus", CT::kString},
                   {"l_shipdate", CT::kDate},
                   {"l_commitdate", CT::kDate},
                   {"l_receiptdate", CT::kDate},
                   {"l_shipinstruct", CT::kString},
                   {"l_shipmode", CT::kString},
                   {"l_comment", CT::kString}};
      s.partition_column = 0;
      s.partition_bounds = bounds_for(RowCount(kOrders));  // by orderkey
      s.hg_index_columns = {0};     // l_orderkey
      s.date_index_columns = {10};  // l_shipdate
      break;
  }
  return s;
}

namespace {

// Per-order deterministic line detail, shared between orders (to compute
// o_totalprice / o_orderstatus) and lineitem generation.
struct LineDetail {
  int64_t partkey;
  int64_t suppkey;
  int64_t quantity;
  int64_t extendedprice;  // scaled decimal
  int64_t discount;       // scaled decimal (0-10)
  int64_t tax;            // scaled decimal (0-8)
  int64_t shipdate;
  int64_t commitdate;
  int64_t receiptdate;
};

struct OrderDetail {
  int64_t custkey;
  int64_t orderdate;
  int line_count;
  LineDetail lines[kMaxLinesPerOrder];
  int64_t totalprice;
  char orderstatus;
};

OrderDetail MakeOrder(uint64_t seed, uint64_t orderkey, uint64_t customers,
                      uint64_t parts, uint64_t suppliers) {
  Rng rng = EntityRng(seed, kOrders, orderkey);
  OrderDetail order;
  // Spec: a third of customers place no orders (custkey % 3 == 0 skipped).
  do {
    order.custkey = rng.UniformRange(1, static_cast<int64_t>(customers));
  } while (customers >= 3 && order.custkey % 3 == 0);
  int64_t min_date = TpchGenerator::MinOrderDate();
  int64_t max_date = TpchGenerator::MaxOrderDate() - 151;
  order.orderdate = rng.UniformRange(min_date, max_date);

  order.totalprice = 0;
  order.line_count = TpchGenerator::LinesPerOrder(orderkey);
  int open_lines = 0;
  for (int l = 0; l < order.line_count; ++l) {
    LineDetail& line = order.lines[l];
    line.partkey = rng.UniformRange(1, static_cast<int64_t>(parts));
    // One of the part's four suppliers, per the spec's formula.
    int64_t i = rng.UniformRange(0, 3);
    int64_t s = static_cast<int64_t>(suppliers);
    line.suppkey =
        (line.partkey + i * (s / 4 + (line.partkey - 1) / s)) % s + 1;
    line.quantity = rng.UniformRange(1, 50);
    line.extendedprice = line.quantity * PartRetailPrice(line.partkey);
    line.discount = rng.UniformRange(0, 10);
    line.tax = rng.UniformRange(0, 8);
    line.shipdate = order.orderdate + rng.UniformRange(1, 121);
    line.commitdate = order.orderdate + rng.UniformRange(30, 90);
    line.receiptdate = line.shipdate + rng.UniformRange(1, 30);
    order.totalprice += line.extendedprice * (100 + line.tax) / 100 *
                        (100 - line.discount) / 100;
    if (line.shipdate > DaysFromCivil(1995, 6, 17)) ++open_lines;
  }
  order.orderstatus = open_lines == order.line_count
                          ? 'O'
                          : (open_lines == 0 ? 'F' : 'P');
  return order;
}

}  // namespace

Batch TpchGenerator::GenerateBatch(TpchTable table, uint64_t first,
                                   uint64_t count) {
  TableSchema schema = SchemaFor(table);
  Batch batch;
  for (const ColumnDef& col : schema.columns) {
    ColumnVector vec;
    vec.type = col.type;
    vec.reserve(count);
    batch.AddColumn(col.name, std::move(vec));
  }
  uint64_t customers = RowCount(kCustomer);
  uint64_t parts = RowCount(kPart);
  uint64_t suppliers = RowCount(kSupplier);
  // Lineitem rows walk their orders in order: the first row's order comes
  // from the prefix sums, and each order's detail is built once for all
  // its lines.
  uint64_t order_index = 0;
  int linenumber = 0;
  OrderDetail order{};
  if (table == kLineitem && count > 0) {
    OrderForLineRow(first, &order_index, &linenumber);
    order = MakeOrder(seed_, order_index + 1, customers, parts, suppliers);
  }

  for (uint64_t row = first; row < first + count; ++row) {
    switch (table) {
      case kRegion: {
        Rng rng = EntityRng(seed_, table, row);
        batch.columns[0].ints.push_back(static_cast<int64_t>(row));
        batch.columns[1].strings.push_back(kRegionNames[row % 5]);
        batch.columns[2].strings.push_back(RandomComment(rng, 4, 10));
        break;
      }
      case kNation: {
        Rng rng = EntityRng(seed_, table, row);
        batch.columns[0].ints.push_back(static_cast<int64_t>(row));
        batch.columns[1].strings.push_back(kNationNames[row % 25]);
        batch.columns[2].ints.push_back(kNationRegion[row % 25]);
        batch.columns[3].strings.push_back(RandomComment(rng, 4, 10));
        break;
      }
      case kSupplier: {
        uint64_t key = row + 1;
        Rng rng = EntityRng(seed_, table, key);
        int64_t nation = rng.UniformRange(0, 24);
        batch.columns[0].ints.push_back(static_cast<int64_t>(key));
        batch.columns[1].strings.push_back(KeyedName("Supplier", key));
        batch.columns[2].strings.push_back(RandomComment(rng, 2, 4));
        batch.columns[3].ints.push_back(nation);
        batch.columns[4].strings.push_back(Phone(rng, nation));
        batch.columns[5].ints.push_back(rng.UniformRange(-99999, 999999));
        // ~5% of suppliers carry the Q16 complaints marker.
        std::string comment = RandomComment(rng, 4, 10);
        if (rng.Bernoulli(0.05)) {
          comment += " Customer some Complaints noted";
        }
        batch.columns[6].strings.push_back(std::move(comment));
        break;
      }
      case kCustomer: {
        uint64_t key = row + 1;
        Rng rng = EntityRng(seed_, table, key);
        int64_t nation = rng.UniformRange(0, 24);
        batch.columns[0].ints.push_back(static_cast<int64_t>(key));
        batch.columns[1].strings.push_back(KeyedName("Customer", key));
        batch.columns[2].strings.push_back(RandomComment(rng, 2, 4));
        batch.columns[3].ints.push_back(nation);
        batch.columns[4].strings.push_back(Phone(rng, nation));
        batch.columns[5].ints.push_back(rng.UniformRange(-99999, 999999));
        batch.columns[6].strings.push_back(kSegments[rng.Uniform(5)]);
        batch.columns[7].strings.push_back(RandomComment(rng, 6, 20));
        break;
      }
      case kPart: {
        uint64_t key = row + 1;
        Rng rng = EntityRng(seed_, table, key);
        batch.columns[0].ints.push_back(static_cast<int64_t>(key));
        std::string name = std::string(kWords[rng.Uniform(24)]) + " " +
                           kWords[rng.Uniform(24)] + " " +
                           kWords[rng.Uniform(24)];
        batch.columns[1].strings.push_back(std::move(name));
        int mfgr = static_cast<int>(rng.UniformRange(1, 5));
        batch.columns[2].strings.push_back("Manufacturer#" +
                                           std::to_string(mfgr));
        batch.columns[3].strings.push_back(
            "Brand#" + std::to_string(mfgr) +
            std::to_string(rng.UniformRange(1, 5)));
        std::string type = std::string(kTypes1[rng.Uniform(6)]) + " " +
                           kTypes2[rng.Uniform(5)] + " " +
                           kTypes3[rng.Uniform(5)];
        batch.columns[4].strings.push_back(std::move(type));
        batch.columns[5].ints.push_back(rng.UniformRange(1, 50));
        batch.columns[6].strings.push_back(
            std::string(kContainers1[rng.Uniform(5)]) + " " +
            kContainers2[rng.Uniform(8)]);
        batch.columns[7].ints.push_back(PartRetailPrice(key));
        batch.columns[8].strings.push_back(RandomComment(rng, 2, 6));
        break;
      }
      case kPartSupp: {
        uint64_t partkey = row / 4 + 1;
        uint64_t i = row % 4;
        Rng rng = EntityRng(seed_, table, row + 1);
        int64_t s = static_cast<int64_t>(suppliers);
        int64_t suppkey =
            (static_cast<int64_t>(partkey) +
             static_cast<int64_t>(i) *
                 (s / 4 + (static_cast<int64_t>(partkey) - 1) / s)) %
                s +
            1;
        batch.columns[0].ints.push_back(static_cast<int64_t>(partkey));
        batch.columns[1].ints.push_back(suppkey);
        batch.columns[2].ints.push_back(rng.UniformRange(1, 9999));
        batch.columns[3].ints.push_back(rng.UniformRange(100, 100000));
        batch.columns[4].strings.push_back(RandomComment(rng, 6, 20));
        break;
      }
      case kOrders: {
        uint64_t key = row + 1;
        OrderDetail order =
            MakeOrder(seed_, key, customers, parts, suppliers);
        Rng rng = EntityRng(seed_, table, key ^ 0xabcdef);
        batch.columns[0].ints.push_back(static_cast<int64_t>(key));
        batch.columns[1].ints.push_back(order.custkey);
        batch.columns[2].strings.push_back(
            std::string(1, order.orderstatus));
        batch.columns[3].ints.push_back(order.totalprice);
        batch.columns[4].ints.push_back(order.orderdate);
        batch.columns[5].strings.push_back(kPriorities[rng.Uniform(5)]);
        batch.columns[6].strings.push_back(
            KeyedName("Clerk", rng.UniformRange(1, 1000)));
        batch.columns[7].ints.push_back(0);
        batch.columns[8].strings.push_back(RandomComment(rng, 6, 16));
        break;
      }
      case kLineitem: {
        if (linenumber == order.line_count) {
          ++order_index;
          linenumber = 0;
          order =
              MakeOrder(seed_, order_index + 1, customers, parts, suppliers);
        }
        uint64_t orderkey = order_index + 1;
        const LineDetail& line = order.lines[linenumber];
        Rng rng = EntityRng(seed_, table, row + 1);
        int64_t cutoff = DaysFromCivil(1995, 6, 17);
        batch.columns[0].ints.push_back(static_cast<int64_t>(orderkey));
        batch.columns[1].ints.push_back(line.partkey);
        batch.columns[2].ints.push_back(line.suppkey);
        batch.columns[3].ints.push_back(linenumber + 1);
        batch.columns[4].ints.push_back(line.quantity);
        batch.columns[5].ints.push_back(line.extendedprice);
        batch.columns[6].ints.push_back(line.discount);
        batch.columns[7].ints.push_back(line.tax);
        batch.columns[8].strings.push_back(
            line.receiptdate <= cutoff ? (rng.Bernoulli(0.5) ? "R" : "A")
                                       : "N");
        batch.columns[9].strings.push_back(line.shipdate > cutoff ? "O"
                                                                  : "F");
        batch.columns[10].ints.push_back(line.shipdate);
        batch.columns[11].ints.push_back(line.commitdate);
        batch.columns[12].ints.push_back(line.receiptdate);
        batch.columns[13].strings.push_back(
            kShipInstructs[rng.Uniform(4)]);
        batch.columns[14].strings.push_back(kShipModes[rng.Uniform(7)]);
        batch.columns[15].strings.push_back(RandomComment(rng, 2, 8));
        ++linenumber;
        break;
      }
    }
  }
  return batch;
}

}  // namespace cloudiq

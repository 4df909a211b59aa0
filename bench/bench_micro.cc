// Micro-benchmarks (google-benchmark) for CloudIQ's hot primitives:
// n-bit packing, column-page encode/decode, page framing, the device
// models' channel pick, the morsel executor's scan (full and under a
// range predicate), object key generation, bitmap and interval-set operations, the executor's
// row-key hash table, and the load path's page encode, TEXT index and
// generator. These measure real CPU time (not simulated time) and guard
// against regressions in the encode/decode paths that the simulated
// CPU-cost model abstracts.

#include <optional>

#include <benchmark/benchmark.h>

#include "columnar/encoding.h"
#include "columnar/text_index.h"
#include "common/bitmap.h"
#include "common/dense_key_index.h"
#include "common/interval_set.h"
#include "common/random.h"
#include "engine/database.h"
#include "exec/row_key_table.h"
#include "keygen/object_key_generator.h"
#include "store/page_codec.h"
#include "sim/device.h"
#include "store/physical_loc.h"
#include "tpch/tpch_gen.h"

namespace cloudiq {
namespace {

// Reports items per second and `counter`, the time per item (in seconds;
// the console prints it as e.g. "5.8ns").
void SetTimePer(benchmark::State& state, const char* counter, size_t items) {
  state.SetItemsProcessed(state.iterations() * items);
  state.counters[counter] = benchmark::Counter(
      static_cast<double>(items),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_NBitPack(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<uint64_t> values(8192);
  uint64_t mask =
      width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  for (auto& v : values) v = rng.Next() & mask;
  for (auto _ : state) {
    benchmark::DoNotOptimize(NBitPack(values, width));
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_NBitPack)->Arg(4)->Arg(13)->Arg(20)->Arg(32)->Arg(64);

void BM_NBitUnpack(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<uint64_t> values(8192);
  uint64_t mask =
      width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  for (auto& v : values) v = rng.Next() & mask;
  std::vector<uint8_t> packed = NBitPack(values, width);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NBitUnpack(packed, width, values.size()));
  }
  SetTimePer(state, "time_per_value", values.size());
}
BENCHMARK(BM_NBitUnpack)->Arg(4)->Arg(13)->Arg(20)->Arg(32)->Arg(64);

void BM_EncodeIntColumnPage(benchmark::State& state) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  Rng rng(2);
  for (int i = 0; i < 8192; ++i) {
    col.ints.push_back(1000000 + static_cast<int64_t>(rng.Uniform(5000)));
  }
  for (auto _ : state) {
    ZoneMapEntry zone;
    benchmark::DoNotOptimize(EncodeColumnPage(col, 0, col.ints.size(),
                                              &zone));
  }
  state.SetItemsProcessed(state.iterations() * col.ints.size());
}
BENCHMARK(BM_EncodeIntColumnPage);

void BM_DecodeIntColumnPage(benchmark::State& state) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  Rng rng(2);
  for (int i = 0; i < 8192; ++i) {
    col.ints.push_back(1000000 + static_cast<int64_t>(rng.Uniform(5000)));
  }
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, col.ints.size(),
                                               &zone);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeColumnPage(page));
  }
  state.SetItemsProcessed(state.iterations() * col.ints.size());
}
BENCHMARK(BM_DecodeIntColumnPage);

// A sorted key column: EncodeColumnPage takes the delta + n-bit path.
void BM_DecodeDeltaColumnPage(benchmark::State& state) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  Rng rng(4);
  int64_t key = 1;
  for (int i = 0; i < 8192; ++i) {
    key += 1 + static_cast<int64_t>(rng.Uniform(7));
    col.ints.push_back(key);
  }
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, col.ints.size(),
                                               &zone);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeColumnPage(page));
  }
  state.SetItemsProcessed(state.iterations() * col.ints.size());
}
BENCHMARK(BM_DecodeDeltaColumnPage);

// A low-cardinality string column (l_shipmode-like): dictionary + n-bit
// codes, decoded back to strings.
void BM_DecodeDictStringPage(benchmark::State& state) {
  ColumnVector col;
  col.type = ColumnType::kString;
  const char* modes[7] = {"AIR", "FOB", "MAIL", "RAIL",
                          "REG AIR", "SHIP", "TRUCK"};
  Rng rng(5);
  for (int i = 0; i < 8192; ++i) col.strings.push_back(modes[rng.Uniform(7)]);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, col.strings.size(),
                                               &zone);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeColumnPage(page));
  }
  state.SetItemsProcessed(state.iterations() * col.strings.size());
}
BENCHMARK(BM_DecodeDictStringPage);

// One 512 KB page framed and unframed: the payload copies plus the
// word-at-a-time HashBytes checksum on each side.
void BM_PageFrame(benchmark::State& state) {
  std::vector<uint8_t> payload(512 * 1024);
  Rng rng(3);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    std::vector<uint8_t> frame = EncodePage(payload);
    benchmark::DoNotOptimize(DecodePage(frame));
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_PageFrame);

// One request through a pool of `channels` servers (an SSD's queues at 8,
// the object store's streams at 4,096) kept near saturation, so the
// earliest-free channel changes on every submit.
void BM_ChannelQueueSubmit(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  ChannelQueue queue(channels);
  constexpr double kOccupancy = 1e-3;
  SimTime arrival = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.Submit(arrival, kOccupancy, 0.0));
    arrival += kOccupancy / channels;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelQueueSubmit)->Arg(8)->Arg(4096);

void BM_KeyGeneration(benchmark::State& state) {
  ObjectKeyGenerator gen;
  NodeKeyCache cache(
      [&](uint64_t size, double) { return gen.AllocateRange(1, size); });
  double now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.NextKey(now));
    now += 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyGeneration);

void BM_HashKeyPrefix(benchmark::State& state) {
  uint64_t key = kCloudKeyBase;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashKeyPrefix(key++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashKeyPrefix);

void BM_BitmapSetRange(benchmark::State& state) {
  for (auto _ : state) {
    Bitmap bm;
    bm.SetRange(0, 100000);
    benchmark::DoNotOptimize(bm.CountSet());
  }
}
BENCHMARK(BM_BitmapSetRange);

// --- row-key hash table (exec/row_key_table.h) ------------------------
// The table alone, as HashJoin and HashAggregate drive it: hash a key
// column, then map each row to a dense id, comparing candidate keys
// against the id's representative row. Reported per row (`time_per_row`,
// in seconds; the console prints it as e.g. "5.8ns").

void SetTimePerRow(benchmark::State& state, size_t rows) {
  SetTimePer(state, "time_per_row", rows);
}

// `distinct` int keys, each once, in random order.
std::vector<int64_t> ShuffledKeys(size_t distinct, uint64_t seed,
                                  size_t stride = 2654435761u) {
  Rng rng(seed);
  std::vector<int64_t> keys(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    keys[i] = static_cast<int64_t>(i * stride) - 7;
  }
  for (size_t i = distinct; i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  return keys;
}

// Inserts every row of `keys`; returns the representative row per id.
std::vector<size_t> BuildRowKeys(const std::vector<int64_t>& keys,
                                 RowKeyTable* table) {
  std::vector<size_t> first_row;
  for (size_t r = 0; r < keys.size(); ++r) {
    bool inserted = false;
    table->FindOrInsert(
        HashKey(keys[r]),
        [&](uint32_t id) { return keys[first_row[id]] == keys[r]; },
        &inserted);
    if (inserted) first_row.push_back(r);
  }
  return first_row;
}

void BM_RowKeyBuild(benchmark::State& state) {
  std::vector<int64_t> keys =
      ShuffledKeys(static_cast<size_t>(state.range(0)), 11);
  for (auto _ : state) {
    RowKeyTable table;
    std::vector<size_t> first_row = BuildRowKeys(keys, &table);
    benchmark::DoNotOptimize(first_row.data());
    benchmark::ClobberMemory();
  }
  SetTimePerRow(state, keys.size());
}
BENCHMARK(BM_RowKeyBuild)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_RowKeyProbe(benchmark::State& state) {
  std::vector<int64_t> keys =
      ShuffledKeys(static_cast<size_t>(state.range(0)), 11);
  RowKeyTable table;
  std::vector<size_t> first_row = BuildRowKeys(keys, &table);
  std::vector<int64_t> probes = ShuffledKeys(keys.size(), 12);
  for (auto _ : state) {
    uint64_t found = 0;
    for (int64_t key : probes) {
      found += table.Find(HashKey(key), [&](uint32_t id) {
        return keys[first_row[id]] == key;
      });
    }
    benchmark::DoNotOptimize(found);
  }
  SetTimePerRow(state, probes.size());
}
BENCHMARK(BM_RowKeyProbe)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// BM_RowKeyProbe over the dense keys -7 .. n-8: DenseKeyIndex's flat
// array in place of the hash table.
void BM_DenseKeyProbe(benchmark::State& state) {
  std::vector<int64_t> keys =
      ShuffledKeys(static_cast<size_t>(state.range(0)), 11, 1);
  DenseKeyIndex index(IntKeySpan::Of(keys));
  for (int64_t key : keys) {
    bool inserted = false;
    index.FindOrInsert(key, &inserted);
  }
  std::vector<int64_t> probes = ShuffledKeys(keys.size(), 12, 1);
  for (auto _ : state) {
    uint64_t found = 0;
    for (int64_t key : probes) found += index.Find(key);
    benchmark::DoNotOptimize(found);
  }
  SetTimePerRow(state, probes.size());
}
BENCHMARK(BM_DenseKeyProbe)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// Groups 64K rows into 1K groups, keyed by one int column (arg 0) or by
// two string columns (arg 1): per-column hash pass, then one table pass.
void BM_RowKeyGroup(benchmark::State& state) {
  constexpr size_t kRows = 1 << 16;
  constexpr uint64_t kGroups = 1 << 10;
  const bool two_strings = state.range(0) == 1;
  Rng rng(13);
  std::vector<int64_t> ints(kRows);
  std::vector<std::string> brand(kRows);
  std::vector<std::string> type(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    uint64_t g = rng.Uniform(kGroups);
    ints[r] = static_cast<int64_t>(g * 7919);
    brand[r] = "Brand#" + std::to_string(g % 32);
    type[r] = "MEDIUM POLISHED TIN " + std::to_string(g / 32);
  }
  std::vector<uint64_t> hashes(kRows);
  std::vector<uint32_t> group(kRows);
  for (auto _ : state) {
    for (size_t r = 0; r < kRows; ++r) {
      hashes[r] = two_strings
                      ? HashCombine(HashCombine(0, HashKey(brand[r])),
                                    HashKey(type[r]))
                      : HashCombine(0, HashKey(ints[r]));
    }
    RowKeyTable table;
    std::vector<size_t> first_row;
    for (size_t r = 0; r < kRows; ++r) {
      bool inserted = false;
      group[r] = table.FindOrInsert(
          hashes[r],
          [&](uint32_t id) {
            size_t f = first_row[id];
            return two_strings ? brand[f] == brand[r] && type[f] == type[r]
                               : ints[f] == ints[r];
          },
          &inserted);
      if (inserted) first_row.push_back(r);
    }
    benchmark::DoNotOptimize(group.data());
    benchmark::ClobberMemory();
  }
  SetTimePerRow(state, kRows);
}
BENCHMARK(BM_RowKeyGroup)->ArgName("two_strings")->Arg(0)->Arg(1);

// BM_RowKeyGroup's one-int-column grouping over the dense keys 0 .. 1K-1:
// a DenseKeyIndex over the keys' range, built every iteration, in place
// of the hash pass and the table.
void BM_DenseKeyGroup(benchmark::State& state) {
  constexpr size_t kRows = 1 << 16;
  constexpr uint64_t kGroups = 1 << 10;
  Rng rng(13);
  std::vector<int64_t> ints(kRows);
  for (int64_t& key : ints) key = static_cast<int64_t>(rng.Uniform(kGroups));
  std::vector<uint32_t> group(kRows);
  for (auto _ : state) {
    DenseKeyIndex index(IntKeySpan::Of(ints));
    for (size_t r = 0; r < kRows; ++r) {
      bool inserted = false;
      group[r] = index.FindOrInsert(ints[r], &inserted);
    }
    benchmark::DoNotOptimize(group.data());
    benchmark::ClobberMemory();
  }
  SetTimePerRow(state, kRows);
}
BENCHMARK(BM_DenseKeyGroup);

// --- morsel executor: multi-worker scan -----------------------------------
// Host wall time of ScanTable at 1/2/4/8 executor workers over a wide
// synthetic table. The per-iteration work is fetch + in-place page decode
// — exactly what the morsel executor fans out — so the items/s ratio
// between worker counts is the executor's real scale-up on this host (it
// saturates at the machine's core count).

constexpr uint64_t kScanFixtureTableId = 42;
constexpr int kScanFixtureCols = 4;
constexpr int64_t kScanFixtureRows = 1 << 18;

struct ScanFixture {
  SimEnvironment env;
  std::unique_ptr<Database> db;
};

ScanFixture* GlobalScanFixture() {
  static ScanFixture* fixture = [] {
    auto* f = new ScanFixture();  // leaked: lives for the whole process
    Database::Options options;
    options.user_storage = UserStorage::kObjectStore;
    f->db = std::make_unique<Database>(
        &f->env, InstanceProfile::M5ad4xlarge(), options);
    TableSchema schema;
    schema.name = "wide";
    schema.table_id = kScanFixtureTableId;
    for (int c = 0; c < kScanFixtureCols; ++c) {
      schema.columns.push_back({"c" + std::to_string(c),
                                ColumnType::kInt64});
    }
    Transaction* txn = f->db->Begin();
    TableLoader loader = f->db->NewTableLoader(txn, schema);
    Rng rng(7);
    Batch batch;
    for (int c = 0; c < kScanFixtureCols; ++c) {
      batch.AddColumn(schema.columns[c].name, {ColumnType::kInt64,
                                               {}, {}, {}});
    }
    for (int64_t i = 0; i < kScanFixtureRows; ++i) {
      for (int c = 0; c < kScanFixtureCols; ++c) {
        batch.columns[c].ints.push_back(
            static_cast<int64_t>(rng.Uniform(1 << 20)));
      }
    }
    if (!loader.Append(batch.columns).ok() ||
        !loader.Finish(f->db->system()).ok() ||
        !f->db->Commit(txn).ok()) {
      std::abort();
    }
    return f;
  }();
  return fixture;
}

// One ScanTable per iteration over the fixture, at state.range(0)
// workers, reading every column; time_per_value is per candidate value.
void RunScanBenchmark(benchmark::State& state,
                      const std::optional<ScanRange>& range) {
  ScanFixture* f = GlobalScanFixture();
  f->db->SetExecWorkers(static_cast<int>(state.range(0)));
  Transaction* txn = f->db->Begin();
  QueryContext ctx = f->db->NewQueryContext(txn, "bm_scan");
  Result<TableReader> reader = ctx.OpenTable(kScanFixtureTableId);
  if (!reader.ok()) {
    state.SkipWithError(reader.status().ToString().c_str());
    return;
  }
  std::vector<std::string> cols;
  for (int c = 0; c < kScanFixtureCols; ++c) {
    cols.push_back("c" + std::to_string(c));
  }
  for (auto _ : state) {
    Result<Batch> batch = ScanTable(&ctx, &*reader, cols, range);
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(batch->rows());
  }
  SetTimePer(state, "time_per_value", kScanFixtureRows * kScanFixtureCols);
  (void)f->db->Commit(txn);
}

void BM_ParallelScanDecode(benchmark::State& state) {
  RunScanBenchmark(state, std::nullopt);
}
BENCHMARK(BM_ParallelScanDecode)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// The same scan under a range predicate on c0 that about 15% of rows pass.
// The values are uniform, so zone maps prune no page: every page is
// fetched and checked, the range column decoded whole, and the other
// columns decode only their surviving rows (late materialization).
void BM_ParallelScanDecodeRange(benchmark::State& state) {
  RunScanBenchmark(state, ScanRange{"c0", 0, (1 << 20) * 15 / 100});
}
BENCHMARK(BM_ParallelScanDecodeRange)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// --- the load path: page encode, frame size, TEXT index, generator ------
// Over TPC-H SF 0.01 data: one page's worth of a column, as the loader
// cuts it (about 14 KB of staged values), reported per value or per row.

// The first rows of `column` of `table` whose staged bytes (as the loader
// counts them) fill a 16 KiB page to 85%.
ColumnVector OnePage(TpchTable table, size_t column) {
  TpchGenerator gen(0.01);
  Batch batch = gen.GenerateBatch(table, 0, 20000);
  ColumnVector& col = batch.columns[column];
  size_t bytes = 0;
  size_t rows = 0;
  while (rows < col.size() && bytes < 16 * 1024 * 85 / 100) {
    bytes += col.type == ColumnType::kString ? col.strings[rows].size() + 4
                                             : 8;
    ++rows;
  }
  col.Resize(rows);
  return std::move(col);
}

void EncodePageOf(benchmark::State& state, const ColumnVector& col) {
  for (auto _ : state) {
    ZoneMapEntry zone;
    benchmark::DoNotOptimize(EncodeColumnPage(col, 0, col.size(), &zone));
  }
  SetTimePer(state, "time_per_value", col.size());
}

// l_shipmode: seven distinct strings, dictionary-encoded.
void BM_EncodeDictStringPage(benchmark::State& state) {
  EncodePageOf(state, OnePage(kLineitem, 14));
}
BENCHMARK(BM_EncodeDictStringPage);

// l_comment: nearly every string distinct, stored raw.
void BM_EncodeRawStringPage(benchmark::State& state) {
  EncodePageOf(state, OnePage(kLineitem, 15));
}
BENCHMARK(BM_EncodeRawStringPage);

// o_comment rows into a fresh TEXT index builder.
void BM_TextIndexAdd(benchmark::State& state) {
  ColumnVector col = OnePage(kOrders, 8);
  for (auto _ : state) {
    TextIndex::Builder builder;
    for (size_t r = 0; r < col.size(); ++r) builder.Add(col.strings[r], r);
    benchmark::DoNotOptimize(builder.empty());
  }
  SetTimePerRow(state, col.size());
}
BENCHMARK(BM_TextIndexAdd);

void BM_GenerateLineitem(benchmark::State& state) {
  TpchGenerator gen(0.01);
  const uint64_t rows = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.GenerateBatch(kLineitem, 1000, rows));
  }
  SetTimePerRow(state, rows);
}
BENCHMARK(BM_GenerateLineitem);

void BM_IntervalSetInsert(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    IntervalSet set;
    for (int i = 0; i < 1000; ++i) {
      uint64_t begin = kCloudKeyBase + rng.Uniform(1 << 20);
      set.InsertRange(begin, begin + 16);
    }
    benchmark::DoNotOptimize(set.Count());
  }
}
BENCHMARK(BM_IntervalSetInsert);

// A posting-list shape: about 25% of `rows` row ids as mostly singleton
// runs, the density of one TEXT token over o_comment.
IntervalSet SparseRows(uint64_t seed, uint64_t rows) {
  Rng rng(seed);
  IntervalSet set;
  for (uint64_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.25)) set.Insert(r);
  }
  return set;
}

// The loader's and keygen's pattern: ascending inserts, each at or past
// the last run.
void BM_IntervalSetAppend(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet set;
    for (uint64_t r = 0; r < 30000; ++r) set.Insert(4 * r + (r & 1));
    benchmark::DoNotOptimize(set.IntervalCount());
  }
  state.SetItemsProcessed(state.iterations() * 30000);
}
BENCHMARK(BM_IntervalSetAppend);

// LookupAllWords' conjunction: two 25%-density postings over 30k rows.
void BM_IntervalSetIntersect(benchmark::State& state) {
  IntervalSet a = SparseRows(5, 30000);
  IntervalSet b = SparseRows(6, 30000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalSet::Intersect(a, b).IntervalCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          (a.IntervalCount() + b.IntervalCount()));
}
BENCHMARK(BM_IntervalSetIntersect);

// Decoding one such posting from its page bytes.
void BM_IntervalSetDeserialize(benchmark::State& state) {
  std::vector<uint8_t> bytes = SparseRows(7, 30000).Serialize();
  for (auto _ : state) {
    Result<IntervalSet> set =
        IntervalSet::Deserialize(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(set.ok());
  }
  state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_IntervalSetDeserialize);

}  // namespace
}  // namespace cloudiq

BENCHMARK_MAIN();

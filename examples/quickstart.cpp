// CloudIQ quickstart: create a database whose user dbspace lives on an
// S3-like object store, load a table, query it, and look under the hood
// at what the cloud-native storage layer did.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "engine/consistency_check.h"
#include "engine/database.h"
#include "exec/executor.h"

using namespace cloudiq;

int main() {
  // 1. The simulated cloud: an object store (S3-like), block volumes,
  //    and compute nodes with NICs and instance SSDs.
  SimEnvironment cloud;

  // 2. A single-node CloudIQ instance. This is the programmatic
  //    equivalent of
  //      CREATE DBSPACE userdb USING OBJECT STORE "s3://bucket"
  //    — user pages go straight to the object store; the small system
  //    dbspace (catalog, logs, freelist) stays on a strongly consistent
  //    EBS-like volume. The OCM caches object reads/writes on the
  //    instance NVMe.
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  Database db(&cloud, InstanceProfile::M5ad4xlarge(), options);

  // 3. Define and load a table inside a transaction.
  TableSchema schema;
  schema.name = "events";
  schema.table_id = 1;
  schema.columns = {{"event_id", ColumnType::kInt64},
                    {"kind", ColumnType::kString},
                    {"amount", ColumnType::kDecimal}};
  schema.hg_index_columns = {0};  // High-Group index on event_id

  Transaction* txn = db.Begin();
  TableLoader loader = db.NewTableLoader(txn, schema);

  Batch batch;
  batch.AddColumn("event_id", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("kind", {ColumnType::kString, {}, {}, {}});
  batch.AddColumn("amount", {ColumnType::kDecimal, {}, {}, {}});
  const char* kinds[3] = {"view", "click", "purchase"};
  for (int64_t i = 0; i < 50000; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].strings.push_back(kinds[i % 3]);
    batch.columns[2].ints.push_back((i % 97) * 100);  // dollars.cents
  }
  if (!loader.Append(batch.columns).ok() ||
      !loader.Finish(db.system()).ok() || !db.Commit(txn).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  std::printf("Loaded 50,000 rows in %.3f simulated seconds\n",
              db.node().clock().now());

  // 4. Query: revenue by kind, using the vectorized executor.
  Transaction* query_txn = db.Begin();
  QueryContext ctx(&db.txn_mgr(), query_txn, db.system());
  Result<TableReader> events = ctx.OpenTable(1);
  if (!events.ok()) return 1;
  Result<Batch> rows = ScanTable(&ctx, &*events, {"kind", "amount"});
  if (!rows.ok()) return 1;
  Result<Batch> agg =
      HashAggregate(&ctx, *rows, {"kind"},
                    {{AggOp::kCount, "", "n"},
                     {AggOp::kSum, "amount", "revenue"}});
  if (!agg.ok()) return 1;
  Batch result = SortBatch(&ctx, *agg, {{"revenue", false}});
  std::printf("\n%-10s %10s %14s\n", "kind", "count", "revenue");
  for (size_t r = 0; r < result.rows(); ++r) {
    std::printf("%-10s %10lld %14.2f\n", result.Str("kind", r).c_str(),
                static_cast<long long>(result.Int("n", r)),
                DecimalToDouble(result.Int("revenue", r)));
  }
  (void)db.Commit(query_txn);

  // 5. Point lookup through the High-Group index: only the index pages
  //    whose key range covers the probe are read.
  Transaction* lookup_txn = db.Begin();
  QueryContext lookup_ctx(&db.txn_mgr(), lookup_txn, db.system());
  Result<TableReader> reader = lookup_ctx.OpenTable(1);
  if (reader.ok()) {
    Result<IntervalSet> hit = reader->IndexLookup(0, 0, 31337);
    if (hit.ok() && !hit->empty()) {
      Result<Batch> row = ScanRowIds(&lookup_ctx, &*reader, 0,
                                     {"event_id", "kind"}, *hit);
      if (row.ok() && row->rows() == 1) {
        std::printf("\nHG index lookup: event %lld is a '%s'\n",
                    static_cast<long long>(row->Int("event_id", 0)),
                    row->Str("kind", 0).c_str());
      }
    }
  }
  (void)db.Commit(lookup_txn);

  // 6. What the cloud-native storage layer did underneath.
  const SimObjectStore::Stats& s3 = cloud.object_store().stats();
  std::printf("\n--- storage layer ---\n");
  std::printf("objects PUT: %llu (every page under a fresh key — never "
              "written twice: %llu overwrites)\n",
              static_cast<unsigned long long>(s3.puts),
              static_cast<unsigned long long>(s3.overwrites));
  std::printf("GET requests: %llu, eventual-consistency races absorbed by "
              "retries: %llu\n",
              static_cast<unsigned long long>(s3.gets),
              static_cast<unsigned long long>(s3.not_found_races));
  if (db.ocm() != nullptr) {
    std::printf("OCM: %llu hits / %llu misses on the instance SSD\n",
                static_cast<unsigned long long>(db.ocm()->stats().hits),
                static_cast<unsigned long long>(db.ocm()->stats().misses));
  }
  const CloudPrices& prices = cloud.telemetry().ledger().prices();
  std::printf("monthly storage cost of the data at rest: $%.4f on S3 vs "
              "$%.4f on EBS\n",
              prices.S3MonthlyUsd(db.UserBytesAtRest() / 1e9),
              prices.EbsMonthlyUsd(db.UserBytesAtRest() / 1e9));

  // 7. Audit: every reachable page reads back, nothing leaked.
  Result<ConsistencyReport> audit = CheckConsistency(&db);
  if (!audit.ok()) return 1;
  std::printf("consistency audit: %llu objects / %llu pages checked — %s\n",
              static_cast<unsigned long long>(audit->objects_checked),
              static_cast<unsigned long long>(audit->pages_checked),
              audit->ok() ? "clean" : "PROBLEMS FOUND");
  return audit->ok() ? 0 : 1;
}

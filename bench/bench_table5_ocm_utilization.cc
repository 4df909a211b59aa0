// Reproduces Table 5: utilization of the Object Cache Manager during the
// execution of the TPC-H queries (cache misses / hits / evictions), plus
// the GET-request savings the paper attributes to the OCM (74.5% hit
// rate, 2,807,368 averted GETs, $1.12 = 32% of the query-phase request
// bill at SF1000).

#include "bench/bench_util.h"

namespace cloudiq {
namespace bench {
namespace {

int Main() {
  double scale = BenchScale(0.05);
  std::printf("=== Table 5: OCM utilization during the TPC-H queries "
              "(SF=%g) ===\n",
              scale);

  SimEnvironment env;
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  // The paper's regime: the working set exceeds the RAM buffer, so query
  // re-reads reach the OCM instead of staying in RAM (520 GB of data vs a
  // 192 GB buffer at SF1000). Scale the buffer accordingly.
  options.buffer_capacity_override =
      static_cast<uint64_t>(scale * 0.8e9 * 0.15);
  Database db(&env, InstanceProfile::M5ad24xlarge(), WithNdp(options));
  TpchGenerator gen(scale);
  if (!LoadTpch(&db, &gen, {}).ok()) return 1;

  // The query run starts with a cold OCM (fresh instance), as in the
  // paper's experiment — the warm-up misses of the early queries are part
  // of the measurement.
  if (!db.CrashAndRecover().ok()) return 1;
  db.ocm()->ResetStats();
  // HEADs are billed at the GET rate, so they count as GETs here.
  const CostLedger& ledger = env.telemetry().ledger();
  auto billed_gets = [&ledger] {
    CostLedger::Entry bill = ledger.GrandTotal();
    return bill.gets + bill.heads;
  };
  uint64_t gets_before = billed_gets();
  // Run the suite twice so the second pass exercises a warm cache (the
  // paper's sequential 22 queries re-touch many shared pages).
  for (int pass = 0; pass < 2; ++pass) {
    Result<std::array<double, kTpchQueryCount>> queries =
        RunQueriesOnly(&db);
    if (!queries.ok()) {
      std::fprintf(stderr, "queries failed: %s\n",
                   queries.status().ToString().c_str());
      return 1;
    }
  }
  const ObjectCacheManager::Stats& stats = db.ocm()->stats();
  uint64_t lookups = stats.hits + stats.misses;
  uint64_t gets_during_queries = billed_gets() - gets_before;

  std::printf("%-14s %12s %10s\n", "", "Objects", "Percentage");
  Hr();
  std::printf("%-14s %12llu %9.1f%%\n", "Cache Misses",
              static_cast<unsigned long long>(stats.misses),
              lookups > 0 ? 100.0 * stats.misses / lookups : 0.0);
  std::printf("%-14s %12llu %9.1f%%\n", "Cache Hits",
              static_cast<unsigned long long>(stats.hits),
              lookups > 0 ? 100.0 * stats.hits / lookups : 0.0);
  std::printf("%-14s %12llu\n", "Evictions",
              static_cast<unsigned long long>(stats.evictions));
  Hr();

  const CloudPrices& prices = ledger.prices();
  double averted_usd = stats.hits / 1000.0 * prices.s3_get_per_1k;
  double issued_usd = gets_during_queries / 1000.0 * prices.s3_get_per_1k;
  std::printf("GET requests averted by the OCM: %llu (= $%.6f saved, "
              "%.0f%% of the query-phase GET bill)\n",
              static_cast<unsigned long long>(stats.hits), averted_usd,
              averted_usd + issued_usd > 0
                  ? 100.0 * averted_usd / (averted_usd + issued_usd)
                  : 0.0);
  std::printf("Paper (SF1000): 962,573 misses (25.5%%), 2,807,368 hits "
              "(74.5%%), $1.12 saved (32%%).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudiq

int main(int argc, char** argv) {
  cloudiq::bench::InitTelemetry(argc, argv);
  return cloudiq::bench::Main();
}

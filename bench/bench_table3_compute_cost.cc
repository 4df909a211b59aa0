// Reproduces Table 3: the monetary *compute* cost of loading TPC-H and of
// running the 22 queries once, per storage volume. Costs combine EC2
// instance time (simulated hours x the calibrated hourly rate) with S3
// request charges (PUT/GET), exactly the composition the paper describes.
//
// Expected shape (paper, SF1000): load S3 $15.18 / EBS $5.04 / EFS $15.39
// (S3 loads fast but pays PUTs; EFS pays long instance hours); query S3
// $2.35 / EBS $3.88 / EFS $8.53 (S3's GET charges are amortized by faster
// execution).

#include "bench/bench_util.h"

namespace cloudiq {
namespace bench {
namespace {

int Main() {
  double scale = BenchScale(0.25);
  std::printf(
      "=== Table 3: compute cost of load and of one query suite run "
      "(SF=%g) ===\n",
      scale);
  std::printf("%-9s %14s %14s   %s\n", "Volume", "Load (USD)",
              "Query (USD)", "(EC2 time + S3 requests)");
  Hr();

  const UserStorage backends[] = {UserStorage::kObjectStore,
                                  UserStorage::kEbs, UserStorage::kEfs};
  double hourly = InstanceProfile::M5ad24xlarge().hourly_usd;
  for (UserStorage backend : backends) {
    SimEnvironment env;
    Database::Options options;
    // The paper's regime: the compressed data (520 GB at SF1000) far
    // exceeds the buffer cache; scale the buffer to the bench-scale data
    // so the query leg measures storage, not RAM.
    options.buffer_capacity_override =
        static_cast<uint64_t>(scale * 0.8e9 * 0.15);
    options.user_storage = backend;
    Database db(&env, InstanceProfile::M5ad24xlarge(), WithNdp(options));
    TpchGenerator gen(scale);

    const CostLedger& ledger = env.telemetry().ledger();
    TpchLoadOptions load_options;
    Result<TpchLoadResult> load = LoadTpch(&db, &gen, load_options);
    if (!load.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   load.status().ToString().c_str());
      return 1;
    }
    double load_requests_usd =
        ledger.GrandTotal().RequestUsd(ledger.prices());
    double load_usd = load->seconds / 3600.0 * hourly + load_requests_usd;

    SimTime query_start = db.node().clock().now();
    Result<std::array<double, kTpchQueryCount>> queries =
        RunQueriesOnly(&db);
    if (!queries.ok()) return 1;
    double query_seconds = db.node().clock().now() - query_start;
    double query_requests_usd =
        ledger.GrandTotal().RequestUsd(ledger.prices()) - load_requests_usd;
    double query_usd = query_seconds / 3600.0 * hourly + query_requests_usd;

    std::printf("%-9s %14.4f %14.4f   (load: %.1fs EC2 + $%.4f req; "
                "query: %.1fs EC2 + $%.4f req)\n",
                StorageName(backend), load_usd, query_usd, load->seconds,
                load_requests_usd, query_seconds, query_requests_usd);
  }
  Hr();
  std::printf("Paper (SF1000): load 15.18 / 5.04 / 15.39 USD; query 2.35 / "
              "3.88 / 8.53 USD.\n");
  std::printf("Shape: S3 queries are the cheapest despite GET charges; EFS "
              "is the most expensive on both legs; S3 loads pay a PUT "
              "premium over EBS.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudiq

int main(int argc, char** argv) {
  cloudiq::bench::InitTelemetry(argc, argv);
  return cloudiq::bench::Main();
}

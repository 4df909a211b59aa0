// Reproduces Table 4: monthly data-at-rest storage cost per volume type,
// computed as the compressed user-dbspace footprint times the public
// per-GB-month rates (S3 $0.023, EBS gp2 $0.10, EFS $0.30).
//
// Expected shape (paper, SF1000 => ~518 GB compressed): S3 $12.05,
// EBS $51.80, EFS $155.40 — the order-of-magnitude reduction the paper's
// abstract leads with.

#include "bench/bench_util.h"

namespace cloudiq {
namespace bench {
namespace {

int Main() {
  double scale = BenchScale(0.25);
  std::printf(
      "=== Table 4: monthly cost of data at rest (SF=%g) ===\n", scale);

  // The compressed footprint is identical across backends (same pages);
  // load once on the object store and price the same bytes on each
  // medium — exactly how the paper computes the table.
  SimEnvironment env;
  Database::Options options;
  options.user_storage = UserStorage::kObjectStore;
  Database db(&env, InstanceProfile::M5ad24xlarge(), WithNdp(options));
  MaybeEnableTracing(&db);
  TpchGenerator gen(scale);
  Result<TpchLoadResult> load = LoadTpch(&db, &gen, {});
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 load.status().ToString().c_str());
    return 1;
  }
  double gb = load->bytes_at_rest / 1e9;
  const CloudPrices& prices = env.telemetry().ledger().prices();

  std::printf("Compressed user dbspace: %.3f GB (raw input %.3f GB, "
              "compression %.2fx)\n\n",
              gb, load->input_bytes / 1e9,
              static_cast<double>(load->input_bytes) /
                  load->bytes_at_rest);
  std::printf("%-9s %28s\n", "Volume", "Monthly storage cost (USD)");
  Hr();
  std::printf("%-9s %28.4f\n", "AWS S3", prices.S3MonthlyUsd(gb));
  std::printf("%-9s %28.4f\n", "AWS EBS", prices.EbsMonthlyUsd(gb));
  std::printf("%-9s %28.4f\n", "AWS EFS", prices.EfsMonthlyUsd(gb));
  Hr();
  std::printf("Ratios: EBS/S3 = %.2fx, EFS/S3 = %.2fx "
              "(paper: 51.80/12.05 = 4.30x, 155.40/12.05 = 12.9x)\n",
              prices.EbsMonthlyUsd(gb) / prices.S3MonthlyUsd(gb),
              prices.EfsMonthlyUsd(gb) / prices.S3MonthlyUsd(gb));
  MaybeReportTelemetry(&db);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudiq

int main(int argc, char** argv) {
  cloudiq::bench::InitTelemetry(argc, argv);
  return cloudiq::bench::Main();
}

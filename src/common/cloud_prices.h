#ifndef CLOUDIQ_COMMON_CLOUD_PRICES_H_
#define CLOUDIQ_COMMON_CLOUD_PRICES_H_

namespace cloudiq {

// Public cloud price points used by the simulator's cost accounting.
//
// Request and storage rates are the published AWS us-east-1 prices the paper
// cites ("costs are calculated based on the publicly available prices listed
// by Amazon"). The EC2 hourly rate for m5ad.24xlarge is calibrated from the
// paper's own Table 2 x Table 3 arithmetic (EBS load: 4,294.1 s at $5.04
// implies ~$4.22/h for compute + system-dbspace overhead); the smaller
// instances scale by vCPU count.
//
// Price-only and dependency-free, so both the device models (sim/) and the
// cost ledger (telemetry/) price with the same table.
struct CloudPrices {
  // Object store (S3-like). DELETE is billed at the PUT rate; ranged GET
  // parts and HEAD at the GET rate.
  double s3_put_per_1k = 0.005;        // USD per 1,000 PUT/DELETE requests
  double s3_get_per_1k = 0.0004;       // USD per 1,000 GET requests
  double s3_storage_gb_month = 0.023;  // USD per GB-month

  // Near-data processing (S3 Select-like pricing): each SELECT pays the
  // GET request rate plus per-byte rates for data scanned server-side and
  // data returned over the wire. Scanning is cheap, returning is cheaper
  // than a full GET only because far fewer bytes come back.
  double s3_select_per_1k = 0.0004;        // USD per 1,000 SELECT requests
  double s3_select_scanned_per_gb = 0.002; // USD per GB scanned server-side
  double s3_select_returned_per_gb = 0.0007;  // USD per GB returned

  // Block volumes.
  double ebs_gp2_gb_month = 0.10;  // USD per GB-month (provisioned)
  double efs_std_gb_month = 0.30;  // USD per GB-month (utilized)

  // Compute (USD per hour).
  double ec2_m5ad_4xlarge = 0.704;
  double ec2_m5ad_12xlarge = 2.112;
  double ec2_m5ad_24xlarge = 4.225;
  double ec2_r5_large = 0.126;

  // Data-at-rest cost for `gb` stored for one month on each medium.
  double S3MonthlyUsd(double gb) const { return gb * s3_storage_gb_month; }
  double EbsMonthlyUsd(double gb) const { return gb * ebs_gp2_gb_month; }
  double EfsMonthlyUsd(double gb) const { return gb * efs_std_gb_month; }
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_CLOUD_PRICES_H_

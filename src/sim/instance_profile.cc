#include "sim/instance_profile.h"

#include "common/cloud_prices.h"

namespace cloudiq {

namespace {
const CloudPrices kPrices;
}  // namespace

InstanceProfile InstanceProfile::M5ad4xlarge() {
  return {"m5ad.4xlarge", /*vcpus=*/16,   /*ram_gb=*/64,
          /*ssd_gb=*/600, /*ssd_devices=*/2, /*nic_gbps=*/10,
          kPrices.ec2_m5ad_4xlarge};
}

InstanceProfile InstanceProfile::M5ad12xlarge() {
  return {"m5ad.12xlarge", /*vcpus=*/48,    /*ram_gb=*/192,
          /*ssd_gb=*/1800, /*ssd_devices=*/2, /*nic_gbps=*/12,
          kPrices.ec2_m5ad_12xlarge};
}

InstanceProfile InstanceProfile::M5ad24xlarge() {
  return {"m5ad.24xlarge", /*vcpus=*/96,    /*ram_gb=*/384,
          /*ssd_gb=*/3600, /*ssd_devices=*/4, /*nic_gbps=*/20,
          kPrices.ec2_m5ad_24xlarge};
}

InstanceProfile InstanceProfile::R5Large() {
  return {"r5.large", /*vcpus=*/2, /*ram_gb=*/16,
          /*ssd_gb=*/0, /*ssd_devices=*/0, /*nic_gbps=*/10,
          kPrices.ec2_r5_large};
}

}  // namespace cloudiq

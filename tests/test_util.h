#ifndef CLOUDIQ_TESTS_TEST_UTIL_H_
#define CLOUDIQ_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exec/batch.h"
#include "keygen/object_key_generator.h"
#include "sim/environment.h"
#include "store/storage.h"
#include "store/system_store.h"

namespace cloudiq {
namespace testing_util {

// 64-bit FNV-1a of `bytes`: the digest the golden tests pin payloads
// with. It is independent of the page checksum (HashBytes), so a pinned
// payload digest stays put when the frame's checksum changes.
inline uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// `b` with every dictionary-coded string column expanded to plain, so
// operator outputs compare by value through their `strings`.
inline Batch Expanded(Batch b) {
  for (ColumnVector& col : b.columns) col.ExpandStrings();
  return b;
}

// A single-node simulated deployment used across test suites: one compute
// node, the shared object store, an EBS-like system volume with a
// SystemStore, a cloud dbspace and a conventional dbspace, and a local
// ObjectKeyGenerator wired as the key source.
struct SingleNodeHarness {
  explicit SingleNodeHarness(uint64_t page_size = 4096,
                             ObjectStoreOptions store_options = {},
                             StorageSubsystem::Options storage_options = {})
      : env(store_options),
        node(&env.AddNode(InstanceProfile::M5ad4xlarge())),
        system_volume(&env.CreateVolume(
            "system", BlockVolumeOptions::EbsGp2(/*size_gb=*/100))),
        user_volume(&env.CreateVolume(
            "user-ebs", BlockVolumeOptions::EbsGp2(/*size_gb=*/1024))),
        system(system_volume) {
    storage = std::make_unique<StorageSubsystem>(node, &env.object_store(),
                                                 storage_options);
    cloud_space = storage->CreateCloudDbSpace("cloud", page_size);
    block_space =
        storage->CreateBlockDbSpace("blocks", user_volume, page_size);
    key_cache = std::make_unique<NodeKeyCache>(
        [this](uint64_t size, double) {
          return keygen.AllocateRange(/*node=*/0, size);
        });
    storage->set_key_source(
        [this](double now) { return key_cache->NextKey(now); });
  }

  std::vector<uint8_t> MakePayload(size_t size, uint8_t seed) {
    std::vector<uint8_t> payload(size);
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<uint8_t>(seed + i * 7);
    }
    return payload;
  }

  SimEnvironment env;
  NodeContext* node;
  SimBlockVolume* system_volume;
  SimBlockVolume* user_volume;
  SystemStore system;
  std::unique_ptr<StorageSubsystem> storage;
  DbSpace* cloud_space = nullptr;
  DbSpace* block_space = nullptr;
  ObjectKeyGenerator keygen;
  std::unique_ptr<NodeKeyCache> key_cache;
};

// The cost ledger bills exactly the requests the object store served:
// its grand total matches the store's own counters kind by kind (the
// store counts a HEAD as a GET; the ledger keeps them apart).
inline void ExpectLedgerMatchesStoreStats(SimEnvironment* env) {
  SimObjectStore::Stats s3 = env->object_store().stats();
  CostLedger::Entry bill = env->telemetry().ledger().GrandTotal();
  EXPECT_EQ(bill.gets + bill.heads, s3.gets);
  EXPECT_EQ(bill.puts, s3.puts);
  EXPECT_EQ(bill.deletes, s3.deletes);
  EXPECT_EQ(bill.ranged_gets, s3.ranged_gets);
  EXPECT_EQ(bill.get_bytes, s3.get_bytes);
  EXPECT_EQ(bill.put_bytes, s3.put_bytes);
  EXPECT_EQ(bill.selects, s3.selects);
  EXPECT_EQ(bill.select_scanned_bytes, s3.select_scanned_bytes);
  EXPECT_EQ(bill.select_returned_bytes, s3.select_returned_bytes);
}

}  // namespace testing_util
}  // namespace cloudiq

#endif  // CLOUDIQ_TESTS_TEST_UTIL_H_

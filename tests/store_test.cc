#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/key_hash.h"
#include "common/random.h"
#include "store/freelist.h"
#include "store/object_store_io.h"
#include "store/page_codec.h"
#include "store/physical_loc.h"
#include "store/storage.h"
#include "store/system_store.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

using testing_util::SingleNodeHarness;

TEST(PhysicalLocTest, CloudVsBlockEncoding) {
  PhysicalLoc invalid;
  EXPECT_FALSE(invalid.valid());

  uint64_t key = kCloudKeyBase + 42;
  PhysicalLoc cloud = PhysicalLoc::ForCloudKey(key);
  EXPECT_TRUE(cloud.valid());
  EXPECT_TRUE(cloud.is_cloud());
  EXPECT_EQ(cloud.cloud_key(), key);

  PhysicalLoc blocks = PhysicalLoc::ForBlocks(123456, 16);
  EXPECT_TRUE(blocks.valid());
  EXPECT_FALSE(blocks.is_cloud());
  EXPECT_EQ(blocks.first_block(), 123456u);
  EXPECT_EQ(blocks.block_count(), 16u);

  // Round trip through the single 64-bit field the blockmap stores.
  PhysicalLoc back = PhysicalLoc::FromEncoded(blocks.encoded());
  EXPECT_EQ(back.first_block(), 123456u);
  EXPECT_EQ(back.block_count(), 16u);
}

TEST(PhysicalLocTest, MaxBlockNumberDoesNotCollideWithCloudRange) {
  PhysicalLoc loc = PhysicalLoc::ForBlocks(kMaxBlockNumber, 16);
  EXPECT_FALSE(loc.is_cloud());
  EXPECT_EQ(loc.first_block(), kMaxBlockNumber);
}

TEST(PageCodecTest, RoundTripSparse) {
  std::vector<uint8_t> payload(10000, 0);
  for (int i = 0; i < 100; ++i) payload[i * 97] = static_cast<uint8_t>(i);
  std::vector<uint8_t> frame = EncodePage(payload);
  EXPECT_EQ(frame.size(), 24 + payload.size());  // framed raw
  Result<std::vector<uint8_t>> back = DecodePage(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
}

TEST(PageCodecTest, RoundTripIncompressible) {
  std::vector<uint8_t> payload;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    payload.push_back(static_cast<uint8_t>(rng.Next()));
  }
  std::vector<uint8_t> frame = EncodePage(payload);
  Result<std::vector<uint8_t>> back = DecodePage(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
}

TEST(PageCodecTest, EmptyPayload) {
  std::vector<uint8_t> frame = EncodePage({});
  Result<std::vector<uint8_t>> back = DecodePage(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(PageCodecTest, DetectsCorruption) {
  std::vector<uint8_t> payload(1000, 7);
  std::vector<uint8_t> frame = EncodePage(payload);
  frame[frame.size() - 1] ^= 0xff;
  EXPECT_FALSE(DecodePage(frame).ok());
  EXPECT_FALSE(DecodePage({1, 2, 3}).ok());
  std::vector<uint8_t> bad_magic = EncodePage(payload);
  bad_magic[0] ^= 0xff;
  EXPECT_TRUE(DecodePage(bad_magic).status().IsCorruption());
}

// A frame is raw or nothing: any flags bit is Corruption, even over a
// body that bit once meant something, under the payload's checksum.
TEST(PageCodecTest, NonzeroFlagsAreCorruption) {
  std::vector<uint8_t> payload(64, 0);
  payload[10] = 3;
  std::vector<uint8_t> raw = EncodePage(payload);
  for (int bit = 0; bit < 32; ++bit) {
    std::vector<uint8_t> frame = raw;
    frame[4 + bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));  // flags
    EXPECT_TRUE(DecodePage(frame).status().IsCorruption()) << "bit " << bit;
  }
  // The same payload as the run-length body flag bit 0 once announced:
  // [run of 10 × 0x00][literal 0x03][run of 53 × 0x00].
  std::vector<uint8_t> runs;
  PutU32(runs, 0x49515047);  // "IQPG"
  PutU32(runs, 1);
  PutU64(runs, payload.size());
  PutU64(runs, HashBytes(payload.data(), payload.size()));
  runs.insert(runs.end(), {0x00, 0x00, 10, 0, 0, 0});
  runs.insert(runs.end(), {0x01, 1, 0, 0, 0, 0x03});
  runs.insert(runs.end(), {0x00, 0x00, 53, 0, 0, 0});
  EXPECT_TRUE(DecodePage(runs).status().IsCorruption());
}

// Byte offset of a frame's checksum field: [magic u32][flags u32]
// [raw_size u64][checksum u64][payload...].
constexpr size_t kChecksumOffset = 16;

uint64_t FrameChecksum(const std::vector<uint8_t>& frame) {
  ByteReader reader(frame.data() + kChecksumOffset, 8);
  return reader.GetU64();
}

// Pins the frames of a sparse, a noise, an empty and an all-equal
// payload in two parts: a digest of every byte but the checksum field
// (the header and the payload, unchanged since the frames became raw),
// and the checksum field itself, HashBytes of the payload (0 for the
// empty payload: MixHash(0) is 0).
TEST(PageCodecGoldenTest, FrameBytesArePinned) {
  auto digest = [](const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> frame = EncodePage(payload);
    std::vector<uint8_t> sized;
    PutU64(sized, frame.size());
    PutBytes(sized, frame.data(), kChecksumOffset);
    PutBytes(sized, frame.data() + kChecksumOffset + 8,
             frame.size() - kChecksumOffset - 8);
    return testing_util::Fnv1a(sized);
  };
  auto checksum = [](const std::vector<uint8_t>& payload) {
    return FrameChecksum(EncodePage(payload));
  };
  Rng rng(7);
  std::vector<uint8_t> sparse(6000, 0);
  for (int i = 0; i < 40; ++i) {
    sparse[rng.Uniform(sparse.size())] = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> noise(3000);
  for (uint8_t& b : noise) b = static_cast<uint8_t>(rng.Next());
  std::vector<uint8_t> equal(5000, 0x5a);
  ASSERT_GT(EncodePage(noise).size(), noise.size());
  EXPECT_EQ(digest(sparse), 0x1a0ab221bfae6371ull);
  EXPECT_EQ(digest(noise), 0xa66168607acc720bull);
  EXPECT_EQ(digest({}), 0x46a91ac0224e1e28ull);
  EXPECT_EQ(digest(equal), 0x12486e25b836732cull);
  EXPECT_EQ(checksum(sparse), 0x8ec08bb587434587ull);
  EXPECT_EQ(checksum(noise), 0x130da5a07725f343ull);
  EXPECT_EQ(checksum({}), 0x0ull);
  EXPECT_EQ(checksum(equal), 0xacd14e6bea84ac5dull);
}

// Every single-bit flip anywhere in a 4 KB frame is Corruption: in the
// header a field check fails, in the checksum field or the payload the
// checksum does. So is any change confined to one aligned 8-byte word of
// the payload (each step of HashBytes is a bijection of its state), and
// a frame one byte short or one byte long.
TEST(PageCodecTest, EveryBitFlipAndOneByteCutIsCorruption) {
  Rng rng(4096);
  std::vector<uint8_t> payload(4096 - 24);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Next());
  const std::vector<uint8_t> frame = EncodePage(payload);
  ASSERT_EQ(frame.size(), 4096u);
  std::vector<uint8_t> flipped = frame;
  for (size_t bit = 0; bit < 8 * frame.size(); ++bit) {
    uint8_t mask = static_cast<uint8_t>(1u << (bit % 8));
    flipped[bit / 8] ^= mask;
    ASSERT_TRUE(DecodePage(flipped).status().IsCorruption()) << "bit " << bit;
    flipped[bit / 8] ^= mask;
  }
  for (int it = 0; it < 2000; ++it) {
    size_t word = kChecksumOffset + 8 + 8 * rng.Uniform(payload.size() / 8);
    uint64_t delta = 0;
    while (delta == 0) delta = rng.Next();
    for (size_t i = 0; i < 8; ++i) {
      flipped[word + i] ^= static_cast<uint8_t>(delta >> (8 * i));
    }
    ASSERT_TRUE(DecodePage(flipped).status().IsCorruption()) << "word "
                                                             << word;
    flipped = frame;
  }
  std::vector<uint8_t> cut(frame.begin(), frame.end() - 1);
  EXPECT_TRUE(DecodePage(cut).status().IsCorruption());
  std::vector<uint8_t> longer = frame;
  longer.push_back(0);
  EXPECT_TRUE(DecodePage(longer).status().IsCorruption());
  ASSERT_TRUE(DecodePage(frame).ok());
}

// The loader records EncodedPageSize as each page's stored frame size, so
// it must equal the size of the frame EncodePage builds: the 24-byte
// header plus the payload.
TEST(PageCodecTest, EncodedPageSizeIsTheFrameSize) {
  Rng rng(99);
  for (int it = 0; it < 2000; ++it) {
    std::vector<uint8_t> payload(rng.Uniform(2000));
    for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Uniform(3));
    ASSERT_EQ(EncodedPageSize(payload), EncodePage(payload).size())
        << "payload " << it << " of " << payload.size() << " bytes";
    ASSERT_EQ(EncodedPageSize(payload), 24 + payload.size());
  }
}

TEST(FreelistTest, AllocateAndFree) {
  Freelist fl;
  uint64_t a = fl.AllocateRun(4);
  uint64_t b = fl.AllocateRun(4);
  EXPECT_NE(a, b);
  EXPECT_EQ(fl.UsedBlocks(), 8u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(fl.IsUsed(a + i));
  fl.FreeRun(a, 4);
  EXPECT_EQ(fl.UsedBlocks(), 4u);
  // Freed space is reusable.
  uint64_t c = fl.AllocateRun(4);
  EXPECT_EQ(c, a);
}

TEST(FreelistTest, SerializationRoundTrip) {
  Freelist fl;
  fl.AllocateRun(10);
  fl.MarkUsed(100, 5);
  Result<Freelist> back = Freelist::Deserialize(fl.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->UsedBlocks(), 15u);
  EXPECT_TRUE(back->IsUsed(104));
  std::vector<uint8_t> cut = fl.Serialize();
  cut.pop_back();
  EXPECT_TRUE(Freelist::Deserialize(cut).status().IsCorruption());
}

TEST(ObjectStoreIoTest, RetriesNotFoundUntilVisible) {
  ObjectStoreOptions store_opts;
  store_opts.lag_probability = 1.0;
  store_opts.mean_visibility_lag = 0.1;
  SingleNodeHarness h(4096, store_opts);

  ObjectStoreIo& io = h.storage->object_io();
  uint64_t key = kCloudKeyBase + 5;
  SimTime done = 0;
  ASSERT_TRUE(io.Put(key, h.MakePayload(512, 1), 0.0, &done).ok());
  // A read immediately after the PUT races visibility but retries win.
  SimTime read_done = 0;
  Result<std::vector<uint8_t>> r = io.Get(key, done, &read_done);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(io.stats().not_found_retries, 0u);
  EXPECT_GT(read_done, done);
}

TEST(ObjectStoreIoTest, MissingKeyEventuallyNotFound) {
  SingleNodeHarness h;
  ObjectStoreIo& io = h.storage->object_io();
  SimTime done = 0;
  Result<std::vector<uint8_t>> r = io.Get(kCloudKeyBase + 999, 0.0, &done);
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ObjectStoreIoTest, PlainPrefixAblation) {
  ObjectStoreIo::Options opts;
  opts.hashed_prefixes = false;
  SingleNodeHarness h;
  ObjectStoreIo io(&h.env.object_store(), &h.node->nic(), opts);
  EXPECT_EQ(io.StoreKey(kCloudKeyBase).substr(0, 5), "data/");
  // Hashed version has a randomized prefix instead.
  EXPECT_NE(h.storage->object_io().StoreKey(kCloudKeyBase).substr(0, 5),
            "data/");
}

TEST(StorageSubsystemTest, CloudWriteReadRoundTrip) {
  SingleNodeHarness h;
  std::vector<uint8_t> payload = h.MakePayload(2000, 9);
  Result<PhysicalLoc> loc = h.storage->WritePage(
      h.cloud_space, payload, CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc.ok()) << loc.status().ToString();
  EXPECT_TRUE(loc->is_cloud());
  Result<std::vector<uint8_t>> back =
      h.storage->ReadPage(h.cloud_space, *loc);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), payload);
  EXPECT_GT(h.node->clock().now(), 0.0);  // I/O consumed simulated time
}

TEST(StorageSubsystemTest, BlockWriteReadRoundTrip) {
  SingleNodeHarness h;
  std::vector<uint8_t> payload = h.MakePayload(3000, 4);
  Result<PhysicalLoc> loc = h.storage->WritePage(
      h.block_space, payload, CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc.ok());
  EXPECT_FALSE(loc->is_cloud());
  EXPECT_GT(h.block_space->freelist.UsedBlocks(), 0u);
  Result<std::vector<uint8_t>> back =
      h.storage->ReadPage(h.block_space, *loc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
}

TEST(StorageSubsystemTest, EveryCloudWriteGetsAFreshKey) {
  SingleNodeHarness h;
  std::vector<uint8_t> payload = h.MakePayload(500, 2);
  std::set<uint64_t> keys;
  for (int i = 0; i < 50; ++i) {
    Result<PhysicalLoc> loc = h.storage->WritePage(
        h.cloud_space, payload, CloudCache::WriteMode::kWriteBack, 1);
    ASSERT_TRUE(loc.ok());
    EXPECT_TRUE(keys.insert(loc->cloud_key()).second);
  }
  // The store-level overwrite counter confirms never-write-twice held.
  EXPECT_EQ(h.env.object_store().stats().overwrites, 0u);
}

TEST(StorageSubsystemTest, KeygenPathNeverTripsTheTripwire) {
  // Regression: the ObjectKeyGenerator write path must run clean with the
  // tripwire armed — every write, rewrite and delete-then-write cycle
  // lands on a fresh monotone key, so no PUT ever repeats.
  ObjectStoreOptions store_opts;
  store_opts.enforce_never_write_twice = true;
  SingleNodeHarness h(4096, store_opts);

  std::vector<PhysicalLoc> locs;
  for (int i = 0; i < 64; ++i) {
    Result<PhysicalLoc> loc = h.storage->WritePage(
        h.cloud_space, h.MakePayload(300 + i, static_cast<uint8_t>(i)),
        i % 2 == 0 ? CloudCache::WriteMode::kWriteThrough
                   : CloudCache::WriteMode::kWriteBack,
        1);
    ASSERT_TRUE(loc.ok()) << loc.status().ToString();
    locs.push_back(*loc);
  }
  ASSERT_TRUE(h.storage->FlushForCommit(1).ok());
  // Delete half the pages, then keep writing: freed keys are never reused.
  for (size_t i = 0; i < locs.size(); i += 2) {
    ASSERT_TRUE(h.storage->DeletePage(h.cloud_space, locs[i],
                                      /*defer_allowed=*/false)
                    .ok());
  }
  for (int i = 0; i < 32; ++i) {
    Result<PhysicalLoc> loc = h.storage->WritePage(
        h.cloud_space, h.MakePayload(200, static_cast<uint8_t>(i)),
        CloudCache::WriteMode::kWriteThrough, 2);
    ASSERT_TRUE(loc.ok()) << loc.status().ToString();
  }
  EXPECT_EQ(h.env.object_store().stats().overwrites, 0u);
}

TEST(StorageSubsystemTest, OverwriteForbiddenUnderPolicy) {
  SingleNodeHarness h;
  std::vector<uint8_t> payload = h.MakePayload(100, 1);
  Result<PhysicalLoc> loc = h.storage->WritePage(
      h.cloud_space, payload, CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc.ok());
  Status st = h.storage->OverwriteCloudPage(h.cloud_space, *loc, payload);
  EXPECT_TRUE(st.IsFailedPrecondition());
}

TEST(StorageSubsystemTest, OverwriteAblationCausesStaleReads) {
  // With never-write-twice disabled, rewriting a key under eventual
  // consistency serves stale data — the anomaly §3 exists to prevent.
  ObjectStoreOptions store_opts;
  store_opts.lag_probability = 1.0;
  store_opts.mean_visibility_lag = 10.0;
  StorageSubsystem::Options storage_opts;
  storage_opts.never_write_twice = false;
  SingleNodeHarness h(4096, store_opts, storage_opts);

  std::vector<uint8_t> v1 = h.MakePayload(100, 1);
  std::vector<uint8_t> v2 = h.MakePayload(100, 99);
  Result<PhysicalLoc> loc = h.storage->WritePage(
      h.cloud_space, v1, CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc.ok());
  // Wait out the first version's visibility lag.
  h.node->clock().Advance(1000);
  ASSERT_TRUE(
      h.storage->OverwriteCloudPage(h.cloud_space, *loc, v2).ok());
  Result<std::vector<uint8_t>> read =
      h.storage->ReadPage(h.cloud_space, *loc);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), v1);  // stale!
  EXPECT_GT(h.env.object_store().stats().stale_reads, 0u);
}

TEST(StorageSubsystemTest, EncryptionHidesPlaintextAtRest) {
  StorageSubsystem::Options opts;
  opts.encrypt_pages = true;
  SingleNodeHarness h(4096, ObjectStoreOptions(), opts);

  std::vector<uint8_t> payload(600, 0x55);  // recognizable plaintext
  Result<PhysicalLoc> loc = h.storage->WritePage(
      h.cloud_space, payload, CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc.ok());

  // Raw object bytes must not contain long runs of the plaintext byte.
  SimTime done = 0;
  Result<std::vector<uint8_t>> raw = h.env.object_store().Get(
      h.storage->object_io().StoreKey(loc->cloud_key()),
      h.node->clock().now() + 100, &done);
  ASSERT_TRUE(raw.ok());
  int run = 0, max_run = 0;
  for (uint8_t b : raw.value()) {
    run = b == 0x55 ? run + 1 : 0;
    max_run = std::max(max_run, run);
  }
  EXPECT_LT(max_run, 16);

  // But the storage subsystem decrypts transparently.
  Result<std::vector<uint8_t>> back =
      h.storage->ReadPage(h.cloud_space, *loc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
}

TEST(StorageSubsystemTest, DeleteCloudPageRemovesObject) {
  SingleNodeHarness h;
  Result<PhysicalLoc> loc = h.storage->WritePage(
      h.cloud_space, h.MakePayload(100, 3),
      CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(h.env.object_store().LiveObjectCount(), 1u);
  ASSERT_TRUE(h.storage->DeletePage(h.cloud_space, *loc).ok());
  EXPECT_EQ(h.env.object_store().LiveObjectCount(), 0u);
}

TEST(StorageSubsystemTest, DeleteInterceptorDefersDeletion) {
  SingleNodeHarness h;
  std::vector<uint64_t> intercepted;
  h.storage->set_delete_interceptor([&](uint64_t key) {
    intercepted.push_back(key);
    return true;
  });
  Result<PhysicalLoc> loc = h.storage->WritePage(
      h.cloud_space, h.MakePayload(100, 3),
      CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(h.storage->DeletePage(h.cloud_space, *loc).ok());
  EXPECT_EQ(intercepted.size(), 1u);
  EXPECT_EQ(h.env.object_store().LiveObjectCount(), 1u);  // retained

  // Rollback-style deletes bypass the interceptor.
  Result<PhysicalLoc> loc2 = h.storage->WritePage(
      h.cloud_space, h.MakePayload(100, 4),
      CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc2.ok());
  ASSERT_TRUE(h.storage
                  ->DeletePage(h.cloud_space, *loc2, /*defer_allowed=*/false)
                  .ok());
  EXPECT_EQ(intercepted.size(), 1u);
  EXPECT_EQ(h.env.object_store().LiveObjectCount(), 1u);
}

TEST(StorageSubsystemTest, PayloadTooLargeRejected) {
  SingleNodeHarness h(/*page_size=*/1024);
  Status st = h.storage
                  ->WritePage(h.cloud_space, h.MakePayload(2000, 1),
                              CloudCache::WriteMode::kWriteThrough, 1)
                  .status();
  EXPECT_TRUE(st.IsInvalidArgument());
}

// What a page holds is the payload's frame, 24 bytes longer. On a 4 KB
// block dbspace (256-byte blocks) a 4,072-byte payload frames to exactly
// the 16 blocks a location can count, and freeing it returns all 16; one
// byte more would need a 17th block, so it is refused, on either kind of
// dbspace.
TEST(StorageSubsystemTest, FramedPayloadMustFitThePage) {
  SingleNodeHarness h;
  Result<PhysicalLoc> loc =
      h.storage->WritePage(h.block_space, h.MakePayload(4072, 6),
                           CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(loc.ok()) << loc.status().ToString();
  EXPECT_EQ(loc->block_count(), kBlocksPerPage);
  const uint64_t used = h.block_space->freelist.UsedBlocks();
  ASSERT_TRUE(h.storage->DeletePage(h.block_space, *loc).ok());
  EXPECT_EQ(h.block_space->freelist.UsedBlocks(), used - kBlocksPerPage);

  for (size_t size : {4073, 4088, 4096}) {
    for (DbSpace* space : {h.block_space, h.cloud_space}) {
      Result<PhysicalLoc> big =
          h.storage->WritePage(space, h.MakePayload(size, 7),
                               CloudCache::WriteMode::kWriteThrough, 1);
      EXPECT_TRUE(big.status().IsInvalidArgument())
          << size << " bytes: " << big.status().ToString();
    }
  }
  EXPECT_EQ(h.block_space->freelist.UsedBlocks(), used - kBlocksPerPage);
}

TEST(StorageSubsystemTest, ParallelWritesFasterThanSerial) {
  SingleNodeHarness serial_h, parallel_h;
  std::vector<uint8_t> payload = serial_h.MakePayload(4000, 5);

  // Serial: one at a time.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(serial_h.storage
                    ->WritePage(serial_h.cloud_space, payload,
                                CloudCache::WriteMode::kWriteThrough, 1)
                    .ok());
  }
  // Parallel: batched ops.
  std::vector<IoScheduler::Op> ops;
  for (int i = 0; i < 64; ++i) {
    Result<StorageSubsystem::PreparedWrite> prepared =
        parallel_h.storage->PrepareWrite(
            parallel_h.cloud_space, payload,
            CloudCache::WriteMode::kWriteThrough, 1);
    ASSERT_TRUE(prepared.ok());
    ops.push_back(prepared->op);
  }
  parallel_h.node->io().RunParallel(ops, parallel_h.node->IoWidth());

  EXPECT_LT(parallel_h.node->clock().now(),
            serial_h.node->clock().now() / 4);
}

TEST(SystemStoreTest, PutGetOverwrite) {
  SingleNodeHarness h;
  SimTime done = 0;
  ASSERT_TRUE(h.system.Put("a", {1, 2, 3}, 0.0, &done).ok());
  ASSERT_TRUE(h.system.Put("a", {4, 5}, done, &done).ok());  // in place
  Result<std::vector<uint8_t>> r = h.system.Get("a", done, &done);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (std::vector<uint8_t>{4, 5}));
}

TEST(SystemStoreTest, SurvivesReopen) {
  SingleNodeHarness h;
  SimTime done = 0;
  ASSERT_TRUE(h.system.Put("catalog", {9, 9, 9}, 0.0, &done).ok());
  ASSERT_TRUE(h.system.Put("chain", {1}, done, &done).ok());

  // Simulated restart: a fresh SystemStore over the same volume.
  SystemStore reopened(h.system_volume);
  ASSERT_TRUE(reopened.Open(done, &done).ok());
  Result<std::vector<uint8_t>> r = reopened.Get("catalog", done, &done);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (std::vector<uint8_t>{9, 9, 9}));
  EXPECT_EQ(reopened.List(),
            (std::vector<std::string>{"catalog", "chain"}));
}

// A directory whose u64 entry count outruns its bytes is Corruption at
// once: the count is bounded by the bytes left (an entry is at least a
// u32 name length and a u64 run), so a corrupt count never drives a loop.
TEST(SystemStoreTest, CorruptDirectoryCountIsCorruption) {
  SingleNodeHarness h;
  SimTime done = 0;
  ASSERT_TRUE(h.system.Put("a", {1}, 0.0, &done).ok());
  std::vector<uint8_t> directory;
  PutU64(directory, 2);                      // next run
  PutU64(directory, ~uint64_t{0});           // entry count
  PutString(directory, "a");
  PutU64(directory, 1);
  // Block 0 is the directory run.
  ASSERT_TRUE(h.system_volume->Write(0, directory, done, &done).ok());
  SystemStore reopened(h.system_volume);
  Status st = reopened.Open(done, &done);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Two claimed entries over the bytes of one.
  std::vector<uint8_t> two;
  PutU64(two, 2);
  PutU64(two, 2);
  PutString(two, "a");
  PutU64(two, 1);
  ASSERT_TRUE(h.system_volume->Write(0, two, done, &done).ok());
  EXPECT_TRUE(reopened.Open(done, &done).IsCorruption());
}

TEST(SystemStoreTest, DeleteRemovesDurably) {
  SingleNodeHarness h;
  SimTime done = 0;
  ASSERT_TRUE(h.system.Put("x", {1}, 0.0, &done).ok());
  ASSERT_TRUE(h.system.Delete("x", done, &done).ok());
  SystemStore reopened(h.system_volume);
  ASSERT_TRUE(reopened.Open(done, &done).ok());
  EXPECT_FALSE(reopened.Contains("x"));
}

}  // namespace
}  // namespace cloudiq

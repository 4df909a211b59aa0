#include <gtest/gtest.h>

#include "buffer/buffer_manager.h"

namespace cloudiq {
namespace {

BufferManager::FlushBatchFn NoopFlush() {
  return [](uint64_t, std::vector<BufferManager::DirtyPage>&&, bool) {
    return Status::Ok();
  };
}

TEST(BufferManagerTest, GetCachesAndHits) {
  BufferManager buffer({.capacity_bytes = 1 << 20}, NoopFlush());
  int loads = 0;
  auto loader = [&]() -> Result<std::vector<uint8_t>> {
    ++loads;
    return std::vector<uint8_t>{1, 2, 3};
  };
  PhysicalLoc loc = PhysicalLoc::ForCloudKey(kCloudKeyBase + 1);
  ASSERT_TRUE(buffer.Get(1, loc, loader).ok());
  ASSERT_TRUE(buffer.Get(1, loc, loader).ok());
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(buffer.stats().hits, 1u);
  EXPECT_EQ(buffer.stats().misses, 1u);
}

TEST(BufferManagerTest, LoaderErrorPropagates) {
  BufferManager buffer({.capacity_bytes = 1 << 20}, NoopFlush());
  auto loader = [&]() -> Result<std::vector<uint8_t>> {
    return Status::IoError("boom");
  };
  Result<BufferManager::PageData> r =
      buffer.Get(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 1), loader);
  EXPECT_TRUE(r.status().IsIoError());
}

TEST(BufferManagerTest, LruEvictsColdestClean) {
  BufferManager buffer({.capacity_bytes = 350}, NoopFlush());
  auto page = [](uint8_t v) { return std::vector<uint8_t>(100, v); };
  buffer.Insert(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 1), page(1));
  buffer.Insert(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 2), page(2));
  buffer.Insert(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 3), page(3));
  // Touch key 1 so key 2 becomes the coldest.
  auto loader = []() -> Result<std::vector<uint8_t>> {
    return Status::IoError("must not load");
  };
  ASSERT_TRUE(
      buffer.Get(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 1), loader)
          .ok());
  buffer.Insert(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 4), page(4));
  EXPECT_TRUE(buffer.Cached(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 1)));
  EXPECT_FALSE(
      buffer.Cached(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 2)));
  EXPECT_GT(buffer.stats().clean_evictions, 0u);
}

TEST(BufferManagerTest, InvalidateDropsEntry) {
  BufferManager buffer({.capacity_bytes = 1 << 20}, NoopFlush());
  PhysicalLoc loc = PhysicalLoc::ForBlocks(10, 2);
  buffer.Insert(2, loc, {1, 2, 3});
  EXPECT_TRUE(buffer.Cached(2, loc));
  buffer.Invalidate(2, loc);
  EXPECT_FALSE(buffer.Cached(2, loc));
  EXPECT_EQ(buffer.clean_bytes(), 0u);
}

TEST(BufferManagerTest, DirtyReadYourWrites) {
  BufferManager buffer({.capacity_bytes = 1 << 20}, NoopFlush());
  ASSERT_TRUE(buffer.PutDirty(7, 1, 0, {9, 9}).ok());
  Result<BufferManager::PageData> r = buffer.GetDirty(7, 1, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, (std::vector<uint8_t>{9, 9}));
  EXPECT_FALSE(buffer.GetDirty(7, 1, 1).ok());
  EXPECT_FALSE(buffer.GetDirty(8, 1, 0).ok());
}

TEST(BufferManagerTest, PutDirtyReplacesInPlace) {
  BufferManager buffer({.capacity_bytes = 1 << 20}, NoopFlush());
  ASSERT_TRUE(buffer.PutDirty(7, 1, 0, std::vector<uint8_t>(100, 1)).ok());
  ASSERT_TRUE(buffer.PutDirty(7, 1, 0, std::vector<uint8_t>(50, 2)).ok());
  EXPECT_EQ(buffer.dirty_bytes(), 50u);
  EXPECT_EQ((**buffer.GetDirty(7, 1, 0))[0], 2);
}

TEST(BufferManagerTest, ChurnEvictionFlushesOldestDirty) {
  std::vector<uint64_t> flushed_pages;
  bool saw_commit = false;
  BufferManager buffer(
      {.capacity_bytes = 500},
      [&](uint64_t txn, std::vector<BufferManager::DirtyPage>&& pages,
          bool for_commit) {
        EXPECT_EQ(txn, 7u);
        if (for_commit) saw_commit = true;
        for (auto& p : pages) flushed_pages.push_back(p.page);
        return Status::Ok();
      });
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        buffer.PutDirty(7, 1, i, std::vector<uint8_t>(100, 1)).ok());
  }
  // Capacity 500 with 10 x 100-byte pages: churn flushes happened, oldest
  // pages first.
  EXPECT_FALSE(flushed_pages.empty());
  EXPECT_EQ(flushed_pages.front(), 0u);
  EXPECT_FALSE(saw_commit);
  EXPECT_GT(buffer.stats().churn_flushes, 0u);
  EXPECT_LE(buffer.dirty_bytes(), 500u);
}

TEST(BufferManagerTest, FlushTxnDrainsEverythingForCommit) {
  std::vector<std::pair<uint64_t, bool>> calls;
  BufferManager buffer(
      {.capacity_bytes = 1 << 20},
      [&](uint64_t, std::vector<BufferManager::DirtyPage>&& pages,
          bool for_commit) {
        calls.emplace_back(pages.size(), for_commit);
        return Status::Ok();
      });
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(buffer.PutDirty(3, 1, i, {1, 2, 3}).ok());
  }
  ASSERT_TRUE(buffer.FlushTxn(3).ok());
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, 5u);
  EXPECT_TRUE(calls[0].second);
  EXPECT_EQ(buffer.dirty_bytes(), 0u);
  // Second flush is a no-op.
  ASSERT_TRUE(buffer.FlushTxn(3).ok());
  EXPECT_EQ(calls.size(), 1u);
}

TEST(BufferManagerTest, DropTxnDiscardsWithoutFlushing) {
  int flushes = 0;
  BufferManager buffer(
      {.capacity_bytes = 1 << 20},
      [&](uint64_t, std::vector<BufferManager::DirtyPage>&&, bool) {
        ++flushes;
        return Status::Ok();
      });
  ASSERT_TRUE(buffer.PutDirty(3, 1, 0, {1}).ok());
  buffer.DropTxn(3);
  EXPECT_EQ(buffer.dirty_bytes(), 0u);
  ASSERT_TRUE(buffer.FlushTxn(3).ok());
  EXPECT_EQ(flushes, 0);
}

}  // namespace
}  // namespace cloudiq

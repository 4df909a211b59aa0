#include <gtest/gtest.h>

#include <set>

#include "blockmap/blockmap.h"
#include "blockmap/identity.h"
#include "common/coding.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

using testing_util::SingleNodeHarness;

class BlockmapTest : public ::testing::Test {
 protected:
  SingleNodeHarness h_;
};

TEST_F(BlockmapTest, AppendLookupBeforeFlush) {
  Blockmap map(h_.storage.get(), h_.cloud_space, /*fanout=*/4);
  uint64_t p0 = map.Append(PhysicalLoc::ForCloudKey(kCloudKeyBase + 1));
  uint64_t p1 = map.Append(PhysicalLoc::ForCloudKey(kCloudKeyBase + 2));
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(map.page_count(), 2u);
  Result<PhysicalLoc> loc = map.Lookup(0);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->cloud_key(), kCloudKeyBase + 1);
  EXPECT_FALSE(map.Lookup(5).ok());  // out of range
}

TEST_F(BlockmapTest, GrowsHeightAndStaysCorrect) {
  Blockmap map(h_.storage.get(), h_.cloud_space, /*fanout=*/4);
  // 100 pages with fanout 4 forces height >= 4.
  for (uint64_t i = 0; i < 100; ++i) {
    map.Append(PhysicalLoc::ForCloudKey(kCloudKeyBase + 1000 + i));
  }
  EXPECT_GE(map.height(), 4u);
  for (uint64_t i = 0; i < 100; ++i) {
    Result<PhysicalLoc> loc = map.Lookup(i);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(loc->cloud_key(), kCloudKeyBase + 1000 + i) << "page " << i;
  }
}

TEST_F(BlockmapTest, UpdateReturnsOldLocation) {
  Blockmap map(h_.storage.get(), h_.cloud_space, 4);
  map.Append(PhysicalLoc::ForCloudKey(kCloudKeyBase + 7));
  Result<PhysicalLoc> old =
      map.Update(0, PhysicalLoc::ForCloudKey(kCloudKeyBase + 8));
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->cloud_key(), kCloudKeyBase + 7);
  EXPECT_EQ(map.Lookup(0)->cloud_key(), kCloudKeyBase + 8);
}

// The Figure 2 walk-through: dirtying a data page versions the leaf, its
// ancestors and finally the root — each under a brand-new location — and
// the superseded node versions are reported for GC.
TEST_F(BlockmapTest, Figure2CowVersioningChain) {
  Blockmap map(h_.storage.get(), h_.cloud_space, /*fanout=*/2);
  // Build a 2-level tree: 4 data pages -> 2 leaves + 1 root (height 2).
  std::vector<uint64_t> data_keys;
  for (uint64_t i = 0; i < 4; ++i) {
    // Data pages are written first (as the buffer manager would).
    Result<PhysicalLoc> loc = h_.storage->WritePage(
        h_.cloud_space, h_.MakePayload(256, static_cast<uint8_t>(i)),
        CloudCache::WriteMode::kWriteThrough, 1);
    ASSERT_TRUE(loc.ok());
    map.Append(*loc);
    data_keys.push_back(loc->cloud_key());
  }
  Result<Blockmap::FlushEffects> first =
      map.Flush(CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->new_root.valid());
  EXPECT_TRUE(first->freed.empty());  // nothing superseded yet
  PhysicalLoc root_v1 = first->new_root;
  uint64_t nodes_v1 = first->nodes_written;
  EXPECT_GE(nodes_v1, 3u);  // 2 leaves + root

  // Dirty page 3 ("H"): new version H'.
  Result<PhysicalLoc> h_prime = h_.storage->WritePage(
      h_.cloud_space, h_.MakePayload(256, 99),
      CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(h_prime.ok());
  ASSERT_TRUE(map.Update(3, *h_prime).ok());

  Result<Blockmap::FlushEffects> second =
      map.Flush(CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(second.ok());
  // Exactly the leaf owning page 3 (D -> D') and the root (A -> A') are
  // rewritten; the sibling leaf is untouched.
  EXPECT_EQ(second->nodes_written, 2u);
  EXPECT_EQ(second->freed.size(), 2u);
  EXPECT_EQ(second->allocated.size(), 2u);
  EXPECT_FALSE(second->new_root == root_v1);
  // Old root is among the freed versions.
  bool old_root_freed = false;
  for (PhysicalLoc loc : second->freed) {
    if (loc == root_v1) old_root_freed = true;
  }
  EXPECT_TRUE(old_root_freed);
  // Never-write-twice: all new node locations are fresh keys.
  std::set<uint64_t> fresh;
  for (PhysicalLoc loc : second->allocated) {
    EXPECT_TRUE(loc.is_cloud());
    EXPECT_TRUE(fresh.insert(loc.cloud_key()).second);
  }
  EXPECT_EQ(h_.env.object_store().stats().overwrites, 0u);
}

TEST_F(BlockmapTest, ReopenFromRootReadsBack) {
  PhysicalLoc root;
  uint64_t page_count = 0;
  {
    Blockmap map(h_.storage.get(), h_.cloud_space, 4);
    for (uint64_t i = 0; i < 30; ++i) {
      Result<PhysicalLoc> loc = h_.storage->WritePage(
          h_.cloud_space, h_.MakePayload(128, static_cast<uint8_t>(i)),
          CloudCache::WriteMode::kWriteThrough, 1);
      ASSERT_TRUE(loc.ok());
      map.Append(*loc);
    }
    Result<Blockmap::FlushEffects> effects =
        map.Flush(CloudCache::WriteMode::kWriteThrough, 1);
    ASSERT_TRUE(effects.ok());
    root = effects->new_root;
    page_count = map.page_count();
  }

  Blockmap reopened = Blockmap::Open(h_.storage.get(), h_.cloud_space, 4,
                                     root, page_count);
  EXPECT_EQ(reopened.page_count(), 30u);
  for (uint64_t i = 0; i < 30; ++i) {
    Result<PhysicalLoc> loc = reopened.Lookup(i);
    ASSERT_TRUE(loc.ok()) << loc.status().ToString();
    Result<std::vector<uint8_t>> payload =
        h_.storage->ReadPage(h_.cloud_space, *loc);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(payload.value(),
              h_.MakePayload(128, static_cast<uint8_t>(i)));
  }
}

TEST_F(BlockmapTest, AppendAfterReopen) {
  PhysicalLoc root;
  uint64_t page_count;
  {
    Blockmap map(h_.storage.get(), h_.cloud_space, 2);
    for (uint64_t i = 0; i < 7; ++i) {
      map.Append(PhysicalLoc::ForCloudKey(kCloudKeyBase + i));
    }
    auto effects = map.Flush(CloudCache::WriteMode::kWriteThrough, 1);
    ASSERT_TRUE(effects.ok());
    root = effects->new_root;
    page_count = map.page_count();
  }
  Blockmap map = Blockmap::Open(h_.storage.get(), h_.cloud_space, 2, root,
                                page_count);
  uint64_t p = map.Append(PhysicalLoc::ForCloudKey(kCloudKeyBase + 100));
  EXPECT_EQ(p, 7u);
  EXPECT_EQ(map.Lookup(7)->cloud_key(), kCloudKeyBase + 100);
  EXPECT_EQ(map.Lookup(3)->cloud_key(), kCloudKeyBase + 3);
}

TEST_F(BlockmapTest, CollectReachableFindsEverything) {
  Blockmap map(h_.storage.get(), h_.cloud_space, 2);
  const uint64_t kPages = 9;
  for (uint64_t i = 0; i < kPages; ++i) {
    Result<PhysicalLoc> loc = h_.storage->WritePage(
        h_.cloud_space, h_.MakePayload(64, static_cast<uint8_t>(i)),
        CloudCache::WriteMode::kWriteThrough, 1);
    ASSERT_TRUE(loc.ok());
    map.Append(*loc);
  }
  auto effects = map.Flush(CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(effects.ok());

  std::vector<PhysicalLoc> nodes, pages;
  ASSERT_TRUE(map.CollectReachable(&nodes, &pages).ok());
  EXPECT_EQ(pages.size(), kPages);
  EXPECT_GE(nodes.size(), 5u);  // fanout-2 tree over 9 leaves
  // Everything reachable must actually exist in the object store.
  for (PhysicalLoc loc : pages) {
    EXPECT_TRUE(
        h_.storage->ReadPage(h_.cloud_space, loc).ok());
  }
}

TEST_F(BlockmapTest, WorksOnBlockDbSpaceToo) {
  Blockmap map(h_.storage.get(), h_.block_space, 8);
  for (uint64_t i = 0; i < 20; ++i) {
    Result<PhysicalLoc> loc = h_.storage->WritePage(
        h_.block_space, h_.MakePayload(512, static_cast<uint8_t>(i)),
        CloudCache::WriteMode::kWriteThrough, 1);
    ASSERT_TRUE(loc.ok());
    map.Append(*loc);
  }
  auto effects = map.Flush(CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(effects.ok());
  EXPECT_FALSE(effects->new_root.is_cloud());
  Blockmap reopened = Blockmap::Open(h_.storage.get(), h_.block_space, 8,
                                     effects->new_root, map.page_count());
  EXPECT_EQ(reopened.Lookup(19)->encoded(), map.Lookup(19)->encoded());
}

// A node page whose u32 entry count exceeds its bytes is Corruption,
// decided before anything is sized from the count — at the root
// (LoadNode) and below it (FaultIn) alike.
TEST_F(BlockmapTest, CorruptNodeCountIsCorruption) {
  std::vector<uint8_t> huge;
  PutU32(huge, 1);            // leaf
  PutU32(huge, 0xFFFFFFFFu);  // 32 GiB worth of entries...
  PutU64(huge, kCloudKeyBase + 1);  // ...backed by one
  Result<PhysicalLoc> bad_leaf = h_.storage->WritePage(
      h_.cloud_space, huge, CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(bad_leaf.ok());

  Blockmap at_root = Blockmap::Open(h_.storage.get(), h_.cloud_space, 4,
                                    *bad_leaf, /*page_count=*/1);
  Result<PhysicalLoc> root_lookup = at_root.Lookup(0);
  ASSERT_FALSE(root_lookup.ok());
  EXPECT_TRUE(root_lookup.status().IsCorruption());

  std::vector<uint8_t> parent;
  PutU32(parent, 0);  // internal
  PutU32(parent, 1);
  PutU64(parent, bad_leaf->encoded());
  Result<PhysicalLoc> root = h_.storage->WritePage(
      h_.cloud_space, parent, CloudCache::WriteMode::kWriteThrough, 1);
  ASSERT_TRUE(root.ok());
  Blockmap below = Blockmap::Open(h_.storage.get(), h_.cloud_space, 4,
                                  *root, /*page_count=*/2);
  Result<PhysicalLoc> child_lookup = below.Lookup(1);
  ASSERT_FALSE(child_lookup.ok());
  EXPECT_TRUE(child_lookup.status().IsCorruption());
}

TEST(BlockmapParseTest, ParseNodeBoundsCountByBytes) {
  std::vector<uint8_t> bytes;
  PutU32(bytes, 0);
  PutU32(bytes, 2);
  PutU64(bytes, 11);
  PutU64(bytes, 12);
  PhysicalLoc loc = PhysicalLoc::ForCloudKey(kCloudKeyBase + 9);
  Result<std::unique_ptr<Blockmap::Node>> node =
      Blockmap::ParseNode(bytes, loc);
  ASSERT_TRUE(node.ok());
  EXPECT_FALSE((*node)->leaf);
  EXPECT_EQ((*node)->entries, (std::vector<uint64_t>{11, 12}));
  EXPECT_EQ((*node)->children.size(), 2u);
  EXPECT_EQ((*node)->stored_loc.encoded(), loc.encoded());
  // One byte short of the second entry, and a truncated header.
  bytes.pop_back();
  EXPECT_TRUE(Blockmap::ParseNode(bytes, loc).status().IsCorruption());
  bytes.resize(6);
  EXPECT_TRUE(Blockmap::ParseNode(bytes, loc).status().IsCorruption());
}

TEST(IdentityTest, SerializeRoundTrip) {
  IdentityObject id;
  id.object_id = 42;
  id.dbspace_id = 3;
  id.root = PhysicalLoc::ForCloudKey(kCloudKeyBase + 5);
  id.page_count = 77;
  id.version = 9;
  EXPECT_EQ(id.Serialize().size(), IdentityObject::kSerializedSize);
  Result<IdentityObject> back = IdentityObject::Deserialize(id.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->object_id, 42u);
  EXPECT_EQ(back->dbspace_id, 3u);
  EXPECT_EQ(back->root.cloud_key(), kCloudKeyBase + 5);
  EXPECT_EQ(back->page_count, 77u);
  EXPECT_EQ(back->version, 9u);
  // Anything but exactly 36 bytes is Corruption.
  std::vector<uint8_t> bytes = id.Serialize();
  bytes.pop_back();
  EXPECT_TRUE(IdentityObject::Deserialize(bytes).status().IsCorruption());
  bytes.resize(IdentityObject::kSerializedSize + 1);
  EXPECT_TRUE(IdentityObject::Deserialize(bytes).status().IsCorruption());
}

// A catalog whose u64 count outruns its bytes is Corruption at once, and
// recovery surfaces it instead of starting from an empty catalog.
TEST(IdentityTest, CorruptCatalogCountIsCorruption) {
  IdentityCatalog catalog;
  IdentityObject id;
  id.object_id = 5;
  catalog.Put(id);
  std::vector<uint8_t> bytes = catalog.Serialize();
  ASSERT_TRUE(IdentityCatalog::Deserialize(bytes).ok());
  bytes[0] = 0xFF;  // count 255: one entry's bytes, 255 claimed
  EXPECT_TRUE(IdentityCatalog::Deserialize(bytes).status().IsCorruption());
  for (int i = 0; i < 8; ++i) bytes[i] = 0xFF;  // count 2^64 - 1
  EXPECT_TRUE(IdentityCatalog::Deserialize(bytes).status().IsCorruption());
  // A right count over a wrong-size entry.
  std::vector<uint8_t> short_entry;
  PutU64(short_entry, 1);
  PutU64(short_entry, 35);
  short_entry.resize(short_entry.size() + 35);
  EXPECT_TRUE(
      IdentityCatalog::Deserialize(short_entry).status().IsCorruption());

  SingleNodeHarness h;
  SimTime done = 0;
  ASSERT_TRUE(h.system.Put("catalog", bytes, 0.0, &done).ok());
  Result<IdentityCatalog> loaded =
      IdentityCatalog::Load(&h.system, "catalog", done, &done);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST(IdentityTest, CatalogPersistAndLoad) {
  SingleNodeHarness h;
  IdentityCatalog catalog;
  IdentityObject id;
  id.object_id = 1;
  id.page_count = 10;
  catalog.Put(id);
  id.object_id = 2;
  catalog.Put(id);
  SimTime done = 0;
  ASSERT_TRUE(catalog.Persist(&h.system, "catalog", 0.0, &done).ok());

  Result<IdentityCatalog> loaded =
      IdentityCatalog::Load(&h.system, "catalog", done, &done);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Contains(1));
  EXPECT_TRUE(loaded->Contains(2));
  EXPECT_FALSE(loaded->Contains(3));
  loaded->Remove(1);
  EXPECT_FALSE(loaded->Contains(1));
}

}  // namespace
}  // namespace cloudiq

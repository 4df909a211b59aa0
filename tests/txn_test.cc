#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "txn/page_set.h"
#include "txn/transaction_manager.h"

namespace cloudiq {
namespace {

using testing_util::SingleNodeHarness;

// Harness with a TransactionManager wired to the single-node setup:
// commit notifications flow to the local key generator, exactly as on a
// coordinator node.
class TxnTest : public ::testing::Test {
 protected:
  TxnTest() {
    TransactionManager::Options opts;
    opts.node_id = 0;
    opts.blockmap_fanout = 4;
    opts.buffer_capacity_bytes = 1 << 20;
    txn_mgr_ = std::make_unique<TransactionManager>(h_.storage.get(),
                                                    &h_.system, opts);
    txn_mgr_->set_commit_listener(
        [this](NodeId node, const IntervalSet& keys) {
          h_.keygen.OnTransactionCommitted(node, keys);
        });
  }

  // Loads `n` pages into a new object under one transaction and commits.
  uint64_t LoadObject(uint64_t object_id, int n, uint8_t seed,
                      DbSpace* space) {
    Transaction* txn = txn_mgr_->Begin();
    Result<StorageObject*> obj =
        txn_mgr_->CreateObject(txn, object_id, space);
    EXPECT_TRUE(obj.ok());
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(
          (*obj)
              ->AppendPage(h_.MakePayload(512, seed + i))
              .ok());
    }
    EXPECT_TRUE(txn_mgr_->Commit(txn).ok());
    return object_id;
  }

  SingleNodeHarness h_;
  std::unique_ptr<TransactionManager> txn_mgr_;
};

TEST(PageSetTest, SplitsCloudAndBlockByRange) {
  PageSet set;
  set.Add(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 10));
  set.Add(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 11));
  set.Add(2, PhysicalLoc::ForBlocks(100, 4));
  EXPECT_EQ(set.cloud_keys().Count(), 2u);
  EXPECT_EQ(set.block_locs().size(), 1u);
  EXPECT_EQ(set.page_count(), 3u);
  Bitmap bm = set.BlockBitmap(2);
  EXPECT_TRUE(bm.Test(100));
  EXPECT_TRUE(bm.Test(103));
  EXPECT_FALSE(bm.Test(104));
  EXPECT_EQ(set.BlockBitmap(1).CountSet(), 0u);
}

TEST(PageSetTest, MonotonicKeysStayCompact) {
  PageSet set;
  for (uint64_t i = 0; i < 10000; ++i) {
    set.Add(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + i));
  }
  // §3.2: monotonic keys let bookkeeping collapse to a single interval.
  EXPECT_EQ(set.cloud_keys().IntervalCount(), 1u);
}

TEST(PageSetTest, SerializeRoundTrip) {
  PageSet set;
  set.Add(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + 5));
  set.Add(3, PhysicalLoc::ForBlocks(7, 2));
  PageSet back = PageSet::Deserialize(set.Serialize());
  EXPECT_TRUE(set == back);
}

TEST_F(TxnTest, CommitPublishesNewVersion) {
  LoadObject(100, 10, 1, h_.cloud_space);
  EXPECT_TRUE(txn_mgr_->catalog().Contains(100));
  Result<IdentityObject> identity = txn_mgr_->catalog().Get(100);
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ(identity->page_count, 10u);

  // A reader sees the committed pages.
  Transaction* reader = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> obj =
      txn_mgr_->OpenForRead(reader, 100);
  ASSERT_TRUE(obj.ok());
  for (int i = 0; i < 10; ++i) {
    Result<BufferManager::PageData> page = (*obj)->ReadPage(i);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(**page, h_.MakePayload(512, 1 + i));
  }
  ASSERT_TRUE(txn_mgr_->Commit(reader).ok());
}

TEST_F(TxnTest, ReadYourOwnWritesBeforeCommit) {
  Transaction* txn = txn_mgr_->Begin();
  Result<StorageObject*> obj =
      txn_mgr_->CreateObject(txn, 7, h_.cloud_space);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE((*obj)->AppendPage(h_.MakePayload(256, 5)).ok());
  Result<BufferManager::PageData> page = (*obj)->ReadPage(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(**page, h_.MakePayload(256, 5));
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
}

TEST_F(TxnTest, SnapshotIsolationReadersSeeOldVersion) {
  LoadObject(50, 4, 10, h_.cloud_space);

  // Reader begins before the writer commits an update.
  Transaction* reader = txn_mgr_->Begin();

  Transaction* writer = txn_mgr_->Begin();
  Result<StorageObject*> wobj = txn_mgr_->OpenForWrite(writer, 50);
  ASSERT_TRUE(wobj.ok());
  ASSERT_TRUE((*wobj)->WritePage(0, h_.MakePayload(512, 200)).ok());
  ASSERT_TRUE(txn_mgr_->Commit(writer).ok());

  // The reader's snapshot still resolves page 0 to the old version.
  Result<std::unique_ptr<StorageObject>> robj =
      txn_mgr_->OpenForRead(reader, 50);
  ASSERT_TRUE(robj.ok());
  Result<BufferManager::PageData> old_page = (*robj)->ReadPage(0);
  ASSERT_TRUE(old_page.ok()) << old_page.status().ToString();
  EXPECT_EQ(**old_page, h_.MakePayload(512, 10));
  ASSERT_TRUE(txn_mgr_->Commit(reader).ok());

  // A new reader sees the update.
  Transaction* fresh = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> fobj =
      txn_mgr_->OpenForRead(fresh, 50);
  ASSERT_TRUE(fobj.ok());
  EXPECT_EQ((*(*fobj)->ReadPage(0).value())[0], h_.MakePayload(512, 200)[0]);
  ASSERT_TRUE(txn_mgr_->Commit(fresh).ok());
}

TEST_F(TxnTest, GcDeletesSupersededVersionsAfterReadersFinish) {
  LoadObject(60, 8, 0, h_.cloud_space);
  uint64_t objects_v1 = h_.env.object_store().LiveObjectCount();

  Transaction* reader = txn_mgr_->Begin();  // pins version 1

  Transaction* writer = txn_mgr_->Begin();
  Result<StorageObject*> wobj = txn_mgr_->OpenForWrite(writer, 60);
  ASSERT_TRUE(wobj.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*wobj)->WritePage(i, h_.MakePayload(512, 100 + i)).ok());
  }
  ASSERT_TRUE(txn_mgr_->Commit(writer).ok());

  // Both versions coexist while the reader is active.
  EXPECT_GT(h_.env.object_store().LiveObjectCount(), objects_v1);
  EXPECT_GE(txn_mgr_->committed_chain_length(), 1u);

  ASSERT_TRUE(txn_mgr_->Commit(reader).ok());
  ASSERT_TRUE(txn_mgr_->RunGarbageCollection().ok());

  // Old data pages are gone; live count returns to ~version-2 footprint.
  EXPECT_LE(h_.env.object_store().LiveObjectCount(), objects_v1 + 2);
  EXPECT_EQ(txn_mgr_->committed_chain_length(), 0u);
  EXPECT_GT(txn_mgr_->stats().gc_pages_deleted, 0u);

  // Version 2 remains fully readable after GC.
  Transaction* check = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> obj =
      txn_mgr_->OpenForRead(check, 60);
  ASSERT_TRUE(obj.ok());
  for (int i = 0; i < 8; ++i) {
    Result<BufferManager::PageData> page = (*obj)->ReadPage(i);
    ASSERT_TRUE(page.ok()) << "page " << i;
    EXPECT_EQ(**page, h_.MakePayload(512, 100 + i));
  }
  ASSERT_TRUE(txn_mgr_->Commit(check).ok());
}

TEST_F(TxnTest, GcLeavesExactlyReachableObjects) {
  // After load + update + GC with no active readers, the object store
  // holds exactly the reachable set: data pages + blockmap nodes of the
  // latest version (completeness: no leaks, no dangling).
  LoadObject(70, 6, 0, h_.cloud_space);
  Transaction* writer = txn_mgr_->Begin();
  Result<StorageObject*> wobj = txn_mgr_->OpenForWrite(writer, 70);
  ASSERT_TRUE(wobj.ok());
  for (int i = 0; i < 6; i += 2) {
    ASSERT_TRUE((*wobj)->WritePage(i, h_.MakePayload(512, 50 + i)).ok());
  }
  ASSERT_TRUE(txn_mgr_->Commit(writer).ok());
  ASSERT_TRUE(txn_mgr_->RunGarbageCollection().ok());

  // Collect the reachable set from the committed catalog.
  Transaction* probe = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> obj =
      txn_mgr_->OpenForRead(probe, 70);
  ASSERT_TRUE(obj.ok());
  std::vector<PhysicalLoc> nodes, pages;
  ASSERT_TRUE((*obj)->blockmap().CollectReachable(&nodes, &pages).ok());
  ASSERT_TRUE(txn_mgr_->Commit(probe).ok());

  EXPECT_EQ(h_.env.object_store().LiveObjectCount(),
            nodes.size() + pages.size());
}

TEST_F(TxnTest, RollbackDeletesAllocationsImmediately) {
  Transaction* txn = txn_mgr_->Begin();
  Result<StorageObject*> obj =
      txn_mgr_->CreateObject(txn, 80, h_.cloud_space);
  ASSERT_TRUE(obj.ok());
  // Enough volume to overflow the 1 MB buffer: churn flushes upload real
  // objects before the rollback.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE((*obj)->AppendPage(h_.MakePayload(4096, 1)).ok());
  }
  EXPECT_GT(h_.env.object_store().LiveObjectCount(), 0u);
  ASSERT_TRUE(txn_mgr_->Rollback(txn).ok());
  EXPECT_EQ(h_.env.object_store().LiveObjectCount(), 0u);
  EXPECT_FALSE(txn_mgr_->catalog().Contains(80));
  // Rollback did NOT notify the coordinator: active set unchanged.
  EXPECT_FALSE(h_.keygen.ActiveSet(0).empty());
}

TEST_F(TxnTest, CommitNotifiesCoordinatorActiveSet) {
  LoadObject(90, 4, 0, h_.cloud_space);
  // All consumed keys left the active set at commit; only unconsumed
  // cached-range keys remain.
  const IntervalSet& active = h_.keygen.ActiveSet(0);
  Result<IdentityObject> identity = txn_mgr_->catalog().Get(90);
  ASSERT_TRUE(identity.ok());
  EXPECT_FALSE(active.Contains(identity->root.cloud_key()));
}

TEST_F(TxnTest, BlockDbSpaceCommitAndFreelistReuse) {
  LoadObject(110, 10, 0, h_.block_space);
  uint64_t used_v1 = h_.block_space->freelist.UsedBlocks();
  EXPECT_GT(used_v1, 0u);

  Transaction* writer = txn_mgr_->Begin();
  Result<StorageObject*> wobj = txn_mgr_->OpenForWrite(writer, 110);
  ASSERT_TRUE(wobj.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*wobj)->WritePage(i, h_.MakePayload(512, 77)).ok());
  }
  ASSERT_TRUE(txn_mgr_->Commit(writer).ok());
  ASSERT_TRUE(txn_mgr_->RunGarbageCollection().ok());

  // Old blocks freed: usage did not double.
  EXPECT_LT(h_.block_space->freelist.UsedBlocks(), 2 * used_v1);

  Transaction* check = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> obj =
      txn_mgr_->OpenForRead(check, 110);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ((*(*obj)->ReadPage(3).value())[0], h_.MakePayload(512, 77)[0]);
  ASSERT_TRUE(txn_mgr_->Commit(check).ok());
}

TEST_F(TxnTest, ChurnEvictionUnderSmallBufferStillCommitsCorrectly) {
  // Buffer capacity 1 MB; 6 MB of dirty pages force heavy churn-phase
  // eviction (write-back) before commit (write-through).
  Transaction* txn = txn_mgr_->Begin();
  Result<StorageObject*> obj =
      txn_mgr_->CreateObject(txn, 120, h_.cloud_space);
  ASSERT_TRUE(obj.ok());
  const int kPages = 1536;
  for (int i = 0; i < kPages; ++i) {
    ASSERT_TRUE(
        (*obj)
            ->AppendPage(h_.MakePayload(4096, static_cast<uint8_t>(i)))
            .ok());
  }
  EXPECT_GT(txn_mgr_->buffer().stats().churn_flushes, 0u);
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* reader = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> robj =
      txn_mgr_->OpenForRead(reader, 120);
  ASSERT_TRUE(robj.ok());
  for (int i = 0; i < kPages; i += 97) {
    Result<BufferManager::PageData> page = (*robj)->ReadPage(i);
    ASSERT_TRUE(page.ok()) << "page " << i;
    EXPECT_EQ(**page, h_.MakePayload(4096, static_cast<uint8_t>(i)));
  }
  ASSERT_TRUE(txn_mgr_->Commit(reader).ok());
}

TEST_F(TxnTest, DropObjectCollectsEverything) {
  LoadObject(130, 12, 0, h_.cloud_space);
  uint64_t live_before = h_.env.object_store().LiveObjectCount();
  EXPECT_GT(live_before, 0u);

  Transaction* txn = txn_mgr_->Begin();
  ASSERT_TRUE(txn_mgr_->DropObject(txn, 130).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  ASSERT_TRUE(txn_mgr_->RunGarbageCollection().ok());
  EXPECT_EQ(h_.env.object_store().LiveObjectCount(), 0u);
  EXPECT_FALSE(txn_mgr_->catalog().Contains(130));
}

TEST_F(TxnTest, CrashRecoveryRestoresCommittedState) {
  LoadObject(140, 6, 3, h_.cloud_space);
  LoadObject(141, 4, 8, h_.block_space);
  ASSERT_TRUE(txn_mgr_->Checkpoint().ok());

  // More work after the checkpoint (must be recovered via log replay).
  Transaction* writer = txn_mgr_->Begin();
  Result<StorageObject*> wobj = txn_mgr_->OpenForWrite(writer, 140);
  ASSERT_TRUE(wobj.ok());
  ASSERT_TRUE((*wobj)->WritePage(2, h_.MakePayload(512, 222)).ok());
  ASSERT_TRUE(txn_mgr_->Commit(writer).ok());

  // An in-flight transaction dies with the node.
  Transaction* doomed = txn_mgr_->Begin();
  Result<StorageObject*> dobj =
      txn_mgr_->CreateObject(doomed, 999, h_.cloud_space);
  ASSERT_TRUE(dobj.ok());
  ASSERT_TRUE((*dobj)->AppendPage(h_.MakePayload(512, 1)).ok());

  txn_mgr_->SimulateCrash();
  ASSERT_TRUE(txn_mgr_->RecoverAfterCrash().ok());

  // Committed state is back; the doomed object never existed.
  EXPECT_TRUE(txn_mgr_->catalog().Contains(140));
  EXPECT_TRUE(txn_mgr_->catalog().Contains(141));
  EXPECT_FALSE(txn_mgr_->catalog().Contains(999));

  Transaction* reader = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> obj =
      txn_mgr_->OpenForRead(reader, 140);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ((*(*obj)->ReadPage(2).value())[0], h_.MakePayload(512, 222)[0]);
  EXPECT_EQ((*(*obj)->ReadPage(0).value())[0], h_.MakePayload(512, 3)[0]);
  Result<std::unique_ptr<StorageObject>> obj2 =
      txn_mgr_->OpenForRead(reader, 141);
  ASSERT_TRUE(obj2.ok());
  EXPECT_EQ((*(*obj2)->ReadPage(1).value())[0], h_.MakePayload(512, 9)[0]);
  ASSERT_TRUE(txn_mgr_->Commit(reader).ok());
}

TEST_F(TxnTest, CrashRecoveryThenKeygenPollingCleansOrphans) {
  // The full §3.3 story: a node crashes with an in-flight transaction
  // whose pages hit the object store; recovery GC polls the node's
  // active set and deletes the orphans.
  LoadObject(150, 4, 0, h_.cloud_space);
  ASSERT_TRUE(txn_mgr_->RunGarbageCollection().ok());
  uint64_t live_committed = h_.env.object_store().LiveObjectCount();

  Transaction* doomed = txn_mgr_->Begin();
  Result<StorageObject*> dobj =
      txn_mgr_->CreateObject(doomed, 151, h_.cloud_space);
  ASSERT_TRUE(dobj.ok());
  // Enough pages to overflow the 1 MB buffer -> churn flushes upload
  // orphan objects.
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE((*dobj)->AppendPage(h_.MakePayload(4096, 1)).ok());
  }
  EXPECT_GT(h_.env.object_store().LiveObjectCount(), live_committed);

  txn_mgr_->SimulateCrash();
  ASSERT_TRUE(txn_mgr_->RecoverAfterCrash().ok());

  // Writer-restart GC: poll every key in the node's active set and
  // delete survivors (Table 1, clock 150).
  IntervalSet to_poll = h_.keygen.TakeActiveSetForRecovery(0);
  EXPECT_FALSE(to_poll.empty());
  for (uint64_t key : to_poll.Values()) {
    SimTime done = 0;
    if (h_.storage->object_io().Exists(key, h_.node->clock().now(),
                                       &done)) {
      ASSERT_TRUE(h_.storage->object_io()
                      .Delete(key, h_.node->clock().now(), &done)
                      .ok());
    }
    h_.node->clock().AdvanceTo(done);
  }
  EXPECT_EQ(h_.env.object_store().LiveObjectCount(), live_committed);

  // Committed data still reads back.
  Transaction* reader = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> obj =
      txn_mgr_->OpenForRead(reader, 150);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE((*obj)->ReadPage(3).ok());
  ASSERT_TRUE(txn_mgr_->Commit(reader).ok());
}

TEST_F(TxnTest, PrefetchAcceleratesScan) {
  LoadObject(160, 64, 0, h_.cloud_space);
  Transaction* reader = txn_mgr_->Begin();
  Result<std::unique_ptr<StorageObject>> obj =
      txn_mgr_->OpenForRead(reader, 160);
  ASSERT_TRUE(obj.ok());
  SimTime before = h_.node->clock().now();
  ASSERT_TRUE((*obj)->PrefetchAll().ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*obj)->ReadPage(i).ok());
  }
  double with_prefetch = h_.node->clock().now() - before;
  // 64 serial object-store reads would cost >= 64 * 12 ms ≈ 0.77 s; the
  // remaining cost here is the one-time serial faulting of blockmap nodes
  // (fanout 4 -> ~21 nodes).
  EXPECT_LT(with_prefetch, 0.6);

  // A second prefetch finds every page cached: no GETs, no sim time.
  const CostLedger& ledger = h_.env.telemetry().ledger();
  uint64_t gets = ledger.GrandTotal().gets;
  SimTime after_scan = h_.node->clock().now();
  ASSERT_TRUE((*obj)->PrefetchAll().ok());
  EXPECT_EQ(ledger.GrandTotal().gets, gets);
  EXPECT_EQ(h_.node->clock().now(), after_scan);
  ASSERT_TRUE(txn_mgr_->Commit(reader).ok());
}

}  // namespace
}  // namespace cloudiq

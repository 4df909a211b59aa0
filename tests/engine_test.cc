#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/executor.h"

namespace cloudiq {
namespace {

TableSchema SmallSchema() {
  TableSchema schema;
  schema.name = "t";
  schema.table_id = 5;
  schema.columns = {{"k", ColumnType::kInt64},
                    {"v", ColumnType::kString}};
  schema.hg_index_columns = {0};
  return schema;
}

Batch SmallRows(int64_t first, int64_t count) {
  Batch batch;
  batch.AddColumn("k", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("v", {ColumnType::kString, {}, {}, {}});
  for (int64_t i = first; i < first + count; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].strings.push_back("value-" + std::to_string(i));
  }
  return batch;
}

Database::Options SmallOptions(UserStorage storage) {
  Database::Options options;
  options.user_storage = storage;
  options.page_size = 8192;
  options.blockmap_fanout = 16;
  return options;
}

void LoadSmallTable(Database* db, int64_t rows) {
  Transaction* txn = db->Begin();
  TableLoader loader = db->NewTableLoader(txn, SmallSchema());
  ASSERT_TRUE(loader.Append(SmallRows(0, rows).columns).ok());
  ASSERT_TRUE(loader.Finish(db->system()).ok());
  ASSERT_TRUE(db->Commit(txn).ok());
}

int64_t CountRows(Database* db) {
  Transaction* txn = db->Begin();
  QueryContext ctx(&db->txn_mgr(), txn, db->system());
  Result<TableReader> reader = ctx.OpenTable(5);
  EXPECT_TRUE(reader.ok());
  Result<Batch> batch = ScanTable(&ctx, &*reader, {"k", "v"});
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  int64_t rows = static_cast<int64_t>(batch->rows());
  for (size_t r = 0; r < batch->rows(); ++r) {
    EXPECT_EQ(batch->Str("v", r),
              "value-" + std::to_string(batch->Int("k", r)));
  }
  EXPECT_TRUE(db->Commit(txn).ok());
  return rows;
}

class DatabaseStorageTest
    : public ::testing::TestWithParam<UserStorage> {};

TEST_P(DatabaseStorageTest, LoadQueryRoundTrip) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              SmallOptions(GetParam()));
  LoadSmallTable(&db, 2000);
  EXPECT_EQ(CountRows(&db), 2000);
  EXPECT_GT(db.UserBytesAtRest(), 0u);
  EXPECT_GT(db.node().clock().now(), 0.0);
}

TEST_P(DatabaseStorageTest, CrashRecoveryPreservesCommittedData) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              SmallOptions(GetParam()));
  LoadSmallTable(&db, 1500);
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.CrashAndRecover().ok());
  EXPECT_EQ(CountRows(&db), 1500);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DatabaseStorageTest,
    ::testing::Values(UserStorage::kObjectStore, UserStorage::kEbs,
                      UserStorage::kEfs),
    [](const ::testing::TestParamInfo<UserStorage>& info) {
      switch (info.param) {
        case UserStorage::kObjectStore: return "S3";
        case UserStorage::kEbs: return "EBS";
        case UserStorage::kEfs: return "EFS";
      }
      return "unknown";
    });

TEST(DatabaseTest, OcmWiredForCloudStorage) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              SmallOptions(UserStorage::kObjectStore));
  ASSERT_NE(db.ocm(), nullptr);
  LoadSmallTable(&db, 2000);
  // Load wrote through the OCM (write-back during churn, write-through
  // at commit, or promotions at FlushForCommit).
  EXPECT_GT(db.ocm()->stats().background_uploads +
                db.ocm()->stats().write_through +
                db.ocm()->stats().commit_promotions,
            0u);
  // Reads hit the OCM cache after the load.
  CountRows(&db);
  EXPECT_GT(db.ocm()->stats().hits + db.ocm()->stats().misses, 0u);
}

TEST(DatabaseTest, OcmDisabledStillCorrect) {
  SimEnvironment env;
  Database::Options options = SmallOptions(UserStorage::kObjectStore);
  options.enable_ocm = false;
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  EXPECT_EQ(db.ocm(), nullptr);
  LoadSmallTable(&db, 1000);
  EXPECT_EQ(CountRows(&db), 1000);
}

TEST(DatabaseTest, EncryptionTransparentEndToEnd) {
  SimEnvironment env;
  Database::Options options = SmallOptions(UserStorage::kObjectStore);
  options.storage.encrypt_pages = true;
  Database db(&env, InstanceProfile::M5ad4xlarge(), options);
  LoadSmallTable(&db, 1000);
  EXPECT_EQ(CountRows(&db), 1000);
}

TEST(DatabaseTest, NeverWriteTwiceHeldAcrossWholeLifecycle) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              SmallOptions(UserStorage::kObjectStore));
  LoadSmallTable(&db, 3000);
  CountRows(&db);
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.CrashAndRecover().ok());
  CountRows(&db);
  // Only the snapshot manager's metadata object is ever overwritten; no
  // *page* object is written twice. The metadata key is not a page.
  EXPECT_LE(env.object_store().stats().overwrites, 2u);
  EXPECT_EQ(env.object_store().stats().stale_reads, 0u);
}

TEST(DatabaseSnapshotTest, SnapshotAndRestoreViaFacade) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              SmallOptions(UserStorage::kObjectStore));
  LoadSmallTable(&db, 800);

  Result<SnapshotManager::SnapshotInfo> snap = db.TakeSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_LT(snap->duration_seconds, 2.0);

  // Post-snapshot table; must vanish after restore.
  TableSchema extra = SmallSchema();
  extra.table_id = 6;
  extra.name = "extra";
  Transaction* txn = db.Begin();
  TableLoader loader = db.NewTableLoader(txn, extra);
  ASSERT_TRUE(loader.Append(SmallRows(0, 500).columns).ok());
  ASSERT_TRUE(loader.Finish(db.system()).ok());
  ASSERT_TRUE(db.Commit(txn).ok());
  // Table 6's partition-0/column-0 storage object is in the catalog.
  uint64_t extra_object = TableLoader::ObjectIdFor(6, 0, 0);
  EXPECT_TRUE(db.txn_mgr().catalog().Contains(extra_object));
  EXPECT_TRUE(db.system()->Contains("tablemeta/6"));

  ASSERT_TRUE(db.RestoreSnapshot(snap->id).ok());
  EXPECT_FALSE(db.txn_mgr().catalog().Contains(extra_object));
  EXPECT_FALSE(db.system()->Contains("tablemeta/6"));
  EXPECT_EQ(CountRows(&db), 800);
}

TEST(DatabaseSnapshotTest, CloudSnapshotsSmallerThanBlockSnapshots) {
  // On a cloud-dbspace database only the system dbspace is backed up; a
  // conventional database must back up the whole user volume too.
  SimEnvironment env_cloud;
  Database cloud(&env_cloud, InstanceProfile::M5ad4xlarge(),
                 SmallOptions(UserStorage::kObjectStore));
  LoadSmallTable(&cloud, 3000);
  Result<SnapshotManager::SnapshotInfo> cloud_snap = cloud.TakeSnapshot();
  ASSERT_TRUE(cloud_snap.ok());

  SimEnvironment env_ebs;
  Database ebs(&env_ebs, InstanceProfile::M5ad4xlarge(),
               SmallOptions(UserStorage::kEbs));
  LoadSmallTable(&ebs, 3000);
  Result<SnapshotManager::SnapshotInfo> ebs_snap = ebs.TakeSnapshot();
  ASSERT_TRUE(ebs_snap.ok());

  EXPECT_LT(cloud_snap->backup_bytes, ebs_snap->backup_bytes);
}

TEST(DatabaseTest, CrashRecoveryCollectsOrphanObjects) {
  SimEnvironment env;
  Database db(&env, InstanceProfile::M5ad4xlarge(),
              SmallOptions(UserStorage::kObjectStore));
  LoadSmallTable(&db, 1000);
  ASSERT_TRUE(db.Checkpoint().ok());
  uint64_t committed_live = env.object_store().LiveObjectCount();

  // In-flight load big enough to force churn flushes, then crash.
  TableSchema doomed = SmallSchema();
  doomed.table_id = 9;
  doomed.name = "doomed";
  Transaction* txn = db.Begin();
  TableLoader loader = db.NewTableLoader(txn, doomed);
  // The buffer is large (half of 64 GB), so force uploads by committing
  // through the OCM write queue instead: use many batches and flush.
  ASSERT_TRUE(loader.Append(SmallRows(0, 5000).columns).ok());
  ASSERT_TRUE(loader.Finish(db.system()).ok());
  // Flush dirty pages to storage but crash *before* Commit writes the
  // commit record.
  ASSERT_TRUE(db.txn_mgr().buffer().FlushTxn(txn->id).ok());
  EXPECT_GT(env.object_store().LiveObjectCount(), committed_live);

  ASSERT_TRUE(db.CrashAndRecover().ok());
  // The orphans are gone (keygen active-set polling GC).
  EXPECT_EQ(env.object_store().LiveObjectCount(), committed_live);
  EXPECT_FALSE(db.txn_mgr().catalog().Contains(9));
  EXPECT_EQ(CountRows(&db), 1000);
}

}  // namespace
}  // namespace cloudiq

#include "engine/database.h"

#include "ndp/ndp_engine.h"

namespace cloudiq {
namespace {
constexpr char kKeygenCheckpointName[] = "keygen";
}  // namespace

Database::Database(SimEnvironment* env, const InstanceProfile& profile,
                   Options options)
    : env_(env),
      options_(options),
      node_(&env->AddNode(profile)),
      system_volume_(
          options.shared_system_volume.empty()
              ? &env->CreateVolume(
                    "system-node" + std::to_string(options.node_id),
                    BlockVolumeOptions::EbsGp2(/*size_gb=*/100))
              : &env->CreateVolume(options.shared_system_volume,
                                   BlockVolumeOptions::EfsStandard(
                                       /*utilized_gb=*/50))),
      system_(system_volume_) {
  // Near-data processing: give the (shared) store its server-side
  // engine. The engine is stateless and const, so one static instance
  // serves every database in the process; re-installing it from a second
  // node of a multiplex is a no-op.
  if (options_.ndp_mode != ndp::NdpMode::kOff) {
    static const ndp::NdpEngine kNdpEngine;
    env->object_store().set_ndp_engine(&kNdpEngine);
  }

  // User dbspace backing.
  storage_ = std::make_unique<StorageSubsystem>(node_, &env->object_store(),
                                                options_.storage);
  switch (options_.user_storage) {
    case UserStorage::kObjectStore:
      user_space_ =
          storage_->CreateCloudDbSpace("userdb", options_.page_size);
      break;
    case UserStorage::kEbs:
      user_volume_ = &env->CreateVolume(
          "user-ebs-node" + std::to_string(options.node_id),
          BlockVolumeOptions::EbsGp2(options_.user_volume_gb));
      user_space_ = storage_->CreateBlockDbSpace("userdb", user_volume_,
                                                 options_.page_size);
      break;
    case UserStorage::kEfs:
      user_volume_ = &env->CreateVolume(
          "user-efs", BlockVolumeOptions::EfsStandard(
                          options_.user_volume_gb / 2));
      user_space_ = storage_->CreateBlockDbSpace("userdb", user_volume_,
                                                 options_.page_size);
      break;
  }

  // Object Key Generator: this node acts as its own coordinator; every
  // allocation is a bookkeeping event in the transaction log (§3.2).
  keygen_ = ObjectKeyGenerator(options_.keygen);
  key_cache_ = std::make_unique<NodeKeyCache>(
      [this](uint64_t size, double now) {
        KeyRange range = keygen_.AllocateRange(options_.node_id, size);
        TxnLogRecord rec;
        rec.type = TxnLogRecord::Type::kKeygenAllocate;
        rec.node = options_.node_id;
        rec.range_begin = range.begin;
        rec.range_end = range.end;
        SimTime done = now;
        (void)txn_mgr_->log().Append(rec, node_->clock().now(), &done);
        node_->clock().AdvanceTo(done);
        return range;
      },
      options_.key_cache);
  storage_->set_key_source(
      [this](double now) { return key_cache_->NextKey(now); });

  // OCM on the instance SSDs (a pure optimization; §4).
  if (options_.enable_ocm && profile.ssd_gb > 0) {
    ocm_ = std::make_unique<ObjectCacheManager>(
        node_, &storage_->object_io(), options_.ocm);
    storage_->set_cloud_cache(ocm_.get());
  }

  TransactionManager::Options txn_options;
  txn_options.node_id = options_.node_id;
  txn_options.read_only = options_.read_only;
  txn_options.blockmap_fanout = options_.blockmap_fanout;
  if (!options_.shared_system_volume.empty()) {
    // Node-local durable structures must not collide on the shared
    // system dbspace.
    txn_options.name_prefix =
        "node" + std::to_string(options_.node_id) + "/";
  }
  txn_options.buffer_capacity_bytes =
      options_.buffer_capacity_override != 0
          ? options_.buffer_capacity_override
          : static_cast<uint64_t>(profile.ram_gb * 1e9 *
                                  options_.buffer_ram_fraction);
  txn_mgr_ = std::make_unique<TransactionManager>(storage_.get(), &system_,
                                                  txn_options);
  txn_mgr_->set_commit_listener(
      [this](NodeId node_id, const IntervalSet& keys) {
        keygen_.OnTransactionCommitted(node_id, keys);
        TxnLogRecord rec;
        rec.type = TxnLogRecord::Type::kKeygenCommit;
        rec.node = node_id;
        rec.committed_keys = keys;
        SimTime done = node_->clock().now();
        (void)txn_mgr_->log().Append(rec, node_->clock().now(), &done);
        node_->clock().AdvanceTo(done);
      });

  snapshot_mgr_ = std::make_unique<SnapshotManager>(
      node_, &storage_->object_io(), &env->object_store(),
      SnapshotManager::Options{options_.snapshot_retention_seconds});
  storage_->set_delete_interceptor([this](uint64_t key) {
    return snapshot_mgr_->OnPageDropped(key);
  });
}

void Database::UseRemoteKeyFetcher(NodeKeyCache::RangeFetcher fetcher) {
  key_cache_ = std::make_unique<NodeKeyCache>(std::move(fetcher));
  storage_->set_key_source(
      [this](double now) { return key_cache_->NextKey(now); });
}

Status Database::AttachSharedCatalog() {
  // A secondary node attaching to the multiplex: open the shared system
  // dbspace and load the committed catalogs (the same code path as crash
  // recovery — checkpointed state plus log replay).
  table_meta_cache_.clear();
  txn_mgr_->SimulateCrash();
  return txn_mgr_->RecoverAfterCrash();
}

Result<TableMeta> Database::TableMetaFor(uint64_t table_id) {
  auto it = table_meta_cache_.find(table_id);
  if (it != table_meta_cache_.end()) return it->second;
  SimTime done = node_->clock().now();
  CLOUDIQ_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      system_.Get("tablemeta/" + std::to_string(table_id),
                  node_->clock().now(), &done));
  node_->clock().AdvanceTo(done);
  CLOUDIQ_ASSIGN_OR_RETURN(TableMeta meta, TableMeta::Deserialize(bytes));
  table_meta_cache_[table_id] = meta;
  return meta;
}

Status Database::Checkpoint() {
  SimTime done = node_->clock().now();
  CLOUDIQ_RETURN_IF_ERROR(system_.Put(kKeygenCheckpointName,
                                      keygen_.Checkpoint(),
                                      node_->clock().now(), &done));
  node_->clock().AdvanceTo(done);
  return txn_mgr_->Checkpoint();
}

Result<SnapshotManager::SnapshotInfo> Database::TakeSnapshot() {
  // Make the system dbspace image current, then back it (and any
  // conventional user dbspace) up. Cloud dbspaces are never backed up.
  CLOUDIQ_RETURN_IF_ERROR(Checkpoint());
  std::vector<SimBlockVolume*> volumes{system_volume_};
  if (user_volume_ != nullptr) volumes.push_back(user_volume_);
  Result<SnapshotManager::SnapshotInfo> info =
      snapshot_mgr_->TakeSnapshot(keygen_.max_allocated(), volumes);
  // Snapshot barrier: post-snapshot writes must use keys above the
  // recorded watermark so restore GC can be computed as a key range.
  key_cache_->DiscardCachedRange();
  return info;
}

Status Database::RestoreSnapshot(uint64_t snapshot_id) {
  std::vector<SimBlockVolume*> volumes{system_volume_};
  if (user_volume_ != nullptr) volumes.push_back(user_volume_);
  CLOUDIQ_RETURN_IF_ERROR(
      snapshot_mgr_
          ->Restore(snapshot_id, keygen_.max_allocated(), volumes)
          .status());
  // Reopen all durable state from the restored system dbspace.
  table_meta_cache_.clear();
  txn_mgr_->SimulateCrash();
  CLOUDIQ_RETURN_IF_ERROR(txn_mgr_->RecoverAfterCrash());
  return RecoverKeygen(/*collect_active_sets=*/false);
}

Status Database::RecoverKeygen(bool collect_active_sets) {
  SimTime done = node_->clock().now();
  std::vector<uint8_t> checkpoint;
  Result<std::vector<uint8_t>> bytes =
      system_.Get(kKeygenCheckpointName, node_->clock().now(), &done);
  node_->clock().AdvanceTo(done);
  if (bytes.ok()) checkpoint = std::move(bytes).value();

  std::vector<KeygenLogRecord> log;
  for (const TxnLogRecord& rec : txn_mgr_->log().records()) {
    if (rec.type == TxnLogRecord::Type::kKeygenAllocate) {
      KeygenLogRecord k;
      k.type = KeygenLogRecord::Type::kAllocate;
      k.node = rec.node;
      k.begin = rec.range_begin;
      k.end = rec.range_end;
      log.push_back(std::move(k));
    } else if (rec.type == TxnLogRecord::Type::kKeygenCommit) {
      KeygenLogRecord k;
      k.type = KeygenLogRecord::Type::kCommit;
      k.node = rec.node;
      k.committed = rec.committed_keys;
      log.push_back(std::move(k));
    }
  }
  CLOUDIQ_ASSIGN_OR_RETURN(keygen_,
                           ObjectKeyGenerator::Recover(checkpoint, log));
  key_cache_->DiscardCachedRange();

  if (collect_active_sets) {
    // Writer-restart GC (§3.3 / Table 1 clock 150): poll every key in
    // this node's active set; delete the objects that exist.
    IntervalSet to_poll =
        keygen_.TakeActiveSetForRecovery(options_.node_id);
    for (uint64_t key : to_poll.Values()) {
      done = node_->clock().now();
      if (storage_->object_io().Exists(key, node_->clock().now(), &done)) {
        node_->clock().AdvanceTo(done);
        CLOUDIQ_RETURN_IF_ERROR(storage_->object_io().Delete(
            key, node_->clock().now(), &done));
      }
      node_->clock().AdvanceTo(done);
    }
  }
  return Status::Ok();
}

Status Database::CrashAndRecover() {
  table_meta_cache_.clear();
  txn_mgr_->SimulateCrash();
  if (ocm_ != nullptr) {
    // Instance storage does not survive the instance: rebuild the OCM.
    ocm_ = std::make_unique<ObjectCacheManager>(
        node_, &storage_->object_io(), options_.ocm);
    storage_->set_cloud_cache(ocm_.get());
  }
  CLOUDIQ_RETURN_IF_ERROR(txn_mgr_->RecoverAfterCrash());
  return RecoverKeygen(/*collect_active_sets=*/true);
}

uint64_t Database::UserBytesAtRest() const {
  if (options_.user_storage == UserStorage::kObjectStore) {
    return env_->object_store().LiveBytes();
  }
  return user_volume_->StoredBytes();
}

}  // namespace cloudiq

#include "txn/transaction_manager.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"

namespace cloudiq {
namespace {

std::string RfName(const std::string& prefix, uint64_t txn_id) {
  return prefix + "rfrb/" + std::to_string(txn_id) + ".rf";
}
std::string RbName(const std::string& prefix, uint64_t txn_id) {
  return prefix + "rfrb/" + std::to_string(txn_id) + ".rb";
}

constexpr char kCatalogName[] = "catalog";
constexpr char kChainName[] = "chain";
constexpr char kTxnLogName[] = "txnlog";

// Records the elapsed sim time into a histogram when the scope exits,
// covering every early return of the commit/rollback paths.
struct LatencyScope {
  Histogram* histogram;
  const SimClock* clock;
  SimTime start;
  ~LatencyScope() {
    if (histogram != nullptr) histogram->Record(clock->now() - start);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// StorageObject
// ---------------------------------------------------------------------------

StorageObject::StorageObject(TransactionManager* txn_mgr, Transaction* txn,
                             uint64_t object_id, DbSpace* space,
                             Blockmap blockmap, bool writable)
    : txn_mgr_(txn_mgr),
      txn_(txn),
      object_id_(object_id),
      space_(space),
      blockmap_(std::move(blockmap)),
      writable_(writable) {}

Result<uint64_t> StorageObject::AppendPage(std::vector<uint8_t> payload) {
  if (!writable_) return Status::FailedPrecondition("read-only object");
  uint64_t page = blockmap_.Append(PhysicalLoc());
  CLOUDIQ_RETURN_IF_ERROR(txn_mgr_->buffer().PutDirty(
      txn_->id, object_id_, page, std::move(payload)));
  return page;
}

Status StorageObject::WritePage(uint64_t page,
                                std::vector<uint8_t> payload) {
  if (!writable_) return Status::FailedPrecondition("read-only object");
  if (page >= blockmap_.page_count()) {
    return Status::InvalidArgument("page out of range");
  }
  return txn_mgr_->buffer().PutDirty(txn_->id, object_id_, page,
                                     std::move(payload));
}

Result<BufferManager::PageData> StorageObject::ReadPage(uint64_t page) {
  if (writable_ && txn_ != nullptr) {
    Result<BufferManager::PageData> dirty =
        txn_mgr_->buffer().GetDirty(txn_->id, object_id_, page);
    if (dirty.ok()) return dirty;
  }
  CLOUDIQ_ASSIGN_OR_RETURN(PhysicalLoc loc, blockmap_.Lookup(page));
  if (!loc.valid()) {
    return Status::Corruption("page has neither dirty copy nor location");
  }
  StorageSubsystem* storage = &txn_mgr_->storage();
  DbSpace* space = space_;
  return txn_mgr_->buffer().Get(space_->id, loc, [storage, space, loc]() {
    return storage->ReadPage(space, loc);
  });
}

Status StorageObject::Prefetch(std::span<const uint64_t> pages) {
  const TransactionManager::PrefetchSet set{this, pages};
  return txn_mgr_->Prefetch(std::span(&set, 1));
}

Status StorageObject::PrefetchAll() {
  std::vector<uint64_t> pages(blockmap_.page_count());
  for (uint64_t i = 0; i < pages.size(); ++i) pages[i] = i;
  return Prefetch(pages);
}

// ---------------------------------------------------------------------------
// TransactionManager
// ---------------------------------------------------------------------------

TransactionManager::TransactionManager(StorageSubsystem* storage,
                                       SystemStore* system, Options options)
    : storage_(storage),
      system_(system),
      options_(options),
      log_(system, options.name_prefix + kTxnLogName) {
  BufferManager::Options buffer_options;
  buffer_options.capacity_bytes = options_.buffer_capacity_bytes;
  buffer_ = std::make_unique<BufferManager>(
      buffer_options,
      [this](uint64_t txn_id, std::vector<BufferManager::DirtyPage>&& pages,
             bool for_commit) {
        return FlushBatch(txn_id, std::move(pages), for_commit);
      });
  NodeContext* node = storage_->node();
  buffer_->set_telemetry(&node->telemetry(), &node->clock(),
                         node->trace_pid());
  commit_latency_ = &node->telemetry().stats().histogram("txn.commit");
  rollback_latency_ = &node->telemetry().stats().histogram("txn.rollback");
}

Transaction* TransactionManager::Begin() {
  auto txn = std::make_unique<Transaction>();
  Transaction* ptr = txn.get();
  MutexLock lock(&mu_);
  txn->id = (uint64_t{options_.node_id} << 40) | next_txn_local_++;
  txn->node = options_.node_id;
  txn->begin_seq = commit_seq_;
  txn->snapshot = catalog_;
  active_[txn->id] = std::move(txn);
  return ptr;
}

Transaction* TransactionManager::FindTxn(uint64_t txn_id) {
  auto it = active_.find(txn_id);
  return it == active_.end() ? nullptr : it->second.get();
}

Result<StorageObject*> TransactionManager::CreateObject(Transaction* txn,
                                                        uint64_t object_id,
                                                        DbSpace* space) {
  if (options_.read_only) {
    return Status::FailedPrecondition("reader nodes cannot modify data");
  }
  if (txn->snapshot.Contains(object_id) ||
      txn->write_objects.count(object_id) > 0) {
    return Status::AlreadyExists("object " + std::to_string(object_id));
  }
  auto object = std::make_unique<StorageObject>(
      this, txn, object_id, space,
      Blockmap(storage_, space, options_.blockmap_fanout, buffer_.get()),
      /*writable=*/true);
  StorageObject* ptr = object.get();
  txn->write_objects[object_id] = std::move(object);
  return ptr;
}

Result<StorageObject*> TransactionManager::OpenForWrite(Transaction* txn,
                                                        uint64_t object_id) {
  if (options_.read_only) {
    return Status::FailedPrecondition("reader nodes cannot modify data");
  }
  auto it = txn->write_objects.find(object_id);
  if (it != txn->write_objects.end()) return it->second.get();
  CLOUDIQ_ASSIGN_OR_RETURN(IdentityObject identity,
                           txn->snapshot.Get(object_id));
  DbSpace* space = storage_->dbspace(identity.dbspace_id);
  if (space == nullptr) return Status::Corruption("dbspace missing");
  auto object = std::make_unique<StorageObject>(
      this, txn, object_id, space,
      Blockmap::Open(storage_, space, options_.blockmap_fanout,
                     identity.root, identity.page_count, buffer_.get()),
      /*writable=*/true);
  StorageObject* ptr = object.get();
  txn->write_objects[object_id] = std::move(object);
  return ptr;
}

Result<std::unique_ptr<StorageObject>> TransactionManager::OpenForRead(
    Transaction* txn, uint64_t object_id) {
  // Read-your-writes: if this transaction already has a working copy, the
  // caller should use OpenForWrite; snapshot reads see the catalog as of
  // Begin().
  CLOUDIQ_ASSIGN_OR_RETURN(IdentityObject identity,
                           txn->snapshot.Get(object_id));
  DbSpace* space = storage_->dbspace(identity.dbspace_id);
  if (space == nullptr) return Status::Corruption("dbspace missing");
  return std::make_unique<StorageObject>(
      this, txn, object_id, space,
      Blockmap::Open(storage_, space, options_.blockmap_fanout,
                     identity.root, identity.page_count, buffer_.get()),
      /*writable=*/false);
}

Status TransactionManager::Prefetch(std::span<const PrefetchSet> sets) {
  std::vector<IoScheduler::Op> ops;
  std::vector<std::shared_ptr<StorageSubsystem::ReadSlot>> slots;
  struct Target {
    uint32_t space_id;
    PhysicalLoc loc;
  };
  std::vector<Target> targets;
  for (const PrefetchSet& set : sets) {
    StorageObject* object = set.object;
    for (uint64_t page : set.pages) {
      if (object->writable_ && object->txn_ != nullptr &&
          buffer_->GetDirty(object->txn_->id, object->object_id_, page)
              .ok()) {
        continue;
      }
      CLOUDIQ_ASSIGN_OR_RETURN(PhysicalLoc loc,
                               object->blockmap_.Lookup(page));
      if (!loc.valid() || buffer_->Cached(object->space_->id, loc)) continue;
      auto slot = std::make_shared<StorageSubsystem::ReadSlot>();
      ops.push_back(storage_->MakeReadOp(object->space_, loc, slot));
      slots.push_back(std::move(slot));
      targets.push_back({object->space_->id, loc});
    }
  }
  if (ops.empty()) return Status::Ok();
  NodeContext* node = storage_->node();
  node->io().RunParallel(ops, node->IoWidth());
  Status first_error;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]->status.ok()) {
      if (first_error.ok()) first_error = slots[i]->status;
      continue;
    }
    buffer_->Insert(targets[i].space_id, targets[i].loc,
                    std::move(slots[i]->payload));
  }
  return first_error;
}

Status TransactionManager::DropObject(Transaction* txn, uint64_t object_id) {
  if (options_.read_only) {
    return Status::FailedPrecondition("reader nodes cannot modify data");
  }
  CLOUDIQ_ASSIGN_OR_RETURN(IdentityObject identity,
                           txn->snapshot.Get(object_id));
  DbSpace* space = storage_->dbspace(identity.dbspace_id);
  if (space == nullptr) return Status::Corruption("dbspace missing");
  Blockmap map =
      Blockmap::Open(storage_, space, options_.blockmap_fanout,
                     identity.root, identity.page_count, buffer_.get());
  std::vector<PhysicalLoc> nodes;
  std::vector<PhysicalLoc> pages;
  CLOUDIQ_RETURN_IF_ERROR(map.CollectReachable(&nodes, &pages));
  for (PhysicalLoc loc : nodes) txn->rf.Add(space->id, loc);
  for (PhysicalLoc loc : pages) txn->rf.Add(space->id, loc);
  txn->dropped_objects.push_back(object_id);
  txn->write_objects.erase(object_id);
  return Status::Ok();
}

Status TransactionManager::FlushBatch(
    uint64_t txn_id, std::vector<BufferManager::DirtyPage>&& pages,
    bool for_commit) {
  Transaction* txn;
  {
    MutexLock lock(&mu_);
    txn = FindTxn(txn_id);
  }
  if (txn == nullptr) return Status::FailedPrecondition("unknown txn");
  CloudCache::WriteMode mode = for_commit
                                   ? CloudCache::WriteMode::kWriteThrough
                                   : CloudCache::WriteMode::kWriteBack;

  struct Pending {
    StorageObject* object;
    uint64_t page;
    StorageSubsystem::PreparedWrite prepared;
  };
  std::vector<Pending> pending;
  std::vector<IoScheduler::Op> ops;
  pending.reserve(pages.size());
  for (BufferManager::DirtyPage& page : pages) {
    auto obj_it = txn->write_objects.find(page.object_id);
    if (obj_it == txn->write_objects.end()) {
      return Status::Corruption("dirty page for unopened object");
    }
    StorageObject* object = obj_it->second.get();
    CLOUDIQ_ASSIGN_OR_RETURN(
        StorageSubsystem::PreparedWrite prepared,
        storage_->PrepareWrite(object->space(), page.payload, mode,
                               txn_id));
    ops.push_back(prepared.op);
    pending.push_back(Pending{object, page.page, std::move(prepared)});
  }

  // The flush itself is where cloud storage shines: every prepared write
  // is independent, so they run with the node's full I/O width.
  NodeContext* node = storage_->node();
  node->io().RunParallel(ops, node->IoWidth());

  for (Pending& p : pending) {
    if (!p.prepared.status->ok()) return *p.prepared.status;
    CLOUDIQ_ASSIGN_OR_RETURN(
        PhysicalLoc old_loc,
        p.object->blockmap().Update(p.page, p.prepared.loc));
    if (old_loc.valid()) {
      // The superseded version is deleted when no snapshot references it.
      txn->rf.Add(p.object->space()->id, old_loc);
      buffer_->Invalidate(p.object->space()->id, old_loc);
    }
    txn->rb.Add(p.object->space()->id, p.prepared.loc);
  }
  return Status::Ok();
}

Status TransactionManager::Commit(Transaction* txn) {
  if (txn->state != Transaction::State::kActive) {
    return Status::FailedPrecondition("transaction not active");
  }

  // Read-only fast path: a transaction that allocated nothing, dropped
  // nothing and dirtied nothing has no durable footprint — no RF/RB
  // bitmaps, no commit record, no catalog update. It merely stops
  // pinning its snapshot.
  bool wrote_something = !txn->rf.empty() || !txn->rb.empty() ||
                         !txn->dropped_objects.empty();
  for (const auto& [object_id, object] : txn->write_objects) {
    if (object->blockmap().dirty()) wrote_something = true;
  }
  if (!wrote_something && !buffer_->HasDirty(txn->id)) {
    txn->state = Transaction::State::kCommitted;
    {
      MutexLock lock(&mu_);
      ++stats_.commits;
      active_.erase(txn->id);
    }
    return RunGarbageCollection();
  }

  NodeContext* node = storage_->node();
  SimClock& clock = node->clock();
  SimTime done = clock.now();
  LatencyScope commit_latency{commit_latency_, &clock, clock.now()};
  Tracer& tracer = node->telemetry().tracer();
  ScopedSpan commit_span(&tracer, &clock, node->trace_pid(), kTrackTxn,
                         "txn",
                         tracer.enabled()
                             ? "commit txn " + std::to_string(txn->id)
                             : std::string());

  // (1) FlushForCommit: the OCM promotes this transaction's queued
  // background uploads and switches it to write-through (§4).
  CLOUDIQ_RETURN_IF_ERROR(storage_->FlushForCommit(txn->id));

  // (2) Flush remaining dirty pages, write-through. Durability before the
  // commit record: the log stores metadata only (§3.1).
  CLOUDIQ_RETURN_IF_ERROR(buffer_->FlushTxn(txn->id));

  // (3) Version the blockmap trees bottom-up (H' -> D' -> A', Figure 2)
  // and stage the identity-object updates. Node writes across all of the
  // transaction's objects are independent once their locations are
  // assigned, so they are prepared first and executed in one parallel
  // batch.
  std::vector<IdentityObject> identities;
  std::vector<std::vector<uint8_t>> identity_updates;
  std::vector<IoScheduler::Op> node_ops;
  std::vector<std::shared_ptr<Status>> node_statuses;
  for (auto& [object_id, object] : txn->write_objects) {
    if (object->blockmap().dirty()) {
      CLOUDIQ_ASSIGN_OR_RETURN(
          Blockmap::FlushEffects effects,
          object->blockmap().PrepareFlush(
              CloudCache::WriteMode::kWriteThrough, txn->id));
      for (PhysicalLoc loc : effects.freed) {
        txn->rf.Add(object->space()->id, loc);
        buffer_->Invalidate(object->space()->id, loc);
      }
      for (PhysicalLoc loc : effects.allocated) {
        txn->rb.Add(object->space()->id, loc);
      }
      for (auto& op : effects.ops) node_ops.push_back(std::move(op));
      for (auto& status : effects.statuses) {
        node_statuses.push_back(status);
      }
    }
  }
  storage_->node()->io().RunParallel(node_ops,
                                     storage_->node()->IoWidth());
  for (const auto& status : node_statuses) {
    if (!status->ok()) return *status;
  }
  uint64_t next_commit_seq;
  {
    MutexLock lock(&mu_);
    next_commit_seq = commit_seq_ + 1;
  }
  for (auto& [object_id, object] : txn->write_objects) {
    IdentityObject identity;
    identity.object_id = object_id;
    identity.dbspace_id = object->space()->id;
    identity.root = object->blockmap().root_loc();
    identity.page_count = object->blockmap().page_count();
    identity.version = next_commit_seq;
    identity_updates.push_back(identity.Serialize());
    identities.push_back(identity);
  }

  // (4) Persist the RF/RB page sets; their identities go into the commit
  // record.
  CLOUDIQ_RETURN_IF_ERROR(system_->Put(RfName(options_.name_prefix, txn->id),
                                       txn->rf.Serialize(), clock.now(),
                                       &done));
  clock.AdvanceTo(done);
  CLOUDIQ_RETURN_IF_ERROR(system_->Put(RbName(options_.name_prefix, txn->id),
                                       txn->rb.Serialize(), clock.now(),
                                       &done));
  clock.AdvanceTo(done);

  // (5) Write the commit record.
  {
    MutexLock lock(&mu_);
    txn->commit_seq = ++commit_seq_;
  }
  TxnLogRecord rec;
  rec.type = TxnLogRecord::Type::kCommit;
  rec.node = txn->node;
  rec.txn_id = txn->id;
  rec.commit_seq = txn->commit_seq;
  rec.rf_name = RfName(options_.name_prefix, txn->id);
  rec.rb_name = RbName(options_.name_prefix, txn->id);
  rec.identity_updates = identity_updates;
  rec.dropped_objects = txn->dropped_objects;
  CLOUDIQ_RETURN_IF_ERROR(log_.Append(rec, clock.now(), &done));
  clock.AdvanceTo(done);

  // (6) Publish the new table versions (identity objects live on the
  // system dbspace and are updated in place). The durable image is
  // persisted from a snapshot so mu_ is not held across the system I/O.
  IdentityCatalog catalog_snapshot;
  {
    MutexLock lock(&mu_);
    for (const IdentityObject& identity : identities) catalog_.Put(identity);
    for (uint64_t dropped : rec.dropped_objects) catalog_.Remove(dropped);
    catalog_snapshot = catalog_;
  }
  CLOUDIQ_RETURN_IF_ERROR(
      catalog_snapshot.Persist(system_, kCatalogName, clock.now(), &done));
  clock.AdvanceTo(done);

  // (7) Tell the coordinator which keys left this node's active set.
  if (commit_listener_ && !txn->rb.cloud_keys().empty()) {
    commit_listener_(txn->node, txn->rb.cloud_keys());
  }

  // (8) Hand garbage collection to the committed-transaction chain.
  {
    MutexLock lock(&mu_);
    chain_.push_back(CommittedTxn{txn->id, txn->commit_seq, txn->rf,
                                  RfName(options_.name_prefix, txn->id),
                                  RbName(options_.name_prefix, txn->id)});
  }
  CLOUDIQ_RETURN_IF_ERROR(PersistChain());

  txn->state = Transaction::State::kCommitted;
  {
    MutexLock lock(&mu_);
    ++stats_.commits;
    active_.erase(txn->id);
  }
  return RunGarbageCollection();
}

Status TransactionManager::Rollback(Transaction* txn) {
  if (txn->state != Transaction::State::kActive) {
    return Status::FailedPrecondition("transaction not active");
  }
  NodeContext* node = storage_->node();
  SimClock& clock = node->clock();
  LatencyScope rollback_latency{rollback_latency_, &clock, clock.now()};
  Tracer& tracer = node->telemetry().tracer();
  ScopedSpan rollback_span(&tracer, &clock, node->trace_pid(), kTrackTxn,
                           "txn",
                           tracer.enabled()
                               ? "rollback txn " + std::to_string(txn->id)
                               : std::string());
  if (storage_->cloud_cache() != nullptr) {
    storage_->cloud_cache()->AbortTxn(txn->id);
  }
  buffer_->DropTxn(txn->id);

  // Pages in the RB set can be deleted immediately (§3.3). Deletes are
  // idempotent, so keys whose uploads never happened are fine; and the
  // coordinator is deliberately NOT notified — if this node later
  // crashes, the same ranges are simply re-polled.
  for (const auto& [dbspace_id, loc] : txn->rb.block_locs()) {
    DbSpace* space = storage_->dbspace(dbspace_id);
    if (space != nullptr) {
      buffer_->Invalidate(dbspace_id, loc);
      CLOUDIQ_RETURN_IF_ERROR(
          storage_->DeletePage(space, loc, /*defer_allowed=*/false));
    }
  }
  DbSpace* any_cloud = nullptr;
  for (DbSpace* space : storage_->AllDbSpaces()) {
    if (space->is_cloud()) any_cloud = space;
  }
  for (uint64_t key : txn->rb.cloud_keys().Values()) {
    CLOUDIQ_RETURN_IF_ERROR(storage_->DeletePage(
        any_cloud, PhysicalLoc::ForCloudKey(key), /*defer_allowed=*/false));
  }

  txn->state = Transaction::State::kRolledBack;
  {
    MutexLock lock(&mu_);
    ++stats_.rollbacks;
    active_.erase(txn->id);
  }
  return Status::Ok();
}

void TransactionManager::SimulateCrash() {
  {
    MutexLock lock(&mu_);
    active_.clear();
    chain_.clear();
    catalog_ = IdentityCatalog();
    commit_seq_ = 0;
  }
  log_.clear_memory();
  BufferManager::Options buffer_options;
  buffer_options.capacity_bytes = options_.buffer_capacity_bytes;
  buffer_ = std::make_unique<BufferManager>(
      buffer_options,
      [this](uint64_t txn_id, std::vector<BufferManager::DirtyPage>&& pages,
             bool for_commit) {
        return FlushBatch(txn_id, std::move(pages), for_commit);
      });
  NodeContext* node = storage_->node();
  buffer_->set_telemetry(&node->telemetry(), &node->clock(),
                         node->trace_pid());
}

uint64_t TransactionManager::OldestActiveBeginSeq() const {
  uint64_t oldest = ~uint64_t{0};
  for (const auto& [id, txn] : active_) {
    oldest = std::min(oldest, txn->begin_seq);
  }
  return oldest;
}

Status TransactionManager::DeleteLoc(uint32_t dbspace_id, PhysicalLoc loc) {
  DbSpace* space = storage_->dbspace(dbspace_id);
  if (space == nullptr && !loc.is_cloud()) {
    return Status::Corruption("dbspace missing for GC");
  }
  if (space == nullptr) {
    for (DbSpace* s : storage_->AllDbSpaces()) {
      if (s->is_cloud()) space = s;
    }
  }
  buffer_->Invalidate(dbspace_id, loc);
  {
    MutexLock lock(&mu_);
    ++stats_.gc_pages_deleted;
  }
  return storage_->DeletePage(space, loc);
}

Status TransactionManager::RunGarbageCollection() {
  SimClock& clock = storage_->node()->clock();
  bool changed = false;
  {
    MutexLock lock(&mu_);
    ++stats_.gc_runs;
  }
  for (;;) {
    // Copy the chain head out under the lock; the deletions below are
    // storage I/O and run unlocked. The entry is popped only after they
    // all succeed, so an error leaves it for the next GC run — same
    // recovery behaviour as before the lock was introduced.
    CommittedTxn oldest;
    {
      MutexLock lock(&mu_);
      if (chain_.empty() ||
          chain_.front().commit_seq > OldestActiveBeginSeq()) {
        break;
      }
      oldest = chain_.front();
    }
    for (const auto& [dbspace_id, loc] : oldest.rf.block_locs()) {
      CLOUDIQ_RETURN_IF_ERROR(DeleteLoc(dbspace_id, loc));
    }
    for (uint64_t key : oldest.rf.cloud_keys().Values()) {
      CLOUDIQ_RETURN_IF_ERROR(DeleteLoc(0, PhysicalLoc::ForCloudKey(key)));
    }
    SimTime done = clock.now();
    CLOUDIQ_RETURN_IF_ERROR(system_->Delete(oldest.rf_name, clock.now(),
                                            &done));
    clock.AdvanceTo(done);
    CLOUDIQ_RETURN_IF_ERROR(system_->Delete(oldest.rb_name, clock.now(),
                                            &done));
    clock.AdvanceTo(done);
    {
      MutexLock lock(&mu_);
      chain_.pop_front();
    }
    changed = true;
  }
  if (changed) CLOUDIQ_RETURN_IF_ERROR(PersistChain());
  return Status::Ok();
}

Status TransactionManager::PersistChain() {
  std::vector<uint8_t> bytes;
  {
    MutexLock lock(&mu_);
    PutU64(bytes, chain_.size());
    for (const CommittedTxn& entry : chain_) {
      PutU64(bytes, entry.txn_id);
      PutU64(bytes, entry.commit_seq);
      PutString(bytes, entry.rf_name);
      PutString(bytes, entry.rb_name);
      std::vector<uint8_t> rf = entry.rf.Serialize();
      PutU64(bytes, rf.size());
      PutBytes(bytes, rf.data(), rf.size());
    }
  }
  SimClock& clock = storage_->node()->clock();
  SimTime done = clock.now();
  Status st = system_->Put(options_.name_prefix + kChainName, bytes, clock.now(), &done);
  clock.AdvanceTo(done);
  return st;
}

Status TransactionManager::Checkpoint() {
  SimClock& clock = storage_->node()->clock();
  SimTime done = clock.now();
  IdentityCatalog catalog_snapshot;
  uint64_t checkpoint_seq;
  {
    MutexLock lock(&mu_);
    catalog_snapshot = catalog_;
    checkpoint_seq = commit_seq_;
  }
  CLOUDIQ_RETURN_IF_ERROR(
      catalog_snapshot.Persist(system_, kCatalogName, clock.now(), &done));
  clock.AdvanceTo(done);
  for (DbSpace* space : storage_->AllDbSpaces()) {
    if (space->is_cloud()) continue;  // no freelist on cloud dbspaces
    CLOUDIQ_RETURN_IF_ERROR(
        system_->Put(options_.name_prefix + "freelist/" + std::to_string(space->id),
                     space->freelist.Serialize(), clock.now(), &done));
    clock.AdvanceTo(done);
  }
  CLOUDIQ_RETURN_IF_ERROR(PersistChain());
  TxnLogRecord marker;
  marker.type = TxnLogRecord::Type::kCheckpoint;
  marker.commit_seq = checkpoint_seq;
  CLOUDIQ_RETURN_IF_ERROR(log_.Append(marker, clock.now(), &done));
  clock.AdvanceTo(done);
  CLOUDIQ_RETURN_IF_ERROR(log_.TruncateAtCheckpoint(clock.now(), &done));
  clock.AdvanceTo(done);
  return Status::Ok();
}

Status TransactionManager::RecoverAfterCrash() {
  // Recovery holds mu_ across the whole rebuild, including its system-store
  // reads: the node serves no traffic until it returns and nothing below
  // the transaction layer calls back into it on this path.
  MutexLock lock(&mu_);
  SimClock& clock = storage_->node()->clock();
  SimTime done = clock.now();
  CLOUDIQ_RETURN_IF_ERROR(system_->Open(clock.now(), &done));
  clock.AdvanceTo(done);

  // Checkpointed state.
  Result<IdentityCatalog> catalog =
      IdentityCatalog::Load(system_, kCatalogName, clock.now(), &done);
  clock.AdvanceTo(done);
  if (!catalog.ok() && catalog.status().IsCorruption()) {
    return catalog.status();
  }
  catalog_ = catalog.ok() ? std::move(catalog).value() : IdentityCatalog();

  for (DbSpace* space : storage_->AllDbSpaces()) {
    if (space->is_cloud()) continue;
    Result<std::vector<uint8_t>> bytes = system_->Get(
        options_.name_prefix + "freelist/" + std::to_string(space->id), clock.now(), &done);
    clock.AdvanceTo(done);
    if (bytes.ok()) {
      CLOUDIQ_ASSIGN_OR_RETURN(space->freelist,
                               Freelist::Deserialize(bytes.value()));
    }
  }

  chain_.clear();
  Result<std::vector<uint8_t>> chain_bytes =
      system_->Get(options_.name_prefix + kChainName, clock.now(), &done);
  clock.AdvanceTo(done);
  if (chain_bytes.ok()) {
    ByteReader reader(chain_bytes.value());
    uint64_t n = reader.GetU64();
    // An entry takes at least 32 bytes (two u64s, two string lengths and
    // the RF length).
    if (n > reader.remaining() / 32) {
      return Status::Corruption("commit chain: entry count");
    }
    for (uint64_t i = 0; i < n; ++i) {
      CommittedTxn entry;
      entry.txn_id = reader.GetU64();
      entry.commit_seq = reader.GetU64();
      entry.rf_name = reader.GetString();
      entry.rb_name = reader.GetString();
      uint64_t rf_len = reader.GetU64();
      const uint8_t* rf = reader.Skip(rf_len);
      if (rf == nullptr) return Status::Corruption("commit chain: RF set");
      CLOUDIQ_ASSIGN_OR_RETURN(entry.rf, PageSet::Deserialize(rf, rf_len));
      chain_.push_back(std::move(entry));
    }
    if (reader.overflow()) return Status::Corruption("commit chain");
  }

  // Replay the transaction log from the checkpoint: commits re-apply
  // catalog updates, bring the freelist forward (RB blocks marked in-use)
  // and restore commit sequencing. RF deletions are applied only for
  // transactions already garbage collected before the crash (absent from
  // the recovered chain) — those in the chain keep their pages until GC
  // runs again.
  CLOUDIQ_RETURN_IF_ERROR(log_.Load(clock.now(), &done));
  clock.AdvanceTo(done);
  for (const TxnLogRecord& rec : log_.records()) {
    if (rec.type != TxnLogRecord::Type::kCommit) continue;
    commit_seq_ = std::max(commit_seq_, rec.commit_seq);
    for (const auto& update : rec.identity_updates) {
      CLOUDIQ_ASSIGN_OR_RETURN(IdentityObject identity,
                               IdentityObject::Deserialize(update));
      catalog_.Put(identity);
    }
    for (uint64_t dropped : rec.dropped_objects) catalog_.Remove(dropped);

    Result<std::vector<uint8_t>> rb_bytes =
        system_->Get(rec.rb_name, clock.now(), &done);
    clock.AdvanceTo(done);
    if (rb_bytes.ok()) {
      CLOUDIQ_ASSIGN_OR_RETURN(
          PageSet rb, PageSet::Deserialize(rb_bytes->data(), rb_bytes->size()));
      for (const auto& [dbspace_id, loc] : rb.block_locs()) {
        DbSpace* space = storage_->dbspace(dbspace_id);
        if (space != nullptr) {
          space->freelist.MarkUsed(loc.first_block(), loc.block_count());
        }
      }
    }
    bool in_chain = false;
    for (const CommittedTxn& entry : chain_) {
      if (entry.txn_id == rec.txn_id) in_chain = true;
    }
    if (!in_chain) {
      Result<std::vector<uint8_t>> rf_bytes =
          system_->Get(rec.rf_name, clock.now(), &done);
      clock.AdvanceTo(done);
      if (rf_bytes.ok()) {
        CLOUDIQ_ASSIGN_OR_RETURN(
            PageSet rf,
            PageSet::Deserialize(rf_bytes->data(), rf_bytes->size()));
        for (const auto& [dbspace_id, loc] : rf.block_locs()) {
          DbSpace* space = storage_->dbspace(dbspace_id);
          if (space != nullptr) {
            space->freelist.FreeRun(loc.first_block(), loc.block_count());
          }
        }
      }
    }
  }
  next_txn_local_ = std::max<uint64_t>(next_txn_local_, 1) + 100000;
  return Status::Ok();
}

}  // namespace cloudiq

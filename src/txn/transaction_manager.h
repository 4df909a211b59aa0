#ifndef CLOUDIQ_TXN_TRANSACTION_MANAGER_H_
#define CLOUDIQ_TXN_TRANSACTION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "blockmap/blockmap.h"
#include "blockmap/identity.h"
#include "buffer/buffer_manager.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "keygen/object_key_generator.h"
#include "store/storage.h"
#include "store/system_store.h"
#include "txn/page_set.h"
#include "txn/txn_log.h"

namespace cloudiq {

class TransactionManager;
class StorageObject;

// A transaction: MVCC with table-level versioning and snapshot isolation
// (§2). Readers see the identity catalog as of Begin(); writers build
// copy-on-write blockmap working copies that become visible atomically at
// Commit().
struct Transaction {
  enum class State { kActive, kCommitted, kRolledBack };

  uint64_t id = 0;
  NodeId node = 0;
  State state = State::kActive;
  uint64_t begin_seq = 0;
  uint64_t commit_seq = 0;

  // RF: pages this transaction marked for deletion (superseded versions).
  // RB: pages this transaction allocated.
  PageSet rf;
  PageSet rb;

  // Snapshot of the identity catalog at Begin().
  IdentityCatalog snapshot;

  // Working copies of objects opened for write, by object id.
  std::map<uint64_t, std::unique_ptr<StorageObject>> write_objects;
  std::vector<uint64_t> dropped_objects;
};

// A storage object under a transaction: one table / column segment / index
// whose pages are mapped by a blockmap. Writable instances hold the
// transaction's COW working copy; read instances wrap the snapshot's
// committed tree.
class StorageObject {
 public:
  StorageObject(TransactionManager* txn_mgr, Transaction* txn,
                uint64_t object_id, DbSpace* space, Blockmap blockmap,
                bool writable);

  uint64_t object_id() const { return object_id_; }
  DbSpace* space() { return space_; }
  Blockmap& blockmap() { return blockmap_; }
  uint64_t page_count() const { return blockmap_.page_count(); }
  bool writable() const { return writable_; }

  // Appends a new logical page with `payload` (goes to the dirty list;
  // physical location assigned at flush). Returns the logical page number.
  Result<uint64_t> AppendPage(std::vector<uint8_t> payload);

  // Replaces the contents of an existing logical page.
  Status WritePage(uint64_t page, std::vector<uint8_t> payload);

  // Reads a logical page: the transaction's dirty copy if any, else the
  // buffer cache, else storage (through the OCM for cloud dbspaces).
  Result<BufferManager::PageData> ReadPage(uint64_t page);

  // Parallel read-ahead of the given logical pages into the buffer cache:
  // the one-object case of TransactionManager::Prefetch.
  Status Prefetch(std::span<const uint64_t> pages);
  Status PrefetchAll();

 private:
  friend class TransactionManager;

  TransactionManager* txn_mgr_;
  Transaction* txn_;  // nullptr for read-only snapshot objects
  uint64_t object_id_;
  DbSpace* space_;
  Blockmap blockmap_;
  bool writable_;
};

// The transaction manager (§2, §3.3): transaction lifecycle, the committed-
// transaction chain with RF/RB-driven garbage collection, checkpoints and
// crash recovery. Owns the node's buffer manager (its flush callback needs
// the per-transaction RF/RB bookkeeping).
//
// Locking: mu_ guards only the manager's own leaf state (the active map,
// the committed chain, sequence counters, the catalog and stats). It is
// never held across buffer_/storage_/system_/log_ calls or the commit
// listener — the buffer manager's flush callback re-enters this class
// (FlushBatch), so any lock held across a flush would self-deadlock.
// The contents of a Transaction (write_objects, rf/rb, snapshot) belong to
// the fiber that began it and are not guarded; active_ only guards the
// id -> Transaction map itself. A Transaction* stays valid outside the
// lock because only the owning fiber's Commit/Rollback erases it.
class TransactionManager {
 public:
  struct Options {
    NodeId node_id = 0;
    uint32_t blockmap_fanout = 64;
    uint64_t buffer_capacity_bytes = 64 << 20;
    // Prefix for node-local durable structures (transaction log, commit
    // chain, RF/RB blobs, freelists) when the system dbspace is shared by
    // a multiplex. The catalog and table metadata stay unprefixed —
    // they are the cluster-shared state readers attach to.
    std::string name_prefix;
    // Reader nodes of a multiplex cannot perform modifications (§2):
    // object creation, writes and drops are rejected.
    bool read_only = false;
  };

  TransactionManager(StorageSubsystem* storage, SystemStore* system,
                     Options options);

  // Called at every commit with the cloud keys the transaction consumed,
  // so the coordinator can update its active sets (§3.2). Wired to the
  // local ObjectKeyGenerator in single-node setups and to the coordinator
  // RPC in a multiplex.
  using CommitListener =
      std::function<void(NodeId node, const IntervalSet& keys)>;
  void set_commit_listener(CommitListener listener) {
    commit_listener_ = std::move(listener);
  }

  // --- transaction lifecycle ---------------------------------------------
  Transaction* Begin() EXCLUDES(mu_);
  Status Commit(Transaction* txn) EXCLUDES(mu_);
  // Rollback deletes the transaction's RB pages immediately and, per the
  // paper's optimization, does NOT notify the coordinator.
  Status Rollback(Transaction* txn) EXCLUDES(mu_);

  // Simulates this node dying with `txn` in flight: all volatile state is
  // dropped without deleting any storage. Cleanup must then happen through
  // the crash-recovery path (keygen active-set polling). Test-only.
  void SimulateCrash() EXCLUDES(mu_);

  // --- storage objects ------------------------------------------------------
  // Creates a new (empty) object on `space` owned by `txn`.
  Result<StorageObject*> CreateObject(Transaction* txn, uint64_t object_id,
                                      DbSpace* space);
  // Opens an existing object for write (COW working copy from the
  // snapshot).
  Result<StorageObject*> OpenForWrite(Transaction* txn, uint64_t object_id);
  // Opens a read-only view from the transaction's snapshot.
  Result<std::unique_ptr<StorageObject>> OpenForRead(Transaction* txn,
                                                     uint64_t object_id);
  // Drops the object: every reachable page joins the RF set at commit.
  Status DropObject(Transaction* txn, uint64_t object_id);

  // Some logical pages of one storage object, one part of a read-ahead.
  struct PrefetchSet {
    StorageObject* object;
    std::span<const uint64_t> pages;
  };
  // Parallel read-ahead into the buffer cache of every listed page that is
  // neither dirty in its transaction nor cached: the reads of all the sets
  // go to one IoScheduler::RunParallel at the node's I/O width, so they
  // overlap across objects, and each page read is then inserted. The
  // caller bounds the bytes so that no page read evicts another.
  Status Prefetch(std::span<const PrefetchSet> sets);

  // --- garbage collection ---------------------------------------------------
  // Deletes the pages of committed transactions that are no longer
  // referenced by any active transaction; prunes the chain.
  Status RunGarbageCollection() EXCLUDES(mu_);
  size_t committed_chain_length() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return chain_.size();
  }

  // --- durability -----------------------------------------------------------
  // Persists catalog + freelists + a checkpoint marker; truncates the log.
  Status Checkpoint() EXCLUDES(mu_);
  // Rebuilds state from the system store after a crash: checkpointed
  // catalog/freelists, then log replay (commits re-applied, chain and
  // freelist brought forward).
  Status RecoverAfterCrash() EXCLUDES(mu_);

  // Snapshot of the committed catalog (MVCC makes catalog copies the cheap,
  // idiomatic unit — every Begin() takes one anyway).
  IdentityCatalog catalog() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return catalog_;
  }
  BufferManager& buffer() { return *buffer_; }
  StorageSubsystem& storage() { return *storage_; }
  TxnLog& log() { return log_; }
  uint64_t commit_seq() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return commit_seq_;
  }
  NodeId node_id() const { return options_.node_id; }

  struct Stats {
    uint64_t commits = 0;
    uint64_t rollbacks = 0;
    uint64_t gc_pages_deleted = 0;
    uint64_t gc_runs = 0;
  };
  Stats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  friend class StorageObject;

  struct CommittedTxn {
    uint64_t txn_id;
    uint64_t commit_seq;
    PageSet rf;
    std::string rf_name;
    std::string rb_name;
  };

  // BufferManager flush callback: writes dirty pages, updates blockmaps,
  // records RF/RB. Re-entered while Commit/PutDirty run with mu_ released.
  Status FlushBatch(uint64_t txn_id, std::vector<BufferManager::DirtyPage>&&
                                          pages,
                    bool for_commit) EXCLUDES(mu_);

  Status DeleteLoc(uint32_t dbspace_id, PhysicalLoc loc) EXCLUDES(mu_);
  Status PersistChain() EXCLUDES(mu_);
  uint64_t OldestActiveBeginSeq() const REQUIRES(mu_);
  Transaction* FindTxn(uint64_t txn_id) REQUIRES(mu_);

  // Wiring set at construction and never re-pointed while serving traffic
  // (buffer_ is also rebuilt by the test-only SimulateCrash), so none of
  // it is guarded by mu_. log_ and buffer_ serialize their own state.
  StorageSubsystem* storage_;
  SystemStore* system_;
  Options options_;
  std::unique_ptr<BufferManager> buffer_;
  TxnLog log_;
  CommitListener commit_listener_;

  mutable Mutex mu_{lockrank::kTransactionManager};
  IdentityCatalog catalog_ GUARDED_BY(mu_);
  std::map<uint64_t, std::unique_ptr<Transaction>> active_ GUARDED_BY(mu_);
  std::list<CommittedTxn> chain_ GUARDED_BY(mu_);
  uint64_t next_txn_local_ GUARDED_BY(mu_) = 1;
  uint64_t commit_seq_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
  Histogram* commit_latency_ = nullptr;    // "txn.commit"
  Histogram* rollback_latency_ = nullptr;  // "txn.rollback"
};

}  // namespace cloudiq

#endif  // CLOUDIQ_TXN_TRANSACTION_MANAGER_H_

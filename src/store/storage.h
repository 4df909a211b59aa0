#ifndef CLOUDIQ_STORE_STORAGE_H_
#define CLOUDIQ_STORE_STORAGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sim/block_volume.h"
#include "sim/environment.h"
#include "sim/io_scheduler.h"
#include "store/cloud_cache.h"
#include "store/freelist.h"
#include "store/object_store_io.h"
#include "store/physical_loc.h"

namespace cloudiq {

// A dbspace: a named collection of storage the engine can place pages on
// (§2). Conventional dbspaces sit on block volumes and allocate from a
// freelist; cloud dbspaces sit on the object store and have no freelist at
// all — a flushed page simply takes a fresh object key.
struct DbSpace {
  enum class Type { kBlock, kCloud };

  uint32_t id = 0;
  std::string name;
  Type type = Type::kBlock;
  uint64_t page_size = 512 * 1024;

  SimBlockVolume* volume = nullptr;  // kBlock only
  Freelist freelist;                 // kBlock only

  uint64_t block_size() const { return page_size / kBlocksPerPage; }
  bool is_cloud() const { return type == Type::kCloud; }
};

// Per-node storage subsystem: the single point through which pages reach
// persistent media. Implements the paper's §3 storage rules:
//
//  * pages on cloud dbspaces are stored directly as objects;
//  * an object key is never written twice (enforced here, checked by
//    tests against the object store's overwrite counter);
//  * reads retry on NOT_FOUND to ride out eventual-consistency races;
//  * when a CloudCache (the OCM) is attached, cloud traffic is routed
//    through it; correctness is identical without it.
class StorageSubsystem {
 public:
  struct Options {
    bool encrypt_pages = false;
    uint64_t encryption_seed = 0x5ec2e7;
    // If false (ablation), a page may be rewritten in place under its old
    // key on flush — demonstrating the stale-read anomaly the paper's
    // design rules out.
    bool never_write_twice = true;
    ObjectStoreIo::Options object_io;
  };

  // `node` supplies the clock/executor/NIC; `store` is the shared object
  // store. The key source yields fresh object keys (a NodeKeyCache bound
  // to the coordinator).
  StorageSubsystem(NodeContext* node, SimObjectStore* store)
      : StorageSubsystem(node, store, Options()) {}
  StorageSubsystem(NodeContext* node, SimObjectStore* store,
                   Options options);

  // --- dbspace management ---------------------------------------------
  DbSpace* CreateBlockDbSpace(const std::string& name,
                              SimBlockVolume* volume, uint64_t page_size);
  DbSpace* CreateCloudDbSpace(const std::string& name, uint64_t page_size);
  DbSpace* FindDbSpace(const std::string& name);
  DbSpace* dbspace(uint32_t id);

  // --- wiring -----------------------------------------------------------
  using KeySource = std::function<uint64_t(double now)>;
  void set_key_source(KeySource source) { key_source_ = std::move(source); }

  void set_cloud_cache(CloudCache* cache) { cloud_cache_ = cache; }

  // When set, deletion of a cloud page is offered to the interceptor
  // first; returning true means ownership transferred (the snapshot
  // manager will delete it when its retention expires, §5).
  using DeleteInterceptor = std::function<bool(uint64_t object_key)>;
  void set_delete_interceptor(DeleteInterceptor f) {
    delete_interceptor_ = std::move(f);
  }

  // --- page I/O ----------------------------------------------------------
  // A prepared page write: the location is assigned eagerly (fresh object
  // key or freelist run) so the caller can update its blockmap; `op`
  // performs the device I/O when executed (directly or in a parallel
  // batch). `status` is filled by the op.
  struct PreparedWrite {
    PhysicalLoc loc;
    uint64_t frame_bytes = 0;
    IoScheduler::Op op;
    std::shared_ptr<Status> status;
  };

  // Frames (checksums/encrypts) `payload` and prepares its
  // write. `mode` selects the OCM path for cloud pages; `txn_id`
  // associates queued background work with a transaction.
  Result<PreparedWrite> PrepareWrite(DbSpace* space,
                                     const std::vector<uint8_t>& payload,
                                     CloudCache::WriteMode mode,
                                     uint64_t txn_id);

  // Convenience: prepare + run synchronously on the node's clock.
  Result<PhysicalLoc> WritePage(DbSpace* space,
                                const std::vector<uint8_t>& payload,
                                CloudCache::WriteMode mode, uint64_t txn_id);

  // Result slot for batched reads.
  struct ReadSlot {
    Status status = Status::NotFound("pending");
    std::vector<uint8_t> payload;
  };

  IoScheduler::Op MakeReadOp(DbSpace* space, PhysicalLoc loc,
                             std::shared_ptr<ReadSlot> out);

  Result<std::vector<uint8_t>> ReadPage(DbSpace* space, PhysicalLoc loc);

  // Deletes the stored page (GC). For cloud pages, the snapshot
  // interceptor may take ownership instead of deleting when
  // `defer_allowed` is true; rollback deletes pass false — pages of
  // rolled-back transactions were never part of a committed version, so
  // no snapshot can reference them.
  Status DeletePage(DbSpace* space, PhysicalLoc loc,
                    bool defer_allowed = true);

  // Flushes a committing transaction's queued OCM work (no-op without an
  // OCM).
  Status FlushForCommit(uint64_t txn_id);

  // Rewrite-in-place under an existing key. Only callable when
  // never_write_twice is disabled; exists for the write-twice ablation.
  Status OverwriteCloudPage(DbSpace* space, PhysicalLoc loc,
                            const std::vector<uint8_t>& payload);

  struct Stats {
    uint64_t pages_written = 0;
    uint64_t pages_read = 0;
    uint64_t pages_deleted = 0;
    uint64_t bytes_written = 0;  // frame bytes (header + payload)
    uint64_t bytes_read = 0;
    uint64_t raw_bytes_written = 0;  // payload bytes
  };
  const Stats& stats() const { return stats_; }

  NodeContext* node() { return node_; }
  ObjectStoreIo& object_io() { return object_io_; }
  CloudCache* cloud_cache() { return cloud_cache_; }
  std::vector<DbSpace*> AllDbSpaces();
  const Options& options() const { return options_; }

 private:
  std::vector<uint8_t> MaybeEncrypt(std::vector<uint8_t> frame,
                                    uint64_t key) const;

  NodeContext* node_;
  Options options_;
  ObjectStoreIo object_io_;
  KeySource key_source_;
  CloudCache* cloud_cache_ = nullptr;
  DeleteInterceptor delete_interceptor_;
  std::map<uint32_t, std::unique_ptr<DbSpace>> dbspaces_;
  uint32_t next_dbspace_id_ = 1;
  // Keys this node has written; guards the never-write-twice invariant.
  std::unordered_set<uint64_t> written_keys_;
  Stats stats_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_STORE_STORAGE_H_

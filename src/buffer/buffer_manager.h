#ifndef CLOUDIQ_BUFFER_BUFFER_MANAGER_H_
#define CLOUDIQ_BUFFER_BUFFER_MANAGER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "store/physical_loc.h"
#include "store/storage.h"
#include "telemetry/telemetry.h"

namespace cloudiq {

// SAP IQ's first-layer cache: decompressed pages in RAM (§2). CloudIQ's
// buffer manager has two halves:
//
//  * a *clean* cache keyed by physical location, LRU-evicted. Cloud pages
//    are immutable under their object key (never-write-twice), so a
//    location is a perfect cache key; conventional locations are
//    invalidated when their blocks are freed.
//  * per-transaction *dirty lists* ("the buffer manager maintains a list
//    of all the dirty pages associated with active transactions"). Dirty
//    pages are flushed by the owning transaction — under cache pressure
//    during the churn phase (write-back through the OCM) and exhaustively
//    before commit (write-through), matching §4's three-phase model.
//
// The flush itself (storage write + blockmap update + RF/RB bookkeeping)
// belongs to the transaction layer and is injected as a callback.
//
// Locking: mu_ guards the cache maps and counters only. It is dropped
// (MutexUnlock) around the loader and flush callbacks — both re-enter
// other managers (the flush callback re-enters TransactionManager, which
// calls back into this class) and mu_ is not recursive.
class BufferManager {
 public:
  using PageData = std::shared_ptr<const std::vector<uint8_t>>;

  struct Options {
    uint64_t capacity_bytes = 64 << 20;
  };

  // One dirty page awaiting flush.
  struct DirtyPage {
    uint64_t object_id;
    uint64_t page;
    std::vector<uint8_t> payload;
  };

  // Flushes a batch of dirty pages for `txn_id`. `for_commit` selects the
  // OCM write mode (write-through) and must leave every page durable on
  // its backing store before returning OK.
  using FlushBatchFn = std::function<Status(
      uint64_t txn_id, std::vector<DirtyPage>&& pages, bool for_commit)>;

  BufferManager(Options options, FlushBatchFn flush)
      : options_(options), flush_(std::move(flush)) {}

  // --- clean cache -------------------------------------------------------
  // Looks up the page stored at (dbspace, loc); on miss, invokes `loader`
  // (which performs the simulated I/O, with mu_ released) and caches the
  // result.
  Result<PageData> Get(
      uint32_t dbspace_id, PhysicalLoc loc,
      const std::function<Result<std::vector<uint8_t>>()>& loader)
      EXCLUDES(mu_);

  // Inserts an already-available page (prefetch results, pages built
  // during load that later readers will want).
  void Insert(uint32_t dbspace_id, PhysicalLoc loc,
              std::vector<uint8_t> payload) EXCLUDES(mu_);

  bool Cached(uint32_t dbspace_id, PhysicalLoc loc) const EXCLUDES(mu_);

  // Drops a location (its blocks were freed / object deleted).
  void Invalidate(uint32_t dbspace_id, PhysicalLoc loc) EXCLUDES(mu_);

  // --- dirty pages ---------------------------------------------------------
  // Registers (or replaces) a dirty page owned by `txn_id`. May trigger
  // churn-phase eviction: least-recently dirtied pages of the same
  // transaction are flushed with write-back semantics until the total
  // footprint fits the capacity.
  Status PutDirty(uint64_t txn_id, uint64_t object_id, uint64_t page,
                  std::vector<uint8_t> payload) EXCLUDES(mu_);

  // Read-your-writes: the dirty copy if present.
  Result<PageData> GetDirty(uint64_t txn_id, uint64_t object_id,
                            uint64_t page) const EXCLUDES(mu_);

  // True if `txn_id` has any unflushed dirty pages.
  bool HasDirty(uint64_t txn_id) const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto it = dirty_.find(txn_id);
    return it != dirty_.end() && !it->second.pages.empty();
  }

  // Flushes every remaining dirty page of `txn_id` (commit path,
  // write-through).
  Status FlushTxn(uint64_t txn_id) EXCLUDES(mu_);

  // Discards `txn_id`'s dirty pages (rollback).
  void DropTxn(uint64_t txn_id) EXCLUDES(mu_);

  uint64_t clean_bytes() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return clean_bytes_;
  }
  uint64_t dirty_bytes() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return dirty_bytes_;
  }
  // Bytes the clean cache can hold without evicting: capacity less the
  // dirty pages' bytes.
  uint64_t clean_room() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return options_.capacity_bytes > dirty_bytes_
               ? options_.capacity_bytes - dirty_bytes_
               : 0;
  }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t clean_evictions = 0;
    uint64_t churn_flushes = 0;   // dirty pages flushed under pressure
    uint64_t commit_flushes = 0;  // dirty pages flushed at commit
  };
  Stats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

  // Wires telemetry. `clock` is the owning node's clock, used to time
  // miss fills and flush batches (the loader / flush callbacks advance
  // it); miss latencies land in "buffer.miss_fill", flush batches in
  // "buffer.flush". Wiring happens during single-threaded setup, before
  // any page traffic — the pointers below are read-only afterwards, so
  // they are deliberately not guarded by mu_.
  void set_telemetry(Telemetry* telemetry, const SimClock* clock,
                     uint32_t trace_pid);

 private:
  struct CleanKey {
    uint32_t dbspace_id;
    uint64_t encoded_loc;
    bool operator==(const CleanKey& o) const {
      return dbspace_id == o.dbspace_id && encoded_loc == o.encoded_loc;
    }
  };
  struct CleanKeyHash {
    size_t operator()(const CleanKey& k) const {
      return std::hash<uint64_t>()(k.encoded_loc * 0x9e3779b97f4a7c15ULL ^
                                   k.dbspace_id);
    }
  };
  struct CleanEntry {
    PageData data;
    std::list<CleanKey>::iterator lru_it;
  };

  struct DirtyKey {
    uint64_t object_id;
    uint64_t page;
    bool operator<(const DirtyKey& o) const {
      return object_id != o.object_id ? object_id < o.object_id
                                      : page < o.page;
    }
  };

  void InsertCleanLocked(const CleanKey& key, PageData data) REQUIRES(mu_);
  void EvictCleanIfNeeded() REQUIRES(mu_);
  Status EvictDirtyIfNeeded(uint64_t txn_id) REQUIRES(mu_);
  void TouchLru(CleanEntry& entry, const CleanKey& key) REQUIRES(mu_);

  Options options_;
  FlushBatchFn flush_;

  mutable Mutex mu_{lockrank::kBufferManager};
  std::unordered_map<CleanKey, CleanEntry, CleanKeyHash> clean_
      GUARDED_BY(mu_);
  std::list<CleanKey> lru_ GUARDED_BY(mu_);  // front = most recent
  uint64_t clean_bytes_ GUARDED_BY(mu_) = 0;

  // txn -> (object, page) -> payload; flush order = dirty order (std::map
  // inside a map of txns, plus an explicit FIFO per txn).
  struct TxnDirty {
    std::map<DirtyKey, std::vector<uint8_t>> pages;
    std::list<DirtyKey> order;  // front = oldest
  };
  std::map<uint64_t, TxnDirty> dirty_ GUARDED_BY(mu_);
  uint64_t dirty_bytes_ GUARDED_BY(mu_) = 0;

  Stats stats_ GUARDED_BY(mu_);

  // Telemetry wiring: written once by set_telemetry() during setup.
  Telemetry* telemetry_ = nullptr;
  CostLedger* ledger_ = nullptr;
  StallProfiler* profiler_ = nullptr;
  const SimClock* clock_ = nullptr;
  uint32_t trace_pid_ = 0;
  Histogram* miss_fill_latency_ = nullptr;
  Histogram* flush_latency_ = nullptr;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_BUFFER_BUFFER_MANAGER_H_

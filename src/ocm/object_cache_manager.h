#ifndef CLOUDIQ_OCM_OBJECT_CACHE_MANAGER_H_
#define CLOUDIQ_OCM_OBJECT_CACHE_MANAGER_H_

#include <cstdint>
#include <deque>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/environment.h"
#include "store/cloud_cache.h"
#include "store/object_store_io.h"

namespace cloudiq {

// The Object Cache Manager (§4): a disk-based second-layer cache between
// SAP IQ's RAM buffer manager and the object store, backed by the node's
// locally attached NVMe SSDs.
//
// Semantics implemented from the paper:
//  * read-through: misses go to the object store; the fetched page is
//    returned immediately and cached on the SSD *asynchronously*;
//  * write-back (churn phase): synchronous SSD write, asynchronous upload
//    to the object store; the page enters the LRU only after the upload
//    succeeds, so failed/rolled-back transactions don't pollute the cache;
//  * write-through (commit phase): synchronous upload, asynchronous SSD
//    caching;
//  * FlushForCommit: promotes the committing transaction's queued uploads
//    to the head of the write queue, executes them, and upgrades the
//    transaction's subsequent writes to write-through;
//  * one LRU across reads and writes; eviction frees SSD space;
//  * SSD write failures are ignored (the object store is the source of
//    truth); upload failures are retried and eventually abort the
//    transaction (via ObjectStoreIo);
//  * presence or absence never affects correctness — pages are opaque,
//    already encrypted if encryption is on.
//
// Locking: mu_ guards the LRU index, the write queue and the counters —
// and nothing else. Every simulated I/O (SSD read/write, object-store
// GET/PUT, RunParallel) drains the node executor, which synchronously
// re-enters this class (PumpOne, cache fills), so mu_ is never held
// across one; methods take it in short sections around their own state.
class ObjectCacheManager : public CloudCache {
 public:
  struct Options {
    // Fraction of the node's SSD capacity the cache may use.
    double capacity_fraction = 1.0;
    // The paper's proposed brown-out mitigation (§6 future work):
    // monitor the SSD's backlog and serve cache *hits* from the object
    // store instead when a read would queue behind more than
    // `reroute_backlog_seconds` of pending device work.
    bool reroute_on_pressure = false;
    double reroute_backlog_seconds = 0.010;
  };

  ObjectCacheManager(NodeContext* node, ObjectStoreIo* io)
      : ObjectCacheManager(node, io, Options()) {}
  ObjectCacheManager(NodeContext* node, ObjectStoreIo* io, Options options);

  // --- CloudCache ----------------------------------------------------------
  Result<std::vector<uint8_t>> Read(uint64_t key, SimTime start,
                                    SimTime* completion) override
      EXCLUDES(mu_);
  Status Write(uint64_t key, std::vector<uint8_t> data, WriteMode mode,
               uint64_t txn_id, SimTime start, SimTime* completion) override
      EXCLUDES(mu_);
  void Erase(uint64_t key) override EXCLUDES(mu_);
  Status FlushForCommit(uint64_t txn_id, SimTime start,
                        SimTime* completion) override EXCLUDES(mu_);
  void AbortTxn(uint64_t txn_id) override EXCLUDES(mu_);

  // Plan-time residency probe (CloudCache): true when a Read would be
  // served from the SSD — the key is in the LRU index, or a queued
  // write-back still holds its local copy. Touches neither the LRU nor
  // the stats, and performs no simulated I/O.
  bool Resident(uint64_t key) const override EXCLUDES(mu_);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t background_uploads = 0;
    uint64_t write_through = 0;      // synchronous uploads (commit phase)
    uint64_t commit_promotions = 0;  // uploads executed by FlushForCommit
    uint64_t local_write_errors_ignored = 0;
    uint64_t rerouted_reads = 0;  // hits served from the store (pressure)
  };
  Stats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = Stats();
  }

  uint64_t cached_bytes() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return cached_bytes_ + pending_bytes_;
  }
  size_t write_queue_depth() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return write_queue_.size();
  }

 private:
  // Delay before a queued background upload or cache fill starts
  // (models the background writer picking work up), in seconds.
  static constexpr double kBackgroundDelay = 0.002;

  struct PendingWrite {
    uint64_t key;
    uint64_t txn_id;
    std::vector<uint8_t> data;
    bool on_ssd;  // local copy exists, awaiting upload success to enter LRU
    // Attribution captured at enqueue time: the background pump charges
    // the upload to the query that dirtied the page, not to whoever
    // happens to be running when the pump drains.
    AttributionContext attr;
    // Enqueue time, so the drain can charge the queue-wait window
    // [enqueued_at, drain start] to kOcmUpload — background stalls must
    // not vanish from the stall breakdown.
    SimTime enqueued_at = 0;
  };

  // Admits `key` (already on SSD) into the LRU index, evicting as needed.
  // Takes mu_ itself: callers arrive from unlocked I/O completions.
  void AdmitToLru(uint64_t key, uint64_t bytes) EXCLUDES(mu_);
  void EvictIfNeeded() REQUIRES(mu_);
  // Executes one queued upload (the background pump).
  void PumpOne(SimTime run_at) EXCLUDES(mu_);
  // Schedules an asynchronous SSD cache fill for a read-through page.
  void ScheduleCacheFill(uint64_t key, std::vector<uint8_t> data,
                         SimTime at) EXCLUDES(mu_);

  NodeContext* node_;
  ObjectStoreIo* io_;
  Options options_;
  double capacity_bytes_;
  Telemetry* telemetry_;
  CostLedger* ledger_;
  StallProfiler* profiler_;
  uint32_t trace_pid_;
  Histogram* hit_latency_;   // SSD-served cache hits
  Histogram* miss_latency_;  // read-throughs to the object store
  // Background tasks scheduled on the node executor can outlive this OCM
  // (e.g. the instance "loses" its cache on a simulated crash and a new
  // OCM is built); they hold a weak reference to this token and become
  // no-ops once the OCM is gone.
  std::shared_ptr<ObjectCacheManager*> liveness_;

  mutable Mutex mu_{lockrank::kObjectCacheManager};

  // LRU over admitted keys (front = most recent).
  std::list<uint64_t> lru_ GUARDED_BY(mu_);
  struct Entry {
    uint64_t bytes;
    std::list<uint64_t>::iterator lru_it;
  };
  std::unordered_map<uint64_t, Entry> index_ GUARDED_BY(mu_);
  uint64_t cached_bytes_ GUARDED_BY(mu_) = 0;

  // Background upload queue (FIFO; FlushForCommit promotes and drains a
  // transaction's entries).
  std::deque<PendingWrite> write_queue_ GUARDED_BY(mu_);
  uint64_t pending_bytes_ GUARDED_BY(mu_) = 0;
  std::set<uint64_t> committing_txns_ GUARDED_BY(mu_);

  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace cloudiq

#endif  // CLOUDIQ_OCM_OBJECT_CACHE_MANAGER_H_

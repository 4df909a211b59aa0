#ifndef CLOUDIQ_KEYGEN_OBJECT_KEY_GENERATOR_H_
#define CLOUDIQ_KEYGEN_OBJECT_KEY_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/interval_set.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "common/status.h"

namespace cloudiq {

// Identifies a node in a multiplex cluster. Node 0 is the coordinator by
// convention.
using NodeId = uint32_t;

// A half-open range of object keys [begin, end) handed out by the
// coordinator.
struct KeyRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

// Bookkeeping event emitted by the Object Key Generator so its state can be
// made durable. The engine appends these to the coordinator's transaction
// log; ObjectKeyGenerator::Recover() replays them after a crash.
struct KeygenLogRecord {
  enum class Type { kAllocate, kCommit };
  Type type;
  NodeId node = 0;
  // kAllocate: the granted range. The largest allocated key (`end - 1`) is
  // what §3.2 calls "the largest allocated object key recorded in the
  // transaction log".
  uint64_t begin = 0;
  uint64_t end = 0;
  // kCommit: keys consumed by a committed transaction; they leave the
  // node's active set because committed pages are tracked by RF/RB bitmaps
  // from then on.
  IntervalSet committed;
};

// The coordinator-resident Object Key Generator (§3.2 of the paper).
//
// Guarantees, verified by tests/keygen:
//   1. 64-bit keys confined to [2^63, 2^64) so they can overload the
//      physical-block-number field of the blockmap;
//   2. uniqueness across all nodes and across crash/recovery — a key is
//      never handed out twice;
//   3. strict monotonicity — later allocations have strictly larger keys,
//      which lets bookkeeping and GC operate on ranges.
//
// The generator also maintains the *active sets*: for every node, the keys
// that have been handed out but not yet accounted for by a committed
// transaction. After a writer-node crash, the node's active set is exactly
// the set of keys that must be polled for garbage collection (Table 1).
class ObjectKeyGenerator {
 public:
  struct Options {
    uint64_t first_key = uint64_t{1} << 63;
    uint64_t min_range_size = 16;
    uint64_t max_range_size = 1 << 20;
  };

  ObjectKeyGenerator() : ObjectKeyGenerator(Options()) {}
  explicit ObjectKeyGenerator(Options options);

  // Movable so Database can rebuild the generator on recovery; the moves
  // lock the source (and, for assignment, the destination) so the
  // analysis can prove the guarded state transfers cleanly.
  ObjectKeyGenerator(ObjectKeyGenerator&& other) noexcept;
  ObjectKeyGenerator& operator=(ObjectKeyGenerator&& other) noexcept;

  // Allocates a range of `size` keys to `node` (clamped to
  // [min_range_size, max_range_size]). Appends a kAllocate record to the
  // pending log. This is the body of the "allocate key range" RPC; the RPC
  // transport and its transaction envelope live in src/multiplex.
  KeyRange AllocateRange(NodeId node, uint64_t size) EXCLUDES(mu_);

  // A transaction on `node` committed having consumed `keys`. The keys
  // leave the node's active set (their lifecycle is now governed by the
  // committed transaction's RF/RB bitmaps). Appends a kCommit record.
  void OnTransactionCommitted(NodeId node, const IntervalSet& keys)
      EXCLUDES(mu_);

  // NOTE: there is deliberately no OnTransactionRolledBack(). The paper
  // does not notify the coordinator on rollback: the rolling-back node
  // deletes its own objects, and if the node later crashes the same range
  // is simply re-polled (deletes are idempotent). Tests cover this.

  // A node restarted after a crash: returns the keys that must be polled
  // for garbage collection (its entire active set, including unconsumed
  // tails of outstanding ranges) and clears the set.
  IntervalSet TakeActiveSetForRecovery(NodeId node) EXCLUDES(mu_);

  // Read-only snapshot, for inspection and tests (by value: a reference
  // into the guarded map would outlive the lock).
  IntervalSet ActiveSet(NodeId node) const EXCLUDES(mu_);
  uint64_t max_allocated() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_key_;
  }

  // --- Durability -----------------------------------------------------
  // Serializes current state (max allocated key + active sets) and clears
  // the pending log: the checkpoint at clock 50 of Table 1.
  std::vector<uint8_t> Checkpoint() EXCLUDES(mu_);

  // Log records appended since the last checkpoint (to be written to the
  // transaction log by the caller). Snapshot by value, as with ActiveSet.
  std::vector<KeygenLogRecord> pending_log() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pending_log_;
  }

  // Rebuilds the generator from the last checkpoint plus the replayed
  // transaction log — the coordinator-crash recovery walk-through of
  // Table 1 (clock 110–120). Corruption when the checkpoint bytes do not
  // decode (a bad active set, or a set count the bytes cannot hold).
  static Result<ObjectKeyGenerator> Recover(
      const std::vector<uint8_t>& checkpoint,
      const std::vector<KeygenLogRecord>& log);
  static Result<ObjectKeyGenerator> Recover(
      const std::vector<uint8_t>& checkpoint,
      const std::vector<KeygenLogRecord>& log, Options options);

 private:
  Options options_;
  mutable Mutex mu_{lockrank::kObjectKeyGenerator};
  uint64_t next_key_ GUARDED_BY(mu_);
  std::map<NodeId, IntervalSet> active_sets_ GUARDED_BY(mu_);
  std::vector<KeygenLogRecord> pending_log_ GUARDED_BY(mu_);
};

// Per-node key cache (§3.2): secondary nodes consume keys from a locally
// cached range and fetch a new range from the coordinator when exhausted.
// The requested range size adapts to the node's allocation rate: it doubles
// when ranges are exhausted quickly and halves when a range lingers.
class NodeKeyCache {
 public:
  // Fetches a fresh range of the requested size (the coordinator RPC).
  // The double parameter is the node's current simulated time, used for
  // adaptive sizing and so the transport can account RPC latency.
  using RangeFetcher = std::function<KeyRange(uint64_t size, double now)>;

  struct Options {
    uint64_t initial_range_size = 128;
    uint64_t min_range_size = 16;
    uint64_t max_range_size = 1 << 20;
    // A range exhausted faster than this doubles the next request; slower
    // than 10x this halves it.
    double fast_exhaust_seconds = 1.0;
  };

  explicit NodeKeyCache(RangeFetcher fetcher)
      : NodeKeyCache(std::move(fetcher), Options()) {}
  NodeKeyCache(RangeFetcher fetcher, Options options);

  // Returns the next unique key, fetching a new range if needed. The
  // coordinator fetch runs with mu_ released: it is an outbound RPC whose
  // transport (Multiplex) takes its own locks.
  uint64_t NextKey(double now) EXCLUDES(mu_);

  // Snapshot barrier: discards the cached range so subsequent keys come
  // from ranges allocated strictly after this point. Taking a snapshot
  // records the coordinator's allocation watermark; restore garbage
  // collection assumes every key used after the snapshot exceeds that
  // watermark (§5), which only holds if nodes abandon ranges they cached
  // beforehand.
  void DiscardCachedRange() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    range_ = KeyRange{};
    cursor_ = 0;
  }

  // Keys remaining in the cached range.
  uint64_t Remaining() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return range_.end - cursor_;
  }
  uint64_t current_range_size() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_request_size_;
  }
  uint64_t fetch_count() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return fetch_count_;
  }

 private:
  RangeFetcher fetcher_;
  Options options_;
  mutable Mutex mu_{lockrank::kNodeKeyCache};
  KeyRange range_ GUARDED_BY(mu_);
  uint64_t cursor_ GUARDED_BY(mu_) = 0;
  uint64_t next_request_size_ GUARDED_BY(mu_);
  double last_fetch_time_ GUARDED_BY(mu_) = -1;
  uint64_t fetch_count_ GUARDED_BY(mu_) = 0;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_KEYGEN_OBJECT_KEY_GENERATOR_H_

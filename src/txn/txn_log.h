#ifndef CLOUDIQ_TXN_TXN_LOG_H_
#define CLOUDIQ_TXN_TXN_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"
#include "keygen/object_key_generator.h"
#include "store/system_store.h"
#include "txn/page_set.h"

namespace cloudiq {

// One record in the transaction log. The log stores *metadata only* — in an
// OLAP engine the data volume is far too large to log, which is exactly why
// dirty pages must be flushed to permanent storage before commit (§3.1).
struct TxnLogRecord {
  enum class Type {
    kKeygenAllocate,  // key range handed to a node (§3.2 bookkeeping)
    kKeygenCommit,    // committed keys leaving a node's active set
    kCommit,          // transaction commit: RF/RB identities + catalog edits
    kCheckpoint,      // checkpoint marker (log before this can be dropped)
  };

  Type type = Type::kCommit;

  // kKeygenAllocate / kKeygenCommit
  NodeId node = 0;
  uint64_t range_begin = 0;
  uint64_t range_end = 0;
  IntervalSet committed_keys;

  // kCommit
  uint64_t txn_id = 0;
  uint64_t commit_seq = 0;
  // Names of the persisted RF/RB blobs in the system store ("the
  // identities of the bitmaps are recorded in the transaction log").
  std::string rf_name;
  std::string rb_name;
  // Identity-object updates produced by the commit: object id -> encoded
  // IdentityObject.
  std::vector<std::vector<uint8_t>> identity_updates;
  // Objects dropped by this transaction.
  std::vector<uint64_t> dropped_objects;

  std::vector<uint8_t> Serialize() const;
  // Corruption on an unknown type, undecodable keys, or a count the
  // remaining bytes cannot hold.
  static Result<TxnLogRecord> Deserialize(ByteReader& reader);
};

// The durable transaction log, persisted through the system store.
// Appends rewrite the tail blob; a checkpoint truncates the log. (The
// simulated volume makes the rewrite cost explicit but small — commit
// records are metadata-sized.)
class TxnLog {
 public:
  TxnLog(SystemStore* store, std::string name)
      : store_(store), name_(std::move(name)) {}

  Status Append(const TxnLogRecord& record, SimTime now,
                SimTime* completion);

  // Drops every record up to and including the latest checkpoint marker
  // and persists the truncated log.
  Status TruncateAtCheckpoint(SimTime now, SimTime* completion);

  // Loads the log from the system store (crash recovery).
  Status Load(SimTime now, SimTime* completion);

  const std::vector<TxnLogRecord>& records() const { return records_; }
  void clear_memory() { records_.clear(); }

 private:
  Status Persist(SimTime now, SimTime* completion);

  SystemStore* store_;
  std::string name_;
  std::vector<TxnLogRecord> records_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_TXN_TXN_LOG_H_

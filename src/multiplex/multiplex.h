#ifndef CLOUDIQ_MULTIPLEX_MULTIPLEX_H_
#define CLOUDIQ_MULTIPLEX_MULTIPLEX_H_

#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/database.h"
#include "sim/environment.h"

namespace cloudiq {

// A multiplex cluster (§2): one coordinator plus N secondary nodes over
// *shared* storage — the object store for user dbspaces and a shared EFS
// volume for the system dbspace (as the paper's scale-out experiment is
// configured). Implements the coordinator-centric protocols of §3.2/3.3:
//
//  * secondaries obtain object-key ranges via an RPC to the coordinator,
//    which logs the allocation and tracks the node's active set;
//  * commits notify the coordinator so consumed keys leave the active set
//    (rollbacks deliberately do not);
//  * when a secondary restarts after a crash, the coordinator polls the
//    node's entire active set and deletes surviving objects.
class Multiplex {
 public:
  struct Options {
    Database::Options db;
    InstanceProfile coordinator_profile = InstanceProfile::R5Large();
    InstanceProfile secondary_profile = InstanceProfile::M5ad4xlarge();
    // The first `writer_count` secondaries are writers; the rest are
    // reader nodes that cannot modify data (§2). -1 = all writers.
    int writer_count = -1;
  };

  Multiplex(SimEnvironment* env, int secondary_count)
      : Multiplex(env, secondary_count, Options()) {}
  Multiplex(SimEnvironment* env, int secondary_count, Options options);

  Database& coordinator() { return *coordinator_; }
  Database& secondary(int i) { return *secondaries_[i]; }
  int secondary_count() const {
    return static_cast<int>(secondaries_.size());
  }

  // Makes catalogs committed through the shared system dbspace visible on
  // every secondary (readers attach to the current table versions).
  Status SyncCatalogs();

  // Simulates a crash + restart of secondary `i`, running the §3.3
  // recovery protocol: the node recovers its durable state, then the
  // coordinator garbage collects the node's outstanding allocations by
  // polling. Returns the number of orphan objects deleted.
  Result<uint64_t> RestartSecondary(int i);

  // RPC statistics.
  uint64_t rpc_count() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return rpc_count_;
  }

 private:
  // One-way latency of an RPC between nodes, in seconds.
  static constexpr double kRpcLatency = 0.0005;

  // Models one RPC hop: both clocks advance to a common point plus
  // kRpcLatency.
  void RpcHop(NodeContext* from, NodeContext* to) EXCLUDES(mu_);

  SimEnvironment* env_;
  Options options_;
  std::unique_ptr<Database> coordinator_;
  std::vector<std::unique_ptr<Database>> secondaries_;
  // Guards the RPC counter only; the Databases serialize themselves.
  mutable Mutex mu_{lockrank::kMultiplex};
  uint64_t rpc_count_ GUARDED_BY(mu_) = 0;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_MULTIPLEX_MULTIPLEX_H_

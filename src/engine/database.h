#ifndef CLOUDIQ_ENGINE_DATABASE_H_
#define CLOUDIQ_ENGINE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/table_loader.h"
#include "columnar/table_reader.h"
#include "common/result.h"
#include "exec/executor.h"
#include "keygen/object_key_generator.h"
#include "ndp/ndp_protocol.h"
#include "ocm/object_cache_manager.h"
#include "sim/environment.h"
#include "snapshot/snapshot_manager.h"
#include "store/storage.h"
#include "store/system_store.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

class Session;

// Storage backing for the *user* dbspace — the experimental variable of
// the paper's first evaluation (Table 2/3/4).
enum class UserStorage {
  kObjectStore,  // cloud dbspace on S3-like storage (the paper's design)
  kEbs,          // conventional dbspace on an EBS gp2-like volume
  kEfs,          // conventional dbspace on an EFS-like volume
};

// The public face of CloudIQ on one compute node: wires the simulated
// cloud, the storage subsystem, the Object Key Generator, the buffer and
// transaction managers, optionally the OCM and the snapshot manager, and
// exposes dbspace/table/query/snapshot operations.
//
//   SimEnvironment cloud;                      // the simulated cloud
//   Database::Options opts;
//   opts.user_storage = UserStorage::kObjectStore;
//   Database db(&cloud, InstanceProfile::M5ad4xlarge(), opts);
//
//   Transaction* txn = db.Begin();
//   TableLoader loader = db.NewTableLoader(txn, schema);
//   loader.Append(batch); ...; loader.Finish(db.system());
//   db.Commit(txn);
//
// corresponds to the paper's
//   CREATE DBSPACE userdb USING OBJECT STORE "s3://bucket"
// followed by LOAD TABLE.
class Database {
 public:
  struct Options {
    UserStorage user_storage = UserStorage::kObjectStore;
    bool enable_ocm = true;
    uint64_t page_size = 512 * 1024;
    // Fraction of instance RAM given to the buffer manager (the paper
    // reserves 1/2 of RAM).
    double buffer_ram_fraction = 0.5;
    // Non-zero: absolute buffer capacity in bytes, overriding the
    // fraction. Benches use this to recreate the paper's regime where the
    // working set exceeds RAM at simulation-friendly scale factors.
    uint64_t buffer_capacity_override = 0;
    // User volume size (GB) when user_storage is a block volume.
    double user_volume_gb = 1024;
    double snapshot_retention_seconds = 7 * 24 * 3600;
    uint32_t blockmap_fanout = 256;
    NodeId node_id = 0;
    // Storage subsystem settings, page encryption (encrypt_pages) among
    // them.
    StorageSubsystem::Options storage;
    // Key-generation tuning (ablations sweep these).
    ObjectKeyGenerator::Options keygen;
    NodeKeyCache::Options key_cache;
    // OCM tuning (capacity fraction, brown-out re-routing).
    ObjectCacheManager::Options ocm;
    // Near-data processing: installs an NDP engine on the environment's
    // object store (idempotent across nodes sharing the environment) and
    // stamps query contexts with the mode, so eligible range scans can be
    // evaluated server-side (kAuto: ChoosePlan picks per scan).
    ndp::NdpMode ndp_mode = ndp::NdpMode::kOff;
    // Cost-intelligent planning (src/costopt/): a node-wide latency SLO
    // stamped onto every query context, which plans under
    // QueryContext::Options' policy. The workload engine overrides both
    // per tenant at dispatch time via QueryContext::SetCostConstraints.
    double cost_slo_seconds = 0;
    // Morsel-driven executor default stamped onto every query context
    // (src/exec/morsel.h): one worker runs morsels inline in order, more
    // drain them on exec_workers real threads. Either way the simulated
    // run is identical; only host wall time differs.
    int exec_workers = 1;
    // Reader node of a multiplex: modifications are rejected (§2).
    bool read_only = false;
    // Multiplex: name of the shared system-dbspace volume ("" = private
    // per-node EBS volume). Secondary nodes of a multiplex point at the
    // same EFS volume (§6, fourth experiment).
    std::string shared_system_volume;
  };

  Database(SimEnvironment* env, const InstanceProfile& profile,
           Options options);

  // --- transactions ---------------------------------------------------------
  Transaction* Begin() { return txn_mgr_->Begin(); }
  Status Commit(Transaction* txn) { return txn_mgr_->Commit(txn); }
  Status Rollback(Transaction* txn) { return txn_mgr_->Rollback(txn); }

  // --- tables ----------------------------------------------------------------
  TableLoader NewTableLoader(Transaction* txn, TableSchema schema) {
    return TableLoader(txn_mgr_.get(), txn, user_space_, std::move(schema));
  }
  Result<TableReader> OpenTable(Transaction* txn, uint64_t table_id) {
    CLOUDIQ_ASSIGN_OR_RETURN(TableMeta meta, TableMetaFor(table_id));
    return TableReader::Make(txn_mgr_.get(), txn, std::move(meta));
  }

  // Table metadata, cached after the first load from the system dbspace
  // (invalidated on recovery / attach / restore — whenever the durable
  // catalog may have moved under us).
  Result<TableMeta> TableMetaFor(uint64_t table_id);

  // A query context wired to this database, with metadata caching and a
  // cluster-unique query id drawn from the environment's cost ledger.
  // `tag` labels the query in the ledger / EXPLAIN / run report. Wrap
  // execution + commit in a ScopedQueryAttribution to actually charge
  // storage work to the query.
  QueryContext NewQueryContext(Transaction* txn,
                               const std::string& tag = std::string()) {
    QueryContext::Options qopts;
    qopts.ndp_mode = options_.ndp_mode;
    qopts.slo_seconds = options_.cost_slo_seconds;
    qopts.exec_workers = options_.exec_workers;
    QueryContext ctx(txn_mgr_.get(), txn, &system_, qopts);
    ctx.set_meta_provider(
        [this](uint64_t table_id) { return TableMetaFor(table_id); });
    ctx.SetAttribution(env_->telemetry().ledger().NextQueryId(), tag);
    return ctx;
  }

  // Re-points the worker count stamped by NewQueryContext. The scale-up
  // bench sweeps worker counts over one loaded database instead of
  // reloading per configuration.
  void SetExecWorkers(int workers) { options_.exec_workers = workers; }

  // A tenant-scoped session on this node (defined in engine/session.h):
  // queries opened through it are registered under `tenant` in the
  // cluster ledger, feeding the per-tenant rollups of the run report and
  // the workload engine's budget/fair-share accounting.
  Session OpenSession(std::string tenant);

  // --- snapshots (§5) ---------------------------------------------------------
  // Takes a near-instantaneous snapshot (applies the key-cache barrier).
  Result<SnapshotManager::SnapshotInfo> TakeSnapshot();
  // Point-in-time restore + catalog reopen.
  Status RestoreSnapshot(uint64_t snapshot_id);

  // --- fault simulation --------------------------------------------------------
  // Crashes and recovers this node: volatile state dropped, durable state
  // reloaded, and this node's outstanding key allocations garbage
  // collected by polling (the §3.3 writer-restart protocol).
  Status CrashAndRecover();

  // --- multiplex wiring --------------------------------------------------------
  // Replaces the local key-range source with a remote one (the
  // coordinator RPC of §3.2). The local ObjectKeyGenerator stops being
  // authoritative on this node.
  void UseRemoteKeyFetcher(NodeKeyCache::RangeFetcher fetcher);
  // Replaces the commit listener (secondaries notify the coordinator).
  void UseRemoteCommitListener(TransactionManager::CommitListener listener) {
    txn_mgr_->set_commit_listener(std::move(listener));
  }
  // Re-reads the shared system dbspace so this node sees catalogs
  // committed by other multiplex nodes.
  Status AttachSharedCatalog();

  // --- maintenance -----------------------------------------------------------
  Status Checkpoint();
  Status RunGarbageCollection() { return txn_mgr_->RunGarbageCollection(); }

  // --- accessors ---------------------------------------------------------------
  SimEnvironment& env() { return *env_; }
  NodeContext& node() { return *node_; }
  SystemStore* system() { return &system_; }
  StorageSubsystem& storage() { return *storage_; }
  TransactionManager& txn_mgr() { return *txn_mgr_; }
  ObjectKeyGenerator& keygen() { return keygen_; }
  NodeKeyCache& key_cache() { return *key_cache_; }
  ObjectCacheManager* ocm() { return ocm_.get(); }
  SnapshotManager* snapshot_mgr() { return snapshot_mgr_.get(); }
  DbSpace* user_space() { return user_space_; }
  const Options& options() const { return options_; }

  // Bytes at rest in the *user* dbspace (for the Table 4 cost figures).
  uint64_t UserBytesAtRest() const;

 private:
  // Rebuilds the Object Key Generator from its checkpoint plus the
  // transaction log; optionally runs the writer-restart active-set GC.
  Status RecoverKeygen(bool collect_active_sets);

  SimEnvironment* env_;
  Options options_;
  NodeContext* node_;
  SimBlockVolume* system_volume_;
  SimBlockVolume* user_volume_ = nullptr;
  SystemStore system_;
  std::unique_ptr<StorageSubsystem> storage_;
  ObjectKeyGenerator keygen_;
  std::unique_ptr<NodeKeyCache> key_cache_;
  std::unique_ptr<ObjectCacheManager> ocm_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  std::unique_ptr<SnapshotManager> snapshot_mgr_;
  DbSpace* user_space_ = nullptr;
  std::map<uint64_t, TableMeta> table_meta_cache_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_ENGINE_DATABASE_H_

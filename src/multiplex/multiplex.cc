#include "multiplex/multiplex.h"

#include <algorithm>

namespace cloudiq {

Multiplex::Multiplex(SimEnvironment* env, int secondary_count,
                     Options options)
    : env_(env), options_(options) {
  Database::Options coord_options = options.db;
  coord_options.node_id = 0;
  coord_options.shared_system_volume = "multiplex-system";
  // The coordinator is a small instance with no instance SSD — no OCM.
  coord_options.enable_ocm =
      options.coordinator_profile.ssd_gb > 0 && options.db.enable_ocm;
  coordinator_ = std::make_unique<Database>(
      env, options.coordinator_profile, coord_options);

  for (int i = 0; i < secondary_count; ++i) {
    Database::Options sec_options = options.db;
    sec_options.node_id = static_cast<NodeId>(i + 1);
    sec_options.shared_system_volume = "multiplex-system";
    if (options.writer_count >= 0 && i >= options.writer_count) {
      sec_options.read_only = true;
    }
    auto secondary = std::make_unique<Database>(
        env, options.secondary_profile, sec_options);

    // Key ranges come from the coordinator via RPC (§3.2). The
    // allocation itself is a transaction on the coordinator: it logs the
    // event before the response returns.
    Database* coord = coordinator_.get();
    Database* sec = secondary.get();
    NodeId node_id = sec_options.node_id;
    secondary->UseRemoteKeyFetcher(
        [this, coord, sec, node_id](uint64_t size, double) {
          Telemetry& telemetry = env_->telemetry();
          SimTime fetch_start = sec->node().clock().now();
          RpcHop(&sec->node(), &coord->node());
          KeyRange range = coord->keygen().AllocateRange(node_id, size);
          TxnLogRecord rec;
          rec.type = TxnLogRecord::Type::kKeygenAllocate;
          rec.node = node_id;
          rec.range_begin = range.begin;
          rec.range_end = range.end;
          SimTime done = coord->node().clock().now();
          (void)coord->txn_mgr().log().Append(
              rec, coord->node().clock().now(), &done);
          coord->node().clock().AdvanceTo(done);
          RpcHop(&coord->node(), &sec->node());
          telemetry.stats().counter("keygen.remote_fetches").Add(1);
          telemetry.stats()
              .histogram("keygen.fetch")
              .Record(sec->node().clock().now() - fetch_start);
          if (telemetry.tracer().enabled()) {
            telemetry.tracer().CompleteSpan(
                sec->node().trace_pid(), kTrackKeygen, "keygen",
                "fetch range (" + std::to_string(size) + " keys)",
                fetch_start, sec->node().clock().now());
          }
          return range;
        });
    secondary->UseRemoteCommitListener(
        [this, coord, sec](NodeId node, const IntervalSet& keys) {
          Telemetry& telemetry = env_->telemetry();
          SimTime notify_start = sec->node().clock().now();
          RpcHop(&sec->node(), &coord->node());
          coord->keygen().OnTransactionCommitted(node, keys);
          TxnLogRecord rec;
          rec.type = TxnLogRecord::Type::kKeygenCommit;
          rec.node = node;
          rec.committed_keys = keys;
          SimTime done = coord->node().clock().now();
          (void)coord->txn_mgr().log().Append(
              rec, coord->node().clock().now(), &done);
          coord->node().clock().AdvanceTo(done);
          RpcHop(&coord->node(), &sec->node());
          telemetry.stats().counter("keygen.commit_notifies").Add(1);
          if (telemetry.tracer().enabled()) {
            telemetry.tracer().CompleteSpan(
                sec->node().trace_pid(), kTrackKeygen, "keygen",
                "commit notify", notify_start, sec->node().clock().now());
          }
        });
    secondaries_.push_back(std::move(secondary));
  }
}

void Multiplex::RpcHop(NodeContext* from, NodeContext* to) {
  {
    MutexLock lock(&mu_);
    ++rpc_count_;
  }
  SimTime t = std::max(from->clock().now(), to->clock().now()) +
              kRpcLatency;
  from->clock().AdvanceTo(t);
  to->clock().AdvanceTo(t);
}

Status Multiplex::SyncCatalogs() {
  for (auto& secondary : secondaries_) {
    CLOUDIQ_RETURN_IF_ERROR(secondary->AttachSharedCatalog());
  }
  return Status::Ok();
}

Result<uint64_t> Multiplex::RestartSecondary(int i) {
  Database& secondary = *secondaries_[i];
  NodeId node_id = static_cast<NodeId>(i + 1);

  // The node's volatile state dies with it.
  secondary.txn_mgr().SimulateCrash();
  CLOUDIQ_RETURN_IF_ERROR(secondary.txn_mgr().RecoverAfterCrash());
  secondary.key_cache().DiscardCachedRange();

  // On restart the node RPCs into the coordinator to initiate garbage
  // collection of its outstanding allocations (§3.3): every key in its
  // active set is polled, and objects that exist are deleted. Deletes are
  // idempotent, so ranges already collected by a rollback are re-polled
  // harmlessly.
  RpcHop(&secondary.node(), &coordinator_->node());
  IntervalSet to_poll =
      coordinator_->keygen().TakeActiveSetForRecovery(node_id);
  uint64_t collected = 0;
  NodeContext& cnode = coordinator_->node();
  ObjectStoreIo& io = coordinator_->storage().object_io();
  for (uint64_t key : to_poll.Values()) {
    SimTime done = cnode.clock().now();
    if (io.Exists(key, cnode.clock().now(), &done)) {
      cnode.clock().AdvanceTo(done);
      CLOUDIQ_RETURN_IF_ERROR(io.Delete(key, cnode.clock().now(), &done));
      ++collected;
    }
    cnode.clock().AdvanceTo(done);
  }
  RpcHop(&coordinator_->node(), &secondary.node());
  return collected;
}

}  // namespace cloudiq

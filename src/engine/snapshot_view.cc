#include "engine/snapshot_view.h"

namespace cloudiq {

SnapshotView::SnapshotView(Database* db,
                           SnapshotManager::SnapshotInfo info)
    : db_(db), info_(info) {}

SnapshotView::~SnapshotView() {
  if (txn_ != nullptr) {
    (void)db_->Commit(txn_);
  }
}

Result<std::unique_ptr<SnapshotView>> SnapshotView::Open(
    Database* db, uint64_t snapshot_id) {
  if (db->options().user_storage != UserStorage::kObjectStore) {
    return Status::NotSupported(
        "snapshot views require a cloud user dbspace: conventional "
        "dbspaces reuse freed blocks, so historical locations are not "
        "stable");
  }
  CLOUDIQ_ASSIGN_OR_RETURN(SnapshotManager::SnapshotImage image,
                           db->snapshot_mgr()->GetImage(snapshot_id));
  if (image.volumes.empty()) {
    return Status::Corruption("snapshot has no system-dbspace image");
  }

  // NOLINT(cloudiq-raw-new): the constructor is private (factory-only
  // type), so make_unique cannot reach it; ownership transfers to the
  // unique_ptr in the same expression.
  auto view = std::unique_ptr<SnapshotView>(
      new SnapshotView(db, image.info));
  // Reconstruct the system dbspace as of the snapshot on a scratch
  // volume. This is an in-memory copy; it costs no simulated I/O beyond
  // what GetImage's backup download already accounted.
  view->image_volume_ = std::make_unique<SimBlockVolume>(
      BlockVolumeOptions::EbsGp2(/*size_gb=*/100));
  view->image_volume_->RestoreRuns(std::move(image.volumes[0]));
  view->image_system_ =
      std::make_unique<SystemStore>(view->image_volume_.get());
  SimTime done = db->node().clock().now();
  CLOUDIQ_RETURN_IF_ERROR(
      view->image_system_->Open(db->node().clock().now(), &done));
  db->node().clock().AdvanceTo(done);

  CLOUDIQ_ASSIGN_OR_RETURN(
      view->catalog_,
      IdentityCatalog::Load(view->image_system_.get(), "catalog",
                            db->node().clock().now(), &done));
  db->node().clock().AdvanceTo(done);

  // Pin a read transaction and point its snapshot at the historical
  // catalog: every OpenForRead now resolves to the page versions the
  // snapshot captured — all still present on the object store thanks to
  // retention-deferred deletion.
  view->txn_ = db->Begin();
  view->txn_->snapshot = view->catalog_;
  return view;
}

Result<TableReader> SnapshotView::OpenTable(uint64_t table_id) {
  SimTime done = db_->node().clock().now();
  CLOUDIQ_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      image_system_->Get("tablemeta/" + std::to_string(table_id),
                         db_->node().clock().now(), &done));
  db_->node().clock().AdvanceTo(done);
  CLOUDIQ_ASSIGN_OR_RETURN(TableMeta meta, TableMeta::Deserialize(bytes));
  return TableReader::Make(&db_->txn_mgr(), txn_, std::move(meta));
}

QueryContext SnapshotView::NewQueryContext() {
  QueryContext ctx(&db_->txn_mgr(), txn_, image_system_.get());
  ctx.set_meta_provider([this](uint64_t table_id) -> Result<TableMeta> {
    SimTime done = db_->node().clock().now();
    CLOUDIQ_ASSIGN_OR_RETURN(
        std::vector<uint8_t> bytes,
        image_system_->Get("tablemeta/" + std::to_string(table_id),
                           db_->node().clock().now(), &done));
    db_->node().clock().AdvanceTo(done);
    return TableMeta::Deserialize(bytes);
  });
  return ctx;
}

}  // namespace cloudiq

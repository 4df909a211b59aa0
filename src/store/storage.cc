#include "store/storage.h"

#include <cassert>

#include "store/page_codec.h"

namespace cloudiq {
namespace {

// Cheap deterministic keystream for the encryption pass-through (§4): the
// simulation stands in for AES-CTR; the property under test is that bytes
// at rest (OCM disk and object store) never equal the plaintext frame.
void XorKeystream(std::vector<uint8_t>& data, uint64_t seed, uint64_t key) {
  uint64_t state = seed ^ (key * 0x9e3779b97f4a7c15ULL);
  uint64_t word = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (i % 8 == 0) {
      state += 0x9e3779b97f4a7c15ULL;
      word = state;
      word = (word ^ (word >> 30)) * 0xbf58476d1ce4e5b9ULL;
      word = (word ^ (word >> 27)) * 0x94d049bb133111ebULL;
      word ^= word >> 31;
    }
    data[i] ^= static_cast<uint8_t>(word >> ((i % 8) * 8));
  }
}

}  // namespace

StorageSubsystem::StorageSubsystem(NodeContext* node, SimObjectStore* store,
                                   Options options)
    : node_(node),
      options_(options),
      object_io_(store, &node->nic(), options.object_io) {
  object_io_.set_telemetry(&node->telemetry(), node->trace_pid());
}

DbSpace* StorageSubsystem::CreateBlockDbSpace(const std::string& name,
                                              SimBlockVolume* volume,
                                              uint64_t page_size) {
  auto space = std::make_unique<DbSpace>();
  space->id = next_dbspace_id_++;
  space->name = name;
  space->type = DbSpace::Type::kBlock;
  space->page_size = page_size;
  space->volume = volume;
  DbSpace* ptr = space.get();
  dbspaces_[space->id] = std::move(space);
  return ptr;
}

DbSpace* StorageSubsystem::CreateCloudDbSpace(const std::string& name,
                                              uint64_t page_size) {
  auto space = std::make_unique<DbSpace>();
  space->id = next_dbspace_id_++;
  space->name = name;
  space->type = DbSpace::Type::kCloud;
  space->page_size = page_size;
  DbSpace* ptr = space.get();
  dbspaces_[space->id] = std::move(space);
  return ptr;
}

DbSpace* StorageSubsystem::FindDbSpace(const std::string& name) {
  for (auto& [id, space] : dbspaces_) {
    if (space->name == name) return space.get();
  }
  return nullptr;
}

DbSpace* StorageSubsystem::dbspace(uint32_t id) {
  auto it = dbspaces_.find(id);
  return it == dbspaces_.end() ? nullptr : it->second.get();
}

std::vector<uint8_t> StorageSubsystem::MaybeEncrypt(
    std::vector<uint8_t> frame, uint64_t key) const {
  if (options_.encrypt_pages) {
    XorKeystream(frame, options_.encryption_seed, key);
  }
  return frame;
}

Result<StorageSubsystem::PreparedWrite> StorageSubsystem::PrepareWrite(
    DbSpace* space, const std::vector<uint8_t>& payload,
    CloudCache::WriteMode mode, uint64_t txn_id) {
  // The frame is what a page holds, so it must fit the page: on a block
  // dbspace a larger one would need more blocks than a location counts.
  if (EncodedPageSize(payload) > space->page_size) {
    return Status::InvalidArgument("framed payload exceeds page size");
  }
  std::vector<uint8_t> frame = EncodePage(payload);

  PreparedWrite prepared;
  prepared.status = std::make_shared<Status>();
  prepared.frame_bytes = frame.size();
  stats_.raw_bytes_written += payload.size();
  stats_.bytes_written += frame.size();
  ++stats_.pages_written;

  if (space->is_cloud()) {
    assert(key_source_ && "cloud dbspace requires a key source");
    // "Never write an object twice": every flush gets a fresh key, even a
    // re-flush of the same logical page within one transaction (§3.1).
    uint64_t key = key_source_(node_->clock().now());
    if (options_.never_write_twice) {
      bool inserted = written_keys_.insert(key).second;
      if (!inserted) {
        return Status::AlreadyExists(
            "object key handed out twice; key generator violated "
            "uniqueness");
      }
    }
    prepared.loc = PhysicalLoc::ForCloudKey(key);
    std::vector<uint8_t> stored = MaybeEncrypt(std::move(frame), key);

    CloudCache* cache = cloud_cache_;
    ObjectStoreIo* io = &object_io_;
    auto status = prepared.status;
    prepared.op = [cache, io, key, mode, txn_id,
                   stored = std::move(stored), status](SimTime start) {
      SimTime done = start;
      if (cache != nullptr) {
        *status = cache->Write(key, stored, mode, txn_id, start, &done);
      } else {
        *status = io->Put(key, stored, start, &done);
      }
      return done;
    };
  } else {
    uint32_t block_count = static_cast<uint32_t>(
        (frame.size() + space->block_size() - 1) / space->block_size());
    if (block_count == 0) block_count = 1;
    uint64_t first_block = space->freelist.AllocateRun(block_count);
    prepared.loc = PhysicalLoc::ForBlocks(first_block, block_count);

    SimBlockVolume* volume = space->volume;
    auto status = prepared.status;
    prepared.op = [volume, first_block, frame = std::move(frame),
                   status](SimTime start) {
      SimTime done = start;
      *status = volume->Write(first_block, frame, start, &done);
      return done;
    };
  }
  return prepared;
}

Result<PhysicalLoc> StorageSubsystem::WritePage(
    DbSpace* space, const std::vector<uint8_t>& payload,
    CloudCache::WriteMode mode, uint64_t txn_id) {
  CLOUDIQ_ASSIGN_OR_RETURN(PreparedWrite prepared,
                           PrepareWrite(space, payload, mode, txn_id));
  node_->io().RunOne(prepared.op);
  if (!prepared.status->ok()) return *prepared.status;
  return prepared.loc;
}

IoScheduler::Op StorageSubsystem::MakeReadOp(DbSpace* space, PhysicalLoc loc,
                                             std::shared_ptr<ReadSlot> out) {
  ++stats_.pages_read;
  // Branch on the *location*, not the dbspace: a page set may carry
  // locations from several dbspaces, and the location encoding is
  // authoritative (§3.1: representation distinguished by numeric range).
  if (loc.is_cloud()) {
    uint64_t key = loc.cloud_key();
    CloudCache* cache = cloud_cache_;
    ObjectStoreIo* io = &object_io_;
    bool encrypted = options_.encrypt_pages;
    uint64_t seed = options_.encryption_seed;
    Stats* stats = &stats_;
    return [cache, io, key, encrypted, seed, out, stats](SimTime start) {
      SimTime done = start;
      Result<std::vector<uint8_t>> frame =
          cache != nullptr ? cache->Read(key, start, &done)
                           : io->Get(key, start, &done);
      if (!frame.ok()) {
        out->status = frame.status();
        return done;
      }
      std::vector<uint8_t> bytes = std::move(frame).value();
      if (encrypted) XorKeystream(bytes, seed, key);
      Result<std::vector<uint8_t>> payload = DecodePage(bytes);
      if (!payload.ok()) {
        out->status = payload.status();
        return done;
      }
      stats->bytes_read += bytes.size();
      out->status = Status::Ok();
      out->payload = std::move(payload).value();
      return done;
    };
  }
  SimBlockVolume* volume = space->volume;
  uint64_t first_block = loc.first_block();
  Stats* stats = &stats_;
  return [volume, first_block, out, stats](SimTime start) {
    SimTime done = start;
    Result<std::vector<uint8_t>> frame =
        volume->Read(first_block, start, &done);
    if (!frame.ok()) {
      out->status = frame.status();
      return done;
    }
    Result<std::vector<uint8_t>> payload = DecodePage(frame.value());
    if (!payload.ok()) {
      out->status = payload.status();
      return done;
    }
    stats->bytes_read += frame.value().size();
    out->status = Status::Ok();
    out->payload = std::move(payload).value();
    return done;
  };
}

Result<std::vector<uint8_t>> StorageSubsystem::ReadPage(DbSpace* space,
                                                        PhysicalLoc loc) {
  auto slot = std::make_shared<ReadSlot>();
  IoScheduler::Op op = MakeReadOp(space, loc, slot);
  node_->io().RunOne(op);
  if (!slot->status.ok()) return slot->status;
  return std::move(slot->payload);
}

std::vector<DbSpace*> StorageSubsystem::AllDbSpaces() {
  std::vector<DbSpace*> spaces;
  spaces.reserve(dbspaces_.size());
  for (auto& [id, space] : dbspaces_) spaces.push_back(space.get());
  return spaces;
}

Status StorageSubsystem::DeletePage(DbSpace* space, PhysicalLoc loc,
                                    bool defer_allowed) {
  ++stats_.pages_deleted;
  if (loc.is_cloud()) {
    uint64_t key = loc.cloud_key();
    if (defer_allowed && delete_interceptor_ &&
        delete_interceptor_(key)) {
      // Ownership transferred to the snapshot manager (§5): the page
      // outlives its MVCC version until the retention period expires.
      return Status::Ok();
    }
    if (cloud_cache_ != nullptr) cloud_cache_->Erase(key);
    SimTime done = 0;
    return object_io_.Delete(key, node_->clock().now(), &done);
  }
  space->freelist.FreeRun(loc.first_block(), loc.block_count());
  SimTime done = 0;
  return space->volume->Free(loc.first_block(), node_->clock().now(),
                             &done);
}

Status StorageSubsystem::FlushForCommit(uint64_t txn_id) {
  if (cloud_cache_ == nullptr) return Status::Ok();
  SimTime done = 0;
  Status st =
      cloud_cache_->FlushForCommit(txn_id, node_->clock().now(), &done);
  node_->clock().AdvanceTo(done);
  return st;
}

Status StorageSubsystem::OverwriteCloudPage(
    DbSpace* space, PhysicalLoc loc, const std::vector<uint8_t>& payload) {
  if (options_.never_write_twice) {
    return Status::FailedPrecondition(
        "never-write-twice policy forbids in-place object updates");
  }
  if (!space->is_cloud() || !loc.is_cloud()) {
    return Status::InvalidArgument("OverwriteCloudPage needs a cloud page");
  }
  std::vector<uint8_t> frame =
      MaybeEncrypt(EncodePage(payload), loc.cloud_key());
  SimTime done = 0;
  return object_io_.Put(loc.cloud_key(), frame, node_->clock().now(), &done);
}

}  // namespace cloudiq

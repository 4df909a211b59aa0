#include "blockmap/identity.h"

#include "common/coding.h"

namespace cloudiq {

std::vector<uint8_t> IdentityObject::Serialize() const {
  std::vector<uint8_t> bytes;
  PutU64(bytes, object_id);
  PutU32(bytes, dbspace_id);
  PutU64(bytes, root.encoded());
  PutU64(bytes, page_count);
  PutU64(bytes, version);
  return bytes;
}

Result<IdentityObject> IdentityObject::Deserialize(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() != kSerializedSize) {
    return Status::Corruption("identity object size");
  }
  ByteReader reader(bytes);
  IdentityObject id;
  id.object_id = reader.GetU64();
  id.dbspace_id = reader.GetU32();
  id.root = PhysicalLoc::FromEncoded(reader.GetU64());
  id.page_count = reader.GetU64();
  id.version = reader.GetU64();
  return id;
}

Result<IdentityObject> IdentityCatalog::Get(uint64_t object_id) const {
  auto it = identities_.find(object_id);
  if (it == identities_.end()) {
    return Status::NotFound("identity " + std::to_string(object_id));
  }
  return it->second;
}

void IdentityCatalog::Put(const IdentityObject& identity) {
  identities_[identity.object_id] = identity;
}

void IdentityCatalog::Remove(uint64_t object_id) {
  identities_.erase(object_id);
}

std::vector<uint8_t> IdentityCatalog::Serialize() const {
  std::vector<uint8_t> bytes;
  PutU64(bytes, identities_.size());
  for (const auto& [id, identity] : identities_) {
    std::vector<uint8_t> entry = identity.Serialize();
    PutU64(bytes, entry.size());
    PutBytes(bytes, entry.data(), entry.size());
  }
  return bytes;
}

Result<IdentityCatalog> IdentityCatalog::Deserialize(
    const std::vector<uint8_t>& bytes) {
  IdentityCatalog catalog;
  ByteReader reader(bytes);
  uint64_t n = reader.GetU64();
  // Every entry is a u64 length plus the fixed-size object.
  constexpr size_t kEntrySize = 8 + IdentityObject::kSerializedSize;
  if (reader.overflow() || n > reader.remaining() / kEntrySize) {
    return Status::Corruption("identity catalog count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<uint8_t> entry = reader.GetBytes(reader.GetU64());
    CLOUDIQ_ASSIGN_OR_RETURN(IdentityObject identity,
                             IdentityObject::Deserialize(entry));
    catalog.identities_[identity.object_id] = identity;
  }
  return catalog;
}

Status IdentityCatalog::Persist(SystemStore* store, const std::string& name,
                                SimTime now, SimTime* completion) const {
  return store->Put(name, Serialize(), now, completion);
}

Result<IdentityCatalog> IdentityCatalog::Load(SystemStore* store,
                                              const std::string& name,
                                              SimTime now,
                                              SimTime* completion) {
  CLOUDIQ_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                           store->Get(name, now, completion));
  return Deserialize(bytes);
}

}  // namespace cloudiq

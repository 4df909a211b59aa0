#include "txn/page_set.h"

#include "common/coding.h"

namespace cloudiq {

void PageSet::Add(uint32_t dbspace_id, PhysicalLoc loc) {
  if (!loc.valid()) return;
  if (loc.is_cloud()) {
    cloud_keys_.Insert(loc.cloud_key());
  } else {
    block_locs_.emplace_back(dbspace_id, loc);
  }
}

Bitmap PageSet::BlockBitmap(uint32_t dbspace_id) const {
  Bitmap bm;
  for (const auto& [space, loc] : block_locs_) {
    if (space != dbspace_id) continue;
    bm.SetRange(loc.first_block(), loc.first_block() + loc.block_count());
  }
  return bm;
}

std::vector<uint8_t> PageSet::Serialize() const {
  std::vector<uint8_t> out;
  std::vector<uint8_t> cloud = cloud_keys_.Serialize();
  PutU64(out, cloud.size());
  PutBytes(out, cloud.data(), cloud.size());
  PutU64(out, block_locs_.size());
  for (const auto& [space, loc] : block_locs_) {
    PutU32(out, space);
    PutU64(out, loc.encoded());
  }
  return out;
}

Result<PageSet> PageSet::Deserialize(const uint8_t* data, size_t size) {
  PageSet set;
  ByteReader reader(data, size);
  uint64_t cloud_len = reader.GetU64();
  const uint8_t* cloud = reader.Skip(cloud_len);
  if (cloud == nullptr) return Status::Corruption("page set: cloud keys");
  CLOUDIQ_ASSIGN_OR_RETURN(set.cloud_keys_,
                           IntervalSet::Deserialize(cloud, cloud_len));
  uint64_t n = reader.GetU64();
  // Each block entry is a u32 dbspace id and a u64 location: a count the
  // remaining bytes cannot hold is corrupt, not a loop bound.
  if (reader.overflow() || n > reader.remaining() / 12) {
    return Status::Corruption("page set: block count");
  }
  set.block_locs_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t space = reader.GetU32();
    uint64_t encoded = reader.GetU64();
    set.block_locs_.emplace_back(space, PhysicalLoc::FromEncoded(encoded));
  }
  return set;
}

}  // namespace cloudiq

#ifndef CLOUDIQ_TXN_PAGE_SET_H_
#define CLOUDIQ_TXN_PAGE_SET_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/bitmap.h"
#include "common/interval_set.h"
#include "common/result.h"
#include "store/physical_loc.h"

namespace cloudiq {

// One of a transaction's roll-forward / roll-back page sets (§3.3).
//
// The RB set records the pages a transaction *allocated*; the RF set
// records the pages it *marked for deletion* (superseded versions). As in
// the paper, conventional pages are recorded as block-range bits in a
// per-dbspace bitmap while cloud pages — whose keys live in [2^63, 2^64) —
// are recorded as key ranges; the representation is distinguished purely
// by the numeric range, and the monotonic key generator keeps the cloud
// half compactly representable as intervals.
class PageSet {
 public:
  PageSet() = default;

  void Add(uint32_t dbspace_id, PhysicalLoc loc);

  bool empty() const { return cloud_keys_.empty() && block_locs_.empty(); }
  uint64_t page_count() const {
    return cloud_keys_.Count() + block_locs_.size();
  }

  // Cloud pages, as key intervals.
  const IntervalSet& cloud_keys() const { return cloud_keys_; }

  // Conventional pages, as (dbspace, location) pairs — the information
  // needed to clear freelist bits and free volume runs.
  const std::vector<std::pair<uint32_t, PhysicalLoc>>& block_locs() const {
    return block_locs_;
  }

  // Block bitmap for one dbspace (bit set for every block of every run),
  // as crash recovery applies these to the checkpointed freelist.
  Bitmap BlockBitmap(uint32_t dbspace_id) const;

  std::vector<uint8_t> Serialize() const;
  // Corruption when the cloud keys do not decode or the block count
  // exceeds what the bytes hold.
  static Result<PageSet> Deserialize(const uint8_t* data, size_t size);

  bool operator==(const PageSet& o) const {
    return cloud_keys_ == o.cloud_keys_ && block_locs_ == o.block_locs_;
  }

 private:
  IntervalSet cloud_keys_;
  std::vector<std::pair<uint32_t, PhysicalLoc>> block_locs_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_TXN_PAGE_SET_H_

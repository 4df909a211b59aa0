#ifndef CLOUDIQ_STORE_FREELIST_H_
#define CLOUDIQ_STORE_FREELIST_H_

#include <cstdint>
#include <vector>

#include "common/bitmap.h"

namespace cloudiq {

// Block allocator for conventional dbspaces: a bitmap with one bit per
// block — set means in use (§2 of the paper). Cloud dbspaces have *no*
// freelist: "the notion of free blocks does not apply"; pages there are
// addressed by freshly generated object keys. The shrunken system-dbspace
// freelist is what makes cloud snapshots near-instantaneous (§5).
class Freelist {
 public:
  Freelist() = default;

  // Allocates a contiguous run of `block_count` clear blocks and marks them
  // used. Returns the first block number.
  uint64_t AllocateRun(uint32_t block_count);

  // Releases a run previously returned by AllocateRun.
  void FreeRun(uint64_t first_block, uint32_t block_count);

  // Marks a run used without searching — used when crash recovery replays
  // RB bitmaps onto the checkpointed freelist.
  void MarkUsed(uint64_t first_block, uint32_t block_count);

  bool IsUsed(uint64_t block) const { return bitmap_.Test(block); }
  uint64_t UsedBlocks() const { return bitmap_.CountSet(); }

  // Serialized size is what a checkpoint must write; on cloud-only
  // databases this stays tiny, which §5 exploits.
  std::vector<uint8_t> Serialize() const { return bitmap_.Serialize(); }
  // Corruption when the bitmap frame is (see Bitmap::Deserialize).
  static Result<Freelist> Deserialize(const std::vector<uint8_t>& bytes) {
    Freelist fl;
    CLOUDIQ_ASSIGN_OR_RETURN(fl.bitmap_, Bitmap::Deserialize(bytes));
    return fl;
  }

  const Bitmap& bitmap() const { return bitmap_; }
  Bitmap* mutable_bitmap() { return &bitmap_; }

 private:
  Bitmap bitmap_;
  uint64_t alloc_cursor_ = 0;  // next-fit search start
};

}  // namespace cloudiq

#endif  // CLOUDIQ_STORE_FREELIST_H_

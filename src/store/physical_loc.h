#ifndef CLOUDIQ_STORE_PHYSICAL_LOC_H_
#define CLOUDIQ_STORE_PHYSICAL_LOC_H_

#include <cstdint>
#include <string>

namespace cloudiq {

// Object keys live in [2^63, 2^64); physical block numbers below 2^48.
// This split lets one 64-bit field — the blockmap's existing physical
// block number — address both conventional and cloud dbspaces with no file
// format change (§3.1 of the paper).
inline constexpr uint64_t kCloudKeyBase = uint64_t{1} << 63;
inline constexpr uint64_t kMaxBlockNumber = (uint64_t{1} << 48) - 1;

// Maximum blocks per page: a page is stored as 1–16 contiguous blocks
// (block size = page size / 16), depending on its stored frame size.
inline constexpr uint32_t kBlocksPerPage = 16;

// Physical address of a stored page: either a (first block, block count)
// run on a conventional dbspace, or an object key on a cloud dbspace.
// Encoded in a single 64-bit integer exactly as SAP IQ overloads the
// blockmap field:
//   [2^63, 2^64)          -> object key
//   bits 48..51           -> block count - 1
//   bits 0..47            -> first block number
class PhysicalLoc {
 public:
  PhysicalLoc() : encoded_(kInvalid) {}

  static PhysicalLoc ForCloudKey(uint64_t key) {
    PhysicalLoc loc;
    loc.encoded_ = key;
    return loc;
  }

  static PhysicalLoc ForBlocks(uint64_t first_block, uint32_t block_count) {
    PhysicalLoc loc;
    loc.encoded_ =
        first_block | (uint64_t{block_count - 1} << 48);
    return loc;
  }

  static PhysicalLoc FromEncoded(uint64_t encoded) {
    PhysicalLoc loc;
    loc.encoded_ = encoded;
    return loc;
  }

  bool valid() const { return encoded_ != kInvalid; }
  bool is_cloud() const { return valid() && encoded_ >= kCloudKeyBase; }

  uint64_t cloud_key() const { return encoded_; }
  uint64_t first_block() const { return encoded_ & kMaxBlockNumber; }
  uint32_t block_count() const {
    return static_cast<uint32_t>((encoded_ >> 48) & 0xf) + 1;
  }

  uint64_t encoded() const { return encoded_; }

  std::string ToString() const;

  bool operator==(const PhysicalLoc& o) const {
    return encoded_ == o.encoded_;
  }

 private:
  // All-ones is not a representable location (block count nibble aside,
  // block number 2^48-1 with count 16 would collide only if keys reached
  // 2^64-1, which the generator never hands out).
  static constexpr uint64_t kInvalid = ~uint64_t{0};

  uint64_t encoded_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_STORE_PHYSICAL_LOC_H_

#ifndef CLOUDIQ_COMMON_BITMAP_H_
#define CLOUDIQ_COMMON_BITMAP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace cloudiq {

// Dense, dynamically sized bitmap.
//
// Used for the freelist (one bit per storage block: set = in use) and for
// the block-range halves of the roll-forward / roll-back bitmaps. The bitmap
// grows on demand when bits beyond the current size are set; reads beyond
// the end return false.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(uint64_t num_bits) { Resize(num_bits); }

  // Grows (never shrinks) to hold at least `num_bits` bits.
  void Resize(uint64_t num_bits);

  uint64_t size_bits() const { return num_bits_; }

  void Set(uint64_t bit);
  void Clear(uint64_t bit);
  bool Test(uint64_t bit) const;

  // Sets / clears bits [begin, end).
  void SetRange(uint64_t begin, uint64_t end);
  void ClearRange(uint64_t begin, uint64_t end);

  // Number of set bits.
  uint64_t CountSet() const;

  // First clear bit index at or after `from` such that bits
  // [result, result + run_length) are all clear. Grows the bitmap if the run
  // must extend past the current end. Used by the freelist allocator.
  uint64_t FindClearRun(uint64_t from, uint64_t run_length);

  // Indices of all set bits in ascending order.
  std::vector<uint64_t> SetBits() const;

  // Merges another bitmap: every bit set in `other` becomes set here.
  void UnionWith(const Bitmap& other);
  // Clears every bit that is set in `other`.
  void SubtractFrom(const Bitmap& other);

  // Flat serialization: [num_bits][words...]. Used when bitmaps are flushed
  // to the system dbspace at commit time. Deserialize returns Corruption
  // unless the frame is exactly 8 * (1 + ceil(num_bits / 64)) bytes and
  // sets no bit at or past num_bits.
  std::vector<uint8_t> Serialize() const;
  static Result<Bitmap> Deserialize(const std::vector<uint8_t>& bytes);

  bool operator==(const Bitmap& other) const;

 private:
  static constexpr uint64_t kWordBits = 64;

  uint64_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_BITMAP_H_

#ifndef CLOUDIQ_COMMON_DENSE_KEY_INDEX_H_
#define CLOUDIQ_COMMON_DENSE_KEY_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/key_hash.h"
#include "common/row_key_table.h"

namespace cloudiq {

// The smallest and largest of a set of int64 keys; empty when min > max.
struct IntKeySpan {
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  static IntKeySpan Of(std::span<const int64_t> keys) {
    IntKeySpan range;
    for (int64_t k : keys) {
      range.min = std::min(range.min, k);
      range.max = std::max(range.max, k);
    }
    return range;
  }
  bool empty() const { return min > max; }
  void Add(const IntKeySpan& other) {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
};

// Maps int64 keys within one IntKeySpan to dense ids 0, 1, 2, ... in
// first-insertion order through a flat array indexed by key - min: no
// hash, no probe loop, no key compare. Meant for keys whose range is
// small next to their count; see Fits.
class DenseKeyIndex {
 public:
  static constexpr uint32_t kNone = RowKeyTable::kNone;

  // Whether `rows` keys in `range` take the flat array: its span
  // (max - min, computed in uint64_t so it never overflows) is below
  // 64 slots per key plus 64 Ki slots of slack, which bounds the array at
  // 256 bytes per key plus 256 KiB.
  static bool Fits(const IntKeySpan& range, size_t rows) {
    if (range.empty()) return false;
    uint64_t span =
        static_cast<uint64_t>(range.max) - static_cast<uint64_t>(range.min);
    return span < kSlotsPerKey * static_cast<uint64_t>(rows) + kSlack;
  }

  // `range` must satisfy Fits.
  explicit DenseKeyIndex(const IntKeySpan& range)
      : min_(range.min),
        slots_(static_cast<uint64_t>(range.max) -
                   static_cast<uint64_t>(range.min) + 1,
               kNone) {}

  size_t size() const { return size_; }

  // The id of `key`, or kNone; keys outside the range are absent.
  uint32_t Find(int64_t key) const {
    uint64_t slot = Slot(key);
    return slot < slots_.size() ? slots_[slot] : kNone;
  }

  // Like Find, but a missing key is inserted with the next dense id
  // (size() before the call). `key` must lie in the range.
  uint32_t FindOrInsert(int64_t key, bool* inserted) {
    uint32_t& id = slots_[Slot(key)];
    *inserted = id == kNone;
    if (*inserted) id = static_cast<uint32_t>(size_++);
    return id;
  }

 private:
  static constexpr uint64_t kSlotsPerKey = 64;
  static constexpr uint64_t kSlack = 65536;

  uint64_t Slot(int64_t key) const {
    return static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
  }

  int64_t min_;
  std::vector<uint32_t> slots_;  // key - min -> id, kNone when absent
  size_t size_ = 0;
};

// int64 keys to dense ids in first-insertion order: a DenseKeyIndex when
// the keys' range fits it, else a RowKeyTable over their hashes that
// keeps each id's key for the equality check. Both kinds hand out the
// same ids for the same insertions.
class IntKeyIndex {
 public:
  static constexpr uint32_t kNone = RowKeyTable::kNone;

  // For `rows` keys, all in `range`. `capacity` presizes the hash table
  // (the expected number of distinct keys); the flat array is sized by
  // the range alone.
  IntKeyIndex(const IntKeySpan& range, size_t rows, size_t capacity = 0)
      : hashed_(DenseKeyIndex::Fits(range, rows) ? 0 : capacity) {
    if (DenseKeyIndex::Fits(range, rows)) dense_.emplace(range);
  }

  bool dense() const { return dense_.has_value(); }
  size_t size() const { return dense_ ? dense_->size() : keys_.size(); }

  uint32_t Find(int64_t key) const {
    if (dense_) return dense_->Find(key);
    return hashed_.Find(HashKey(key),
                        [&](uint32_t id) { return keys_[id] == key; });
  }

  uint32_t FindOrInsert(int64_t key, bool* inserted) {
    if (dense_) return dense_->FindOrInsert(key, inserted);
    uint32_t id = hashed_.FindOrInsert(
        HashKey(key), [&](uint32_t k) { return keys_[k] == key; }, inserted);
    if (*inserted) keys_.push_back(key);
    return id;
  }

 private:
  std::optional<DenseKeyIndex> dense_;
  RowKeyTable hashed_;         // used when dense_ is empty
  std::vector<int64_t> keys_;  // per id, hashed kind only
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_DENSE_KEY_INDEX_H_

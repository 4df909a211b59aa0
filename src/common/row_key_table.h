#ifndef CLOUDIQ_COMMON_ROW_KEY_TABLE_H_
#define CLOUDIQ_COMMON_ROW_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace cloudiq {

// Maps keys to dense ids 0, 1, 2, ... in first-insertion order: the rows
// of a join or grouping key, a column page's strings, a text column's
// tokens.
// Open addressing with linear probing over a power-of-two slot array kept
// at most half full; a slot holds the key's 64-bit hash and its id. The
// table stores no keys: callers keep a representative row per id and pass
// an `eq(id)` predicate that compares the probing row's key cells with
// that id's representative, so multi-column and string keys cost no key
// copy. `eq` runs only on a full 64-bit hash match. At most 2^32 - 1 keys.
class RowKeyTable {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  RowKeyTable() { Rehash(kMinCapacity); }
  // Sized so that `keys` keys insert without a rehash.
  explicit RowKeyTable(size_t keys) {
    size_t capacity = kMinCapacity;
    while (capacity < 2 * keys) capacity *= 2;
    Rehash(capacity);
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // The id of the key with `hash` for which `eq(id)` holds, or kNone.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.hash == hash && eq(s.id)) return s.id;
    }
  }

  // Like Find, but a missing key is inserted with the next dense id
  // (size() before the call). `*inserted` reports which happened.
  template <typename Eq>
  uint32_t FindOrInsert(uint64_t hash, Eq&& eq, bool* inserted) {
    if (2 * (size_ + 1) > slots_.size()) Rehash(2 * slots_.size());
    size_t i = hash & mask_;
    for (;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) break;
      if (s.hash == hash && eq(s.id)) {
        *inserted = false;
        return s.id;
      }
    }
    slots_[i] = Slot{hash, static_cast<uint32_t>(size_)};
    *inserted = true;
    return static_cast<uint32_t>(size_++);
  }

 private:
  static constexpr size_t kMinCapacity = 8;

  struct Slot {
    uint64_t hash;
    uint32_t id;  // kNone marks an empty slot
  };

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{0, kNone});
    mask_ = capacity - 1;
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      size_t i = s.hash & mask_;
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_ROW_KEY_TABLE_H_

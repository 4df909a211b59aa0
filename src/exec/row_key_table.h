#ifndef CLOUDIQ_EXEC_ROW_KEY_TABLE_H_
#define CLOUDIQ_EXEC_ROW_KEY_TABLE_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "columnar/value.h"

namespace cloudiq {

// --- typed key hashing -----------------------------------------------------
//
// Hashes of one key cell, by value. Int-family cells (INT64 / DATE /
// DECIMAL) hash as int64; strings hash their bytes in place; doubles hash
// by value with -0.0 folded to 0.0 and every NaN treated as one key, so
// that hash equality agrees with CellsEqual below.

// murmur3's 64-bit finalizer: a bijection, so distinct int64 keys never
// share a hash.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashKey(int64_t v) {
  return MixHash(static_cast<uint64_t>(v));
}

inline uint64_t HashKey(double v) {
  if (v == 0) v = 0;  // -0.0 == 0.0: one key
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixHash(bits);
}

inline uint64_t HashKey(const std::string& s) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = n * kMul;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w = 0;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  // The last 0..7 bytes, read with fixed-size loads (two overlapping
  // 4-byte words, or first / middle / last byte); the length is already
  // in `h`.
  uint64_t tail = 0;
  if (n >= 4) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    tail = lo | (uint64_t{hi} << 32);
  } else if (n > 0) {
    tail = uint64_t{static_cast<uint8_t>(p[0])} |
           uint64_t{static_cast<uint8_t>(p[n / 2])} << 8 |
           uint64_t{static_cast<uint8_t>(p[n - 1])} << 16;
  }
  return MixHash(h ^ tail);
}

// Folds the next cell's (already mixed) hash into a multi-column key
// hash.
inline uint64_t HashCombine(uint64_t h, uint64_t cell) {
  return (h ^ cell) * 0x9e3779b97f4a7c15ULL;
}

inline bool IsIntFamily(ColumnType type) {
  return type == ColumnType::kInt64 || type == ColumnType::kDate ||
         type == ColumnType::kDecimal;
}

// Typed key equality of rows `a` and `b` of `col`. Doubles compare by
// value (-0.0 equals 0.0) and all NaNs are one key, matching
// HashKey(double).
inline bool CellsEqual(const ColumnVector& col, size_t a, size_t b) {
  return VisitValues(col, [&](const auto& vals) {
    if constexpr (std::is_same_v<ElementOf<decltype(vals)>, double>) {
      double x = vals[a];
      double y = vals[b];
      return x == y || (std::isnan(x) && std::isnan(y));
    } else {
      return vals[a] == vals[b];
    }
  });
}

// --- the table -------------------------------------------------------------

// Maps row keys to dense ids 0, 1, 2, ... in first-insertion order.
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

#endif  // CLOUDIQ_EXEC_ROW_KEY_TABLE_H_

#ifndef CLOUDIQ_COMMON_KEY_HASH_H_
#define CLOUDIQ_COMMON_KEY_HASH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

namespace cloudiq {

// Typed key hashing: the hash of one key cell, by value. Int-family cells
// (INT64 / DATE / DECIMAL) hash as int64; strings hash their bytes in
// place; doubles hash by value with -0.0 folded to 0.0 and every NaN
// treated as one key, so that hash equality agrees with CellsEqual
// (exec/row_key_table.h). A dictionary-coded string column stores each
// entry's HashKey once (StringDict), so a coded cell hashes exactly as the
// plain string does.

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

// Hashes `n` bytes a 64-bit word at a time: each word is xored into the
// state, multiplied by an odd constant and xor-shifted, then the last
// 0..7 bytes and a murmur3 finish. Every step is a bijection of the
// state, so two inputs of one length that differ only inside one of
// their aligned 8-byte words (or only in the tail) never share a hash.
// String keys hash with it, and so does each page frame's payload
// (store/page_codec.h).
inline uint64_t HashBytes(const void* data, size_t n) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const char* p = static_cast<const char*>(data);
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

inline uint64_t HashKey(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

inline uint64_t HashKey(const std::string& s) {
  return HashKey(std::string_view(s));
}

// Folds the next cell's (already mixed) hash into a multi-column key
// hash.
inline uint64_t HashCombine(uint64_t h, uint64_t cell) {
  return (h ^ cell) * 0x9e3779b97f4a7c15ULL;
}

}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_KEY_HASH_H_

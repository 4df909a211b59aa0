#include "columnar/encoding.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>
#include <string_view>

#include "common/coding.h"
#include "common/key_hash.h"
#include "common/row_key_table.h"

namespace cloudiq {
namespace {

constexpr uint8_t kEncodingNBit = 1;
constexpr uint8_t kEncodingRawDouble = 2;
constexpr uint8_t kEncodingDictString = 3;
constexpr uint8_t kEncodingRawString = 4;
// Sorted runs (load order often is: orderkeys, dates): successive deltas
// are tiny even when the value range is wide, so delta + n-bit beats
// frame-of-reference.
constexpr uint8_t kEncodingDeltaNBit = 5;

// Distinct strings a page's dictionary table holds before its first
// rehash.
constexpr size_t kPresizedEntries = 512;

}  // namespace

int BitWidthFor(uint64_t max_value) {
  int width = 1;
  while (width < 64 && (max_value >> width) != 0) ++width;
  return width;
}

namespace {

static_assert(std::endian::native == std::endian::little,
              "the n-bit kernels load and store little-endian words");

uint64_t LowBits(int bit_width) {
  return bit_width >= 64 ? ~uint64_t{0} : (uint64_t{1} << bit_width) - 1;
}

// Frame-of-reference offsets and deltas are int64 differences taken
// modulo 2^64, which is what the page stores. Unsigned arithmetic keeps a
// full-range column, or a corrupt page's base, clear of signed overflow.
uint64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<uint64_t>(a) - static_cast<uint64_t>(b);
}
int64_t WrappingAdd(int64_t a, uint64_t d) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + d);
}

size_t PackedBytes(size_t count, int bit_width) {
  return (count * static_cast<size_t>(bit_width) + 7) / 8;
}

// Writes `count` values, value(i) for i in [0, count), packed at
// `bit_width` bits each, to dst[0, PackedBytes(count, bit_width)) and
// returns the end. Bits accumulate in a 64-bit word that is stored whole
// each time it fills; the last partial word stores only its live bytes.
template <typename ValueAt>
uint8_t* PackBits(uint8_t* dst, size_t count, int bit_width, ValueAt value) {
  const uint64_t mask = LowBits(bit_width);
  uint64_t acc = 0;
  int filled = 0;  // live bits in acc, always < 64 between values
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = static_cast<uint64_t>(value(i)) & mask;
    acc |= v << filled;
    filled += bit_width;
    if (filled >= 64) {
      std::memcpy(dst, &acc, 8);
      dst += 8;
      filled -= 64;
      // The bits of v that did not fit; filled > 0 implies the shift is
      // in 1..63.
      acc = filled > 0 ? v >> (bit_width - filled) : 0;
    }
  }
  if (filled > 0) {
    std::memcpy(dst, &acc, (filled + 7) / 8);
    dst += (filled + 7) / 8;
  }
  return dst;
}

// Writes a column page front to back into a buffer sized for it exactly.
struct PageCursor {
  uint8_t* p;

  void U8(uint8_t v) { *p++ = v; }
  template <typename T>
  void Word(T v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  }
  // A u32 length and the bytes, as PutString writes them.
  void String(std::string_view s) {
    Word(static_cast<uint32_t>(s.size()));
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
  template <typename ValueAt>
  void Packed(size_t count, int bit_width, ValueAt value) {
    p = PackBits(p, count, bit_width, value);
  }
};

// Unpacks `count` values of `bit_width` bits from `src[0, size)`, calling
// emit(i, value) in order. Each value costs one unaligned 8-byte load, a
// shift and a mask; a value 58 or more bits wide can straddle into a
// ninth byte, which a second load supplies. Bits past `size` read as 0: the
// values whose 9-byte window would run off the end go through a
// zero-padded copy. `bit_width` must be in 1..64.
template <typename Emit>
void UnpackBits(const uint8_t* src, size_t size, int bit_width,
                size_t count, Emit emit) {
  const uint64_t mask = LowBits(bit_width);
  const size_t width = static_cast<size_t>(bit_width);
  // Values whose window src[byte, byte + 9) lies inside the buffer.
  size_t direct = 0;
  if (size >= 9) {
    direct = std::min(count, ((size - 9) * 8 + 7) / width + 1);
  }
  auto extract = [&](const uint8_t* p, int shift) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    uint64_t v = word >> shift;
    if (shift + bit_width > 64) v |= uint64_t{p[8]} << (64 - shift);
    return v & mask;
  };
  size_t bit_pos = 0;
  for (size_t i = 0; i < direct; ++i, bit_pos += width) {
    emit(i, extract(src + bit_pos / 8, static_cast<int>(bit_pos % 8)));
  }
  for (size_t i = direct; i < count; ++i, bit_pos += width) {
    uint8_t window[9] = {};
    size_t byte = bit_pos / 8;
    if (byte < size) {
      std::memcpy(window, src + byte, std::min<size_t>(9, size - byte));
    }
    emit(i, extract(window, static_cast<int>(bit_pos % 8)));
  }
}

}  // namespace

std::vector<uint8_t> NBitPack(const std::vector<uint64_t>& values,
                              int bit_width) {
  assert(bit_width >= 1 && bit_width <= 64);
  std::vector<uint8_t> out(PackedBytes(values.size(), bit_width));
  PackBits(out.data(), values.size(), bit_width,
           [&](size_t i) { return values[i]; });
  return out;
}

std::vector<uint64_t> NBitUnpack(const std::vector<uint8_t>& bytes,
                                 int bit_width, size_t count) {
  std::vector<uint64_t> out(count, 0);
  if (bit_width < 1 || bit_width > 64) return out;
  UnpackBits(bytes.data(), bytes.size(), bit_width, count,
             [&](size_t i, uint64_t v) { out[i] = v; });
  return out;
}

std::vector<uint8_t> EncodeColumnPage(const ColumnVector& values,
                                      size_t begin, size_t end,
                                      ZoneMapEntry* zone) {
  assert(end <= values.size() && begin <= end);
  size_t count = end - begin;
  zone->row_count = static_cast<uint32_t>(count);
  // Each case sizes its page before writing it: this allocates the whole
  // page, exactly, writes the [type u32][count u32][encoding u8] header
  // and returns a cursor after it.
  std::vector<uint8_t> out;
  auto start_page = [&](uint8_t encoding, size_t body_bytes) {
    out.resize(4 + 4 + 1 + body_bytes);
    PageCursor page{out.data()};
    page.Word(static_cast<uint32_t>(values.type));
    page.Word(static_cast<uint32_t>(count));
    page.U8(encoding);
    return page;
  };

  switch (values.type) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
    case ColumnType::kDecimal: {
      const int64_t* run = values.ints.data() + begin;
      int64_t min_v = count > 0 ? run[0] : 0;
      int64_t max_v = min_v;
      for (size_t i = 0; i < count; ++i) {
        min_v = std::min(min_v, run[i]);
        max_v = std::max(max_v, run[i]);
      }
      zone->min_int = min_v;
      zone->max_int = max_v;
      // Non-decreasing pages (sorted keys, monotone dates) get delta +
      // n-bit; everything else frame-of-reference + n-bit.
      bool sorted = true;
      uint64_t max_step = 0;
      for (size_t i = 1; i < count; ++i) {
        if (run[i] < run[i - 1]) {
          sorted = false;
          break;
        }
        max_step = std::max(max_step, WrappingSub(run[i], run[i - 1]));
      }
      int for_width = BitWidthFor(WrappingSub(max_v, min_v));
      int delta_width = BitWidthFor(max_step);
      if (sorted && count > 1 && delta_width < for_width) {
        PageCursor page = start_page(
            kEncodingDeltaNBit, 1 + 8 + PackedBytes(count - 1, delta_width));
        page.U8(static_cast<uint8_t>(delta_width));
        page.Word(run[0]);  // first value, raw
        page.Packed(count - 1, delta_width, [run](size_t i) {
          return WrappingSub(run[i + 1], run[i]);
        });
        break;
      }
      PageCursor page =
          start_page(kEncodingNBit, 1 + 8 + PackedBytes(count, for_width));
      page.U8(static_cast<uint8_t>(for_width));
      page.Word(min_v);
      page.Packed(count, for_width, [run, min_v](size_t i) {
        return WrappingSub(run[i], min_v);
      });
      break;
    }
    case ColumnType::kDouble: {
      const double* run = values.doubles.data() + begin;
      double min_v = count > 0 ? run[0] : 0;
      double max_v = min_v;
      for (size_t i = 0; i < count; ++i) {
        min_v = std::min(min_v, run[i]);
        max_v = std::max(max_v, run[i]);
      }
      zone->min_double = min_v;
      zone->max_double = max_v;
      PageCursor page = start_page(kEncodingRawDouble, 8 * count);
      if (count > 0) std::memcpy(page.p, run, 8 * count);
      break;
    }
    case ColumnType::kString: {
      // Page-local dictionary: the distinct strings, numbered in first-
      // seen order through a hash table, and each row's entry. n-bit codes
      // if the dictionary pays, raw strings otherwise.
      const std::string* run = values.strings.data() + begin;
      // Sized for a raw page's distinct strings, which a page of a few
      // thousand short dictionary strings also fits without a rehash.
      RowKeyTable table(std::min<size_t>(count, kPresizedEntries));
      std::vector<std::string_view> entries;
      std::vector<uint32_t> entry_of(count);
      size_t dict_bytes = 0;
      size_t raw_bytes = 0;
      for (size_t i = 0; i < count; ++i) {
        std::string_view s = run[i];
        raw_bytes += s.size() + 4;
        bool inserted = false;
        entry_of[i] = table.FindOrInsert(
            HashKey(s), [&](uint32_t e) { return entries[e] == s; },
            &inserted);
        if (inserted) {
          entries.push_back(s);
          dict_bytes += s.size() + 4;
        }
      }
      int width = BitWidthFor(entries.empty() ? 0 : entries.size() - 1);
      size_t dict_total = dict_bytes + PackedBytes(count, width);
      if (dict_total < raw_bytes) {
        // The dictionary is stored ascending; a row's code is its entry's
        // rank.
        std::vector<uint32_t> order(entries.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
          return entries[a] < entries[b];
        });
        std::vector<uint32_t> code(entries.size());
        for (size_t k = 0; k < order.size(); ++k) {
          code[order[k]] = static_cast<uint32_t>(k);
        }
        zone->min_string = entries[order.front()].substr(0, 16);
        zone->max_string = entries[order.back()].substr(0, 16);
        PageCursor page = start_page(kEncodingDictString, 1 + 4 + dict_total);
        page.U8(static_cast<uint8_t>(width));
        page.Word(static_cast<uint32_t>(entries.size()));
        for (uint32_t e : order) page.String(entries[e]);
        page.Packed(count, width, [&](size_t i) { return code[entry_of[i]]; });
      } else {
        if (count > 0) {
          auto [lo, hi] = std::minmax_element(entries.begin(), entries.end());
          zone->min_string = lo->substr(0, 16);
          zone->max_string = hi->substr(0, 16);
        }
        PageCursor page = start_page(kEncodingRawString, raw_bytes);
        for (size_t i = 0; i < count; ++i) page.String(run[i]);
      }
      break;
    }
  }
  return out;
}

bool IsDictionaryPage(const std::vector<uint8_t>& bytes) {
  constexpr size_t kEncodingOffset = 8;  // after [type u32][count u32]
  return bytes.size() > kEncodingOffset &&
         bytes[kEncodingOffset] == kEncodingDictString;
}

Result<ColumnVector> DecodeColumnPage(const std::vector<uint8_t>& bytes) {
  CLOUDIQ_ASSIGN_OR_RETURN(ColumnVector out, DecodeColumnPageCoded(bytes));
  out.ExpandStrings();
  return out;
}

Result<ColumnVector> DecodeColumnPageCoded(
    const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  ColumnVector out;
  uint32_t type = reader.GetU32();
  uint32_t count = reader.GetU32();
  uint8_t encoding = reader.GetU8();
  if (reader.overflow()) return Status::Corruption("column page truncated");
  if (type > static_cast<uint32_t>(ColumnType::kDecimal)) {
    return Status::Corruption("unknown column type");
  }
  // The type decides which vector the caller reads, so an encoding that
  // fills a different one would hide the page's values.
  out.type = static_cast<ColumnType>(type);
  switch (out.type) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
    case ColumnType::kDecimal:
      if (encoding != kEncodingNBit && encoding != kEncodingDeltaNBit) {
        return Status::Corruption("integer column page not n-bit encoded");
      }
      break;
    case ColumnType::kDouble:
      if (encoding != kEncodingRawDouble) {
        return Status::Corruption("double column page not raw encoded");
      }
      break;
    case ColumnType::kString:
      if (encoding != kEncodingDictString && encoding != kEncodingRawString) {
        return Status::Corruption("string column page not string encoded");
      }
      break;
  }

  // Every length below is checked against the bytes left before anything
  // is sized from it, so a corrupt count cannot drive an allocation.
  auto packed_run = [&](int width, size_t n) -> const uint8_t* {
    if (width < 1 || width > 64) return nullptr;
    return reader.Skip(PackedBytes(n, width));
  };
  switch (encoding) {
    case kEncodingNBit: {
      int width = reader.GetU8();
      int64_t base = reader.GetI64();
      const uint8_t* packed = packed_run(width, count);
      if (packed == nullptr) return Status::Corruption("bad n-bit run");
      out.ints.resize(count);
      int64_t* dst = out.ints.data();
      UnpackBits(packed, PackedBytes(count, width), width, count,
                 [dst, base](size_t i, uint64_t d) {
                   dst[i] = WrappingAdd(base, d);
                 });
      break;
    }
    case kEncodingDeltaNBit: {
      int width = reader.GetU8();
      int64_t value = reader.GetI64();
      size_t n_deltas = count > 0 ? count - 1 : 0;
      const uint8_t* packed = packed_run(width, n_deltas);
      if (packed == nullptr) return Status::Corruption("bad delta run");
      out.ints.resize(count);
      int64_t* dst = out.ints.data();
      if (count > 0) dst[0] = value;
      UnpackBits(packed, PackedBytes(n_deltas, width), width, n_deltas,
                 [dst, &value](size_t i, uint64_t d) {
                   value = WrappingAdd(value, d);
                   dst[i + 1] = value;
                 });
      break;
    }
    case kEncodingRawDouble: {
      const uint8_t* raw = reader.Skip(8 * size_t{count});
      if (raw == nullptr) return Status::Corruption("double page truncated");
      out.doubles.resize(count);
      if (count > 0) std::memcpy(out.doubles.data(), raw, 8 * size_t{count});
      break;
    }
    case kEncodingDictString: {
      int width = reader.GetU8();
      uint32_t dict_size = reader.GetU32();
      if (reader.remaining() / 4 < dict_size) {
        return Status::Corruption("dictionary truncated");
      }
      auto dict = std::make_shared<StringDict>();
      dict->strings.resize(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        dict->strings[i] = reader.GetString();
        if (i > 0 && !(dict->strings[i - 1] < dict->strings[i])) {
          return Status::Corruption("dictionary not strictly ascending");
        }
      }
      const uint8_t* packed = packed_run(width, count);
      if (packed == nullptr) return Status::Corruption("bad dictionary codes");
      bool code_in_range = true;
      out.codes.resize(count);
      uint32_t* dst = out.codes.data();
      UnpackBits(packed, PackedBytes(count, width), width, count,
                 [&](size_t i, uint64_t code) {
                   if (code < dict_size) {
                     dst[i] = static_cast<uint32_t>(code);
                   } else {
                     code_in_range = false;
                   }
                 });
      if (!code_in_range) {
        return Status::Corruption("dictionary code out of range");
      }
      dict->hash.reserve(dict_size);
      for (const std::string& s : dict->strings) {
        dict->hash.push_back(HashKey(s));
      }
      out.dict = std::move(dict);
      break;
    }
    case kEncodingRawString: {
      if (reader.remaining() / 4 < count) {
        return Status::Corruption("string page truncated");
      }
      out.strings.reserve(count);
      for (uint32_t i = 0; i < count && !reader.overflow(); ++i) {
        out.strings.push_back(reader.GetString());
      }
      break;
    }
  }
  if (reader.overflow()) return Status::Corruption("column page truncated");
  return out;
}

}  // namespace cloudiq

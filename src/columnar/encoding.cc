#include "columnar/encoding.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <map>

#include "common/coding.h"
#include "common/key_hash.h"

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

// Appends `count` values, value(i) for i in [0, count), packed at
// `bit_width` bits each to `out`. Bits accumulate in a 64-bit word that
// is stored whole each time it fills; the last partial word stores only
// its live bytes.
template <typename ValueAt>
void AppendPacked(std::vector<uint8_t>& out, size_t count, int bit_width,
                  ValueAt value) {
  size_t offset = out.size();
  out.resize(offset + PackedBytes(count, bit_width));
  uint8_t* dst = out.data() + offset;
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
  if (filled > 0) std::memcpy(dst, &acc, (filled + 7) / 8);
}

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
  std::vector<uint8_t> out;
  AppendPacked(out, values.size(), bit_width,
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
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(values.type));
  PutU32(out, static_cast<uint32_t>(count));
  zone->row_count = static_cast<uint32_t>(count);

  switch (values.type) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
    case ColumnType::kDecimal: {
      int64_t min_v = count > 0 ? values.ints[begin] : 0;
      int64_t max_v = min_v;
      for (size_t i = begin; i < end; ++i) {
        min_v = std::min(min_v, values.ints[i]);
        max_v = std::max(max_v, values.ints[i]);
      }
      zone->min_int = min_v;
      zone->max_int = max_v;
      // Non-decreasing pages (sorted keys, monotone dates) get delta +
      // n-bit; everything else frame-of-reference + n-bit.
      bool sorted = true;
      uint64_t max_step = 0;
      for (size_t i = begin + 1; i < end; ++i) {
        if (values.ints[i] < values.ints[i - 1]) {
          sorted = false;
          break;
        }
        max_step = std::max(
            max_step,
            WrappingSub(values.ints[i], values.ints[i - 1]));
      }
      int for_width =
          BitWidthFor(WrappingSub(max_v, min_v));
      int delta_width = BitWidthFor(max_step);
      if (sorted && count > 1 && delta_width < for_width) {
        out.push_back(kEncodingDeltaNBit);
        out.push_back(static_cast<uint8_t>(delta_width));
        PutI64(out, values.ints[begin]);  // first value, raw
        const int64_t* run = values.ints.data() + begin;
        AppendPacked(out, count - 1, delta_width, [run](size_t i) {
          return WrappingSub(run[i + 1], run[i]);
        });
        break;
      }
      out.push_back(kEncodingNBit);
      out.push_back(static_cast<uint8_t>(for_width));
      PutI64(out, min_v);
      const int64_t* run = values.ints.data() + begin;
      AppendPacked(out, count, for_width, [run, min_v](size_t i) {
        return WrappingSub(run[i], min_v);
      });
      break;
    }
    case ColumnType::kDouble: {
      double min_v = count > 0 ? values.doubles[begin] : 0;
      double max_v = min_v;
      out.push_back(kEncodingRawDouble);
      for (size_t i = begin; i < end; ++i) {
        min_v = std::min(min_v, values.doubles[i]);
        max_v = std::max(max_v, values.doubles[i]);
        PutDouble(out, values.doubles[i]);
      }
      zone->min_double = min_v;
      zone->max_double = max_v;
      break;
    }
    case ColumnType::kString: {
      // Page-local dictionary; n-bit codes if it pays, raw otherwise.
      std::map<std::string, uint32_t> dict;
      for (size_t i = begin; i < end; ++i) {
        dict.emplace(values.strings[i], 0);
      }
      if (count > 0) {
        zone->min_string = dict.begin()->first.substr(0, 16);
        zone->max_string = std::prev(dict.end())->first.substr(0, 16);
      }
      size_t dict_bytes = 0;
      for (const auto& [s, code] : dict) dict_bytes += s.size() + 4;
      size_t raw_bytes = 0;
      for (size_t i = begin; i < end; ++i) {
        raw_bytes += values.strings[i].size() + 4;
      }
      int width =
          BitWidthFor(dict.empty() ? 0 : dict.size() - 1);
      size_t dict_total = dict_bytes + (count * width + 7) / 8;
      if (dict_total < raw_bytes) {
        uint32_t next = 0;
        for (auto& [s, code] : dict) code = next++;
        out.push_back(kEncodingDictString);
        out.push_back(static_cast<uint8_t>(width));
        PutU32(out, static_cast<uint32_t>(dict.size()));
        for (const auto& [s, code] : dict) PutString(out, s);
        AppendPacked(out, count, width, [&](size_t i) {
          return uint64_t{dict.find(values.strings[begin + i])->second};
        });
      } else {
        out.push_back(kEncodingRawString);
        for (size_t i = begin; i < end; ++i) {
          PutString(out, values.strings[i]);
        }
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

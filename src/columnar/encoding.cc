#include "columnar/encoding.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>
#include <string_view>
#include <type_traits>
#include <utility>

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

uint64_t Load64(const uint8_t* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

// Widths up to this keep every value of an 8-value block inside one
// 8-byte load at a shift of 0..7.
constexpr int kMaxBlockWidth = 56;

// The values of a page packed at `width` bits (1..64) in src[0, size),
// with the bounds the unpack loops need, computed once per page rather
// than once per unpack call: a filtered page is unpacked as many short
// row runs.
struct PackedRun {
  PackedRun(const uint8_t* src, size_t size, int width)
      : src(src), size(size), width(width), mask(LowBits(width)) {
    if (width < 1) return;  // a raw page: no run to unpack
    const size_t w = static_cast<size_t>(width);
    // Value i's window src[i·w/8, i·w/8 + 9) lies inside the buffer iff
    // i·w <= (size - 9)·8 + 7.
    if (size >= 9) direct = ((size - 9) * 8 + 7) / w + 1;
    // Block k's last load ends at byte k·w + 7w/8 + 8.
    const size_t reach = w * 7 / 8 + 8;
    if (width <= kMaxBlockWidth && size >= reach) {
      safe_blocks = (size - reach) / w + 1;
    }
  }

  // The value at bit `shift` (0..7) of p[0, 9), p[8] read only if the
  // value reaches into it.
  uint64_t At(const uint8_t* p, int shift) const {
    uint64_t v = Load64(p) >> shift;
    if (shift + width > 64) v |= uint64_t{p[8]} << (64 - shift);
    return v & mask;
  }

  const uint8_t* src;
  size_t size;
  int width;
  uint64_t mask;
  size_t direct = 0;       // values whose 9-byte window is in the buffer
  size_t safe_blocks = 0;  // leading 8-value blocks the kernels may load
};

// Unpacks values [first, first + count) of `run`, calling emit(i, value)
// in order. Each value costs one unaligned 8-byte load, a shift and a
// mask; a value 58 or more bits wide can straddle into a ninth byte,
// which a second load supplies. Bits past the buffer read as 0: the
// values whose 9-byte window would run off the end go through a
// zero-padded copy.
template <typename Emit>
void UnpackBits(const PackedRun& run, size_t first, size_t count,
                Emit& emit) {
  const size_t width = static_cast<size_t>(run.width);
  const size_t end = first + count;
  size_t i = first;
  size_t bit_pos = first * width;
  for (; i < std::min(end, run.direct); ++i, bit_pos += width) {
    emit(i, run.At(run.src + bit_pos / 8, static_cast<int>(bit_pos % 8)));
  }
  for (; i < end; ++i, bit_pos += width) {
    uint8_t window[9] = {};
    size_t byte = bit_pos / 8;
    if (byte < run.size) {
      std::memcpy(window, run.src + byte,
                  std::min<size_t>(9, run.size - byte));
    }
    emit(i, run.At(window, static_cast<int>(bit_pos % 8)));
  }
}

// Unpacks `blocks` blocks of eight values starting at value `first` (a
// multiple of 8): block k is the W bytes at src + k * W, and its shifts
// and load offsets are compile-time constants. Every load of every block
// must lie inside the buffer.
template <int W, typename Emit>
void UnpackBlocks(const uint8_t* src, size_t first, size_t blocks,
                  Emit& emit) {
  static_assert(W >= 1 && W <= kMaxBlockWidth);
  constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
  const uint8_t* p = src + first / 8 * W;
  for (size_t b = 0; b < blocks; ++b, p += W, first += 8) {
    [&]<size_t... J>(std::index_sequence<J...>) {
      (emit(first + J, (Load64(p + J * W / 8) >> (J * W % 8)) & kMask), ...);
    }(std::make_index_sequence<8>{});
  }
}

template <typename Emit>
using BlockKernel = void (*)(const uint8_t*, size_t, size_t, Emit&);

template <typename Emit, size_t... W>
constexpr std::array<BlockKernel<Emit>, sizeof...(W)> BlockKernels(
    std::index_sequence<W...>) {
  return {&UnpackBlocks<static_cast<int>(W) + 1, Emit>...};
}

// UnpackBits with the same contract, but the whole 8-value blocks whose
// loads stay inside the buffer go through the kernel for the run's width.
template <typename Emit>
void UnpackRange(const PackedRun& run, size_t first, size_t count,
                 Emit&& emit) {
  using Sink = std::remove_reference_t<Emit>;
  static constexpr std::array<BlockKernel<Sink>, kMaxBlockWidth> kKernels =
      BlockKernels<Sink>(std::make_index_sequence<kMaxBlockWidth>{});
  if (count < 8) {
    // A short run, as a scattered filter leaves many of, holds no whole
    // block.
    UnpackBits(run, first, count, emit);
    return;
  }
  const size_t end = first + count;
  size_t i = first;
  const size_t block_begin = std::min(end, (first + 7) / 8 * 8);
  const size_t block_end = std::min(end / 8, run.safe_blocks) * 8;
  if (block_begin < block_end) {
    UnpackBits(run, i, block_begin - i, emit);
    kKernels[run.width - 1](run.src, block_begin,
                            (block_end - block_begin) / 8, emit);
    i = block_end;
  }
  UnpackBits(run, i, end - i, emit);
}

std::string_view GetStringView(ByteReader& reader) {
  uint32_t n = reader.GetU32();
  const uint8_t* p = reader.Skip(n);
  if (p == nullptr) return {};
  return {reinterpret_cast<const char*>(p), n};
}

}  // namespace

bool ParsedColumnPage::IsDictionary() const {
  return encoding == kEncodingDictString;
}

Status ParseColumnPage(const std::vector<uint8_t>& bytes,
                       ParsedColumnPage* page) {
  ByteReader reader(bytes);
  uint32_t type = reader.GetU32();
  page->count = reader.GetU32();
  page->encoding = reader.GetU8();
  if (reader.overflow()) return Status::Corruption("column page truncated");
  if (type > static_cast<uint32_t>(ColumnType::kDecimal)) {
    return Status::Corruption("unknown column type");
  }
  // The type decides which vector the caller reads, so an encoding that
  // fills a different one would hide the page's values.
  page->type = static_cast<ColumnType>(type);
  const uint8_t encoding = page->encoding;
  switch (page->type) {
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

  const size_t count = page->count;
  auto packed_run = [&](size_t n) {
    if (page->width < 1 || page->width > 64) return false;
    page->body_size = PackedBytes(n, page->width);
    page->body = reader.Skip(page->body_size);
    return page->body != nullptr;
  };
  switch (encoding) {
    case kEncodingNBit:
      page->width = reader.GetU8();
      page->base = reader.GetI64();
      if (!packed_run(count)) return Status::Corruption("bad n-bit run");
      break;
    case kEncodingDeltaNBit:
      page->width = reader.GetU8();
      page->base = reader.GetI64();
      if (!packed_run(count > 0 ? count - 1 : 0)) {
        return Status::Corruption("bad delta run");
      }
      break;
    case kEncodingRawDouble:
      page->body_size = 8 * count;
      page->body = reader.Skip(page->body_size);
      if (page->body == nullptr) {
        return Status::Corruption("double page truncated");
      }
      break;
    case kEncodingDictString: {
      page->width = reader.GetU8();
      uint32_t dict_size = reader.GetU32();
      if (reader.remaining() / 4 < dict_size) {
        return Status::Corruption("dictionary truncated");
      }
      page->strings.reserve(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        std::string_view s = GetStringView(reader);
        if (reader.overflow()) {
          return Status::Corruption("dictionary truncated");
        }
        if (i > 0 && !(page->strings.back() < s)) {
          return Status::Corruption("dictionary not strictly ascending");
        }
        page->strings.push_back(s);
      }
      if (!packed_run(count)) {
        return Status::Corruption("bad dictionary codes");
      }
      break;
    }
    case kEncodingRawString:
      if (reader.remaining() / 4 < count) {
        return Status::Corruption("string page truncated");
      }
      page->strings.reserve(count);
      for (size_t i = 0; i < count && !reader.overflow(); ++i) {
        page->strings.push_back(GetStringView(reader));
      }
      break;
  }
  if (reader.overflow()) return Status::Corruption("column page truncated");
  return Status::Ok();
}

namespace {

// Writes the rows `runs` of a parsed page into `dst`, which has the
// page's type, and checks every dictionary code of the page, written or
// not. See DecodeColumnPageInto.
Status WriteRuns(const ParsedColumnPage& page,
                 const std::vector<PageRun>& runs,
                 const std::vector<uint32_t>* remap, ColumnVector* dst) {
  // Row i of run r goes to dst row i + shift(r); the wrap of the unsigned
  // difference cancels, since i >= r.begin.
  auto shift = [](const PageRun& r) { return r.at - r.begin; };
  const PackedRun packed(page.body, page.body_size, page.width);
  auto unpack = [&packed](size_t first, size_t n, auto&& emit) {
    UnpackRange(packed, first, n, emit);
  };
  switch (page.encoding) {
    case kEncodingNBit: {
      const int64_t base = page.base;
      for (const PageRun& r : runs) {
        int64_t* out = dst->ints.data();
        const size_t s = shift(r);
        unpack(r.begin, r.end - r.begin, [out, s, base](size_t i, uint64_t d) {
          out[i + s] = WrappingAdd(base, d);
        });
      }
      break;
    }
    case kEncodingDeltaNBit: {
      // Row i is the first value plus deltas [0, i). `value` is row
      // `row`'s; the rows between runs are summed, not written.
      int64_t value = page.base;
      size_t row = 0;
      for (const PageRun& r : runs) {
        if (r.begin == r.end) continue;
        unpack(row, r.begin - row,
               [&value](size_t, uint64_t d) { value = WrappingAdd(value, d); });
        int64_t* out = dst->ints.data();
        const size_t s = shift(r);
        out[r.at] = value;
        // Delta i makes row i + 1.
        unpack(r.begin, r.end - 1 - r.begin,
               [&value, out, s](size_t i, uint64_t d) {
                 value = WrappingAdd(value, d);
                 out[i + 1 + s] = value;
               });
        row = r.end - 1;
      }
      break;
    }
    case kEncodingRawDouble:
      for (const PageRun& r : runs) {
        if (r.begin == r.end) continue;
        std::memcpy(dst->doubles.data() + r.at, page.body + 8 * size_t{r.begin},
                    8 * size_t{r.end - r.begin});
      }
      break;
    case kEncodingDictString: {
      const size_t entries = page.strings.size();
      if (page.count > 0 && entries == 0) {
        return Status::Corruption("dictionary code out of range");
      }
      if (remap != nullptr && remap->size() != entries) {
        return Status::InvalidArgument("remap does not fit the dictionary");
      }
      // An out-of-range code is noted and written as code 0, so nothing
      // indexes past the dictionary before the page is refused.
      bool bad = false;
      auto entry = [&bad, entries](uint64_t code) {
        bad |= code >= entries;
        return code < entries ? code : 0;
      };
      // Codes a width this narrow can hold are all in range.
      const bool all_fit =
          page.width < 64 && (uint64_t{entries} >> page.width) != 0;
      size_t row = 0;
      auto check_to = [&](size_t end) {
        if (!all_fit && row < end) {
          unpack(row, end - row, [&entry](size_t, uint64_t c) { entry(c); });
        }
      };
      for (const PageRun& r : runs) {
        check_to(r.begin);
        const size_t s = shift(r);
        const size_t n = r.end - r.begin;
        if (dst->dict == nullptr) {
          std::string* out = dst->strings.data();
          unpack(r.begin, n, [&](size_t i, uint64_t c) {
            out[i + s].assign(page.strings[entry(c)]);
          });
        } else if (remap != nullptr) {
          uint32_t* out = dst->codes.data();
          const uint32_t* to = remap->data();
          unpack(r.begin, n, [&](size_t i, uint64_t c) {
            out[i + s] = to[entry(c)];
          });
        } else {
          uint32_t* out = dst->codes.data();
          unpack(r.begin, n, [&](size_t i, uint64_t c) {
            out[i + s] = static_cast<uint32_t>(entry(c));
          });
        }
        row = r.end;
      }
      check_to(page.count);
      if (bad) return Status::Corruption("dictionary code out of range");
      break;
    }
    case kEncodingRawString:
      if (dst->dict != nullptr) {
        return Status::InvalidArgument("raw string page into a coded column");
      }
      for (const PageRun& r : runs) {
        for (size_t i = r.begin; i < r.end; ++i) {
          dst->strings[i + shift(r)].assign(page.strings[i]);
        }
      }
      break;
  }
  return Status::Ok();
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
  UnpackRange(PackedRun(bytes.data(), bytes.size(), bit_width), 0, count,
              [&out](size_t i, uint64_t v) { out[i] = v; });
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

Result<ColumnVector> DecodeColumnPage(const std::vector<uint8_t>& bytes) {
  CLOUDIQ_ASSIGN_OR_RETURN(ColumnVector out, DecodeColumnPageCoded(bytes));
  out.ExpandStrings();
  return out;
}

Result<ColumnVector> DecodeColumnPageCoded(
    const std::vector<uint8_t>& bytes) {
  ParsedColumnPage page;
  CLOUDIQ_RETURN_IF_ERROR(ParseColumnPage(bytes, &page));
  ColumnVector out;
  out.type = page.type;
  if (page.encoding == kEncodingDictString) {
    auto dict = std::make_shared<StringDict>();
    dict->strings.reserve(page.strings.size());
    dict->hash.reserve(page.strings.size());
    for (std::string_view s : page.strings) {
      dict->strings.emplace_back(s);
      dict->hash.push_back(HashKey(s));
    }
    out.dict = std::move(dict);
  }
  out.Resize(page.count);
  CLOUDIQ_RETURN_IF_ERROR(
      WriteRuns(page, {PageRun{0, page.count, 0}}, nullptr, &out));
  return out;
}

Status DecodeColumnPageInto(const std::vector<uint8_t>& bytes, uint64_t rows,
                            const std::vector<PageRun>& runs,
                            const std::vector<uint32_t>* remap,
                            ColumnVector* dst) {
  ParsedColumnPage page;
  CLOUDIQ_RETURN_IF_ERROR(ParseColumnPage(bytes, &page));
  return DecodeColumnPageInto(page, rows, runs, remap, dst);
}

Status DecodeColumnPageInto(const ParsedColumnPage& page, uint64_t rows,
                            const std::vector<PageRun>& runs,
                            const std::vector<uint32_t>* remap,
                            ColumnVector* dst) {
  // The typed writes below read the page as dst's type and row count.
  if (page.type != dst->type || page.count != rows) {
    return Status::Corruption("column page disagrees with its segment");
  }
  return WriteRuns(page, runs, remap, dst);
}

}  // namespace cloudiq

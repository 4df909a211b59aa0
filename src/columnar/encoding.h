#ifndef CLOUDIQ_COLUMNAR_ENCODING_H_
#define CLOUDIQ_COLUMNAR_ENCODING_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "columnar/value.h"
#include "common/result.h"

namespace cloudiq {

// Column page encodings (§1: "columnar data in SAP IQ are compressed using
// the dictionary-encoding and the n-bit representation").
//
// Integer-family values use frame-of-reference + n-bit packing: a page
// stores min(values) and each value's delta packed at the minimum bit
// width. String pages build a page-local dictionary and n-bit-pack the
// codes, falling back to raw length-prefixed strings when the dictionary
// would not pay for itself (high-cardinality columns like comments).
// Doubles are stored raw. Every page is then framed, with its size and
// checksum, by the page codec (store/page_codec.h).

// Packs the low `bit_width` (1..64) bits of each of `values`, little-
// endian bit order.
std::vector<uint8_t> NBitPack(const std::vector<uint64_t>& values,
                              int bit_width);
// Unpacks `count` values of `bit_width` bits. Bits past the end of
// `bytes` read as 0, and a width outside 1..64 reads every value as 0.
// Widths 1..56 unpack eight values at a time with shifts fixed at compile
// time; wider values, and the last few whose 8-byte load would run off
// the end, go one at a time. Every page decoder shares these kernels.
std::vector<uint64_t> NBitUnpack(const std::vector<uint8_t>& bytes,
                                 int bit_width, size_t count);

// Smallest width that can represent `max_value` (>= 1 bit).
int BitWidthFor(uint64_t max_value);

// Per-page zone map entry: min/max of the page's values (for strings, the
// dictionary-code domain is useless across pages, so zone maps track the
// min/max *string* prefix hashes are pointless — string zone maps store
// lexicographic min/max truncated to 16 bytes).
struct ZoneMapEntry {
  int64_t min_int = 0;
  int64_t max_int = 0;
  double min_double = 0;
  double max_double = 0;
  std::string min_string;
  std::string max_string;
  uint32_t row_count = 0;
};

// Encodes one column page; fills `zone` with the page's zone-map entry.
std::vector<uint8_t> EncodeColumnPage(const ColumnVector& values,
                                      size_t begin, size_t end,
                                      ZoneMapEntry* zone);

// Decodes a column page produced by EncodeColumnPage, keeping the codes
// of a dictionary page: it decodes to a coded kString column whose
// dictionary is the page's own (entries ascending, hashes computed);
// every other page decodes plain. Any other input yields Corruption: the
// decoder checks the type against the encoding, every count against the
// bytes present before allocating, every code against the dictionary, and
// that the dictionary is strictly ascending, as the encoder writes it, so
// its entries are distinct and equal codes mean equal strings.
Result<ColumnVector> DecodeColumnPageCoded(const std::vector<uint8_t>& bytes);

// DecodeColumnPageCoded followed by ExpandStrings: every page decodes
// plain.
Result<ColumnVector> DecodeColumnPage(const std::vector<uint8_t>& bytes);

// Rows [begin, end) of a column page, written to rows at, at + 1, ... of
// a destination column.
struct PageRun {
  uint32_t begin = 0;
  uint32_t end = 0;
  size_t at = 0;
};

// A column page whose fields ParseColumnPage has checked. It views into
// the page's bytes, which must outlive it.
struct ParsedColumnPage {
  ColumnType type = ColumnType::kInt64;
  uint32_t count = 0;
  uint8_t encoding = 0;
  int width = 0;
  int64_t base = 0;  // n-bit: frame of reference; delta: the first value
  // The packed run (n-bit, delta, dictionary codes) or the raw doubles.
  const uint8_t* body = nullptr;
  size_t body_size = 0;
  // A dictionary page's entries in code order, or a raw string page's
  // values.
  std::vector<std::string_view> strings;

  bool IsDictionary() const;
};

// Checks everything about a column page but its dictionary codes: the
// type against the encoding, every count against the bytes present
// before anything is sized from it, and a dictionary strictly ascending.
// Any failure is Corruption.
Status ParseColumnPage(const std::vector<uint8_t>& bytes,
                       ParsedColumnPage* page);

// Decodes the rows `runs` of a column page straight into `dst`, which
// already holds a row for every one of them. The whole page is checked
// first, whatever `runs` asks for: everything DecodeColumnPageCoded
// checks (every dictionary code included), and that the page holds
// exactly `rows` values of dst->type. A defect of the page is
// Corruption, and `dst` may then hold some of the runs. `runs` are
// ascending, disjoint and inside [0, rows). A coded `dst` takes a
// dictionary page's codes through `remap` (page code -> code in
// dst->dict, one per page entry), or unchanged when `remap` is null; a
// plain `dst` takes the strings. A misuse of the call is
// InvalidArgument: a remap whose size is not the page dictionary's, or a
// coded `dst` for a raw string page. Calls that write disjoint rows of
// one column may run concurrently.
Status DecodeColumnPageInto(const std::vector<uint8_t>& bytes, uint64_t rows,
                            const std::vector<PageRun>& runs,
                            const std::vector<uint32_t>* remap,
                            ColumnVector* dst);

// DecodeColumnPageInto for a page ParseColumnPage has already checked;
// the rest of the checks still run.
Status DecodeColumnPageInto(const ParsedColumnPage& page, uint64_t rows,
                            const std::vector<PageRun>& runs,
                            const std::vector<uint32_t>* remap,
                            ColumnVector* dst);

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_ENCODING_H_

#ifndef CLOUDIQ_COLUMNAR_ENCODING_H_
#define CLOUDIQ_COLUMNAR_ENCODING_H_

#include <cstdint>
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
// Doubles are stored raw. Every page additionally passes through the
// generic page codec (store/page_codec.h) for page-level compression.

// Packs the low `bit_width` (1..64) bits of each of `values`, little-
// endian bit order.
std::vector<uint8_t> NBitPack(const std::vector<uint64_t>& values,
                              int bit_width);
// Unpacks `count` values of `bit_width` bits. Bits past the end of
// `bytes` read as 0, and a width outside 1..64 reads every value as 0.
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

// Whether the header of `bytes` names the dictionary string encoding. The
// page is not otherwise checked; decoding it may still fail.
bool IsDictionaryPage(const std::vector<uint8_t>& bytes);

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_ENCODING_H_

#ifndef CLOUDIQ_NDP_NDP_PROTOCOL_H_
#define CLOUDIQ_NDP_NDP_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/value.h"
#include "common/result.h"

namespace cloudiq {
namespace ndp {

// Consumer-side pushdown policy (Taurus-style NDP). kOff pulls every
// page over the NIC (the seed behavior), kOn pushes every eligible scan
// into the store, kAuto lets the executor pick per scan under the
// query's cost policy (costopt::ChoosePlan; surfaced in EXPLAIN).
enum class NdpMode { kOff = 0, kOn = 1, kAuto = 2 };

const char* NdpModeName(NdpMode mode);
// "off" / "on" / "auto" (case-sensitive); InvalidArgument otherwise.
Result<NdpMode> ParseNdpMode(const std::string& text);

// --- request ---------------------------------------------------------------

// One encoded column page living as one object-store key: `key` holds
// EncodePage(EncodeColumnPage(...)) bytes, covering table rows
// [first_row, first_row + row_count).
struct NdpPageRef {
  std::string key;
  uint64_t first_row = 0;
  uint32_t row_count = 0;
};

struct NdpColumn {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  bool projected = true;  // returned to the client (else filter-only)
  std::vector<NdpPageRef> pages;  // ascending by first_row
};

// A server-side range scan: check and parse every referenced page, keep
// the rows every column covers whose value of columns[range_column] (an
// int-family column) lies in [lo, hi], and return the projected columns'
// values of those rows, in row order.
//
// On the wire the predicate keeps the bytes of the filter tree the
// protocol once carried, And(Cmp >= lo, Cmp <= hi) followed by an empty
// aggregate list, so a request's size, and with it its NIC time and the
// planner's price for it, is what it always was. Any other filter shape
// is InvalidArgument.
struct NdpRequest {
  std::vector<NdpColumn> columns;
  uint32_t range_column = 0;  // index into columns
  int64_t lo = 0;
  int64_t hi = 0;

  std::vector<uint8_t> Serialize() const;
  // InvalidArgument on malformed bytes: the server cannot evaluate the
  // request, which the client must not retry.
  static Result<NdpRequest> Deserialize(const std::vector<uint8_t>& bytes);
};

// --- result ----------------------------------------------------------------

// `columns` holds one ColumnVector per projected request column
// (request order), each rows_matched long. Columns travel re-encoded
// through EncodeColumnPage, so the result is as compressed as the pages
// the pull path would have fetched. The frame still opens with the word
// that once flagged an aggregate result; it is always 0.
struct NdpResult {
  uint64_t rows_matched = 0;
  std::vector<ColumnVector> columns;

  std::vector<uint8_t> Serialize() const;
  // Corruption on malformed bytes, including a nonzero leading word and
  // columns whose lengths differ from rows_matched.
  static Result<NdpResult> Deserialize(const std::vector<uint8_t>& bytes);
};

}  // namespace ndp
}  // namespace cloudiq

#endif  // CLOUDIQ_NDP_NDP_PROTOCOL_H_

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
// into the store, kAuto lets the executor pick per scan with a
// bytes-moved cost heuristic (surfaced in EXPLAIN).
enum class NdpMode { kOff = 0, kOn = 1, kAuto = 2 };

const char* NdpModeName(NdpMode mode);
// "off" / "on" / "auto" (case-sensitive); InvalidArgument otherwise.
Result<NdpMode> ParseNdpMode(const std::string& text);

// --- filter expression tree ------------------------------------------------

enum class ExprOp : uint8_t { kTrue = 0, kCmp = 1, kAnd = 2, kOr = 3,
                              kNot = 4 };
enum class CmpOp : uint8_t { kEq = 0, kNe = 1, kLt = 2, kLe = 3, kGt = 4,
                             kGe = 5 };

// A predicate over one row: comparisons of a request column against a
// literal, combined with and/or/not. Small and closed by design — the
// server evaluates exactly this, nothing else, so the wire format is the
// whole contract.
struct NdpExpr {
  ExprOp op = ExprOp::kTrue;

  // kCmp only.
  CmpOp cmp = CmpOp::kEq;
  uint32_t column = 0;  // index into NdpRequest::columns
  ColumnType literal_type = ColumnType::kInt64;
  int64_t int_literal = 0;
  double double_literal = 0;
  std::string string_literal;

  // kAnd / kOr (>= 1 child) and kNot (exactly 1 child).
  std::vector<NdpExpr> children;

  // Convenience builders for the executor's range pushdown.
  static NdpExpr True();
  static NdpExpr CmpInt(uint32_t column, CmpOp cmp, int64_t literal);
  static NdpExpr And(std::vector<NdpExpr> children);
};

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

enum class AggOp : uint8_t { kCount = 0, kSum = 1, kMin = 2, kMax = 3 };

struct NdpAggregate {
  AggOp op = AggOp::kCount;
  uint32_t column = 0;  // ignored for kCount
};

// A server-side scan: decode the referenced pages, evaluate `filter` on
// every row covered by all columns, and return either the projected
// columns' matching values (row mode) or the aggregates (one row).
struct NdpRequest {
  std::vector<NdpColumn> columns;
  NdpExpr filter;
  std::vector<NdpAggregate> aggregates;  // empty = row mode

  std::vector<uint8_t> Serialize() const;
  // InvalidArgument on malformed bytes: the server cannot evaluate the
  // request, which the client must not retry.
  static Result<NdpRequest> Deserialize(const std::vector<uint8_t>& bytes);
};

// --- result ----------------------------------------------------------------

// Row mode: `columns` holds one ColumnVector per projected request
// column (request order), all the same length. Aggregate mode: one
// single-row ColumnVector per requested aggregate. Row-mode columns
// travel re-encoded through EncodeColumnPage, so the result is as
// compressed as the pages the pull path would have fetched.
struct NdpResult {
  bool is_aggregate = false;
  uint64_t rows_matched = 0;
  std::vector<ColumnVector> columns;

  std::vector<uint8_t> Serialize() const;
  // Corruption on malformed bytes, including row-mode columns whose
  // lengths differ from rows_matched or aggregate columns of 2+ rows.
  static Result<NdpResult> Deserialize(const std::vector<uint8_t>& bytes);
};

}  // namespace ndp
}  // namespace cloudiq

#endif  // CLOUDIQ_NDP_NDP_PROTOCOL_H_

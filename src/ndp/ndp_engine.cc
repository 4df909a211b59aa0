#include "ndp/ndp_engine.h"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>

#include "columnar/encoding.h"
#include "store/page_codec.h"

namespace cloudiq {
namespace ndp {
namespace {

// One request column with its pages decoded, plus a monotone cursor so
// row lookups across the ascending row scan stay O(1) amortized.
struct DecodedColumn {
  const NdpColumn* meta = nullptr;
  std::vector<ColumnVector> pages;  // parallel to meta->pages
  size_t cursor = 0;

  // Index of the page covering `row`, or npos. Rows are probed in
  // ascending order, so the cursor only moves forward.
  static constexpr size_t npos = std::numeric_limits<size_t>::max();
  size_t PageFor(uint64_t row) {
    while (cursor < meta->pages.size() &&
           meta->pages[cursor].first_row + meta->pages[cursor].row_count <=
               row) {
      ++cursor;
    }
    if (cursor >= meta->pages.size() ||
        meta->pages[cursor].first_row > row) {
      return npos;
    }
    return cursor;
  }
};

// Three-way comparison of column value (col, page, offset) against the
// literal carried by a kCmp node.
int CompareValue(const DecodedColumn& col, size_t page, size_t offset,
                 const NdpExpr& e) {
  const ColumnVector& vals = col.pages[page];
  if (vals.type == ColumnType::kString) {
    const std::string& lhs = vals.strings[offset];
    if (lhs < e.string_literal) return -1;
    if (lhs > e.string_literal) return 1;
    return 0;
  }
  if (vals.type == ColumnType::kDouble ||
      e.literal_type == ColumnType::kDouble) {
    double lhs = vals.type == ColumnType::kDouble
                     ? vals.doubles[offset]
                     : static_cast<double>(vals.ints[offset]);
    double rhs = e.literal_type == ColumnType::kDouble
                     ? e.double_literal
                     : static_cast<double>(e.int_literal);
    if (lhs < rhs) return -1;
    if (lhs > rhs) return 1;
    return 0;
  }
  int64_t lhs = vals.ints[offset];
  int64_t rhs = e.int_literal;
  if (lhs < rhs) return -1;
  if (lhs > rhs) return 1;
  return 0;
}

bool EvalCmp(CmpOp cmp, int c) {
  switch (cmp) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

// Evaluates `e` for the row whose per-column (page, offset) coordinates
// are in `where` (npos-free by the time we get here).
bool EvalExpr(const NdpExpr& e, std::vector<DecodedColumn>& cols,
              const std::vector<std::pair<size_t, size_t>>& where) {
  switch (e.op) {
    case ExprOp::kTrue:
      return true;
    case ExprOp::kCmp: {
      const auto& [page, offset] = where[e.column];
      return EvalCmp(e.cmp, CompareValue(cols[e.column], page, offset, e));
    }
    case ExprOp::kAnd:
      for (const NdpExpr& child : e.children) {
        if (!EvalExpr(child, cols, where)) return false;
      }
      return true;
    case ExprOp::kOr:
      for (const NdpExpr& child : e.children) {
        if (EvalExpr(child, cols, where)) return true;
      }
      return false;
    case ExprOp::kNot:
      return !EvalExpr(e.children[0], cols, where);
  }
  return false;
}

// Running state for one aggregate.
struct AggState {
  bool seen = false;
  int64_t count = 0;
  ColumnVector acc;  // one value of the input column's type: sum/min/max
};

}  // namespace

Result<std::vector<std::string>> NdpEngine::KeysOf(
    const std::vector<uint8_t>& request) const {
  CLOUDIQ_ASSIGN_OR_RETURN(NdpRequest req, NdpRequest::Deserialize(request));
  std::vector<std::string> keys;
  for (const NdpColumn& col : req.columns) {
    for (const NdpPageRef& page : col.pages) keys.push_back(page.key);
  }
  return keys;
}

Result<NdpResult> NdpEngine::Evaluate(
    const NdpRequest& req,
    const std::vector<const std::vector<uint8_t>*>& pages) {
  // Decode every page frame into its column vector, column-major in
  // KeysOf order.
  std::vector<DecodedColumn> cols(req.columns.size());
  size_t page_index = 0;
  for (size_t c = 0; c < req.columns.size(); ++c) {
    cols[c].meta = &req.columns[c];
    cols[c].pages.reserve(req.columns[c].pages.size());
    for (const NdpPageRef& ref : req.columns[c].pages) {
      if (page_index >= pages.size() || pages[page_index] == nullptr) {
        return Status::InvalidArgument("NDP page payloads do not match "
                                       "request refs");
      }
      CLOUDIQ_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                               DecodePage(*pages[page_index]));
      CLOUDIQ_ASSIGN_OR_RETURN(ColumnVector vals,
                               DecodeColumnPage(payload));
      if (vals.size() != ref.row_count || vals.type != req.columns[c].type) {
        return Status::InvalidArgument(
            "NDP page shape mismatch for " + ref.key);
      }
      cols[c].pages.push_back(std::move(vals));
      ++page_index;
    }
  }
  if (page_index != pages.size()) {
    return Status::InvalidArgument("NDP page payloads do not match "
                                   "request refs");
  }

  // Validate aggregates up front (SUM over strings has no meaning).
  for (const NdpAggregate& agg : req.aggregates) {
    if (agg.op == AggOp::kSum &&
        req.columns[agg.column].type == ColumnType::kString) {
      return Status::InvalidArgument("NDP SUM over a string column");
    }
  }

  NdpResult result;
  result.is_aggregate = !req.aggregates.empty();
  std::vector<size_t> projected;
  if (!result.is_aggregate) {
    for (size_t c = 0; c < req.columns.size(); ++c) {
      if (!req.columns[c].projected) continue;
      projected.push_back(c);
      ColumnVector out;
      out.type = req.columns[c].type;
      result.columns.push_back(std::move(out));
    }
  }
  std::vector<AggState> agg_states(req.aggregates.size());
  for (size_t a = 0; a < req.aggregates.size(); ++a) {
    agg_states[a].acc.type = req.columns[req.aggregates[a].column].type;
    agg_states[a].acc.Resize(1);
  }

  // Drive the scan by the first column's pages; a row qualifies only if
  // every request column covers it (each cursor moves forward once per
  // scan, so the whole pass is linear in pages + rows).
  std::vector<std::pair<size_t, size_t>> where(req.columns.size());
  for (const NdpPageRef& drive : req.columns[0].pages) {
    for (uint64_t row = drive.first_row;
         row < drive.first_row + drive.row_count; ++row) {
      bool covered = true;
      for (size_t c = 0; c < cols.size(); ++c) {
        size_t page = cols[c].PageFor(row);
        if (page == DecodedColumn::npos) {
          covered = false;
          break;
        }
        where[c] = {page, row - req.columns[c].pages[page].first_row};
      }
      if (!covered) continue;
      if (!EvalExpr(req.filter, cols, where)) continue;
      ++result.rows_matched;
      if (!result.is_aggregate) {
        for (size_t i = 0; i < projected.size(); ++i) {
          size_t c = projected[i];
          size_t offset = where[c].second;
          result.columns[i].AppendRange(cols[c].pages[where[c].first],
                                        offset, offset + 1);
        }
        continue;
      }
      for (size_t a = 0; a < req.aggregates.size(); ++a) {
        const NdpAggregate& agg = req.aggregates[a];
        AggState& st = agg_states[a];
        ++st.count;
        if (agg.op == AggOp::kCount) continue;
        const ColumnVector& vals =
            cols[agg.column].pages[where[agg.column].first];
        size_t offset = where[agg.column].second;
        VisitValues(st.acc, [&](auto& acc) {
          const auto& v = ValuesLike(vals, acc)[offset];
          if (agg.op == AggOp::kSum) {
            // Validated above: SUM never sees a string column.
            if constexpr (!std::is_same_v<ElementOf<decltype(acc)>,
                                          std::string>) {
              acc[0] += v;
            }
          } else if (!st.seen ||
                     (agg.op == AggOp::kMin ? v < acc[0] : v > acc[0])) {
            acc[0] = v;
          }
        });
        st.seen = true;
      }
    }
  }

  if (result.is_aggregate) {
    for (size_t a = 0; a < req.aggregates.size(); ++a) {
      const NdpAggregate& agg = req.aggregates[a];
      AggState& st = agg_states[a];
      ColumnVector out;
      switch (agg.op) {
        case AggOp::kCount:
          out.type = ColumnType::kInt64;
          out.ints.push_back(st.count);
          break;
        case AggOp::kSum:
          out = std::move(st.acc);
          break;
        case AggOp::kMin:
        case AggOp::kMax:
          out = std::move(st.acc);
          // No matching rows: an empty (zero-row) result column.
          if (!st.seen) out.Resize(0);
          break;
      }
      result.columns.push_back(std::move(out));
    }
  }
  return result;
}

Result<std::vector<uint8_t>> NdpEngine::Execute(
    const std::vector<uint8_t>& request,
    const std::vector<const std::vector<uint8_t>*>& pages) const {
  CLOUDIQ_ASSIGN_OR_RETURN(NdpRequest req, NdpRequest::Deserialize(request));
  CLOUDIQ_ASSIGN_OR_RETURN(NdpResult result, Evaluate(req, pages));
  return result.Serialize();
}

}  // namespace ndp
}  // namespace cloudiq

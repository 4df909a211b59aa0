#include "ndp/ndp_protocol.h"

#include <limits>
#include <utility>

#include "columnar/encoding.h"
#include "common/coding.h"

namespace cloudiq {
namespace ndp {
namespace {

// Wire-format guards: a malformed or adversarial request must fail the
// parse, never the server.
constexpr uint32_t kMaxColumns = 256;
constexpr uint32_t kMaxPagesPerColumn = 1u << 20;
constexpr uint32_t kMaxExprDepth = 64;
constexpr uint32_t kMaxExprChildren = 256;
constexpr uint32_t kMaxAggregates = 64;
// Smallest encodings, so a count never allocates past what the frame can
// hold: a page ref is a non-empty key (u32 length + 1 byte), first_row
// and row_count; a filter node is at least its op.
constexpr size_t kMinPageRefBytes = 4 + 1 + 8 + 4;
constexpr size_t kMinExprBytes = 4;

bool ValidType(uint32_t t) {
  return t <= static_cast<uint32_t>(ColumnType::kDecimal);
}

void PutExpr(std::vector<uint8_t>& dst, const NdpExpr& e) {
  PutU32(dst, static_cast<uint32_t>(e.op));
  switch (e.op) {
    case ExprOp::kTrue:
      break;
    case ExprOp::kCmp:
      PutU32(dst, static_cast<uint32_t>(e.cmp));
      PutU32(dst, e.column);
      PutU32(dst, static_cast<uint32_t>(e.literal_type));
      PutI64(dst, e.int_literal);
      PutDouble(dst, e.double_literal);
      PutString(dst, e.string_literal);
      break;
    case ExprOp::kAnd:
    case ExprOp::kOr:
    case ExprOp::kNot:
      PutU32(dst, static_cast<uint32_t>(e.children.size()));
      for (const NdpExpr& child : e.children) PutExpr(dst, child);
      break;
  }
}

Status GetExpr(ByteReader& r, uint32_t depth, NdpExpr* out) {
  if (depth > kMaxExprDepth) {
    return Status::InvalidArgument("NDP filter nests too deep");
  }
  uint32_t op = r.GetU32();
  if (op > static_cast<uint32_t>(ExprOp::kNot)) {
    return Status::InvalidArgument("bad NDP filter op");
  }
  out->op = static_cast<ExprOp>(op);
  switch (out->op) {
    case ExprOp::kTrue:
      break;
    case ExprOp::kCmp: {
      uint32_t cmp = r.GetU32();
      if (cmp > static_cast<uint32_t>(CmpOp::kGe)) {
        return Status::InvalidArgument("bad NDP comparison op");
      }
      out->cmp = static_cast<CmpOp>(cmp);
      out->column = r.GetU32();
      uint32_t type = r.GetU32();
      if (!ValidType(type)) {
        return Status::InvalidArgument("bad NDP literal type");
      }
      out->literal_type = static_cast<ColumnType>(type);
      out->int_literal = r.GetI64();
      out->double_literal = r.GetDouble();
      out->string_literal = r.GetString();
      break;
    }
    case ExprOp::kAnd:
    case ExprOp::kOr:
    case ExprOp::kNot: {
      uint32_t n = r.GetU32();
      if (n == 0 || n > kMaxExprChildren ||
          n > r.remaining() / kMinExprBytes ||
          (out->op == ExprOp::kNot && n != 1)) {
        return Status::InvalidArgument("bad NDP filter arity");
      }
      out->children.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        CLOUDIQ_RETURN_IF_ERROR(GetExpr(r, depth + 1, &out->children[i]));
        if (r.overflow()) {
          return Status::InvalidArgument("truncated NDP filter");
        }
      }
      break;
    }
  }
  return Status::Ok();
}

// Validates that every column reference in `e` is in range.
Status CheckColumns(const NdpExpr& e, size_t n_columns) {
  if (e.op == ExprOp::kCmp && e.column >= n_columns) {
    return Status::InvalidArgument("NDP filter references unknown column");
  }
  for (const NdpExpr& child : e.children) {
    CLOUDIQ_RETURN_IF_ERROR(CheckColumns(child, n_columns));
  }
  return Status::Ok();
}

}  // namespace

const char* NdpModeName(NdpMode mode) {
  switch (mode) {
    case NdpMode::kOff: return "off";
    case NdpMode::kOn: return "on";
    case NdpMode::kAuto: return "auto";
  }
  return "off";
}

Result<NdpMode> ParseNdpMode(const std::string& text) {
  if (text == "off") return NdpMode::kOff;
  if (text == "on") return NdpMode::kOn;
  if (text == "auto") return NdpMode::kAuto;
  return Status::InvalidArgument("bad NDP mode (want on|off|auto): " + text);
}

NdpExpr NdpExpr::True() { return NdpExpr{}; }

NdpExpr NdpExpr::CmpInt(uint32_t column, CmpOp cmp, int64_t literal) {
  NdpExpr e;
  e.op = ExprOp::kCmp;
  e.cmp = cmp;
  e.column = column;
  e.literal_type = ColumnType::kInt64;
  e.int_literal = literal;
  return e;
}

NdpExpr NdpExpr::And(std::vector<NdpExpr> children) {
  NdpExpr e;
  e.op = ExprOp::kAnd;
  e.children = std::move(children);
  return e;
}

std::vector<uint8_t> NdpRequest::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(columns.size()));
  for (const NdpColumn& col : columns) {
    PutString(out, col.name);
    PutU32(out, static_cast<uint32_t>(col.type));
    PutU32(out, col.projected ? 1 : 0);
    PutU32(out, static_cast<uint32_t>(col.pages.size()));
    for (const NdpPageRef& page : col.pages) {
      PutString(out, page.key);
      PutU64(out, page.first_row);
      PutU32(out, page.row_count);
    }
  }
  PutExpr(out, filter);
  PutU32(out, static_cast<uint32_t>(aggregates.size()));
  for (const NdpAggregate& agg : aggregates) {
    PutU32(out, static_cast<uint32_t>(agg.op));
    PutU32(out, agg.column);
  }
  return out;
}

Result<NdpRequest> NdpRequest::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  NdpRequest req;
  uint32_t n_columns = r.GetU32();
  if (n_columns == 0 || n_columns > kMaxColumns) {
    return Status::InvalidArgument("bad NDP column count");
  }
  req.columns.resize(n_columns);
  for (NdpColumn& col : req.columns) {
    col.name = r.GetString();
    uint32_t type = r.GetU32();
    if (!ValidType(type)) {
      return Status::InvalidArgument("bad NDP column type");
    }
    col.type = static_cast<ColumnType>(type);
    col.projected = r.GetU32() != 0;
    uint32_t n_pages = r.GetU32();
    if (n_pages > kMaxPagesPerColumn || r.overflow() ||
        n_pages > r.remaining() / kMinPageRefBytes) {
      return Status::InvalidArgument("bad NDP page count");
    }
    col.pages.resize(n_pages);
    uint64_t prev_end = 0;
    for (NdpPageRef& page : col.pages) {
      page.key = r.GetString();
      page.first_row = r.GetU64();
      page.row_count = r.GetU32();
      if (r.overflow()) {
        return Status::InvalidArgument("truncated NDP request");
      }
      if (page.key.empty() || page.row_count == 0 ||
          page.first_row < prev_end) {
        return Status::InvalidArgument("bad NDP page ref");
      }
      prev_end = page.first_row + page.row_count;
    }
  }
  CLOUDIQ_RETURN_IF_ERROR(GetExpr(r, 0, &req.filter));
  CLOUDIQ_RETURN_IF_ERROR(CheckColumns(req.filter, req.columns.size()));
  uint32_t n_aggs = r.GetU32();
  if (n_aggs > kMaxAggregates) {
    return Status::InvalidArgument("bad NDP aggregate count");
  }
  req.aggregates.resize(n_aggs);
  for (NdpAggregate& agg : req.aggregates) {
    uint32_t op = r.GetU32();
    if (op > static_cast<uint32_t>(AggOp::kMax)) {
      return Status::InvalidArgument("bad NDP aggregate op");
    }
    agg.op = static_cast<AggOp>(op);
    agg.column = r.GetU32();
    if (agg.column >= req.columns.size()) {
      return Status::InvalidArgument("NDP aggregate references unknown "
                                     "column");
    }
  }
  if (r.overflow() || r.remaining() != 0) {
    return Status::InvalidArgument("malformed NDP request");
  }
  return req;
}

std::vector<uint8_t> NdpResult::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(out, is_aggregate ? 1 : 0);
  PutU64(out, rows_matched);
  PutU32(out, static_cast<uint32_t>(columns.size()));
  for (const ColumnVector& col : columns) {
    PutU32(out, static_cast<uint32_t>(col.type));
    PutU64(out, col.size());
    if (col.size() == 0) continue;
    // Re-encode through the columnar page encoding so the wire result is
    // as compressed as the stored pages the pull path would have moved.
    ZoneMapEntry zone;
    std::vector<uint8_t> encoded = EncodeColumnPage(col, 0, col.size(),
                                                    &zone);
    PutU32(out, static_cast<uint32_t>(encoded.size()));
    PutBytes(out, encoded.data(), encoded.size());
  }
  return out;
}

Result<NdpResult> NdpResult::Deserialize(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  NdpResult res;
  res.is_aggregate = r.GetU32() != 0;
  res.rows_matched = r.GetU64();
  uint32_t n_columns = r.GetU32();
  if (n_columns > kMaxColumns || r.overflow()) {
    return Status::Corruption("bad NDP result column count");
  }
  res.columns.resize(n_columns);
  for (ColumnVector& col : res.columns) {
    uint32_t type = r.GetU32();
    if (!ValidType(type)) {
      return Status::Corruption("bad NDP result column type");
    }
    col.type = static_cast<ColumnType>(type);
    uint64_t rows = r.GetU64();
    if (rows == 0) continue;
    uint32_t len = r.GetU32();
    if (r.overflow() || len > r.remaining()) {
      return Status::Corruption("truncated NDP result");
    }
    std::vector<uint8_t> encoded = r.GetBytes(len);
    CLOUDIQ_ASSIGN_OR_RETURN(ColumnVector decoded,
                             DecodeColumnPage(encoded));
    if (decoded.size() != rows || decoded.type != col.type) {
      return Status::Corruption("NDP result column mismatch");
    }
    col = std::move(decoded);
  }
  if (r.overflow() || r.remaining() != 0) {
    return Status::Corruption("malformed NDP result");
  }
  // A projection returns rows_matched rows in every column; an aggregate
  // returns at most one value per column.
  for (const ColumnVector& col : res.columns) {
    if (res.is_aggregate ? col.size() > 1 : col.size() != res.rows_matched) {
      return Status::Corruption("ragged NDP result");
    }
  }
  return res;
}

}  // namespace ndp
}  // namespace cloudiq

#include "ndp/ndp_protocol.h"

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
// Smallest encoding of a page ref, so a count never allocates past what
// the frame can hold: a non-empty key (u32 length + 1 byte), first_row
// and row_count.
constexpr size_t kMinPageRefBytes = 4 + 1 + 8 + 4;

// The range predicate's wire words, as the filter tree wrote them: an
// And node (op 2) of two children, each a comparison node (op 1) of an
// INT64 literal, >= (5) for lo and <= (3) for hi.
constexpr uint32_t kAndNode = 2;
constexpr uint32_t kCmpNode = 1;
constexpr uint32_t kCmpGe = 5;
constexpr uint32_t kCmpLe = 3;

bool ValidType(uint32_t t) {
  return t <= static_cast<uint32_t>(ColumnType::kDecimal);
}

void PutBound(std::vector<uint8_t>& dst, uint32_t cmp, uint32_t column,
              int64_t literal) {
  PutU32(dst, kCmpNode);
  PutU32(dst, cmp);
  PutU32(dst, column);
  PutU32(dst, static_cast<uint32_t>(ColumnType::kInt64));
  PutI64(dst, literal);
  PutDouble(dst, 0.0);  // the unused double literal
  PutU32(dst, 0);       // the unused string literal, empty
}

// False unless the next bytes are a PutBound of `cmp`.
bool GetBound(ByteReader& r, uint32_t cmp, uint32_t* column,
              int64_t* literal) {
  if (r.GetU32() != kCmpNode || r.GetU32() != cmp) return false;
  *column = r.GetU32();
  if (r.GetU32() != static_cast<uint32_t>(ColumnType::kInt64)) return false;
  *literal = r.GetI64();
  return r.GetU64() == 0 && r.GetU32() == 0;
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
  PutU32(out, kAndNode);
  PutU32(out, 2);  // children
  PutBound(out, kCmpGe, range_column, lo);
  PutBound(out, kCmpLe, range_column, hi);
  PutU32(out, 0);  // aggregates
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
  uint32_t hi_column = 0;
  const bool range = r.GetU32() == kAndNode && r.GetU32() == 2 &&
                     GetBound(r, kCmpGe, &req.range_column, &req.lo) &&
                     GetBound(r, kCmpLe, &hi_column, &req.hi) &&
                     r.GetU32() == 0;  // aggregates
  if (!range || hi_column != req.range_column) {
    return Status::InvalidArgument("NDP filter is not a column range");
  }
  if (req.range_column >= req.columns.size()) {
    return Status::InvalidArgument("NDP filter references unknown column");
  }
  if (r.overflow() || r.remaining() != 0) {
    return Status::InvalidArgument("malformed NDP request");
  }
  return req;
}

std::vector<uint8_t> NdpResult::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(out, 0);  // the retired aggregate flag
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
  if (r.GetU32() != 0) {
    return Status::Corruption("bad NDP result flag");
  }
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
  for (const ColumnVector& col : res.columns) {
    if (col.size() != res.rows_matched) {
      return Status::Corruption("ragged NDP result");
    }
  }
  return res;
}

}  // namespace ndp
}  // namespace cloudiq

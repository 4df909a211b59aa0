#include "ndp/ndp_engine.h"

#include <utility>

#include "columnar/encoding.h"
#include "columnar/range_scan.h"
#include "store/page_codec.h"

namespace cloudiq {
namespace ndp {

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
  size_t refs = 0;
  for (const NdpColumn& col : req.columns) refs += col.pages.size();
  if (pages.size() != refs) {
    return Status::InvalidArgument("NDP page payloads do not match "
                                   "request refs");
  }

  // Open every frame and parse its column page, column-major in KeysOf
  // order, checking each against its ref; the rows every column covers
  // are the candidates.
  std::vector<std::vector<uint8_t>> payloads(refs);
  PageScan scan;
  IntervalSet candidates;
  size_t t = 0;
  for (size_t c = 0; c < req.columns.size(); ++c) {
    ScanColumn col;
    col.type = req.columns[c].type;
    col.write = req.columns[c].projected;
    IntervalSet covered;
    for (const NdpPageRef& ref : req.columns[c].pages) {
      if (pages[t] == nullptr) {
        return Status::InvalidArgument("NDP page payload missing for " +
                                       ref.key);
      }
      CLOUDIQ_ASSIGN_OR_RETURN(payloads[t], DecodePage(*pages[t]));
      ScanPage page;
      page.first_row = ref.first_row;
      page.row_count = ref.row_count;
      CLOUDIQ_RETURN_IF_ERROR(ParseColumnPage(payloads[t], &page.parsed));
      if (page.parsed.count != ref.row_count || page.parsed.type != col.type) {
        return Status::InvalidArgument("NDP page shape mismatch for " +
                                       ref.key);
      }
      col.pages.push_back(std::move(page));
      covered.InsertRange(ref.first_row, ref.first_row + ref.row_count);
      ++t;
    }
    candidates =
        c == 0 ? std::move(covered) : IntervalSet::Intersect(candidates,
                                                             covered);
    scan.columns.push_back(std::move(col));
  }

  // The pull path's pipeline, on one worker, finds and writes the
  // surviving rows; the wire result carries plain strings.
  scan.morsels.push_back({0, candidates.Intervals()});
  scan.range_column = req.range_column;
  scan.lo = req.lo;
  scan.hi = req.hi;
  CLOUDIQ_ASSIGN_OR_RETURN(ScannedRows scanned, ScanPages(scan));
  NdpResult result;
  result.rows_matched = scanned.rows;
  for (size_t c = 0; c < req.columns.size(); ++c) {
    if (!req.columns[c].projected) continue;
    scanned.columns[c].ExpandStrings();
    result.columns.push_back(std::move(scanned.columns[c]));
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

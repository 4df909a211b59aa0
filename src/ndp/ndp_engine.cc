#include "ndp/ndp_engine.h"

#include <algorithm>
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
  if (req.range_column >= req.columns.size() ||
      !IsIntFamily(req.columns[req.range_column].type)) {
    return Status::InvalidArgument("NDP range column is not an int-family "
                                   "request column");
  }
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
  std::vector<ParsedColumnPage> parsed(refs);
  IntervalSet candidates;
  size_t range_first = 0;  // the range column's first page in `parsed`
  size_t t = 0;
  for (size_t c = 0; c < req.columns.size(); ++c) {
    if (c == req.range_column) range_first = t;
    IntervalSet covered;
    for (const NdpPageRef& ref : req.columns[c].pages) {
      if (pages[t] == nullptr) {
        return Status::InvalidArgument("NDP page payload missing for " +
                                       ref.key);
      }
      CLOUDIQ_ASSIGN_OR_RETURN(payloads[t], DecodePage(*pages[t]));
      CLOUDIQ_RETURN_IF_ERROR(ParseColumnPage(payloads[t], &parsed[t]));
      if (parsed[t].count != ref.row_count ||
          parsed[t].type != req.columns[c].type) {
        return Status::InvalidArgument("NDP page shape mismatch for " +
                                       ref.key);
      }
      covered.InsertRange(ref.first_row, ref.first_row + ref.row_count);
      ++t;
    }
    candidates =
        c == 0 ? std::move(covered) : IntervalSet::Intersect(candidates,
                                                             covered);
  }

  // The range column's pages decode whole, as the pull path's phase B
  // does; the shared kernel then finds the candidates' surviving runs.
  const NdpColumn& range_col = req.columns[req.range_column];
  std::vector<ColumnVector> range_pages(range_col.pages.size());
  std::vector<IntPageValues> range_values;
  for (size_t k = 0; k < range_pages.size(); ++k) {
    const NdpPageRef& ref = range_col.pages[k];
    range_pages[k].type = range_col.type;
    range_pages[k].Resize(ref.row_count);
    CLOUDIQ_RETURN_IF_ERROR(DecodeColumnPageInto(
        parsed[range_first + k], ref.row_count,
        {PageRun{0, ref.row_count, 0}}, nullptr, &range_pages[k]));
    range_values.push_back({ref.first_row, range_pages[k].ints});
  }
  std::vector<OutputRun> runs;
  NdpResult result;
  for (const IntervalSet::Interval& iv :
       RangeRuns(candidates.Intervals(), range_values, req.lo, req.hi)) {
    runs.push_back({iv.begin, iv.end, result.rows_matched});
    result.rows_matched += iv.end - iv.begin;
  }

  // Every other page is checked whole and writes its surviving rows, if
  // its column is projected, straight into their slots of the result.
  t = 0;
  for (size_t c = 0; c < req.columns.size(); ++c) {
    const NdpColumn& col = req.columns[c];
    ColumnVector out;
    out.type = col.type;
    if (col.projected) out.Resize(result.rows_matched);
    for (size_t k = 0; k < col.pages.size(); ++k, ++t) {
      const NdpPageRef& ref = col.pages[k];
      std::vector<PageRun> page_runs;
      if (col.projected) {
        page_runs = RunsInPage(runs, ref.first_row, ref.row_count);
      }
      if (c != req.range_column) {
        CLOUDIQ_RETURN_IF_ERROR(DecodeColumnPageInto(
            parsed[t], ref.row_count, page_runs, nullptr, &out));
        continue;
      }
      for (const PageRun& run : page_runs) {
        std::copy(range_pages[k].ints.begin() + run.begin,
                  range_pages[k].ints.begin() + run.end,
                  out.ints.begin() + static_cast<ptrdiff_t>(run.at));
      }
    }
    if (col.projected) result.columns.push_back(std::move(out));
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

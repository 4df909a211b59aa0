#include "columnar/range_scan.h"

#include <algorithm>

namespace cloudiq {

std::vector<IntervalSet::Interval> RangeRuns(
    std::span<const IntervalSet::Interval> rows,
    std::span<const IntPageValues> pages, int64_t lo, int64_t hi) {
  std::vector<IntervalSet::Interval> runs;
  if (lo > hi) return runs;
  // v is in [lo, hi] iff v - lo, taken modulo 2^64, is at most hi - lo.
  const auto base = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - base;
  std::vector<uint64_t> flips;
  size_t page = 0;
  for (const IntervalSet::Interval& iv : rows) {
    for (uint64_t r = iv.begin; r < iv.end;) {
      while (r >= pages[page].first_row + pages[page].values.size()) {
        ++page;
      }
      const IntPageValues& p = pages[page];
      const uint64_t end = std::min(iv.end, p.first_row + p.values.size());
      const int64_t* values = p.values.data();
      if (flips.size() < end - r + 1) flips.resize(end - r + 1);
      size_t n = 0;
      bool in = false;
      for (uint64_t row = r; row < end; ++row) {
        const bool keep =
            static_cast<uint64_t>(values[row - p.first_row]) - base <= span;
        flips[n] = row;
        n += keep != in ? 1 : 0;
        in = keep;
      }
      if (in) flips[n++] = end;
      for (size_t k = 0; k < n; k += 2) {
        if (!runs.empty() && runs.back().end == flips[k]) {
          runs.back().end = flips[k + 1];
        } else {
          runs.push_back({flips[k], flips[k + 1]});
        }
      }
      r = end;
    }
  }
  return runs;
}

std::vector<PageRun> RunsInPage(std::span<const OutputRun> runs,
                                uint64_t first_row, uint64_t row_count) {
  const uint64_t last = first_row + row_count;  // exclusive
  std::vector<PageRun> out;
  auto it = std::partition_point(
      runs.begin(), runs.end(),
      [first_row](const OutputRun& r) { return r.end <= first_row; });
  for (; it != runs.end() && it->begin < last; ++it) {
    uint64_t begin = std::max(it->begin, first_row);
    uint64_t end = std::min(it->end, last);
    out.push_back({static_cast<uint32_t>(begin - first_row),
                   static_cast<uint32_t>(end - first_row),
                   it->at + static_cast<size_t>(begin - it->begin)});
  }
  return out;
}

}  // namespace cloudiq

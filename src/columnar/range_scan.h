#ifndef CLOUDIQ_COLUMNAR_RANGE_SCAN_H_
#define CLOUDIQ_COLUMNAR_RANGE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "columnar/encoding.h"
#include "common/interval_set.h"

namespace cloudiq {

// The range-scan kernels that both sides of the wire run: the executor's
// pull path (ScanTable) and the object store's NDP engine find the rows
// of a range predicate and place them with these, so a pushed scan and a
// pulled one select and order rows by the same code.

// The decoded values of one page of an int-family column, covering rows
// [first_row, first_row + values.size()).
struct IntPageValues {
  uint64_t first_row = 0;
  std::span<const int64_t> values;
};

// The runs of `rows` whose value lies in [lo, hi], ascending and
// coalesced: one pass over `pages`, which ascend by first_row and cover
// every row of `rows` (ascending, disjoint runs). The pass has no
// data-dependent branch: it notes every row where the in-range flag
// flips, and consecutive flips bound a run. lo > hi selects nothing.
std::vector<IntervalSet::Interval> RangeRuns(
    std::span<const IntervalSet::Interval> rows,
    std::span<const IntPageValues> pages, int64_t lo, int64_t hi);

// Rows [begin, end) that a scan keeps, written to output rows at,
// at + 1, ...
struct OutputRun {
  uint64_t begin = 0;
  uint64_t end = 0;
  size_t at = 0;
};

// The rows of `runs` (ascending, disjoint) that fall in the page holding
// rows [first_row, first_row + row_count), as page-local PageRuns for
// DecodeColumnPageInto.
std::vector<PageRun> RunsInPage(std::span<const OutputRun> runs,
                                uint64_t first_row, uint64_t row_count);

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_RANGE_SCAN_H_

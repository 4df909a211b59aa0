#ifndef CLOUDIQ_COLUMNAR_RANGE_SCAN_H_
#define CLOUDIQ_COLUMNAR_RANGE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "columnar/encoding.h"
#include "columnar/value.h"
#include "common/interval_set.h"
#include "common/result.h"

namespace cloudiq {

// The page-scan pipeline: the one path from fetched column pages to a
// scan's output columns, which the pull scan (ScanTable), the row-id scan
// (ScanRowIds) and the object store's NDP server (NdpEngine) all run. It
// is pure host CPU and touches no simulator, ledger, profiler or stats
// state; each caller keeps its own fetches, charges and counters.

// One page of a read column. The pipeline parses `bytes`, the column
// page; when they are null, `parsed` is the page as ParseColumnPage
// checked it. Either way the bytes outlive the call.
struct ScanPage {
  size_t partition = 0;  // the scan's own partition index
  uint64_t first_row = 0;
  uint64_t row_count = 0;
  const std::vector<uint8_t>* bytes = nullptr;
  ParsedColumnPage parsed;
};

// A read column: pages partition by partition, each partition's ascending
// and disjoint and holding every candidate row. A column that is not
// written (only the filter reads it) is checked and comes back empty.
struct ScanColumn {
  ColumnType type = ColumnType::kInt64;
  bool write = true;
  std::vector<ScanPage> pages;
};

// One unit of scan work: ascending, disjoint candidate runs.
struct ScanMorsel {
  size_t partition = 0;
  std::span<const IntervalSet::Interval> rows;
};

struct PageScan {
  std::vector<ScanColumn> columns;
  std::vector<ScanMorsel> morsels;  // in output (partition, row) order
  // The optional predicate lo <= columns[*range_column] <= hi on an
  // int-family column; without it every candidate row survives.
  std::optional<size_t> range_column;
  int64_t lo = 0;
  int64_t hi = 0;
  int workers = 1;  // for TaskPool::RunIndexed
};

struct ScannedRows {
  size_t rows = 0;  // the survivors, the written columns' length
  std::vector<ColumnVector> columns;  // one per read column
};

// Checks every page whole, even one the filter empties; decodes the range
// column's pages whole; finds each morsel's surviving runs and places
// them by a prefix sum in morsel order; keeps a written string column
// dictionary-coded iff every page of it is a dictionary page, merging the
// page dictionaries in page order; and writes every survivor into its
// slot of the presized output. A defective page is Corruption; a range
// column that is not an int-family read column is InvalidArgument.
Result<ScannedRows> ScanPages(const PageScan& scan);

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_RANGE_SCAN_H_

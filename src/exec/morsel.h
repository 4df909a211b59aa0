#ifndef CLOUDIQ_EXEC_MORSEL_H_
#define CLOUDIQ_EXEC_MORSEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "columnar/schema.h"
#include "common/interval_set.h"

namespace cloudiq {

// How the executor runs the morsels of a parallel section is decided by
// the worker count alone (QueryContext::Options::exec_workers):
//
//  * workers <= 1 (default): morsels run inline on the calling thread in
//    ascending index order.
//  * workers > 1: morsels are drained from a shared counter by real
//    worker threads (TaskPool) for wall-clock speedup.
//
// Either way the work-then-charge split in executor.cc holds (task
// lambdas touch no simulator state; all CPU charges happen afterwards in
// a fixed coordinator loop), so a run's clock, ledger and stall profile
// are byte-identical across worker counts — only host wall time changes.

// One unit of parallel scan work: a page-aligned row range of one
// partition plus the candidate row set inside it (the zone-map
// survivors). Page alignment is taken from the scan's leading column so
// a morsel decodes whole pages of that column; other columns page
// independently and are walked by row id.
struct Morsel {
  size_t partition = 0;
  uint64_t row_begin = 0;  // first row covered (page boundary)
  uint64_t row_end = 0;    // exclusive (page boundary)
  IntervalSet rows;        // candidate rows within [row_begin, row_end)
  uint64_t row_count = 0;  // rows.Count(), precomputed
};

// Splits the candidate `rows` of one partition into page-aligned morsels
// of roughly `target_rows` candidate rows each, appending to `out`.
// Cuts only at page boundaries of `align_seg`, so a morsel is closed by
// the first page that brings it to >= target_rows; the tail becomes a
// smaller remainder morsel. Pages with no candidate rows extend no
// morsel. Empty `rows` appends nothing; target_rows == 0 is treated
// as 1.
void AppendMorsels(const SegmentMeta& align_seg, size_t partition,
                   const IntervalSet& rows, uint64_t target_rows,
                   std::vector<Morsel>* out);

// Contiguous row chunks for operators without page structure (hash-join
// build/probe sides, aggregation input): [begin, end) ranges covering
// [0, rows) in order, each `target_rows` long except a smaller final
// remainder. rows == 0 yields no chunks; target_rows == 0 is treated
// as 1.
struct RowChunk {
  size_t begin = 0;
  size_t end = 0;  // exclusive
};
std::vector<RowChunk> MakeRowChunks(size_t rows, uint64_t target_rows);

}  // namespace cloudiq

#endif  // CLOUDIQ_EXEC_MORSEL_H_

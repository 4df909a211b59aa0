#include "exec/morsel.h"

#include <algorithm>

namespace cloudiq {

namespace {

using Runs = std::vector<IntervalSet::Interval>;

// Candidate rows of `runs` that fall inside [first, last). `*run` is the
// merge cursor: windows arrive ascending, so runs that end at or before
// `first` are never looked at again.
uint64_t CandidateRowsIn(const Runs& runs, size_t* run, uint64_t first,
                         uint64_t last) {
  while (*run < runs.size() && runs[*run].end <= first) ++*run;
  uint64_t count = 0;
  for (size_t r = *run; r < runs.size() && runs[r].begin < last; ++r) {
    count += std::min(runs[r].end, last) - std::max(runs[r].begin, first);
  }
  return count;
}

// Clips `runs` to the morsel's [row_begin, row_end) window, with the same
// kind of cursor as CandidateRowsIn.
void FillMorselRows(const Runs& runs, size_t* run, Morsel* morsel) {
  while (*run < runs.size() && runs[*run].end <= morsel->row_begin) ++*run;
  for (size_t r = *run; r < runs.size() && runs[r].begin < morsel->row_end;
       ++r) {
    morsel->rows.InsertRange(std::max(runs[r].begin, morsel->row_begin),
                             std::min(runs[r].end, morsel->row_end));
  }
}

}  // namespace

void AppendMorsels(const SegmentMeta& align_seg, size_t partition,
                   const IntervalSet& rows, uint64_t target_rows,
                   std::vector<Morsel>* out) {
  if (rows.empty()) return;
  if (target_rows == 0) target_rows = 1;
  const Runs& runs = rows.Intervals();
  size_t count_run = 0;
  size_t fill_run = 0;
  Morsel cur;
  bool open = false;
  uint64_t first = 0;
  for (size_t page = 0; page < align_seg.page_rows.size(); ++page) {
    uint64_t last = first + align_seg.page_rows[page];  // exclusive
    uint64_t candidates = CandidateRowsIn(runs, &count_run, first, last);
    if (candidates > 0) {
      if (!open) {
        cur = Morsel{};
        cur.partition = partition;
        cur.row_begin = first;
        open = true;
      }
      cur.row_end = last;
      cur.row_count += candidates;
      if (cur.row_count >= target_rows) {
        FillMorselRows(runs, &fill_run, &cur);
        out->push_back(std::move(cur));
        open = false;
      }
    }
    first = last;
  }
  if (open) {
    // Remainder morsel: the candidate tail that never reached target.
    FillMorselRows(runs, &fill_run, &cur);
    out->push_back(std::move(cur));
  }
}

std::vector<RowChunk> MakeRowChunks(size_t rows, uint64_t target_rows) {
  std::vector<RowChunk> chunks;
  if (rows == 0) return chunks;
  if (target_rows == 0) target_rows = 1;
  size_t step = static_cast<size_t>(target_rows);
  for (size_t begin = 0; begin < rows; begin += step) {
    chunks.push_back(RowChunk{begin, std::min(rows, begin + step)});
  }
  return chunks;
}

}  // namespace cloudiq

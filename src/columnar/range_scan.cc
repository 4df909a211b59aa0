#include "columnar/range_scan.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/key_hash.h"
#include "common/row_key_table.h"
#include "common/task_pool.h"

namespace cloudiq {

namespace {

using Interval = IntervalSet::Interval;

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
std::vector<Interval> RangeRuns(std::span<const Interval> rows,
                                std::span<const IntPageValues> pages,
                                int64_t lo, int64_t hi) {
  std::vector<Interval> runs;
  if (lo > hi) return runs;
  // v is in [lo, hi] iff v - lo, taken modulo 2^64, is at most hi - lo.
  const auto base = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - base;
  std::vector<uint64_t> flips;
  size_t page = 0;
  for (const Interval& iv : rows) {
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

// The dictionary section of one page of a coded read column.
struct PageDict {
  // The parsed page's entries, views into the page's bytes.
  const std::vector<std::string_view>* entries = nullptr;
  std::vector<uint64_t> hash;   // HashKey of each entry
  std::vector<uint32_t> remap;  // page code -> scan dictionary code
};

// Merges the page dictionaries of one coded read column, in page order,
// into one scan dictionary, and fills each page's remap. A string already
// in the scan dictionary is found by its hash; the page dictionaries'
// entries are distinct, so the merged ones are too.
std::shared_ptr<const StringDict> MergePageDictionaries(
    std::span<PageDict> pages) {
  auto merged = std::make_shared<StringDict>();
  RowKeyTable index;
  for (PageDict& page : pages) {
    const std::vector<std::string_view>& entries = *page.entries;
    page.remap.resize(entries.size());
    for (size_t j = 0; j < entries.size(); ++j) {
      bool inserted = false;
      page.remap[j] = index.FindOrInsert(
          page.hash[j],
          [&](uint32_t e) { return merged->strings[e] == entries[j]; },
          &inserted);
      if (inserted) {
        merged->strings.emplace_back(entries[j]);
        merged->hash.push_back(page.hash[j]);
      }
    }
  }
  return merged;
}

Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

}  // namespace

Result<ScannedRows> ScanPages(const PageScan& scan) {
  const size_t column_count = scan.columns.size();
  const bool has_range = scan.range_column.has_value();
  const size_t range = scan.range_column.value_or(column_count);
  if (has_range &&
      (range >= column_count || !IsIntFamily(scan.columns[range].type))) {
    return Status::InvalidArgument("scan range column is not an int-family "
                                   "read column");
  }
  size_t partitions = 0;
  for (const ScanMorsel& m : scan.morsels) {
    partitions = std::max(partitions, m.partition + 1);
  }
  // Every (column, page), column by column in page order: the order of
  // the page tasks and of their errors.
  struct PageRef {
    size_t column;
    const ScanPage* page;
  };
  std::vector<PageRef> refs;
  size_t range_first = 0;  // the range column's first page in `refs`
  for (size_t c = 0; c < column_count; ++c) {
    if (c == range) range_first = refs.size();
    for (const ScanPage& page : scan.columns[c].pages) {
      refs.push_back({c, &page});
      partitions = std::max(partitions, page.partition + 1);
    }
  }
  TaskPool& pool = TaskPool::Global();
  const int workers = scan.workers;
  std::vector<Status> status(refs.size());

  // 1. Parse the pages the caller has not, and hash the entries of a
  // written column's dictionary pages.
  std::vector<ParsedColumnPage> own(refs.size());
  std::vector<const ParsedColumnPage*> parsed(refs.size());
  std::vector<PageDict> dicts(refs.size());
  pool.RunIndexed(workers, refs.size(), [&](size_t t) {
    const ScanPage& page = *refs[t].page;
    parsed[t] = &page.parsed;
    if (page.bytes != nullptr) {
      status[t] = ParseColumnPage(*page.bytes, &own[t]);
      if (!status[t].ok()) return;
      parsed[t] = &own[t];
    }
    if (!scan.columns[refs[t].column].write || !parsed[t]->IsDictionary()) {
      return;
    }
    dicts[t].entries = &parsed[t]->strings;
    dicts[t].hash.reserve(parsed[t]->strings.size());
    for (std::string_view e : parsed[t]->strings) {
      dicts[t].hash.push_back(HashKey(e));
    }
  });
  CLOUDIQ_RETURN_IF_ERROR(FirstError(status));

  // 2. Decode the range column's pages whole.
  std::vector<ColumnVector> range_pages;
  std::vector<std::vector<IntPageValues>> range_values(partitions);
  if (has_range) {
    const ScanColumn& col = scan.columns[range];
    range_pages.resize(col.pages.size());
    pool.RunIndexed(workers, col.pages.size(), [&](size_t k) {
      const ScanPage& page = col.pages[k];
      range_pages[k].type = col.type;
      range_pages[k].Resize(page.row_count);
      status[range_first + k] = DecodeColumnPageInto(
          *parsed[range_first + k], page.row_count,
          {PageRun{0, static_cast<uint32_t>(page.row_count), 0}}, nullptr,
          &range_pages[k]);
    });
    CLOUDIQ_RETURN_IF_ERROR(FirstError(status));
    for (size_t k = 0; k < col.pages.size(); ++k) {
      range_values[col.pages[k].partition].push_back(
          {col.pages[k].first_row, range_pages[k].ints});
    }
  }

  // 3. Each morsel's surviving runs; a prefix sum over their lengths, in
  // morsel order, gives every run its output rows.
  std::vector<std::vector<Interval>> survivors(scan.morsels.size());
  pool.RunIndexed(workers, scan.morsels.size(), [&](size_t m) {
    const ScanMorsel& morsel = scan.morsels[m];
    survivors[m] = has_range ? RangeRuns(morsel.rows,
                                         range_values[morsel.partition],
                                         scan.lo, scan.hi)
                             : std::vector<Interval>(morsel.rows.begin(),
                                                     morsel.rows.end());
  });
  std::vector<std::vector<OutputRun>> runs(partitions);
  ScannedRows out;
  for (size_t m = 0; m < scan.morsels.size(); ++m) {
    for (const Interval& iv : survivors[m]) {
      runs[scan.morsels[m].partition].push_back({iv.begin, iv.end, out.rows});
      out.rows += static_cast<size_t>(iv.end - iv.begin);
    }
  }

  // 4. Give each coded column its scan dictionary before any code is
  // written. Each column's pages are consecutive in `refs`.
  out.columns.resize(column_count);
  std::vector<const std::vector<uint32_t>*> remap_of(refs.size(), nullptr);
  for (size_t c = 0, t = 0; c < column_count; ++c) {
    const ScanColumn& col = scan.columns[c];
    ColumnVector& dst = out.columns[c];
    dst.type = col.type;
    const size_t end = t + col.pages.size();
    if (col.write) {
      bool coded = col.type == ColumnType::kString && t < end;
      for (size_t u = t; u < end; ++u) {
        coded = coded && parsed[u]->IsDictionary();
      }
      if (coded) {
        dst.dict = MergePageDictionaries(
            std::span<PageDict>(dicts).subspan(t, end - t));
        for (size_t u = t; u < end; ++u) remap_of[u] = &dicts[u].remap;
      }
      dst.Resize(out.rows);
    }
    t = end;
  }

  // 5. One task per page checks all of it and writes its survivors into
  // their slots, which no other task writes. The range column's come
  // from step 2, which also checked its pages.
  pool.RunIndexed(workers, refs.size(), [&](size_t t) {
    const ScanColumn& col = scan.columns[refs[t].column];
    const ScanPage& page = *refs[t].page;
    ColumnVector& dst = out.columns[refs[t].column];
    if (refs[t].column == range && !col.write) return;
    const std::vector<PageRun> page_runs =
        col.write
            ? RunsInPage(runs[page.partition], page.first_row, page.row_count)
            : std::vector<PageRun>();
    if (refs[t].column == range) {
      const std::vector<int64_t>& from = range_pages[t - range_first].ints;
      for (const PageRun& run : page_runs) {
        std::copy(from.begin() + run.begin, from.begin() + run.end,
                  dst.ints.begin() + static_cast<ptrdiff_t>(run.at));
      }
      return;
    }
    status[t] = DecodeColumnPageInto(*parsed[t], page.row_count, page_runs,
                                     remap_of[t], &dst);
    own[t] = {};
  });
  CLOUDIQ_RETURN_IF_ERROR(FirstError(status));
  return out;
}

}  // namespace cloudiq

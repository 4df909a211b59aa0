#ifndef CLOUDIQ_COLUMNAR_DATE_INDEX_H_
#define CLOUDIQ_COLUMNAR_DATE_INDEX_H_

#include <cstdint>
#include <vector>

#include "columnar/posting_page.h"
#include "common/interval_set.h"
#include "common/result.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

// DATE index (§1: SAP IQ "supports a wide range of other *niche* indexes
// (e.g., DATE/TIME/DTTM tailored for datepart queries)"). Where the HG
// index keys on raw values, the DATE index keys on *date parts*: one
// posting list per (year, month), so `WHERE month(col)=9 AND
// year(col)=1995` (Q14's shape) or `year(col) BETWEEN 1995 AND 1996`
// (Q7/Q8) resolve to row-id interval sets without scanning the column.
//
// Storage is the HG index's (posting_page.h): postings packed into pages
// of a dedicated storage object, with per-page (year*12+month) key ranges
// in the table metadata acting as the inner levels.
class DateIndex {
 public:
  // Months are keyed as year*12 + (month-1).
  static int64_t MonthKey(int year, int month) {
    return static_cast<int64_t>(year) * 12 + (month - 1);
  }

  // Accumulates (month key, row id) postings during load.
  class Builder {
   public:
    // Adds a row whose date-typed value is `days` since epoch.
    void Add(int64_t days, uint64_t row_id);
    bool empty() const { return postings_.empty(); }

   private:
    friend class DateIndex;
    PostingBuilder<int64_t> postings_;
  };

  // Drains the builder's postings into storage object `object_id`.
  // Returns per-page [min,max] month-key ranges for the table metadata.
  static Result<std::vector<std::pair<int64_t, int64_t>>> Build(
      TransactionManager* txn_mgr, Transaction* txn, uint64_t object_id,
      DbSpace* space, Builder* builder, uint64_t page_payload_target);

  // Rows whose value falls in calendar month (year, month).
  static Result<IntervalSet> LookupMonth(
      StorageObject* object,
      const std::vector<std::pair<int64_t, int64_t>>& page_ranges,
      int year, int month);

  // Rows whose value falls in [year_lo, year_hi] (whole years).
  static Result<IntervalSet> LookupYearRange(
      StorageObject* object,
      const std::vector<std::pair<int64_t, int64_t>>& page_ranges,
      int year_lo, int year_hi);
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_DATE_INDEX_H_

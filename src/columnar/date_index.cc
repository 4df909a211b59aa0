#include "columnar/date_index.h"

#include "columnar/value.h"

namespace cloudiq {

void DateIndex::Builder::Add(int64_t days, uint64_t row_id) {
  int year, month, day;
  CivilFromDays(days, &year, &month, &day);
  postings_.Add(MonthKey(year, month), row_id);
}

Result<std::vector<std::pair<int64_t, int64_t>>> DateIndex::Build(
    TransactionManager* txn_mgr, Transaction* txn, uint64_t object_id,
    DbSpace* space, Builder* builder, uint64_t page_payload_target) {
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           txn_mgr->CreateObject(txn, object_id, space));
  PostingPageWriter<int64_t> writer(object, page_payload_target);
  CLOUDIQ_RETURN_IF_ERROR(builder->postings_.Drain(
      [&](int64_t key, IntervalSet&& rows) { return writer.Add(key, rows); }));
  return writer.Finish();
}

Result<IntervalSet> DateIndex::LookupMonth(
    StorageObject* object,
    const std::vector<std::pair<int64_t, int64_t>>& page_ranges, int year,
    int month) {
  int64_t key = MonthKey(year, month);
  return LookupPostings<int64_t>(object, page_ranges, key, key,
                                 "DATE index page");
}

Result<IntervalSet> DateIndex::LookupYearRange(
    StorageObject* object,
    const std::vector<std::pair<int64_t, int64_t>>& page_ranges,
    int year_lo, int year_hi) {
  return LookupPostings<int64_t>(object, page_ranges, MonthKey(year_lo, 1),
                                 MonthKey(year_hi, 12), "DATE index page");
}

}  // namespace cloudiq

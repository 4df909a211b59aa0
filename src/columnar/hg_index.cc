#include "columnar/hg_index.h"

namespace cloudiq {

Result<std::vector<std::pair<int64_t, int64_t>>> HgIndex::Build(
    TransactionManager* txn_mgr, Transaction* txn, uint64_t object_id,
    DbSpace* space, Builder* builder, uint64_t page_payload_target) {
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           txn_mgr->CreateObject(txn, object_id, space));
  PostingPageWriter<int64_t> writer(object, page_payload_target);
  CLOUDIQ_RETURN_IF_ERROR(builder->Drain(
      [&](int64_t value, IntervalSet&& rows) {
        return writer.Add(value, rows);
      }));
  return writer.Finish();
}

Result<IntervalSet> HgIndex::Lookup(
    StorageObject* object,
    const std::vector<std::pair<int64_t, int64_t>>& page_ranges,
    int64_t value) {
  return LookupRange(object, page_ranges, value, value);
}

Result<IntervalSet> HgIndex::LookupRange(
    StorageObject* object,
    const std::vector<std::pair<int64_t, int64_t>>& page_ranges,
    int64_t lo, int64_t hi) {
  return LookupPostings<int64_t>(object, page_ranges, lo, hi,
                                 "HG index page");
}

}  // namespace cloudiq

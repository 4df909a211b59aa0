#ifndef CLOUDIQ_COLUMNAR_HG_INDEX_H_
#define CLOUDIQ_COLUMNAR_HG_INDEX_H_

#include <cstdint>
#include <vector>

#include "columnar/posting_page.h"
#include "common/interval_set.h"
#include "common/result.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

// High-Group (HG) index (§1): combines a B+-tree-style sorted value
// organization with bitmap-compressed posting lists. CloudIQ's rendition
// stores, per indexed column and partition, the sorted distinct values
// with an interval-set of row ids each; entries are packed into pages of
// their own storage object, and the per-page key ranges (recorded in the
// table metadata) play the role of the B+-tree's inner levels — a lookup
// reads only the page whose range covers the probe key.
class HgIndex {
 public:
  // Accumulates (value, row id) postings during load.
  using Builder = PostingBuilder<int64_t>;

  // Drains the builder's postings into a new storage object `object_id`
  // owned by `txn`. Returns the per-page [min,max] key ranges for the
  // table metadata.
  static Result<std::vector<std::pair<int64_t, int64_t>>> Build(
      TransactionManager* txn_mgr, Transaction* txn, uint64_t object_id,
      DbSpace* space, Builder* builder, uint64_t page_payload_target);

  // Probes the index for `value`: reads only the page whose key range
  // covers it. Returns an empty set when the value is absent.
  static Result<IntervalSet> Lookup(
      StorageObject* object,
      const std::vector<std::pair<int64_t, int64_t>>& page_ranges,
      int64_t value);

  // Range probe: row ids for values in [lo, hi].
  static Result<IntervalSet> LookupRange(
      StorageObject* object,
      const std::vector<std::pair<int64_t, int64_t>>& page_ranges,
      int64_t lo, int64_t hi);
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_HG_INDEX_H_

#ifndef CLOUDIQ_COLUMNAR_TABLE_READER_H_
#define CLOUDIQ_COLUMNAR_TABLE_READER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "columnar/schema.h"
#include "columnar/table_loader.h"
#include "common/interval_set.h"
#include "store/system_store.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

// Snapshot-consistent read access to a loaded table: page fetches,
// zone-map pruning, batched parallel read-ahead, and index probes. One
// TableReader per (transaction, table); storage objects are opened
// lazily from the transaction's snapshot.
class TableReader {
 public:
  // The one way to make a reader: checks that `meta` has the shape
  // TableLoader::Finish writes, which every reader path indexes without
  // a check — at most schema.partition_count() partitions, each with one
  // segment per schema column, one zone, row count and frame size per
  // page of each segment, and HG, DATE and TEXT index lists parallel to
  // the schema's index columns. Corruption otherwise.
  static Result<TableReader> Make(TransactionManager* txn_mgr,
                                  Transaction* txn, TableMeta meta);

  // Loads the table metadata blob and makes a reader of it.
  static Result<TableReader> Open(TransactionManager* txn_mgr,
                                  Transaction* txn, SystemStore* system,
                                  uint64_t table_id);

  const TableMeta& meta() const { return meta_; }
  const TableSchema& schema() const { return meta_.schema; }

  // Fetches the *encoded* frame of page `page` without decoding it.
  // All simulated I/O and the decoded_bytes() accounting happen here, so
  // the morsel executor can fetch frames on the (deterministic)
  // coordinator and hand the pure-CPU DecodeColumnPageInto calls, which
  // decode each page's surviving rows in place, to native worker threads.
  Result<BufferManager::PageData> FetchPage(size_t partition, int column,
                                            size_t page);

  // Some pages of one column segment, ascending.
  struct SegmentPages {
    size_t partition = 0;
    int column = 0;
    std::vector<uint64_t> pages;
  };

  // Fetches the frames of every listed page, segment by segment and page
  // by page, appending them to `frames` in that order. The reads overlap
  // across segments: each round prefetches the next pages, in order, whose
  // stored bytes (SegmentMeta::page_bytes) fit the buffer's clean room in
  // one parallel round set, then fetches them, so no page read ahead is
  // evicted before it is fetched. A round holds at least one page.
  Status FetchPages(std::span<const SegmentPages> segments,
                    std::vector<BufferManager::PageData>* frames);

  // Pages of (partition, column) whose zone map intersects [lo, hi]
  // (int-family columns).
  std::vector<uint64_t> PrunePagesInt(size_t partition, int column,
                                      int64_t lo, int64_t hi) const;

  // HG index probe: partition-local row ids with column == value
  // (column must be one of the schema's hg_index_columns).
  Result<IntervalSet> IndexLookup(size_t partition, int column,
                                  int64_t value);
  Result<IntervalSet> IndexLookupRange(size_t partition, int column,
                                       int64_t lo, int64_t hi);

  // DATE-index probes: rows whose DATE column falls in one calendar
  // month, or in whole years [year_lo, year_hi] (column must be in the
  // schema's date_index_columns).
  Result<IntervalSet> DateIndexMonth(size_t partition, int column,
                                     int year, int month);
  Result<IntervalSet> DateIndexYears(size_t partition, int column,
                                     int year_lo, int year_hi);

  // TEXT-index probe: rows whose string column contains every word in
  // `words` (candidate set; callers verify exact patterns). The column
  // must be in the schema's text_index_columns.
  Result<IntervalSet> TextIndexAllWords(
      size_t partition, int column, const std::vector<std::string>& words);

  // First row id (partition-local) of each page, for mapping page-local
  // offsets to row ids.
  uint64_t PageFirstRow(size_t partition, int column, size_t page) const;

  // --- near-data-processing support --------------------------------------
  // One committed cloud page of a column segment addressed by its full
  // object-store key — the unit an NDP request references. Deliberately
  // protocol-agnostic: the reader resolves keys, the exec layer builds
  // NdpRequests from them, so columnar stays independent of src/ndp/.
  struct CloudPageRef {
    std::string store_key;
    uint64_t first_row = 0;   // partition-local row of the page's first value
    uint32_t row_count = 0;
    // Raw object key (PhysicalLoc::cloud_key), for residency probes
    // against the OCM index at plan time.
    uint64_t cloud_key = 0;
  };

  // Whether server-side pushdown can read this table's pages at all:
  // the storage subsystem must not encrypt pages (the store has no key)
  // and this transaction must have no unflushed dirty pages (the store
  // would serve stale committed versions).
  bool PushdownEligible() const;

  // Resolves `pages` of (partition, column) to object-store keys.
  // FailedPrecondition if any page is not cloud-resident (non-cloud
  // dbspace, or a dirty/unflushed page with no physical location yet).
  Result<std::vector<CloudPageRef>> CloudPageRefs(
      size_t partition, int column, const std::vector<uint64_t>& pages);

  // Plan-time residency of `pages` of (partition, column): how many a
  // pull would find in the RAM buffer pool, how many on the OCM's SSD,
  // the rest being object-store GETs. Pure probes — no LRU movement, no
  // simulated I/O, no stats — so the scan cost model can price warm
  // vs. cold without perturbing what it measures. Pages with no durable
  // location yet (dirty in this transaction) count as buffer-resident.
  struct Residency {
    uint64_t pages = 0;
    uint64_t in_buffer = 0;
    uint64_t in_cloud_cache = 0;

    uint64_t Cold() const { return pages - in_buffer - in_cloud_cache; }
    void Fold(const Residency& o) {
      pages += o.pages;
      in_buffer += o.in_buffer;
      in_cloud_cache += o.in_cloud_cache;
    }
  };
  Residency ProbeResidency(size_t partition, int column,
                           const std::vector<uint64_t>& pages);

  // Bytes decoded since construction (the executor charges decode CPU
  // from this).
  uint64_t decoded_bytes() const { return decoded_bytes_; }

 private:
  TableReader(TransactionManager* txn_mgr, Transaction* txn,
              TableMeta meta);

  Result<StorageObject*> ObjectFor(uint64_t object_id);

  TransactionManager* txn_mgr_;
  Transaction* txn_;
  TableMeta meta_;
  std::map<uint64_t, std::unique_ptr<StorageObject>> objects_;
  uint64_t decoded_bytes_ = 0;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_TABLE_READER_H_

#ifndef CLOUDIQ_COLUMNAR_TABLE_LOADER_H_
#define CLOUDIQ_COLUMNAR_TABLE_LOADER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "columnar/date_index.h"
#include "columnar/text_index.h"
#include "columnar/hg_index.h"
#include "columnar/schema.h"
#include "store/system_store.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

// The load engine's per-table half: routes incoming row batches to range
// partitions, stages values per (partition, column), and cuts each
// *column's* pages independently when that column's staged bytes approach
// the page size — narrow integer columns pack tens of thousands of values
// per page while comment columns cut far more often, exactly as a
// disk-based columnar store fills pages. Pages are encoded (dictionary /
// n-bit / frame-of-reference) and appended to the partition's column
// storage objects; HG indexes build as rows stream by. Finish() flushes
// tails, writes the index objects and persists the table metadata.
//
// CPU consumed by parsing/encoding is *accumulated*, not applied: the
// load driver drains cpu_seconds() into the simulated clock with the
// node's parallelism, which is how loads scale with vCPUs (Figure 7).
class TableLoader {
 public:
  TableLoader(TransactionManager* txn_mgr, Transaction* txn, DbSpace* space,
              TableSchema schema);

  // Appends a columnar batch: plain columns of the schema's types, in its
  // column order, all the same length; InvalidArgument otherwise. The
  // batch's values move into the loader.
  Status Append(std::vector<ColumnVector> batch);

  // Flushes remaining staged rows, builds HG indexes and persists the
  // table metadata blob under "tablemeta/<table_id>". The caller commits
  // the transaction afterwards.
  Result<TableMeta> Finish(SystemStore* system);

  // Encoding CPU accumulated since the last call (seconds of one core).
  double TakeCpuSeconds() {
    double s = cpu_seconds_;
    cpu_seconds_ = 0;
    return s;
  }

  uint64_t rows_appended() const { return rows_appended_; }

  // Storage object id for (table, partition, column); index objects use
  // column slots >= 90.
  static uint64_t ObjectIdFor(uint64_t table_id, size_t partition,
                              size_t column) {
    return table_id * 100000 + partition * 128 + column;
  }

 private:
  // A column cuts a page once its staged bytes reach this fraction of
  // the dbspace page size.
  static constexpr double kTargetPageFill = 0.85;
  // Parse/encode CPU, in seconds of one core per staged or encoded byte.
  static constexpr double kEncodeCpuPerByte = 18e-9;

  struct PartitionState {
    std::vector<ColumnVector> staging;       // one per column
    std::vector<StorageObject*> objects;     // one per column
    std::vector<uint64_t> staged_col_bytes;  // raw-size estimate per column
    uint64_t row_count = 0;  // rows routed to this partition so far
    std::vector<SegmentMeta> segments;
    std::vector<HgIndex::Builder> index_builders;
    std::vector<DateIndex::Builder> date_index_builders;
    std::vector<TextIndex::Builder> text_index_builders;
  };

  size_t PartitionFor(int64_t partition_value) const;
  // Cuts a page for one column of one partition.
  Status EmitColumnPage(PartitionState* part, size_t column);

  TransactionManager* txn_mgr_;
  Transaction* txn_;
  DbSpace* space_;
  TableSchema schema_;
  std::vector<PartitionState> partitions_;
  double cpu_seconds_ = 0;
  uint64_t rows_appended_ = 0;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_TABLE_LOADER_H_

#ifndef CLOUDIQ_COLUMNAR_SCHEMA_H_
#define CLOUDIQ_COLUMNAR_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/encoding.h"
#include "columnar/value.h"
#include "common/coding.h"
#include "common/result.h"

namespace cloudiq {

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt64;
};

// Logical table definition. Tables can be range-partitioned on one column
// (as the paper's TPC-H setup creates them) and carry High-Group indexes
// on selected integer key columns.
struct TableSchema {
  std::string name;
  uint64_t table_id = 0;
  std::vector<ColumnDef> columns;

  // Range partitioning: rows route to the first partition whose upper
  // bound exceeds the partition column's value (+1 overflow partition).
  // -1 = single partition.
  int partition_column = -1;
  std::vector<int64_t> partition_bounds;  // ascending upper bounds

  // Columns with High-Group indexes (must be int-family).
  std::vector<int> hg_index_columns;
  // DATE-typed columns with datepart (year/month) indexes.
  std::vector<int> date_index_columns;
  // String columns with inverted-word TEXT indexes.
  std::vector<int> text_index_columns;

  int ColumnIndex(const std::string& column_name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == column_name) return static_cast<int>(i);
    }
    return -1;
  }

  size_t partition_count() const {
    return partition_column < 0 ? 1 : partition_bounds.size() + 1;
  }

  std::vector<uint8_t> Serialize() const;
  static Result<TableSchema> Deserialize(ByteReader& reader);
};

// Durable per-segment metadata: where a (partition, column) segment's
// pages live and their zone maps (§1: zone maps "early-prune pages that
// are not needed for a query").
struct SegmentMeta {
  uint64_t object_id = 0;
  uint64_t row_count = 0;
  std::vector<ZoneMapEntry> zones;  // one per page, in page order
  std::vector<uint32_t> page_rows;  // rows per page
  // Stored frame bytes per page (EncodePage output; encryption is
  // size-preserving). This is the size S3 SELECT bills as "scanned", so
  // the cost model can price pushdown against real billing instead of a
  // decoded-width guess.
  std::vector<uint32_t> page_bytes;

  std::vector<uint8_t> Serialize() const;
  static Result<SegmentMeta> Deserialize(ByteReader& reader);
};

// Per-partition metadata: one segment per column plus HG index objects.
struct PartitionMeta {
  uint64_t row_count = 0;
  std::vector<SegmentMeta> columns;
  // Parallel to TableSchema::hg_index_columns: the index storage objects
  // and per-index-page key ranges (for pruning index page reads).
  std::vector<uint64_t> index_objects;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> index_page_ranges;
  // Parallel to TableSchema::date_index_columns.
  std::vector<uint64_t> date_index_objects;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> date_index_ranges;
  // Parallel to TableSchema::text_index_columns.
  std::vector<uint64_t> text_index_objects;
  std::vector<std::vector<std::pair<std::string, std::string>>>
      text_index_ranges;

  std::vector<uint8_t> Serialize() const;
  static Result<PartitionMeta> Deserialize(ByteReader& reader);
};

struct TableMeta {
  TableSchema schema;
  std::vector<PartitionMeta> partitions;

  uint64_t TotalRows() const {
    uint64_t n = 0;
    for (const auto& p : partitions) n += p.row_count;
    return n;
  }

  std::vector<uint8_t> Serialize() const;
  // The decoders are total: bytes that are not a serialized table (a count
  // beyond the bytes left, an unknown column type, a partition or index
  // column out of range, a segment whose per-page lists disagree or whose
  // page rows do not sum to its rows, a truncation) yield Corruption.
  static Result<TableMeta> Deserialize(const std::vector<uint8_t>& bytes);
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_SCHEMA_H_

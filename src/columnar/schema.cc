#include "columnar/schema.h"

#include <string>
#include <utility>

namespace cloudiq {
namespace {

void PutZone(std::vector<uint8_t>& out, const ZoneMapEntry& zone) {
  PutI64(out, zone.min_int);
  PutI64(out, zone.max_int);
  PutDouble(out, zone.min_double);
  PutDouble(out, zone.max_double);
  PutString(out, zone.min_string);
  PutString(out, zone.max_string);
  PutU32(out, zone.row_count);
}

// Serialized sizes of the smallest element each count below counts: a
// length-prefixed string is at least its u32 length.
constexpr size_t kMinColumnDef = 4 + 4;
constexpr size_t kMinZone = 8 + 8 + 8 + 8 + 4 + 4 + 4;
constexpr size_t kMinBlob = 8;  // a u64 length prefix
constexpr size_t kMinRangeList = 4;

// Reads a u32 count of elements that take at least `min_bytes` each;
// Corruption if the bytes left cannot hold that many, so no corrupt count
// sizes an allocation or a loop.
Result<uint32_t> GetCount(ByteReader& reader, size_t min_bytes,
                          const char* what) {
  uint32_t n = reader.GetU32();
  if (reader.overflow() || n > reader.remaining() / min_bytes) {
    return Status::Corruption(std::string(what) + " count exceeds its bytes");
  }
  return n;
}

// Reads a u64 length and that many bytes, as a reader of their own.
Result<ByteReader> GetBlob(ByteReader& reader, const char* what) {
  uint64_t len = reader.GetU64();
  const uint8_t* bytes = reader.overflow() ? nullptr : reader.Skip(len);
  if (bytes == nullptr) {
    return Status::Corruption(std::string(what) + " truncated");
  }
  return ByteReader(bytes, len);
}

// Reads a column number stored as i64; Corruption unless it names one of
// `columns` columns.
Result<int> GetColumn(ByteReader& reader, size_t columns, const char* what) {
  int64_t c = reader.GetI64();
  if (c < 0 || static_cast<uint64_t>(c) >= columns) {
    return Status::Corruption(std::string(what) + " column out of range");
  }
  return static_cast<int>(c);
}

template <typename T, typename Get>
Result<std::vector<std::vector<std::pair<T, T>>>> GetRangeLists(
    ByteReader& reader, size_t min_range, Get get) {
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n_lists,
                           GetCount(reader, kMinRangeList, "range list"));
  std::vector<std::vector<std::pair<T, T>>> lists(n_lists);
  for (auto& ranges : lists) {
    CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n, GetCount(reader, min_range, "range"));
    ranges.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      T lo = get();
      T hi = get();
      ranges.emplace_back(std::move(lo), std::move(hi));
    }
  }
  return lists;
}

Result<std::vector<uint64_t>> GetObjects(ByteReader& reader) {
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n, GetCount(reader, 8, "index object"));
  std::vector<uint64_t> ids(n);
  for (uint64_t& id : ids) id = reader.GetU64();
  return ids;
}

ZoneMapEntry GetZone(ByteReader& reader) {
  ZoneMapEntry zone;
  zone.min_int = reader.GetI64();
  zone.max_int = reader.GetI64();
  zone.min_double = reader.GetDouble();
  zone.max_double = reader.GetDouble();
  zone.min_string = reader.GetString();
  zone.max_string = reader.GetString();
  zone.row_count = reader.GetU32();
  return zone;
}

}  // namespace

std::vector<uint8_t> TableSchema::Serialize() const {
  std::vector<uint8_t> out;
  PutString(out, name);
  PutU64(out, table_id);
  PutU32(out, static_cast<uint32_t>(columns.size()));
  for (const ColumnDef& col : columns) {
    PutString(out, col.name);
    PutU32(out, static_cast<uint32_t>(col.type));
  }
  PutI64(out, partition_column);
  PutU32(out, static_cast<uint32_t>(partition_bounds.size()));
  for (int64_t b : partition_bounds) PutI64(out, b);
  PutU32(out, static_cast<uint32_t>(hg_index_columns.size()));
  for (int c : hg_index_columns) PutI64(out, c);
  PutU32(out, static_cast<uint32_t>(date_index_columns.size()));
  for (int c : date_index_columns) PutI64(out, c);
  PutU32(out, static_cast<uint32_t>(text_index_columns.size()));
  for (int c : text_index_columns) PutI64(out, c);
  return out;
}

Result<TableSchema> TableSchema::Deserialize(ByteReader& reader) {
  TableSchema schema;
  schema.name = reader.GetString();
  schema.table_id = reader.GetU64();
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n_cols,
                           GetCount(reader, kMinColumnDef, "column"));
  schema.columns.resize(n_cols);
  for (ColumnDef& col : schema.columns) {
    col.name = reader.GetString();
    uint32_t type = reader.GetU32();
    if (type > static_cast<uint32_t>(ColumnType::kDecimal)) {
      return Status::Corruption("unknown column type");
    }
    col.type = static_cast<ColumnType>(type);
  }
  int64_t partition_column = reader.GetI64();
  if (partition_column < -1 ||
      partition_column >= static_cast<int64_t>(n_cols)) {
    return Status::Corruption("partition column out of range");
  }
  schema.partition_column = static_cast<int>(partition_column);
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n_bounds,
                           GetCount(reader, 8, "partition bound"));
  schema.partition_bounds.resize(n_bounds);
  for (int64_t& b : schema.partition_bounds) b = reader.GetI64();
  for (std::vector<int>* list :
       {&schema.hg_index_columns, &schema.date_index_columns,
        &schema.text_index_columns}) {
    CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n, GetCount(reader, 8, "index column"));
    list->resize(n);
    for (int& c : *list) {
      CLOUDIQ_ASSIGN_OR_RETURN(c, GetColumn(reader, n_cols, "index"));
    }
  }
  if (reader.overflow()) return Status::Corruption("table schema truncated");
  return schema;
}

std::vector<uint8_t> SegmentMeta::Serialize() const {
  std::vector<uint8_t> out;
  PutU64(out, object_id);
  PutU64(out, row_count);
  PutU32(out, static_cast<uint32_t>(zones.size()));
  for (const ZoneMapEntry& zone : zones) PutZone(out, zone);
  PutU32(out, static_cast<uint32_t>(page_rows.size()));
  for (uint32_t rows : page_rows) PutU32(out, rows);
  PutU32(out, static_cast<uint32_t>(page_bytes.size()));
  for (uint32_t bytes : page_bytes) PutU32(out, bytes);
  return out;
}

Result<SegmentMeta> SegmentMeta::Deserialize(ByteReader& reader) {
  SegmentMeta meta;
  meta.object_id = reader.GetU64();
  meta.row_count = reader.GetU64();
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n_zones,
                           GetCount(reader, kMinZone, "zone"));
  meta.zones.reserve(n_zones);
  for (uint32_t i = 0; i < n_zones; ++i) meta.zones.push_back(GetZone(reader));
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n_pages, GetCount(reader, 4, "page row"));
  meta.page_rows.resize(n_pages);
  for (uint32_t& rows : meta.page_rows) rows = reader.GetU32();
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n_bytes,
                           GetCount(reader, 4, "page byte"));
  meta.page_bytes.resize(n_bytes);
  for (uint32_t& bytes : meta.page_bytes) bytes = reader.GetU32();
  if (reader.overflow()) return Status::Corruption("segment truncated");
  // One zone, one row count and one frame size per page.
  if (n_pages != n_zones || n_bytes != n_zones) {
    return Status::Corruption("segment page counts differ");
  }
  uint64_t rows = 0;
  for (uint32_t r : meta.page_rows) rows += r;
  if (rows != meta.row_count) {
    return Status::Corruption("segment page rows do not sum to its rows");
  }
  return meta;
}

std::vector<uint8_t> PartitionMeta::Serialize() const {
  std::vector<uint8_t> out;
  PutU64(out, row_count);
  PutU32(out, static_cast<uint32_t>(columns.size()));
  for (const SegmentMeta& seg : columns) {
    std::vector<uint8_t> bytes = seg.Serialize();
    PutU64(out, bytes.size());
    PutBytes(out, bytes.data(), bytes.size());
  }
  PutU32(out, static_cast<uint32_t>(index_objects.size()));
  for (uint64_t id : index_objects) PutU64(out, id);
  PutU32(out, static_cast<uint32_t>(index_page_ranges.size()));
  for (const auto& ranges : index_page_ranges) {
    PutU32(out, static_cast<uint32_t>(ranges.size()));
    for (const auto& [lo, hi] : ranges) {
      PutI64(out, lo);
      PutI64(out, hi);
    }
  }
  PutU32(out, static_cast<uint32_t>(date_index_objects.size()));
  for (uint64_t id : date_index_objects) PutU64(out, id);
  PutU32(out, static_cast<uint32_t>(date_index_ranges.size()));
  for (const auto& ranges : date_index_ranges) {
    PutU32(out, static_cast<uint32_t>(ranges.size()));
    for (const auto& [lo, hi] : ranges) {
      PutI64(out, lo);
      PutI64(out, hi);
    }
  }
  PutU32(out, static_cast<uint32_t>(text_index_objects.size()));
  for (uint64_t id : text_index_objects) PutU64(out, id);
  PutU32(out, static_cast<uint32_t>(text_index_ranges.size()));
  for (const auto& ranges : text_index_ranges) {
    PutU32(out, static_cast<uint32_t>(ranges.size()));
    for (const auto& [lo, hi] : ranges) {
      PutString(out, lo);
      PutString(out, hi);
    }
  }
  return out;
}

Result<PartitionMeta> PartitionMeta::Deserialize(ByteReader& reader) {
  PartitionMeta meta;
  meta.row_count = reader.GetU64();
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n_cols,
                           GetCount(reader, kMinBlob, "segment"));
  meta.columns.reserve(n_cols);
  for (uint32_t i = 0; i < n_cols; ++i) {
    CLOUDIQ_ASSIGN_OR_RETURN(ByteReader seg_reader,
                             GetBlob(reader, "segment"));
    CLOUDIQ_ASSIGN_OR_RETURN(SegmentMeta seg,
                             SegmentMeta::Deserialize(seg_reader));
    meta.columns.push_back(std::move(seg));
  }
  auto get_int = [&reader] { return reader.GetI64(); };
  auto get_string = [&reader] { return reader.GetString(); };
  CLOUDIQ_ASSIGN_OR_RETURN(meta.index_objects, GetObjects(reader));
  CLOUDIQ_ASSIGN_OR_RETURN(meta.index_page_ranges,
                           GetRangeLists<int64_t>(reader, 16, get_int));
  CLOUDIQ_ASSIGN_OR_RETURN(meta.date_index_objects, GetObjects(reader));
  CLOUDIQ_ASSIGN_OR_RETURN(meta.date_index_ranges,
                           GetRangeLists<int64_t>(reader, 16, get_int));
  CLOUDIQ_ASSIGN_OR_RETURN(meta.text_index_objects, GetObjects(reader));
  CLOUDIQ_ASSIGN_OR_RETURN(
      meta.text_index_ranges,
      GetRangeLists<std::string>(reader, 8, get_string));
  if (reader.overflow()) return Status::Corruption("partition truncated");
  return meta;
}

std::vector<uint8_t> TableMeta::Serialize() const {
  std::vector<uint8_t> out;
  std::vector<uint8_t> schema_bytes = schema.Serialize();
  PutU64(out, schema_bytes.size());
  PutBytes(out, schema_bytes.data(), schema_bytes.size());
  PutU32(out, static_cast<uint32_t>(partitions.size()));
  for (const PartitionMeta& p : partitions) {
    std::vector<uint8_t> bytes = p.Serialize();
    PutU64(out, bytes.size());
    PutBytes(out, bytes.data(), bytes.size());
  }
  return out;
}

Result<TableMeta> TableMeta::Deserialize(const std::vector<uint8_t>& bytes) {
  TableMeta meta;
  ByteReader reader(bytes);
  CLOUDIQ_ASSIGN_OR_RETURN(ByteReader schema_reader,
                           GetBlob(reader, "table schema"));
  CLOUDIQ_ASSIGN_OR_RETURN(meta.schema,
                           TableSchema::Deserialize(schema_reader));
  CLOUDIQ_ASSIGN_OR_RETURN(uint32_t n_parts,
                           GetCount(reader, kMinBlob, "partition"));
  meta.partitions.reserve(n_parts);
  for (uint32_t i = 0; i < n_parts; ++i) {
    CLOUDIQ_ASSIGN_OR_RETURN(ByteReader part_reader,
                             GetBlob(reader, "partition"));
    CLOUDIQ_ASSIGN_OR_RETURN(PartitionMeta part,
                             PartitionMeta::Deserialize(part_reader));
    meta.partitions.push_back(std::move(part));
  }
  return meta;
}

}  // namespace cloudiq

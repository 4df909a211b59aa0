#include "columnar/table_loader.h"

#include <algorithm>
#include <cassert>

#include "store/page_codec.h"

namespace cloudiq {
namespace {

uint64_t ValueBytes(const ColumnVector& col, size_t i) {
  return col.type == ColumnType::kString ? col.strings[i].size() + 4 : 8;
}

}  // namespace

TableLoader::TableLoader(TransactionManager* txn_mgr, Transaction* txn,
                         DbSpace* space, TableSchema schema,
                         Options options)
    : txn_mgr_(txn_mgr),
      txn_(txn),
      space_(space),
      schema_(std::move(schema)),
      options_(options) {
  partitions_.resize(schema_.partition_count());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    PartitionState& part = partitions_[p];
    part.staging.resize(schema_.columns.size());
    part.staged_col_bytes.resize(schema_.columns.size(), 0);
    part.objects.resize(schema_.columns.size(), nullptr);
    part.segments.resize(schema_.columns.size());
    part.index_builders.resize(schema_.hg_index_columns.size());
    part.date_index_builders.resize(schema_.date_index_columns.size());
    part.text_index_builders.resize(schema_.text_index_columns.size());
    for (size_t c = 0; c < schema_.columns.size(); ++c) {
      part.staging[c].type = schema_.columns[c].type;
      part.segments[c].object_id =
          ObjectIdFor(schema_.table_id, p, c);
    }
  }
}

size_t TableLoader::PartitionFor(int64_t value) const {
  for (size_t i = 0; i < schema_.partition_bounds.size(); ++i) {
    if (value < schema_.partition_bounds[i]) return i;
  }
  return schema_.partition_bounds.size();
}

Status TableLoader::Append(const std::vector<ColumnVector>& batch) {
  if (batch.size() != schema_.columns.size()) {
    return Status::InvalidArgument("batch column count mismatch");
  }
  size_t rows = batch.empty() ? 0 : batch[0].size();
  for (const ColumnVector& col : batch) {
    if (col.size() != rows) {
      return Status::InvalidArgument("ragged batch");
    }
  }

  uint64_t page_threshold = static_cast<uint64_t>(
      space_->page_size * options_.target_page_fill);
  for (size_t i = 0; i < rows; ++i) {
    size_t p = 0;
    if (schema_.partition_column >= 0) {
      p = PartitionFor(batch[schema_.partition_column].ints[i]);
    }
    PartitionState& part = partitions_[p];
    // Each column's staged footprint is tracked independently; a column
    // cuts a page as soon as *its* bytes near the page size.
    for (size_t c = 0; c < batch.size(); ++c) {
      part.staging[c].AppendRange(batch[c], i, i + 1);
      uint64_t bytes = ValueBytes(batch[c], i);
      cpu_seconds_ += options_.encode_cpu_per_byte * bytes;
      part.staged_col_bytes[c] += bytes;
      if (part.staged_col_bytes[c] >= page_threshold) {
        CLOUDIQ_RETURN_IF_ERROR(EmitColumnPage(&part, c));
      }
    }
    ++part.row_count;
    for (size_t s = 0; s < schema_.hg_index_columns.size(); ++s) {
      int col = schema_.hg_index_columns[s];
      part.index_builders[s].Add(batch[col].ints[i], part.row_count - 1);
    }
    for (size_t s = 0; s < schema_.date_index_columns.size(); ++s) {
      int col = schema_.date_index_columns[s];
      part.date_index_builders[s].Add(batch[col].ints[i],
                                      part.row_count - 1);
    }
    for (size_t s = 0; s < schema_.text_index_columns.size(); ++s) {
      int col = schema_.text_index_columns[s];
      part.text_index_builders[s].Add(batch[col].strings[i],
                                      part.row_count - 1);
    }
  }
  rows_appended_ += rows;
  return Status::Ok();
}

Status TableLoader::EmitColumnPage(PartitionState* part, size_t c) {
  size_t rows = part->staging[c].size();
  if (rows == 0) return Status::Ok();
  if (part->objects[c] == nullptr) {
    CLOUDIQ_ASSIGN_OR_RETURN(
        part->objects[c],
        txn_mgr_->CreateObject(txn_, part->segments[c].object_id, space_));
  }
  ZoneMapEntry zone;
  std::vector<uint8_t> payload =
      EncodeColumnPage(part->staging[c], 0, rows, &zone);
  cpu_seconds_ += options_.encode_cpu_per_byte * payload.size();
  // Record the stored frame size before the payload moves: the flush
  // pipeline wraps it in EncodePage (encryption is size-preserving), so
  // this is exactly what an S3 SELECT over the page bills as scanned.
  part->segments[c].page_bytes.push_back(
      static_cast<uint32_t>(EncodePage(payload).size()));
  CLOUDIQ_RETURN_IF_ERROR(
      part->objects[c]->AppendPage(std::move(payload)).status());
  part->segments[c].zones.push_back(zone);
  part->segments[c].page_rows.push_back(static_cast<uint32_t>(rows));
  part->segments[c].row_count += rows;
  part->staging[c] = ColumnVector();
  part->staging[c].type = schema_.columns[c].type;
  part->staged_col_bytes[c] = 0;
  return Status::Ok();
}

Result<TableMeta> TableLoader::Finish(SystemStore* system) {
  TableMeta meta;
  meta.schema = schema_;
  meta.partitions.resize(partitions_.size());
  uint64_t index_page_target = static_cast<uint64_t>(
      space_->page_size * options_.target_page_fill);

  for (size_t p = 0; p < partitions_.size(); ++p) {
    PartitionState& part = partitions_[p];
    for (size_t c = 0; c < schema_.columns.size(); ++c) {
      CLOUDIQ_RETURN_IF_ERROR(EmitColumnPage(&part, c));
    }
    PartitionMeta& pm = meta.partitions[p];
    pm.row_count = part.row_count;
    pm.columns = part.segments;

    for (size_t s = 0; s < schema_.hg_index_columns.size(); ++s) {
      uint64_t index_object =
          ObjectIdFor(schema_.table_id, p, 90 + s);
      if (part.index_builders[s].empty()) {
        pm.index_objects.push_back(0);
        pm.index_page_ranges.emplace_back();
        continue;
      }
      CLOUDIQ_ASSIGN_OR_RETURN(
          auto ranges,
          HgIndex::Build(txn_mgr_, txn_, index_object, space_,
                         &part.index_builders[s], index_page_target));
      pm.index_objects.push_back(index_object);
      pm.index_page_ranges.push_back(std::move(ranges));
    }

    for (size_t s = 0; s < schema_.date_index_columns.size(); ++s) {
      uint64_t index_object = ObjectIdFor(schema_.table_id, p, 70 + s);
      if (part.date_index_builders[s].empty()) {
        pm.date_index_objects.push_back(0);
        pm.date_index_ranges.emplace_back();
        continue;
      }
      CLOUDIQ_ASSIGN_OR_RETURN(
          auto ranges,
          DateIndex::Build(txn_mgr_, txn_, index_object, space_,
                           &part.date_index_builders[s],
                           index_page_target));
      pm.date_index_objects.push_back(index_object);
      pm.date_index_ranges.push_back(std::move(ranges));
    }

    for (size_t s = 0; s < schema_.text_index_columns.size(); ++s) {
      uint64_t index_object = ObjectIdFor(schema_.table_id, p, 60 + s);
      if (part.text_index_builders[s].empty()) {
        pm.text_index_objects.push_back(0);
        pm.text_index_ranges.emplace_back();
        continue;
      }
      CLOUDIQ_ASSIGN_OR_RETURN(
          auto ranges,
          TextIndex::Build(txn_mgr_, txn_, index_object, space_,
                           &part.text_index_builders[s],
                           index_page_target));
      pm.text_index_objects.push_back(index_object);
      pm.text_index_ranges.push_back(std::move(ranges));
    }
  }

  SimClock& clock = txn_mgr_->storage().node()->clock();
  SimTime done = clock.now();
  CLOUDIQ_RETURN_IF_ERROR(system->Put(
      "tablemeta/" + std::to_string(schema_.table_id), meta.Serialize(),
      clock.now(), &done));
  clock.AdvanceTo(done);
  return meta;
}

}  // namespace cloudiq

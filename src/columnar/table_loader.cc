#include "columnar/table_loader.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "store/page_codec.h"

namespace cloudiq {
namespace {

uint64_t ValueBytes(const ColumnVector& col, size_t i) {
  return col.type == ColumnType::kString ? col.strings[i].size() + 4 : 8;
}

// Moves src[begin, end) to the end of `dst`, a plain column of src's
// type: strings move, other values copy.
void MoveRange(ColumnVector& src, size_t begin, size_t end,
               ColumnVector* dst) {
  VisitValues(*dst, [&](auto& to) {
    auto& from = ValuesLike(src, to);
    to.insert(to.end(), std::make_move_iterator(from.begin() + begin),
              std::make_move_iterator(from.begin() + end));
  });
}

}  // namespace

TableLoader::TableLoader(TransactionManager* txn_mgr, Transaction* txn,
                         DbSpace* space, TableSchema schema)
    : txn_mgr_(txn_mgr),
      txn_(txn),
      space_(space),
      schema_(std::move(schema)) {
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

Status TableLoader::Append(std::vector<ColumnVector> batch) {
  if (batch.size() != schema_.columns.size()) {
    return Status::InvalidArgument("batch column count mismatch");
  }
  for (size_t c = 0; c < batch.size(); ++c) {
    if (batch[c].type != schema_.columns[c].type) {
      return Status::InvalidArgument("batch column type mismatch");
    }
    if (batch[c].dict != nullptr) {
      return Status::InvalidArgument("dictionary-coded batch column");
    }
  }
  size_t rows = batch.empty() ? 0 : batch[0].size();
  for (const ColumnVector& col : batch) {
    if (col.size() != rows) {
      return Status::InvalidArgument("ragged batch");
    }
  }

  // Values reach staging in runs. The rows of the batch from moved[c] up
  // to the current row all route to partition `run`; column c's share of
  // them moves when the column cuts a page or the run ends.
  std::vector<size_t> moved(batch.size(), 0);
  PartitionState* run = nullptr;
  auto move_run = [&](size_t end) {
    if (run == nullptr) return;
    for (size_t c = 0; c < batch.size(); ++c) {
      MoveRange(batch[c], moved[c], end, &run->staging[c]);
      moved[c] = end;
    }
  };
  uint64_t page_threshold = static_cast<uint64_t>(
      space_->page_size * kTargetPageFill);
  for (size_t i = 0; i < rows; ++i) {
    size_t p = 0;
    if (schema_.partition_column >= 0) {
      p = PartitionFor(batch[schema_.partition_column].ints[i]);
    }
    PartitionState& part = partitions_[p];
    if (&part != run) {
      move_run(i);
      run = &part;
    }
    // The index builders read the row before its strings move.
    uint64_t row_id = part.row_count++;
    for (size_t s = 0; s < schema_.hg_index_columns.size(); ++s) {
      int col = schema_.hg_index_columns[s];
      part.index_builders[s].Add(batch[col].ints[i], row_id);
    }
    for (size_t s = 0; s < schema_.date_index_columns.size(); ++s) {
      int col = schema_.date_index_columns[s];
      part.date_index_builders[s].Add(batch[col].ints[i], row_id);
    }
    for (size_t s = 0; s < schema_.text_index_columns.size(); ++s) {
      int col = schema_.text_index_columns[s];
      part.text_index_builders[s].Add(batch[col].strings[i], row_id);
    }
    // Each column's staged footprint is tracked independently; a column
    // cuts a page as soon as *its* bytes near the page size. The encode
    // CPU adds each cell's bytes, then each cut page's payload, in row
    // order.
    for (size_t c = 0; c < batch.size(); ++c) {
      uint64_t bytes = ValueBytes(batch[c], i);
      cpu_seconds_ += kEncodeCpuPerByte * bytes;
      part.staged_col_bytes[c] += bytes;
      if (part.staged_col_bytes[c] >= page_threshold) {
        MoveRange(batch[c], moved[c], i + 1, &part.staging[c]);
        moved[c] = i + 1;
        CLOUDIQ_RETURN_IF_ERROR(EmitColumnPage(&part, c));
      }
    }
  }
  move_run(rows);
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
  cpu_seconds_ += kEncodeCpuPerByte * payload.size();
  // Record the stored frame size before the payload moves: the flush
  // pipeline wraps it in EncodePage (encryption is size-preserving), so
  // this is exactly what an S3 SELECT over the page bills as scanned. The
  // frame itself is built once, at flush.
  part->segments[c].page_bytes.push_back(
      static_cast<uint32_t>(EncodedPageSize(payload)));
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
      space_->page_size * kTargetPageFill);

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

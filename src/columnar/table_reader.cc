#include "columnar/table_reader.h"

#include <algorithm>

#include "columnar/date_index.h"
#include "columnar/text_index.h"

namespace cloudiq {

TableReader::TableReader(TransactionManager* txn_mgr, Transaction* txn,
                         TableMeta meta)
    : txn_mgr_(txn_mgr), txn_(txn), meta_(std::move(meta)) {}

Result<TableReader> TableReader::Make(TransactionManager* txn_mgr,
                                      Transaction* txn, TableMeta meta) {
  const TableSchema& schema = meta.schema;
  if (meta.partitions.size() > schema.partition_count()) {
    return Status::Corruption("table " + schema.name +
                              " has more partitions than its schema");
  }
  const size_t hg = schema.hg_index_columns.size();
  const size_t date = schema.date_index_columns.size();
  const size_t text = schema.text_index_columns.size();
  for (const PartitionMeta& pm : meta.partitions) {
    if (pm.columns.size() != schema.columns.size() ||
        pm.index_objects.size() != hg || pm.index_page_ranges.size() != hg ||
        pm.date_index_objects.size() != date ||
        pm.date_index_ranges.size() != date ||
        pm.text_index_objects.size() != text ||
        pm.text_index_ranges.size() != text) {
      return Status::Corruption("table " + schema.name +
                                " has a partition that does not match its "
                                "schema");
    }
    // A scan reads every row of the partition from each segment's pages.
    for (const SegmentMeta& seg : pm.columns) {
      uint64_t held = 0;
      for (uint32_t rows : seg.page_rows) held += rows;
      if (seg.page_rows.size() != seg.zones.size() ||
          seg.page_bytes.size() != seg.zones.size() || held < pm.row_count) {
        return Status::Corruption("table " + schema.name +
                                  " has a segment whose pages do not match "
                                  "its partition");
      }
    }
  }
  return TableReader(txn_mgr, txn, std::move(meta));
}

Result<TableReader> TableReader::Open(TransactionManager* txn_mgr,
                                      Transaction* txn, SystemStore* system,
                                      uint64_t table_id) {
  SimClock& clock = txn_mgr->storage().node()->clock();
  SimTime done = clock.now();
  CLOUDIQ_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      system->Get("tablemeta/" + std::to_string(table_id), clock.now(),
                  &done));
  clock.AdvanceTo(done);
  CLOUDIQ_ASSIGN_OR_RETURN(TableMeta meta, TableMeta::Deserialize(bytes));
  return Make(txn_mgr, txn, std::move(meta));
}

Result<StorageObject*> TableReader::ObjectFor(uint64_t object_id) {
  auto it = objects_.find(object_id);
  if (it != objects_.end()) return it->second.get();
  CLOUDIQ_ASSIGN_OR_RETURN(std::unique_ptr<StorageObject> object,
                           txn_mgr_->OpenForRead(txn_, object_id));
  StorageObject* ptr = object.get();
  objects_[object_id] = std::move(object);
  return ptr;
}

Result<BufferManager::PageData> TableReader::FetchPage(size_t partition,
                                                       int column,
                                                       size_t page) {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(seg.object_id));
  CLOUDIQ_ASSIGN_OR_RETURN(BufferManager::PageData data,
                           object->ReadPage(page));
  // Counted at fetch (not decode) time: every fetched frame is decoded
  // exactly once either way, and the executor charges decode CPU from
  // this before its parallel region runs.
  decoded_bytes_ += data->size();
  return data;
}

Status TableReader::FetchPages(std::span<const SegmentPages> segments,
                               std::vector<BufferManager::PageData>* frames) {
  // The round being gathered: a page range of each segment it reaches, as
  // read-ahead sets, beside the segments they come from.
  std::vector<TransactionManager::PrefetchSet> sets;
  std::vector<const SegmentPages*> owners;
  uint64_t bytes = 0;  // stored bytes of the round's pages
  auto run_round = [&]() -> Status {
    CLOUDIQ_RETURN_IF_ERROR(txn_mgr_->Prefetch(sets));
    for (size_t i = 0; i < sets.size(); ++i) {
      for (uint64_t page : sets[i].pages) {
        CLOUDIQ_ASSIGN_OR_RETURN(
            BufferManager::PageData frame,
            FetchPage(owners[i]->partition, owners[i]->column, page));
        frames->push_back(std::move(frame));
      }
    }
    sets.clear();
    owners.clear();
    bytes = 0;
    return Status::Ok();
  };
  const uint64_t room = txn_mgr_->buffer().clean_room();
  for (const SegmentPages& sp : segments) {
    const SegmentMeta& seg = meta_.partitions[sp.partition].columns[sp.column];
    CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                             ObjectFor(seg.object_id));
    const std::span<const uint64_t> pages(sp.pages);
    size_t begin = 0;  // the segment's first page not yet in a round
    for (size_t i = 0; i < pages.size(); ++i) {
      if (pages[i] >= seg.page_bytes.size()) {
        return Status::InvalidArgument("page out of range");
      }
      const uint64_t page_bytes = seg.page_bytes[pages[i]];
      if (bytes > 0 && bytes + page_bytes > room) {
        if (i > begin) {
          sets.push_back({object, pages.subspan(begin, i - begin)});
          owners.push_back(&sp);
        }
        CLOUDIQ_RETURN_IF_ERROR(run_round());
        begin = i;
      }
      bytes += page_bytes;
    }
    if (begin < pages.size()) {
      sets.push_back({object, pages.subspan(begin)});
      owners.push_back(&sp);
    }
  }
  return run_round();
}

std::vector<uint64_t> TableReader::PrunePagesInt(size_t partition,
                                                 int column, int64_t lo,
                                                 int64_t hi) const {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  std::vector<uint64_t> pages;
  for (size_t p = 0; p < seg.zones.size(); ++p) {
    if (seg.zones[p].max_int >= lo && seg.zones[p].min_int <= hi) {
      pages.push_back(p);
    }
  }
  return pages;
}

bool TableReader::PushdownEligible() const {
  if (txn_mgr_->storage().options().encrypt_pages) return false;
  if (txn_ != nullptr && txn_mgr_->buffer().HasDirty(txn_->id)) {
    return false;
  }
  return true;
}

Result<std::vector<TableReader::CloudPageRef>> TableReader::CloudPageRefs(
    size_t partition, int column, const std::vector<uint64_t>& pages) {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(seg.object_id));
  if (!object->space()->is_cloud()) {
    return Status::FailedPrecondition("segment not on a cloud dbspace");
  }
  // Prefix-sum of page_rows once; pages arrive ascending from the zone
  // pruner.
  std::vector<uint64_t> first_rows(seg.page_rows.size() + 1, 0);
  for (size_t p = 0; p < seg.page_rows.size(); ++p) {
    first_rows[p + 1] = first_rows[p] + seg.page_rows[p];
  }
  ObjectStoreIo& io = txn_mgr_->storage().object_io();
  std::vector<CloudPageRef> refs;
  refs.reserve(pages.size());
  for (uint64_t page : pages) {
    if (page >= seg.page_rows.size()) {
      return Status::InvalidArgument("page out of range");
    }
    CLOUDIQ_ASSIGN_OR_RETURN(PhysicalLoc loc,
                             object->blockmap().Lookup(page));
    if (!loc.is_cloud()) {
      return Status::FailedPrecondition("page not cloud-resident");
    }
    refs.push_back(CloudPageRef{io.StoreKey(loc.cloud_key()),
                                first_rows[page],
                                static_cast<uint32_t>(seg.page_rows[page]),
                                loc.cloud_key()});
  }
  return refs;
}

TableReader::Residency TableReader::ProbeResidency(
    size_t partition, int column, const std::vector<uint64_t>& pages) {
  Residency res;
  res.pages = pages.size();
  Result<StorageObject*> object = ObjectFor(
      meta_.partitions[partition].columns[column].object_id);
  if (!object.ok()) return res;  // unknown: price everything cold
  uint32_t space_id = object.value()->space()->id;
  BufferManager& buffer = txn_mgr_->buffer();
  CloudCache* cache = txn_mgr_->storage().cloud_cache();
  for (uint64_t page : pages) {
    Result<PhysicalLoc> loc = object.value()->blockmap().Lookup(page);
    if (!loc.ok() || !loc.value().valid()) {
      ++res.in_buffer;  // dirty / unmapped: served from RAM, never fetched
      continue;
    }
    if (buffer.Cached(space_id, loc.value())) {
      ++res.in_buffer;
    } else if (cache != nullptr && loc.value().is_cloud() &&
               cache->Resident(loc.value().cloud_key())) {
      ++res.in_cloud_cache;
    }
  }
  return res;
}

uint64_t TableReader::PageFirstRow(size_t partition, int column,
                                   size_t page) const {
  const SegmentMeta& seg = meta_.partitions[partition].columns[column];
  uint64_t row = 0;
  for (size_t p = 0; p < page && p < seg.page_rows.size(); ++p) {
    row += seg.page_rows[p];
  }
  return row;
}

Result<IntervalSet> TableReader::IndexLookup(size_t partition, int column,
                                             int64_t value) {
  return IndexLookupRange(partition, column, value, value);
}

Result<IntervalSet> TableReader::IndexLookupRange(size_t partition,
                                                  int column, int64_t lo,
                                                  int64_t hi) {
  const TableSchema& schema = meta_.schema;
  int slot = -1;
  for (size_t s = 0; s < schema.hg_index_columns.size(); ++s) {
    if (schema.hg_index_columns[s] == column) slot = static_cast<int>(s);
  }
  if (slot < 0) {
    return Status::InvalidArgument("column has no HG index");
  }
  const PartitionMeta& pm = meta_.partitions[partition];
  if (pm.index_objects[slot] == 0) return IntervalSet();  // empty partition
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(pm.index_objects[slot]));
  return HgIndex::LookupRange(object, pm.index_page_ranges[slot], lo, hi);
}

namespace {
int DateIndexSlot(const TableSchema& schema, int column) {
  for (size_t s = 0; s < schema.date_index_columns.size(); ++s) {
    if (schema.date_index_columns[s] == column) {
      return static_cast<int>(s);
    }
  }
  return -1;
}
}  // namespace

Result<IntervalSet> TableReader::DateIndexMonth(size_t partition,
                                                int column, int year,
                                                int month) {
  int slot = DateIndexSlot(meta_.schema, column);
  if (slot < 0) {
    return Status::InvalidArgument("column has no DATE index");
  }
  const PartitionMeta& pm = meta_.partitions[partition];
  if (pm.date_index_objects[slot] == 0) return IntervalSet();
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(pm.date_index_objects[slot]));
  return DateIndex::LookupMonth(object, pm.date_index_ranges[slot], year,
                                month);
}

Result<IntervalSet> TableReader::TextIndexAllWords(
    size_t partition, int column, const std::vector<std::string>& words) {
  int slot = -1;
  for (size_t s = 0; s < meta_.schema.text_index_columns.size(); ++s) {
    if (meta_.schema.text_index_columns[s] == column) {
      slot = static_cast<int>(s);
    }
  }
  if (slot < 0) {
    return Status::InvalidArgument("column has no TEXT index");
  }
  const PartitionMeta& pm = meta_.partitions[partition];
  if (pm.text_index_objects[slot] == 0) return IntervalSet();
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(pm.text_index_objects[slot]));
  return TextIndex::LookupAllWords(object, pm.text_index_ranges[slot],
                                   words);
}

Result<IntervalSet> TableReader::DateIndexYears(size_t partition,
                                                int column, int year_lo,
                                                int year_hi) {
  int slot = DateIndexSlot(meta_.schema, column);
  if (slot < 0) {
    return Status::InvalidArgument("column has no DATE index");
  }
  const PartitionMeta& pm = meta_.partitions[partition];
  if (pm.date_index_objects[slot] == 0) return IntervalSet();
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           ObjectFor(pm.date_index_objects[slot]));
  return DateIndex::LookupYearRange(object, pm.date_index_ranges[slot],
                                    year_lo, year_hi);
}

}  // namespace cloudiq

#ifndef CLOUDIQ_COLUMNAR_POSTING_PAGE_H_
#define CLOUDIQ_COLUMNAR_POSTING_PAGE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/interval_set.h"
#include "common/result.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

// The posting pages shared by the HG, DATE and TEXT indexes: one interval
// set of partition-local row ids per key, keys ascending, packed into the
// pages of a dedicated storage object. Page format:
//
//   [count u32]{ [key][len u64][IntervalSet bytes] }*
//
// where a key is an i64 (HG values, DATE month keys) or a u32-length-
// prefixed string (TEXT tokens). The per-page [first, last] key ranges,
// kept in the table metadata, play the role of a B+-tree's inner levels:
// a probe reads only the pages whose range overlaps it.

// Encoding of one key type. `View` is what a page walk yields: string
// keys are viewed in the page bytes, never copied.
template <typename Key>
struct PostingKey;

template <>
struct PostingKey<int64_t> {
  using View = int64_t;
  static void Put(std::vector<uint8_t>& out, int64_t key) {
    PutI64(out, key);
  }
  static View Get(ByteReader& reader) { return reader.GetI64(); }
  // The page-fill estimate of one entry, runs excluded.
  static uint64_t EntryBytes(int64_t) { return 24; }
};

template <>
struct PostingKey<std::string> {
  using View = std::string_view;
  static void Put(std::vector<uint8_t>& out, const std::string& key) {
    PutString(out, key);
  }
  static View Get(ByteReader& reader) {
    uint32_t n = reader.GetU32();
    const uint8_t* p = reader.Skip(n);
    return p == nullptr ? View()
                        : View(reinterpret_cast<const char*>(p), n);
  }
  static uint64_t EntryBytes(const std::string& key) {
    return key.size() + 28;
  }
};

// Load-time accumulator: one append-only vector of (key, row) pairs.
// Rows arrive ascending, so sorting by (key, row) is a stable sort by key
// and each key's rows come out in the order they were added.
template <typename Key>
class PostingBuilder {
 public:
  void Add(Key key, uint64_t row) { entries_.emplace_back(key, row); }
  bool empty() const { return entries_.empty(); }

  // Sorts once and calls `emit(key, IntervalSet&& rows)` per distinct
  // key, ascending. Leaves the builder empty.
  template <typename Emit>
  Status Drain(Emit&& emit) {
    if (!std::is_sorted(entries_.begin(), entries_.end())) {
      std::sort(entries_.begin(), entries_.end());
    }
    size_t i = 0;
    while (i < entries_.size()) {
      Key key = entries_[i].first;
      IntervalSet rows;
      for (; i < entries_.size() && entries_[i].first == key; ++i) {
        rows.Insert(entries_[i].second);
      }
      CLOUDIQ_RETURN_IF_ERROR(emit(key, std::move(rows)));
    }
    entries_ = {};
    return Status::Ok();
  }

 private:
  std::vector<std::pair<Key, uint64_t>> entries_;
};

// Packs postings, added in ascending key order, into pages of `object`
// of at most `page_target` bytes by the entry estimate, and records each
// page's [first, last] key. A key whose runs overflow an empty page is
// split into entries on consecutive pages, each page with [key, key] in
// its range; LookupPostings reads every such page and unions the parts.
template <typename Key>
class PostingPageWriter {
 public:
  PostingPageWriter(StorageObject* object, uint64_t page_target)
      : object_(object), page_target_(page_target) {}

  Status Add(const Key& key, const IntervalSet& rows) {
    const std::vector<IntervalSet::Interval>& runs = rows.Intervals();
    const uint64_t key_bytes = PostingKey<Key>::EntryBytes(key);
    // Runs one page holds beside the key (at least one).
    const size_t page_runs = static_cast<size_t>(std::max<uint64_t>(
        1, page_target_ > key_bytes ? (page_target_ - key_bytes) / 16 : 0));
    size_t begin = 0;
    do {
      size_t n = std::min(runs.size() - begin, page_runs);
      uint64_t entry_bytes = key_bytes + 16 * n;
      if (count_ > 0 && pending_bytes_ + entry_bytes > page_target_) {
        CLOUDIQ_RETURN_IF_ERROR(Flush());
      }
      if (count_ == 0) {
        PutU32(page_, 0);  // count, patched at flush
        first_ = key;
      }
      last_ = key;
      PostingKey<Key>::Put(page_, key);
      std::vector<uint8_t> bytes =
          IntervalSet::SerializeRuns(std::span(runs).subspan(begin, n));
      PutU64(page_, bytes.size());
      PutBytes(page_, bytes.data(), bytes.size());
      ++count_;
      pending_bytes_ += entry_bytes;
      begin += n;
    } while (begin < runs.size());
    return Status::Ok();
  }

  // Flushes the last page and returns every page's key range.
  Result<std::vector<std::pair<Key, Key>>> Finish() {
    CLOUDIQ_RETURN_IF_ERROR(Flush());
    return std::move(page_ranges_);
  }

 private:
  Status Flush() {
    if (count_ == 0) return Status::Ok();
    std::memcpy(page_.data(), &count_, sizeof(count_));
    CLOUDIQ_RETURN_IF_ERROR(object_->AppendPage(std::move(page_)).status());
    page_ranges_.emplace_back(std::move(first_), std::move(last_));
    page_ = {};
    count_ = 0;
    pending_bytes_ = 0;
    return Status::Ok();
  }

  StorageObject* object_;
  uint64_t page_target_;
  std::vector<uint8_t> page_;
  uint32_t count_ = 0;
  uint64_t pending_bytes_ = 0;
  Key first_{};
  Key last_{};
  std::vector<std::pair<Key, Key>> page_ranges_;
};

// Walks one encoded posting page and appends to `out` the postings whose
// key lies in [lo, hi]. Only those are decoded; every other entry is
// skipped in place. Corruption names `what` when the page is malformed.
template <typename Key>
Status CollectPostings(const uint8_t* data, size_t size,
                       typename PostingKey<Key>::View lo,
                       typename PostingKey<Key>::View hi, const char* what,
                       std::vector<IntervalSet>* out) {
  ByteReader reader(data, size);
  uint32_t count = reader.GetU32();
  for (uint32_t i = 0; i < count && !reader.overflow(); ++i) {
    typename PostingKey<Key>::View key = PostingKey<Key>::Get(reader);
    uint64_t len = reader.GetU64();
    const uint8_t* runs = reader.Skip(len);
    if (runs == nullptr || key < lo || key > hi) continue;
    Result<IntervalSet> rows = IntervalSet::Deserialize(runs, len);
    if (!rows.ok()) return Status::Corruption(what);
    out->push_back(std::move(rows).value());
  }
  if (reader.overflow()) return Status::Corruption(what);
  return Status::Ok();
}

// Rows of every posting with key in [lo, hi]: reads the pages whose key
// range overlaps, collects the matching postings and merges them with one
// bulk Union.
template <typename Key>
Result<IntervalSet> LookupPostings(
    StorageObject* object, const std::vector<std::pair<Key, Key>>& page_ranges,
    typename PostingKey<Key>::View lo, typename PostingKey<Key>::View hi,
    const char* what) {
  std::vector<uint64_t> pages;
  for (size_t p = 0; p < page_ranges.size(); ++p) {
    if (page_ranges[p].second >= lo && page_ranges[p].first <= hi) {
      pages.push_back(p);
    }
  }
  CLOUDIQ_RETURN_IF_ERROR(object->Prefetch(pages));
  std::vector<IntervalSet> matches;
  for (uint64_t p : pages) {
    CLOUDIQ_ASSIGN_OR_RETURN(BufferManager::PageData data,
                             object->ReadPage(p));
    CLOUDIQ_RETURN_IF_ERROR(CollectPostings<Key>(
        data->data(), data->size(), lo, hi, what, &matches));
  }
  return IntervalSet::Union(std::move(matches));
}

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_POSTING_PAGE_H_

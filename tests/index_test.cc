// The HG, DATE and TEXT indexes over TPC-H at SF 0.002: every index page
// and table-metadata blob hashed against golden constants (the builders'
// output is at-rest bytes, so it must not drift), and every lookup kind
// checked against a brute-force scan of the loaded column.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/encoding.h"
#include "columnar/table_reader.h"
#include "columnar/text_index.h"
#include "columnar/value.h"
#include "common/coding.h"
#include "engine/database.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_loader.h"
#include "tests/test_util.h"

namespace cloudiq {
namespace {

constexpr double kScale = 0.002;

class IndexTest : public ::testing::Test {
 protected:
  // One load shared by the suite, released at process exit.
  static void SetUpTestSuite() {
    if (db_ != nullptr) return;
    env_ = new SimEnvironment();
    Database::Options options;
    options.user_storage = UserStorage::kObjectStore;
    options.page_size = 16 * 1024;
    db_ = new Database(env_, InstanceProfile::M5ad4xlarge(), options);
    gen_ = new TpchGenerator(kScale);
    TpchLoadOptions load;
    load.partitions = 3;
    Result<TpchLoadResult> result = LoadTpch(db_, gen_, load);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  void SetUp() override { txn_ = db_->Begin(); }
  void TearDown() override { EXPECT_TRUE(db_->Commit(txn_).ok()); }

  TableReader Open(TpchTable table) {
    Result<TableReader> reader =
        TableReader::Open(&db_->txn_mgr(), txn_, db_->system(), table);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    return std::move(reader).value();
  }

  // Page `page` of (partition, column), fetched and decoded plain.
  static Result<ColumnVector> FetchDecoded(TableReader* reader,
                                           size_t partition, int column,
                                           size_t page) {
    CLOUDIQ_ASSIGN_OR_RETURN(BufferManager::PageData frame,
                             reader->FetchPage(partition, column, page));
    return DecodeColumnPage(*frame);
  }

  // Every value of one partition's column, in row order.
  static ColumnVector Scan(TableReader* reader, size_t partition,
                           int column) {
    ColumnVector all;
    all.type = reader->schema().columns[column].type;
    const SegmentMeta& seg =
        reader->meta().partitions[partition].columns[column];
    for (size_t page = 0; page < seg.page_rows.size(); ++page) {
      Result<ColumnVector> values =
          FetchDecoded(reader, partition, column, page);
      EXPECT_TRUE(values.ok()) << values.status().ToString();
      all.ints.insert(all.ints.end(), values->ints.begin(),
                      values->ints.end());
      all.strings.insert(all.strings.end(), values->strings.begin(),
                         values->strings.end());
    }
    return all;
  }

  static void ExpectRows(const Result<IntervalSet>& got,
                         const std::set<uint64_t>& want) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->Values(),
              std::vector<uint64_t>(want.begin(), want.end()));
  }

  // TEXT-index probes on o_comment, each against a scan of the column.
  static void ExpectTextProbesMatchScan(TableReader* reader) {
    int column = reader->schema().text_index_columns.at(0);
    const std::vector<std::vector<std::string>> probes = {
        {"special"},
        {"requests"},
        {"special", "requests"},
        {"requests", "special"},
        {"furiously", "ironic", "deposits"},
        {"the"},
        {"zebra"},
        {"special", "zebra"},
        {},
    };
    for (size_t p = 0; p < reader->meta().partitions.size(); ++p) {
      ColumnVector comments = Scan(reader, p, column);
      std::vector<std::set<std::string>> tokens;
      for (const std::string& c : comments.strings) {
        std::vector<std::string> t = TextIndex::Tokenize(c);
        tokens.emplace_back(t.begin(), t.end());
      }
      for (const std::vector<std::string>& words : probes) {
        std::set<uint64_t> want;
        for (size_t r = 0; r < tokens.size() && !words.empty(); ++r) {
          bool all = true;
          for (const std::string& w : words) all = all && tokens[r].count(w);
          if (all) want.insert(r);
        }
        ExpectRows(reader->TextIndexAllWords(p, column, words), want);
      }
    }
  }

  static SimEnvironment* env_;
  static Database* db_;
  static TpchGenerator* gen_;
  Transaction* txn_ = nullptr;
};

SimEnvironment* IndexTest::env_ = nullptr;
Database* IndexTest::db_ = nullptr;
TpchGenerator* IndexTest::gen_ = nullptr;

TEST_F(IndexTest, IndexPagesAndTableMetaAreGolden) {
  std::vector<uint8_t> all;
  uint64_t index_pages = 0;
  for (TpchTable table : {kRegion, kNation, kSupplier, kCustomer, kPart,
                          kPartSupp, kOrders, kLineitem}) {
    TableReader reader = Open(table);
    std::vector<uint8_t> meta = reader.meta().Serialize();
    PutU64(all, meta.size());
    PutBytes(all, meta.data(), meta.size());
    for (const PartitionMeta& pm : reader.meta().partitions) {
      std::vector<uint64_t> objects = pm.index_objects;
      objects.insert(objects.end(), pm.date_index_objects.begin(),
                     pm.date_index_objects.end());
      objects.insert(objects.end(), pm.text_index_objects.begin(),
                     pm.text_index_objects.end());
      for (uint64_t id : objects) {
        if (id == 0) continue;
        Result<std::unique_ptr<StorageObject>> object =
            db_->txn_mgr().OpenForRead(txn_, id);
        ASSERT_TRUE(object.ok()) << object.status().ToString();
        for (uint64_t p = 0; p < (*object)->page_count(); ++p) {
          Result<BufferManager::PageData> page = (*object)->ReadPage(p);
          ASSERT_TRUE(page.ok()) << page.status().ToString();
          PutU64(all, (*page)->size());
          PutBytes(all, (*page)->data(), (*page)->size());
          ++index_pages;
        }
      }
    }
  }
  // Computed with the std::map-of-postings builders that preceded the
  // sort-then-group ones; a change here is a change to at-rest bytes.
  // Re-taken when every page frame became raw: only the metas' page_bytes
  // moved (9 pages, 825 bytes larger); the same bytes with page_bytes set
  // to header + payload on the earlier build give this checksum.
  EXPECT_EQ(index_pages, 70u);
  EXPECT_EQ(all.size(), 749842u);
  EXPECT_EQ(testing_util::Fnv1a(all), 0x460b17727f612126ull);
}

// Every column-page payload of all eight tables, in (table, partition,
// column, page) order: pins where the loader cuts pages and how each page
// encodes, dictionary order included.
using LoadGoldenTest = IndexTest;

TEST_F(LoadGoldenTest, ColumnPagePayloadsArePinned) {
  std::vector<uint8_t> all;
  uint64_t pages = 0;
  for (TpchTable table : {kRegion, kNation, kSupplier, kCustomer, kPart,
                          kPartSupp, kOrders, kLineitem}) {
    TableReader reader = Open(table);
    for (const PartitionMeta& pm : reader.meta().partitions) {
      for (const SegmentMeta& seg : pm.columns) {
        Result<std::unique_ptr<StorageObject>> object =
            db_->txn_mgr().OpenForRead(txn_, seg.object_id);
        ASSERT_TRUE(object.ok()) << object.status().ToString();
        ASSERT_EQ((*object)->page_count(), seg.page_rows.size());
        for (uint64_t p = 0; p < (*object)->page_count(); ++p) {
          Result<BufferManager::PageData> page = (*object)->ReadPage(p);
          ASSERT_TRUE(page.ok()) << page.status().ToString();
          PutU64(all, (*page)->size());
          PutBytes(all, (*page)->data(), (*page)->size());
          ++pages;
        }
      }
    }
  }
  EXPECT_EQ(pages, 317u);
  EXPECT_EQ(all.size(), 1353902u);
  EXPECT_EQ(testing_util::Fnv1a(all), 0x4e7b92c087fc2ad8ull);
}

TEST_F(IndexTest, HgLookupsMatchColumnScan) {
  for (TpchTable table : {kOrders, kLineitem, kPartSupp, kCustomer}) {
    TableReader reader = Open(table);
    for (int column : reader.schema().hg_index_columns) {
      for (size_t p = 0; p < reader.meta().partitions.size(); ++p) {
        ColumnVector values = Scan(&reader, p, column);
        std::map<int64_t, std::set<uint64_t>> by_value;
        for (size_t r = 0; r < values.ints.size(); ++r) {
          by_value[values.ints[r]].insert(r);
        }
        for (const auto& [value, rows] : by_value) {
          ExpectRows(reader.IndexLookup(p, column, value), rows);
        }
        ExpectRows(reader.IndexLookup(p, column, -1), {});
        // Ranges: a few widths, anchored at present values.
        std::vector<int64_t> keys;
        for (const auto& entry : by_value) keys.push_back(entry.first);
        for (size_t i = 0; i < keys.size(); i += 1 + keys.size() / 7) {
          for (int64_t width : {0, 3, 40, 1000}) {
            int64_t lo = keys[i] - width / 2;
            int64_t hi = keys[i] + width;
            std::set<uint64_t> want;
            for (auto it = by_value.lower_bound(lo);
                 it != by_value.end() && it->first <= hi; ++it) {
              want.insert(it->second.begin(), it->second.end());
            }
            ExpectRows(reader.IndexLookupRange(p, column, lo, hi), want);
          }
        }
      }
    }
  }
}

TEST_F(IndexTest, DateLookupsMatchColumnScan) {
  for (TpchTable table : {kOrders, kLineitem}) {
    TableReader reader = Open(table);
    int column = reader.schema().date_index_columns.at(0);
    for (size_t p = 0; p < reader.meta().partitions.size(); ++p) {
      ColumnVector days = Scan(&reader, p, column);
      std::vector<int> years(days.ints.size());
      std::vector<int> months(days.ints.size());
      for (size_t r = 0; r < days.ints.size(); ++r) {
        int day;
        CivilFromDays(days.ints[r], &years[r], &months[r], &day);
      }
      for (int year = 1991; year <= 1999; ++year) {
        for (int month = 1; month <= 12; ++month) {
          std::set<uint64_t> want;
          for (size_t r = 0; r < years.size(); ++r) {
            if (years[r] == year && months[r] == month) want.insert(r);
          }
          ExpectRows(reader.DateIndexMonth(p, column, year, month), want);
        }
      }
      for (int lo = 1991; lo <= 1999; ++lo) {
        for (int hi = lo; hi <= 1999; hi += 2) {
          std::set<uint64_t> want;
          for (size_t r = 0; r < years.size(); ++r) {
            if (years[r] >= lo && years[r] <= hi) want.insert(r);
          }
          ExpectRows(reader.DateIndexYears(p, column, lo, hi), want);
        }
      }
    }
  }
}

TEST_F(IndexTest, TextAllWordsMatchesColumnScan) {
  TableReader reader = Open(kOrders);
  ExpectTextProbesMatchScan(&reader);
}

// TPC-H loaded into 4 KB pages with one partition: the most frequent
// o_comment words then hold more row runs than one posting page fits.
class SmallPageIndexTest : public IndexTest {
 protected:
  static void SetUpTestSuite() {
    if (small_db_ != nullptr) return;
    small_env_ = new SimEnvironment();
    Database::Options options;
    options.user_storage = UserStorage::kObjectStore;
    options.page_size = 4 * 1024;
    small_db_ =
        new Database(small_env_, InstanceProfile::M5ad4xlarge(), options);
    small_gen_ = new TpchGenerator(kScale);
    TpchLoadOptions load;
    load.partitions = 1;
    Result<TpchLoadResult> result = LoadTpch(small_db_, small_gen_, load);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  void SetUp() override {
    ASSERT_NE(small_db_, nullptr);
    txn_ = small_db_->Begin();
  }
  void TearDown() override {
    if (txn_ != nullptr) {
      EXPECT_TRUE(small_db_->Commit(txn_).ok());
    }
  }

  static SimEnvironment* small_env_;
  static Database* small_db_;
  static TpchGenerator* small_gen_;
};

SimEnvironment* SmallPageIndexTest::small_env_ = nullptr;
Database* SmallPageIndexTest::small_db_ = nullptr;
TpchGenerator* SmallPageIndexTest::small_gen_ = nullptr;

// A key whose runs overflow a page is split across consecutive pages
// (each with [key, key] in its range), and probes still match a scan.
TEST_F(SmallPageIndexTest, KeyLongerThanAPageSpansPages) {
  Result<TableReader> reader = TableReader::Open(
      &small_db_->txn_mgr(), txn_, small_db_->system(), kOrders);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const std::vector<std::pair<std::string, std::string>>& ranges =
      reader->meta().partitions[0].text_index_ranges.at(0);
  std::set<std::string> split;
  for (size_t p = 1; p < ranges.size(); ++p) {
    if (ranges[p].first == ranges[p - 1].second) split.insert(ranges[p].first);
  }
  ASSERT_FALSE(split.empty());
  ExpectTextProbesMatchScan(&*reader);
  int column = reader->schema().text_index_columns.at(0);
  ColumnVector comments = Scan(&*reader, 0, column);
  for (const std::string& word : split) {
    std::set<uint64_t> want;
    for (size_t r = 0; r < comments.strings.size(); ++r) {
      std::vector<std::string> t = TextIndex::Tokenize(comments.strings[r]);
      if (std::find(t.begin(), t.end(), word) != t.end()) want.insert(r);
    }
    ExpectRows(reader->TextIndexAllWords(0, column, {word}), want);
  }
}

}  // namespace
}  // namespace cloudiq

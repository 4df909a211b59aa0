#ifndef CLOUDIQ_COLUMNAR_TEXT_INDEX_H_
#define CLOUDIQ_COLUMNAR_TEXT_INDEX_H_

#include <string>
#include <vector>

#include "common/interval_set.h"
#include "common/result.h"
#include "common/row_key_table.h"
#include "txn/transaction_manager.h"

namespace cloudiq {

// TEXT index (§1: SAP IQ's niche indexes include "TEXT for text
// indexing"). An inverted word index over a string column: each
// whitespace-delimited token maps to the interval set of rows containing
// it. `WHERE comment LIKE '%special%requests%'` becomes the intersection
// of the "special" and "requests" posting lists followed by an exact
// check of the candidates — instead of scanning every comment.
//
// Storage is the other index types' (posting_page.h): postings packed
// into pages of a dedicated storage object; per-page [first token, last
// token] ranges in the table metadata prune the pages a probe reads.
class TextIndex {
 public:
  // Splits on non-alphanumeric characters, lower-cases ASCII.
  static std::vector<std::string> Tokenize(const std::string& text);

  // Accumulates token postings during load. Tokens get dense ids in
  // first-seen order through a hash table and each id's rows grow by
  // append (rows arrive ascending); Build orders the tokens once. A token
  // is copied once, when first seen.
  class Builder {
   public:
    void Add(const std::string& text, uint64_t row_id);
    bool empty() const { return tokens_.empty(); }

   private:
    friend class TextIndex;
    RowKeyTable ids_;                  // HashKey(token) -> id
    std::vector<std::string> tokens_;  // id -> token
    std::vector<IntervalSet> rows_;    // id -> rows
    std::string token_;                // the token being scanned
  };

  // Drains the builder's postings, in token order, into storage object
  // `object_id`. Returns per-page [first, last] token ranges.
  static Result<std::vector<std::pair<std::string, std::string>>> Build(
      TransactionManager* txn_mgr, Transaction* txn, uint64_t object_id,
      DbSpace* space, Builder* builder, uint64_t page_payload_target);

  // Rows containing `word` (exact token match).
  static Result<IntervalSet> LookupWord(
      StorageObject* object,
      const std::vector<std::pair<std::string, std::string>>& page_ranges,
      const std::string& word);

  // Rows containing *all* of `words` (candidate set for LIKE patterns;
  // callers verify ordering/adjacency on the candidates).
  static Result<IntervalSet> LookupAllWords(
      StorageObject* object,
      const std::vector<std::pair<std::string, std::string>>& page_ranges,
      const std::vector<std::string>& words);
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_TEXT_INDEX_H_

#include "columnar/text_index.h"

#include <algorithm>
#include <cctype>
#include <numeric>

#include "columnar/posting_page.h"

namespace cloudiq {

std::vector<std::string> TextIndex::Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

void TextIndex::Builder::Add(const std::string& text, uint64_t row_id) {
  for (std::string& token : Tokenize(text)) {
    auto [it, fresh] = ids_.try_emplace(std::move(token),
                                        static_cast<uint32_t>(tokens_.size()));
    if (fresh) {
      tokens_.push_back(it->first);
      rows_.emplace_back();
    }
    rows_[it->second].Insert(row_id);
  }
}

Result<std::vector<std::pair<std::string, std::string>>> TextIndex::Build(
    TransactionManager* txn_mgr, Transaction* txn, uint64_t object_id,
    DbSpace* space, Builder* builder, uint64_t page_payload_target) {
  CLOUDIQ_ASSIGN_OR_RETURN(StorageObject * object,
                           txn_mgr->CreateObject(txn, object_id, space));
  std::vector<uint32_t> order(builder->tokens_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return builder->tokens_[a] < builder->tokens_[b];
  });
  PostingPageWriter<std::string> writer(object, page_payload_target);
  for (uint32_t id : order) {
    CLOUDIQ_RETURN_IF_ERROR(
        writer.Add(builder->tokens_[id], builder->rows_[id]));
  }
  *builder = Builder();
  return writer.Finish();
}

Result<IntervalSet> TextIndex::LookupWord(
    StorageObject* object,
    const std::vector<std::pair<std::string, std::string>>& page_ranges,
    const std::string& word) {
  return LookupPostings<std::string>(object, page_ranges, word, word,
                                     "TEXT index page");
}

Result<IntervalSet> TextIndex::LookupAllWords(
    StorageObject* object,
    const std::vector<std::pair<std::string, std::string>>& page_ranges,
    const std::vector<std::string>& words) {
  IntervalSet result;
  bool first = true;
  for (const std::string& word : words) {
    CLOUDIQ_ASSIGN_OR_RETURN(IntervalSet rows,
                             LookupWord(object, page_ranges, word));
    result = first ? std::move(rows) : IntervalSet::Intersect(result, rows);
    first = false;
    if (result.empty()) break;
  }
  return result;
}

}  // namespace cloudiq

#include "columnar/text_index.h"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "columnar/posting_page.h"
#include "common/key_hash.h"

namespace cloudiq {

namespace {

bool IsTokenChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

// The one tokenizer: calls on_token(token) for each maximal run of ASCII
// letters and digits in `text`, lower-cased into `*token`, which is
// reused from token to token.
template <typename OnToken>
void ForEachToken(const std::string& text, std::string* token,
                  OnToken on_token) {
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && !IsTokenChar(text[i])) ++i;
    size_t start = i;
    while (i < n && IsTokenChar(text[i])) ++i;
    if (i == start) break;
    token->assign(text, start, i - start);
    for (char& c : *token) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    on_token(*token);
  }
}

}  // namespace

std::vector<std::string> TextIndex::Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string token;
  ForEachToken(text, &token,
               [&](const std::string& t) { tokens.push_back(t); });
  return tokens;
}

void TextIndex::Builder::Add(const std::string& text, uint64_t row_id) {
  ForEachToken(text, &token_, [&](const std::string& token) {
    bool fresh = false;
    uint32_t id = ids_.FindOrInsert(
        HashKey(std::string_view(token)),
        [&](uint32_t e) { return tokens_[e] == token; }, &fresh);
    if (fresh) {
      tokens_.push_back(token);
      rows_.emplace_back();
    }
    rows_[id].Insert(row_id);
  });
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

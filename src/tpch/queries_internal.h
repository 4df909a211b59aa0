#ifndef CLOUDIQ_TPCH_QUERIES_INTERNAL_H_
#define CLOUDIQ_TPCH_QUERIES_INTERNAL_H_

#include <string>
#include <utility>
#include <vector>

#include "columnar/value.h"
#include "common/result.h"
#include "exec/executor.h"
#include "tpch/tpch_gen.h"

namespace cloudiq {
namespace tpch_internal {

inline int64_t D(int y, int m, int d) { return DaysFromCivil(y, m, d); }

inline int YearOf(int64_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}

inline bool Contains(const std::string& haystack,
                     const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

inline bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

inline bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// Per-row flags: string column `name` of `b` equals `value` (a
// StringMask, so one compare per dictionary entry on a coded column).
inline std::vector<uint8_t> EqualsMask(const Batch& b, const std::string& name,
                                       const std::string& value) {
  return StringMask(b.column(name),
                    [&value](const std::string& s) { return s == value; });
}

// FilterBatch keeping the rows whose string column `name` satisfies
// `pred`, evaluated as one StringMask before the filter's loop.
template <typename Pred>
Batch FilterStrings(QueryContext* ctx, const Batch& in,
                    const std::string& name, Pred&& pred) {
  std::vector<uint8_t> keep =
      StringMask(in.column(name), std::forward<Pred>(pred));
  return FilterBatch(ctx, in, [&](const Batch&, size_t r) { return keep[r]; });
}
inline Batch FilterEquals(QueryContext* ctx, const Batch& in,
                          const std::string& name, const std::string& value) {
  return FilterStrings(ctx, in, name,
                       [&value](const std::string& s) { return s == value; });
}

// revenue = l_extendedprice * (1 - l_discount), as a double column.
// `ext` and `disc` are scaled-decimal int columns.
Batch WithRevenue(QueryContext* ctx, Batch in, const std::string& ext,
                  const std::string& disc, const std::string& as);

// Datepart-index scan: rows of `columns` whose DATE column falls in
// calendar month (year, month), resolved through the table's DATE index
// (one posting-page probe per partition instead of a column scan).
Result<Batch> ScanByMonth(QueryContext* ctx, TableReader* reader,
                          int date_column, int year, int month,
                          const std::vector<std::string>& columns);

// Queries 1-11 (queries_a.cc) and 12-22 (queries_b.cc).
Result<Batch> Q1(QueryContext* ctx);
Result<Batch> Q2(QueryContext* ctx);
Result<Batch> Q3(QueryContext* ctx);
Result<Batch> Q4(QueryContext* ctx);
Result<Batch> Q5(QueryContext* ctx);
Result<Batch> Q6(QueryContext* ctx);
Result<Batch> Q7(QueryContext* ctx);
Result<Batch> Q8(QueryContext* ctx);
Result<Batch> Q9(QueryContext* ctx);
Result<Batch> Q10(QueryContext* ctx);
Result<Batch> Q11(QueryContext* ctx);
Result<Batch> Q12(QueryContext* ctx);
Result<Batch> Q13(QueryContext* ctx);
Result<Batch> Q14(QueryContext* ctx);
Result<Batch> Q15(QueryContext* ctx);
Result<Batch> Q16(QueryContext* ctx);
Result<Batch> Q17(QueryContext* ctx);
Result<Batch> Q18(QueryContext* ctx);
Result<Batch> Q19(QueryContext* ctx);
Result<Batch> Q20(QueryContext* ctx);
Result<Batch> Q21(QueryContext* ctx);
Result<Batch> Q22(QueryContext* ctx);

}  // namespace tpch_internal
}  // namespace cloudiq

#endif  // CLOUDIQ_TPCH_QUERIES_INTERNAL_H_

#ifndef CLOUDIQ_EXEC_BATCH_H_
#define CLOUDIQ_EXEC_BATCH_H_

#include <cassert>
#include <string>
#include <vector>

#include "columnar/value.h"

namespace cloudiq {

// A named collection of equal-length column vectors — the unit of data
// flow between executor operators.
struct Batch {
  std::vector<std::string> names;
  std::vector<ColumnVector> columns;

  size_t rows() const { return columns.empty() ? 0 : columns[0].size(); }

  int Col(const std::string& name) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  const ColumnVector& column(const std::string& name) const {
    int i = Col(name);
    assert(i >= 0 && "unknown column");
    return columns[i];
  }

  // One cell by column name (caller guarantees types). Each call searches
  // the columns by name, so these are for reading a few result cells:
  // tests, examples and perfbench (whose answer oracle and filter probe
  // call them). Engine code resolves a column once and indexes its
  // values; the cloudiq-row-lookup lint rule keeps these calls out of
  // src/.
  int64_t Int(const std::string& name, size_t row) const {
    return column(name).ints[row];
  }
  double Double(const std::string& name, size_t row) const {
    return column(name).doubles[row];
  }
  // Either form of a string column.
  const std::string& Str(const std::string& name, size_t row) const {
    return column(name).StringAt(row);
  }

  void AddColumn(std::string name, ColumnVector column_data) {
    names.push_back(std::move(name));
    columns.push_back(std::move(column_data));
  }

  // Copies row `row` of every column into `dst` (columns must align).
  void AppendRowTo(Batch* dst, size_t row) const {
    for (size_t c = 0; c < columns.size(); ++c) {
      dst->columns[c].AppendRange(columns[c], row, row + 1);
    }
  }

  // An empty batch with the same shape; coded columns share their
  // dictionaries.
  Batch EmptyLike() const {
    Batch out;
    out.names = names;
    out.columns.reserve(columns.size());
    for (const ColumnVector& col : columns) {
      out.columns.push_back(col.EmptyLike());
    }
    return out;
  }
};

}  // namespace cloudiq

#endif  // CLOUDIQ_EXEC_BATCH_H_

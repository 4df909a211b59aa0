#ifndef CLOUDIQ_EXEC_ROW_KEY_TABLE_H_
#define CLOUDIQ_EXEC_ROW_KEY_TABLE_H_

#include <cmath>
#include <cstddef>
#include <type_traits>

#include "columnar/value.h"
#include "common/key_hash.h"
#include "common/row_key_table.h"

namespace cloudiq {

// Typed key equality of rows `a` and `b` of `col`. Doubles compare by
// value (-0.0 equals 0.0) and all NaNs are one key, matching
// HashKey(double). Coded strings compare by code: a dictionary's entries
// are distinct.
inline bool CellsEqual(const ColumnVector& col, size_t a, size_t b) {
  return VisitValues(col, [&](const auto& vals) {
    if constexpr (std::is_same_v<ElementOf<decltype(vals)>, double>) {
      double x = vals[a];
      double y = vals[b];
      return x == y || (std::isnan(x) && std::isnan(y));
    } else {
      return vals[a] == vals[b];
    }
  });
}

}  // namespace cloudiq

#endif  // CLOUDIQ_EXEC_ROW_KEY_TABLE_H_

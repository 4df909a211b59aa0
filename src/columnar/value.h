#ifndef CLOUDIQ_COLUMNAR_VALUE_H_
#define CLOUDIQ_COLUMNAR_VALUE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace cloudiq {

// Column types supported by the engine. DATE is stored as days since
// 1970-01-01 (int32 range), DECIMAL as a scaled int64 (two implied
// fraction digits, as TPC-H prices need).
enum class ColumnType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
  kDate = 3,
  kDecimal = 4,
};

const char* ColumnTypeName(ColumnType type);

// A single column's vector of values, in columnar form. Only the member
// matching the type is populated: int-family types share `ints`. Code
// that moves values goes through VisitValues and the operations built on
// it below, so a new storage kind is one more case in VisitValues.
struct ColumnVector {
  ColumnType type = ColumnType::kInt64;
  std::vector<int64_t> ints;        // kInt64 / kDate / kDecimal
  std::vector<double> doubles;      // kDouble
  std::vector<std::string> strings; // kString

  size_t size() const;
  void reserve(size_t n);
  // Sets the row count to `n` (new rows value-initialized).
  void Resize(size_t n);
  // Appends src[begin, end). `src` has the same storage kind.
  void AppendRange(const ColumnVector& src, size_t begin, size_t end);
  // Writes src[rows[i]] to row at + i, for a column already sized to hold
  // them. `src` has the same storage kind; `rows` may repeat and come in
  // any order. Tasks that gather into disjoint row ranges may run
  // concurrently.
  void Gather(const ColumnVector& src, const std::vector<size_t>& rows,
              size_t at);
};

// Calls `f` with the populated vector of `col` (a ColumnVector, const or
// not) and returns what it returns: the one dispatch over the storage
// kind. `f` is usually a generic lambda; `if constexpr` covers the steps
// that differ by element type.
template <typename Column, typename F>
decltype(auto) VisitValues(Column& col, F&& f) {
  static_assert(std::is_same_v<std::remove_const_t<Column>, ColumnVector>);
  switch (col.type) {
    case ColumnType::kDouble:
      return f(col.doubles);
    case ColumnType::kString:
      return f(col.strings);
    case ColumnType::kInt64:
    case ColumnType::kDate:
    case ColumnType::kDecimal:
      break;
  }
  return f(col.ints);
}

// The element type of a vector handed to a VisitValues callback, for
// `if constexpr` branches: ElementOf<decltype(vals)>.
template <typename Values>
using ElementOf = typename std::decay_t<Values>::value_type;

// The vector of `col` with the element type of `like` (another column's
// vector, as handed to a VisitValues callback).
template <typename Column, typename T>
auto& ValuesLike(Column& col, const std::vector<T>& /*like*/) {
  if constexpr (std::is_same_v<T, double>) {
    return col.doubles;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return col.strings;
  } else {
    static_assert(std::is_same_v<T, int64_t>);
    return col.ints;
  }
}

inline size_t ColumnVector::size() const {
  return VisitValues(*this, [](const auto& v) { return v.size(); });
}

inline void ColumnVector::reserve(size_t n) {
  VisitValues(*this, [n](auto& v) { v.reserve(n); });
}

inline void ColumnVector::Resize(size_t n) {
  VisitValues(*this, [n](auto& v) { v.resize(n); });
}

inline void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                                      size_t end) {
  VisitValues(*this, [&](auto& dst) {
    const auto& from = ValuesLike(src, dst);
    dst.insert(dst.end(), from.begin() + begin, from.begin() + end);
  });
}

inline void ColumnVector::Gather(const ColumnVector& src,
                                 const std::vector<size_t>& rows,
                                 size_t at) {
  VisitValues(*this, [&](auto& dst) {
    const auto& from = ValuesLike(src, dst);
    for (size_t i = 0; i < rows.size(); ++i) dst[at + i] = from[rows[i]];
  });
}

// Days since epoch for a calendar date (proleptic Gregorian).
int64_t DaysFromCivil(int year, int month, int day);
// Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int* year, int* month, int* day);

// Scaled-decimal helpers (2 fraction digits).
inline int64_t DecimalFromDouble(double v) {
  return static_cast<int64_t>(v * 100.0 + (v >= 0 ? 0.5 : -0.5));
}
inline double DecimalToDouble(int64_t v) { return v / 100.0; }

}  // namespace cloudiq

#endif  // CLOUDIQ_COLUMNAR_VALUE_H_

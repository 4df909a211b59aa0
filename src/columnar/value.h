#ifndef CLOUDIQ_COLUMNAR_VALUE_H_
#define CLOUDIQ_COLUMNAR_VALUE_H_

#include <cstdint>
#include <memory>
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

// Whether a column of `type` holds its values in ColumnVector::ints.
inline bool IsIntFamily(ColumnType type) {
  return type == ColumnType::kInt64 || type == ColumnType::kDate ||
         type == ColumnType::kDecimal;
}

// The dictionary of a coded string column: distinct strings and each
// one's HashKey (common/key_hash.h), computed once. Entries are in no
// particular order. A dictionary is immutable once a column holds it, and
// columns share it by pointer, so equal codes under one dictionary mean
// equal strings.
struct StringDict {
  std::vector<std::string> strings;
  std::vector<uint64_t> hash;  // hash[i] == HashKey(strings[i])
};

// A single column's vector of values, in columnar form. Only the member
// matching the type is populated: int-family types share `ints`. A kString
// column is either plain (`strings`) or dictionary-coded (`codes` into
// `dict`); it is coded iff `dict` is set. Code that moves values goes
// through VisitValues and the operations built on it below, so a new
// storage kind is one more case in VisitValues.
struct ColumnVector {
  ColumnType type = ColumnType::kInt64;
  std::vector<int64_t> ints;        // kInt64 / kDate / kDecimal
  std::vector<double> doubles;      // kDouble
  std::vector<std::string> strings; // kString, plain
  // kString, coded. The initializers let ColumnVector{type, {}, {}, {}}
  // leave these two out without a missing-initializer warning.
  std::vector<uint32_t> codes = {};  // indexes into dict->strings
  std::shared_ptr<const StringDict> dict = nullptr;

  size_t size() const;
  void reserve(size_t n);
  // Sets the row count to `n` (new rows value-initialized).
  void Resize(size_t n);
  // Appends src[begin, end). `src` has the same type. A string column
  // whose form or dictionary differs from `src`'s is first expanded to
  // plain.
  void AppendRange(const ColumnVector& src, size_t begin, size_t end);
  // Writes src[rows[i]] to row at + i, for a column already sized to hold
  // them. `src` has the same type; `rows` may repeat and come in any
  // order. Tasks that gather into disjoint row ranges may run
  // concurrently when `src` has this column's form and dictionary (as
  // EmptyLike gives); otherwise the column is first expanded to plain,
  // which touches every row.
  void Gather(const ColumnVector& src, const std::vector<size_t>& rows,
              size_t at);

  // The string at row `r` of a kString column, either form.
  const std::string& StringAt(size_t r) const {
    return dict != nullptr ? dict->strings[codes[r]] : strings[r];
  }
  // Turns a coded column into the plain one with the same strings; a
  // no-op on any other column.
  void ExpandStrings();
  // An empty column of this type and form (sharing the dictionary).
  ColumnVector EmptyLike() const;
};

// Calls `f` with the populated vector of `col` (a ColumnVector, const or
// not) and returns what it returns: the one dispatch over the storage
// kind. `f` is usually a generic lambda; `if constexpr` covers the steps
// that differ by element type. A coded string column hands `f` its codes
// (uint32_t elements); a step that needs the strings reads `col.dict`.
template <typename Column, typename F>
decltype(auto) VisitValues(Column& col, F&& f) {
  static_assert(std::is_same_v<std::remove_const_t<Column>, ColumnVector>);
  switch (col.type) {
    case ColumnType::kDouble:
      return f(col.doubles);
    case ColumnType::kString:
      if (col.dict != nullptr) return f(col.codes);
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
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return col.codes;
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
  if (dict != src.dict) {
    ExpandStrings();
    for (size_t r = begin; r < end; ++r) strings.push_back(src.StringAt(r));
    return;
  }
  VisitValues(*this, [&](auto& dst) {
    const auto& from = ValuesLike(src, dst);
    dst.insert(dst.end(), from.begin() + begin, from.begin() + end);
  });
}

inline void ColumnVector::Gather(const ColumnVector& src,
                                 const std::vector<size_t>& rows,
                                 size_t at) {
  if (dict != src.dict) {
    ExpandStrings();
    for (size_t i = 0; i < rows.size(); ++i) {
      strings[at + i] = src.StringAt(rows[i]);
    }
    return;
  }
  VisitValues(*this, [&](auto& dst) {
    const auto& from = ValuesLike(src, dst);
    for (size_t i = 0; i < rows.size(); ++i) dst[at + i] = from[rows[i]];
  });
}

inline void ColumnVector::ExpandStrings() {
  if (dict == nullptr) return;
  strings.resize(codes.size());
  for (size_t r = 0; r < codes.size(); ++r) {
    strings[r] = dict->strings[codes[r]];
  }
  codes = {};
  dict = nullptr;
}

inline ColumnVector ColumnVector::EmptyLike() const {
  ColumnVector out;
  out.type = type;
  out.dict = dict;
  return out;
}

// Per-row flags pred(value) for a kString column, either form. On a coded
// column `pred` runs once per dictionary entry rather than once per row.
template <typename Pred>
std::vector<uint8_t> StringMask(const ColumnVector& col, Pred&& pred) {
  std::vector<uint8_t> keep(col.size());
  if (col.dict != nullptr) {
    std::vector<uint8_t> entry(col.dict->strings.size());
    for (size_t i = 0; i < entry.size(); ++i) {
      entry[i] = pred(col.dict->strings[i]) ? 1 : 0;
    }
    for (size_t r = 0; r < keep.size(); ++r) keep[r] = entry[col.codes[r]];
  } else {
    for (size_t r = 0; r < keep.size(); ++r) {
      keep[r] = pred(col.strings[r]) ? 1 : 0;
    }
  }
  return keep;
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

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "columnar/date_index.h"
#include "columnar/encoding.h"
#include "columnar/hg_index.h"
#include "columnar/table_loader.h"
#include "columnar/table_reader.h"
#include "columnar/text_index.h"
#include "columnar/value.h"
#include "common/coding.h"
#include "common/key_hash.h"
#include "common/random.h"
#include "exec/batch.h"
#include "tests/test_util.h"
#include "txn/transaction_manager.h"

namespace cloudiq {
namespace {

using testing_util::SingleNodeHarness;

TEST(ValueTest, DateRoundTrip) {
  int64_t days = DaysFromCivil(1995, 6, 17);
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  EXPECT_EQ(y, 1995);
  EXPECT_EQ(m, 6);
  EXPECT_EQ(d, 17);
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_LT(DaysFromCivil(1992, 1, 1), DaysFromCivil(1998, 8, 2));
}

TEST(ValueTest, DecimalScaling) {
  EXPECT_EQ(DecimalFromDouble(12.34), 1234);
  EXPECT_DOUBLE_EQ(DecimalToDouble(1234), 12.34);
  EXPECT_EQ(DecimalFromDouble(-1.005), -100);  // rounds toward nearest
}

// --- the typed column primitive over every ColumnType -------------------

constexpr ColumnType kAllTypes[] = {ColumnType::kInt64, ColumnType::kDouble,
                                    ColumnType::kString, ColumnType::kDate,
                                    ColumnType::kDecimal};

// `n` distinct values of `type`, starting from `seed`. Strings are long
// enough to live on the heap, so a moved-from source would show.
ColumnVector SampleColumn(ColumnType type, size_t n, int seed) {
  ColumnVector col;
  col.type = type;
  for (size_t i = 0; i < n; ++i) {
    int64_t v = seed * 100 + static_cast<int64_t>(i);
    switch (type) {
      case ColumnType::kDouble:
        col.doubles.push_back(v * 0.25 - 3);
        break;
      case ColumnType::kString:
        col.strings.push_back("value number " + std::to_string(v) +
                              " padded past the small-string buffer");
        break;
      default:
        col.ints.push_back(v * 7 - 11);
    }
  }
  return col;
}

// Row-at-a-time reference: push src[row] onto the matching vector.
void PushCell(const ColumnVector& src, size_t row, ColumnVector* dst) {
  switch (src.type) {
    case ColumnType::kDouble:
      dst->doubles.push_back(src.doubles[row]);
      break;
    case ColumnType::kString:
      dst->strings.push_back(src.strings[row]);
      break;
    default:
      dst->ints.push_back(src.ints[row]);
  }
}

void ExpectSameColumn(const ColumnVector& expected,
                      const ColumnVector& actual) {
  EXPECT_EQ(actual.type, expected.type);
  EXPECT_EQ(actual.ints, expected.ints);
  EXPECT_EQ(actual.doubles, expected.doubles);
  EXPECT_EQ(actual.strings, expected.strings);
}

TEST(ColumnPrimitiveTest, SizeReserveAndResizeUseTheTypedVector) {
  for (ColumnType type : kAllTypes) {
    SCOPED_TRACE(ColumnTypeName(type));
    ColumnVector col = SampleColumn(type, 5, 1);
    EXPECT_EQ(col.size(), 5u);
    col.reserve(64);
    EXPECT_EQ(col.size(), 5u);
    ColumnVector expected = SampleColumn(type, 3, 1);
    col.Resize(3);
    ExpectSameColumn(expected, col);
    col.Resize(6);
    EXPECT_EQ(col.size(), 6u);
    // New rows are value-initialized: 0, 0.0 or "".
    const ColumnVector zero{type, {0}, {0.0}, {""}};
    for (int i = 0; i < 3; ++i) PushCell(zero, 0, &expected);
    ExpectSameColumn(expected, col);
    col.Resize(0);
    EXPECT_EQ(col.size(), 0u);
  }
}

TEST(ColumnPrimitiveTest, AppendRangeMatchesRowwiseCopy) {
  for (ColumnType type : kAllTypes) {
    SCOPED_TRACE(ColumnTypeName(type));
    const ColumnVector src = SampleColumn(type, 10, 2);
    const ColumnVector before = src;
    ColumnVector dst = SampleColumn(type, 2, 3);
    ColumnVector expected = dst;
    dst.AppendRange(src, 4, 4);  // empty range
    dst.AppendRange(src, 10, 10);
    ExpectSameColumn(expected, dst);
    dst.AppendRange(src, 3, 7);
    for (size_t r = 3; r < 7; ++r) PushCell(src, r, &expected);
    dst.AppendRange(src, 0, src.size());  // the whole vector
    for (size_t r = 0; r < src.size(); ++r) PushCell(src, r, &expected);
    ExpectSameColumn(expected, dst);
    ExpectSameColumn(before, src);  // copied, never moved from
  }
}

TEST(ColumnPrimitiveTest, AppendRangeAcrossIntFamilyTypes) {
  // DATE and DECIMAL share INT64's storage, so values move between them.
  ColumnVector dates = SampleColumn(ColumnType::kDate, 4, 4);
  ColumnVector out;
  out.type = ColumnType::kDecimal;
  out.AppendRange(dates, 1, 3);
  EXPECT_EQ(out.ints,
            (std::vector<int64_t>{dates.ints[1], dates.ints[2]}));
}

TEST(ColumnPrimitiveTest, GatherWritesRowsInAnyOrderAtAnOffset) {
  for (ColumnType type : kAllTypes) {
    SCOPED_TRACE(ColumnTypeName(type));
    const ColumnVector src = SampleColumn(type, 10, 5);
    const ColumnVector before = src;
    const std::vector<size_t> rows = {9, 0, 4, 4, 7, 0, 2};
    const size_t at = 3;
    ColumnVector dst = SampleColumn(type, at + rows.size() + 2, 6);
    ColumnVector expected;
    expected.type = type;
    for (size_t r = 0; r < at; ++r) PushCell(dst, r, &expected);
    for (size_t r : rows) PushCell(src, r, &expected);
    for (size_t r = at + rows.size(); r < dst.size(); ++r) {
      PushCell(dst, r, &expected);
    }
    dst.Gather(src, rows, at);
    ExpectSameColumn(expected, dst);
    ExpectSameColumn(before, src);  // copied, never moved from

    // No rows: nothing changes, even at the end of the column.
    dst.Gather(src, {}, dst.size());
    ExpectSameColumn(expected, dst);
  }
}

// Property sweep: n-bit packing round-trips at every width.
class NBitPackTest : public ::testing::TestWithParam<int> {};

TEST_P(NBitPackTest, RoundTrip) {
  int width = GetParam();
  Rng rng(width);
  std::vector<uint64_t> values;
  uint64_t mask = width == 64 ? ~uint64_t{0}
                              : ((uint64_t{1} << width) - 1);
  for (int i = 0; i < 500; ++i) values.push_back(rng.Next() & mask);
  std::vector<uint8_t> packed = NBitPack(values, width);
  EXPECT_LE(packed.size(), (values.size() * width + 7) / 8);
  std::vector<uint64_t> back = NBitUnpack(packed, width, values.size());
  EXPECT_EQ(back, values);
}

INSTANTIATE_TEST_SUITE_P(Widths, NBitPackTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 13, 16, 21,
                                           32, 47, 63, 64));

TEST(EncodingTest, BitWidthFor) {
  EXPECT_EQ(BitWidthFor(0), 1);
  EXPECT_EQ(BitWidthFor(1), 1);
  EXPECT_EQ(BitWidthFor(2), 2);
  EXPECT_EQ(BitWidthFor(255), 8);
  EXPECT_EQ(BitWidthFor(256), 9);
  EXPECT_EQ(BitWidthFor(~uint64_t{0}), 64);
}

TEST(EncodingTest, IntColumnFrameOfReference) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  for (int64_t i = 0; i < 1000; ++i) col.ints.push_back(1000000 + i % 50);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 1000, &zone);
  // 50 distinct deltas -> 6 bits/value: far below 8 bytes/value.
  EXPECT_LT(page.size(), 1000u);
  EXPECT_EQ(zone.min_int, 1000000);
  EXPECT_EQ(zone.max_int, 1000049);
  EXPECT_EQ(zone.row_count, 1000u);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ints, col.ints);
}

TEST(EncodingTest, SortedColumnsDeltaEncode) {
  // A sorted wide-range column (e.g., orderkey during load) compresses
  // via deltas far below frame-of-reference width.
  ColumnVector col;
  col.type = ColumnType::kInt64;
  int64_t v = 1;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    col.ints.push_back(v);
    v += 1 + static_cast<int64_t>(rng.Uniform(3));  // range ~12000
  }
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 4000, &zone);
  // Deltas fit 2 bits vs ~14 bits frame-of-reference.
  EXPECT_LT(page.size(), 4000u * 4 / 8);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ints, col.ints);

  // Non-monotone data still round-trips through the FOR path.
  std::swap(col.ints[100], col.ints[200]);
  page = EncodeColumnPage(col, 0, 4000, &zone);
  back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ints, col.ints);
}

TEST(EncodingTest, SingleValueAndEmptyPages) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  col.ints = {42};
  ZoneMapEntry zone;
  Result<ColumnVector> one = DecodeColumnPage(EncodeColumnPage(col, 0, 1,
                                                               &zone));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->ints, std::vector<int64_t>{42});
  Result<ColumnVector> none = DecodeColumnPage(EncodeColumnPage(col, 0, 0,
                                                                &zone));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->ints.empty());
}

TEST(EncodingTest, FullRangeIntsRoundTrip) {
  // max - min spans all 64 bits: a width-64 frame-of-reference page, and
  // a width-64 delta page once sorted.
  ColumnVector col;
  col.type = ColumnType::kInt64;
  col.ints = {INT64_MAX, 0, INT64_MIN, -1, 1, INT64_MIN + 1};
  ZoneMapEntry zone;
  Result<ColumnVector> back = DecodeColumnPage(
      EncodeColumnPage(col, 0, col.size(), &zone));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ints, col.ints);
  std::sort(col.ints.begin(), col.ints.end());
  back = DecodeColumnPage(EncodeColumnPage(col, 0, col.size(), &zone));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ints, col.ints);
}

TEST(EncodingTest, StringDictionaryWhenLowCardinality) {
  ColumnVector col;
  col.type = ColumnType::kString;
  const char* vals[3] = {"MAIL", "SHIP", "TRUCK"};
  for (int i = 0; i < 2000; ++i) col.strings.push_back(vals[i % 3]);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 2000, &zone);
  EXPECT_LT(page.size(), 2000u);  // ~2 bits/value + tiny dictionary
  EXPECT_EQ(zone.min_string, "MAIL");
  EXPECT_EQ(zone.max_string, "TRUCK");
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->strings, col.strings);
}

TEST(EncodingTest, StringRawWhenHighCardinality) {
  ColumnVector col;
  col.type = ColumnType::kString;
  for (int i = 0; i < 200; ++i) {
    col.strings.push_back("unique-comment-" + std::to_string(i * 7919));
  }
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 200, &zone);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->strings, col.strings);
}

TEST(EncodingTest, DoubleColumnRoundTrip) {
  ColumnVector col;
  col.type = ColumnType::kDouble;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) col.doubles.push_back(rng.NextDouble() * 1e6);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 300, &zone);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->doubles, col.doubles);
  EXPECT_LE(zone.min_double, zone.max_double);
}

TEST(EncodingTest, SubrangeEncoding) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  for (int64_t i = 0; i < 100; ++i) col.ints.push_back(i);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 20, 40, &zone);
  Result<ColumnVector> back = DecodeColumnPage(page);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->ints.size(), 20u);
  EXPECT_EQ(back->ints.front(), 20);
  EXPECT_EQ(back->ints.back(), 39);
  EXPECT_EQ(zone.min_int, 20);
  EXPECT_EQ(zone.max_int, 39);
}

// The original bit-at-a-time kernels, kept as the oracle the
// word-at-a-time NBitPack / NBitUnpack must match bit for bit.
std::vector<uint8_t> ReferenceNBitPack(const std::vector<uint64_t>& values,
                                       int bit_width) {
  std::vector<uint8_t> out((values.size() * bit_width + 7) / 8, 0);
  size_t bit_pos = 0;
  for (uint64_t v : values) {
    for (int b = 0; b < bit_width; ++b, ++bit_pos) {
      if ((v >> b) & 1) {
        out[bit_pos / 8] |= static_cast<uint8_t>(1u << (bit_pos % 8));
      }
    }
  }
  return out;
}

std::vector<uint64_t> ReferenceNBitUnpack(const std::vector<uint8_t>& bytes,
                                          int bit_width, size_t count) {
  std::vector<uint64_t> out(count, 0);
  size_t bit_pos = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    for (int b = 0; b < bit_width; ++b, ++bit_pos) {
      if (bit_pos / 8 < bytes.size() &&
          (bytes[bit_pos / 8] >> (bit_pos % 8)) & 1) {
        v |= uint64_t{1} << b;
      }
    }
    out[i] = v;
  }
  return out;
}

// Every width 1..64 at lengths around word boundaries, on unmasked
// inputs (pack must drop the high bits) and on full, half and one-byte-
// short buffers (unpack must read missing bits as 0).
TEST(NBitOracleTest, MatchesBitAtATimeReference) {
  const size_t kLengths[] = {0, 1, 7, 8, 9, 63, 64, 65, 1000};
  for (int width = 1; width <= 64; ++width) {
    for (size_t n : kLengths) {
      SCOPED_TRACE("width " + std::to_string(width) + " n " +
                   std::to_string(n));
      Rng rng(width * 1000 + n);
      std::vector<uint64_t> values(n);
      for (uint64_t& v : values) v = rng.Next();
      std::vector<uint8_t> packed = NBitPack(values, width);
      ASSERT_EQ(packed, ReferenceNBitPack(values, width));
      std::vector<std::vector<uint8_t>> buffers = {
          packed,
          std::vector<uint8_t>(packed.begin(),
                               packed.begin() + packed.size() / 2)};
      if (!packed.empty()) {
        buffers.emplace_back(packed.begin(), packed.end() - 1);
      }
      for (const std::vector<uint8_t>& buf : buffers) {
        ASSERT_EQ(NBitUnpack(buf, width, n),
                  ReferenceNBitUnpack(buf, width, n))
            << "buffer of " << buf.size() << " bytes";
      }
    }
  }
}

// A frame-of-reference n-bit page holding base + values[i], written field
// by field so that any width 1..64 can be chosen.
std::vector<uint8_t> NBitPage(const std::vector<uint64_t>& values, int width,
                              int64_t base) {
  constexpr uint8_t kNBitEncoding = 1;
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(ColumnType::kInt64));
  PutU32(out, static_cast<uint32_t>(values.size()));
  out.push_back(kNBitEncoding);
  out.push_back(static_cast<uint8_t>(width));
  PutU64(out, static_cast<uint64_t>(base));
  std::vector<uint8_t> packed = NBitPack(values, width);
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

// The width-specialized kernels against the bit-at-a-time reference: every
// width 1..64, every count 0..67, runs starting off a multiple of 8, and
// the page's last values, whose 9-byte window crosses the end of the
// buffer (the packed run ends the page).
TEST(NBitOracleTest, SpecializedKernelsMatchReferenceFromAnyRow) {
  constexpr int64_t kSentinel = -12345;
  for (int width = 1; width <= 64; ++width) {
    for (size_t n = 0; n <= 67; ++n) {
      SCOPED_TRACE("width " + std::to_string(width) + " n " +
                   std::to_string(n));
      Rng rng(width * 100 + n);
      std::vector<uint64_t> values(n);
      for (uint64_t& v : values) v = rng.Next();
      std::vector<uint8_t> packed = NBitPack(values, width);
      std::vector<uint64_t> want = ReferenceNBitUnpack(packed, width, n);
      ASSERT_EQ(NBitUnpack(packed, width, n), want);
      const int64_t base = static_cast<int64_t>(rng.Next());
      std::vector<uint8_t> page = NBitPage(want, width, base);
      for (size_t start : {0, 1, 3, 7, 8, 9, 13, 31, 60}) {
        if (start > n) continue;
        for (size_t len : {n - start, std::min<size_t>(n - start, 5)}) {
          ColumnVector dst;
          dst.ints.assign(len + 2, kSentinel);
          std::vector<PageRun> runs = {
              {static_cast<uint32_t>(start),
               static_cast<uint32_t>(start + len), 1}};
          ASSERT_TRUE(DecodeColumnPageInto(page, n, runs, nullptr, &dst).ok());
          EXPECT_EQ(dst.ints.front(), kSentinel);
          EXPECT_EQ(dst.ints.back(), kSentinel);
          for (size_t k = 0; k < len; ++k) {
            ASSERT_EQ(dst.ints[1 + k],
                      static_cast<int64_t>(static_cast<uint64_t>(base) +
                                           want[start + k]))
                << "start " << start << " row " << start + k;
          }
        }
      }
    }
  }
}

TEST(NBitOracleTest, WidthOutsideRangeReadsZeros) {
  std::vector<uint8_t> bytes(16, 0xff);
  for (int width : {-1, 0, 65, 255}) {
    EXPECT_EQ(NBitUnpack(bytes, width, 3), std::vector<uint64_t>(3, 0));
  }
}

// Byte offsets inside a column page: [type u32][count u32][encoding u8]
// [width u8][...].
constexpr size_t kCountOffset = 4;
constexpr size_t kEncodingOffset = 8;
constexpr size_t kWidthOffset = 9;

// Pins the encoded bytes of each column-page encoding. A change to the
// page format (which would also change every sim byte count and the
// bytes at rest) fails here first.
TEST(EncodingGoldenTest, PageBytesArePinned) {
  // Digest of the page, after checking it took the expected encoding.
  auto digest = [](const ColumnVector& col, uint8_t encoding) {
    ZoneMapEntry zone;
    std::vector<uint8_t> page = EncodeColumnPage(col, 0, col.size(), &zone);
    EXPECT_EQ(page[kEncodingOffset], encoding);
    return testing_util::Fnv1a(page);
  };
  Rng rng(2021);
  ColumnVector for_col;
  for_col.type = ColumnType::kDecimal;
  for (int i = 0; i < 3000; ++i) {
    for_col.ints.push_back(-500000 + static_cast<int64_t>(rng.Uniform(90001)));
  }
  ColumnVector delta_col;
  delta_col.type = ColumnType::kDate;
  int64_t day = 8000;
  for (int i = 0; i < 3000; ++i) {
    day += static_cast<int64_t>(rng.Uniform(4));
    delta_col.ints.push_back(day);
  }
  ColumnVector double_col;
  double_col.type = ColumnType::kDouble;
  for (int i = 0; i < 500; ++i) {
    double_col.doubles.push_back(rng.NextDouble() * 1e4 - 5e3);
  }
  ColumnVector dict_col;
  dict_col.type = ColumnType::kString;
  const char* modes[7] = {"AIR", "FOB", "MAIL", "RAIL",
                          "REG AIR", "SHIP", "TRUCK"};
  for (int i = 0; i < 3000; ++i) {
    dict_col.strings.push_back(modes[rng.Uniform(7)]);
  }
  ColumnVector raw_col;
  raw_col.type = ColumnType::kString;
  for (int i = 0; i < 400; ++i) {
    raw_col.strings.push_back("comment " + std::to_string(rng.Next()));
  }
  EXPECT_EQ(digest(for_col, 1), 0xec99a4e94bf29a02ull);
  EXPECT_EQ(digest(delta_col, 5), 0x062ef097cc97345bull);
  EXPECT_EQ(digest(double_col, 2), 0x07da000589a45aa3ull);
  EXPECT_EQ(digest(dict_col, 3), 0x5907326fcc3dbafaull);
  EXPECT_EQ(digest(raw_col, 4), 0x3111212ed6ceef26ull);
}

// --- DecodeColumnPageInto: the rows asked for, in place ----------------

// A random page's column, in one of the five encodings by `kind`: frame-
// of-reference ints, sorted (delta) ints, doubles, dictionary strings and
// raw strings.
ColumnVector RandomPageColumn(Rng& rng, int kind, size_t rows) {
  ColumnVector col;
  switch (kind) {
    case 0:
      col.type = ColumnType::kDecimal;
      for (size_t i = 0; i < rows; ++i) {
        col.ints.push_back(static_cast<int64_t>(rng.Uniform(1 << 20)) - 9);
      }
      break;
    case 1: {
      col.type = ColumnType::kDate;
      int64_t day = 9000;
      for (size_t i = 0; i < rows; ++i) {
        day += static_cast<int64_t>(rng.Uniform(5));
        col.ints.push_back(day);
      }
      break;
    }
    case 2:
      col.type = ColumnType::kDouble;
      for (size_t i = 0; i < rows; ++i) col.doubles.push_back(rng.NextDouble());
      break;
    case 3: {
      col.type = ColumnType::kString;
      const char* modes[] = {"AIR", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"};
      size_t distinct = 1 + rng.Uniform(6);
      for (size_t i = 0; i < rows; ++i) {
        col.strings.push_back(modes[rng.Uniform(distinct)]);
      }
      break;
    }
    default:
      col.type = ColumnType::kString;
      for (size_t i = 0; i < rows; ++i) {
        col.strings.push_back("comment " + std::to_string(rng.Next()));
      }
      break;
  }
  return col;
}

// Ascending, disjoint runs over [0, rows): none, the whole page, single
// rows, or random runs.
std::vector<PageRun> RandomRuns(Rng& rng, int shape, uint32_t rows) {
  std::vector<PageRun> runs;
  size_t at = 0;
  auto add = [&](uint32_t begin, uint32_t end) {
    runs.push_back({begin, end, at});
    at += end - begin;
  };
  switch (shape) {
    case 0:
      break;
    case 1:
      add(0, rows);
      break;
    case 2:
      for (uint32_t r = 0; r < rows; ++r) {
        if (rng.Bernoulli(0.3)) add(r, r + 1);
      }
      break;
    default:
      for (uint32_t r = 0; r < rows;) {
        uint32_t len = 1 + static_cast<uint32_t>(rng.Uniform(20));
        uint32_t end = std::min(rows, r + len);
        if (rng.Bernoulli(0.5)) add(r, end);
        r = end;
      }
      break;
  }
  return runs;
}

// DecodeColumnPageInto equals DecodeColumnPageCoded followed by one
// AppendRange per run, into plain and coded columns, at any offset.
TEST(PageDecodeIntoTest, MatchesCodedDecodeAndAppendRange) {
  Rng rng(2024);
  bool seen[6] = {};  // encodings seen, by header byte
  for (int it = 0; it < 400; ++it) {
    const int kind = it % 5;
    const size_t rows = rng.Uniform(300);
    ColumnVector col = RandomPageColumn(rng, kind, rows);
    ZoneMapEntry zone;
    std::vector<uint8_t> page = EncodeColumnPage(col, 0, rows, &zone);
    seen[page[kEncodingOffset]] = true;
    Result<ColumnVector> whole = DecodeColumnPageCoded(page);
    ASSERT_TRUE(whole.ok());
    const uint64_t n = rows;
    for (int shape = 0; shape < 4; ++shape) {
      SCOPED_TRACE("iteration " + std::to_string(it) + " shape " +
                   std::to_string(shape));
      std::vector<PageRun> runs =
          RandomRuns(rng, shape, static_cast<uint32_t>(rows));
      // The reference: the runs appended after `lead` rows already there.
      const size_t lead = rng.Uniform(3);
      ColumnVector want = whole->EmptyLike();
      want.Resize(lead);
      for (const PageRun& r : runs) want.AppendRange(*whole, r.begin, r.end);
      std::vector<PageRun> placed = runs;
      for (PageRun& r : placed) r.at += lead;

      ColumnVector plain;
      plain.type = col.type;
      plain.Resize(want.size());
      ASSERT_TRUE(DecodeColumnPageInto(page, n, placed, nullptr, &plain).ok());
      // Only the rows after the lead ones were written.
      auto written = [lead](auto values) {
        values.erase(values.begin(),
                     values.begin() + std::min(lead, values.size()));
        return values;
      };
      ColumnVector want_plain = want;
      want_plain.ExpandStrings();
      EXPECT_EQ(written(plain.ints), written(want_plain.ints));
      EXPECT_EQ(written(plain.doubles), written(want_plain.doubles));
      EXPECT_EQ(written(plain.strings), written(want_plain.strings));

      if (whole->dict != nullptr) {
        // Into the page's own dictionary, and through a remap into one
        // holding the entries in reverse order.
        ColumnVector coded = want.EmptyLike();
        coded.Resize(want.size());
        ASSERT_TRUE(
            DecodeColumnPageInto(page, n, placed, nullptr, &coded).ok());
        EXPECT_EQ(written(coded.codes), written(want.codes));
        auto reversed = std::make_shared<StringDict>();
        std::vector<uint32_t> remap;
        const std::vector<std::string>& entries = whole->dict->strings;
        for (size_t e = entries.size(); e-- > 0;) {
          reversed->strings.push_back(entries[e]);
          reversed->hash.push_back(HashKey(entries[e]));
        }
        for (size_t e = 0; e < entries.size(); ++e) {
          remap.push_back(static_cast<uint32_t>(entries.size() - 1 - e));
        }
        ColumnVector remapped;
        remapped.type = ColumnType::kString;
        remapped.dict = reversed;
        remapped.Resize(want.size());
        ASSERT_TRUE(
            DecodeColumnPageInto(page, n, placed, &remap, &remapped).ok());
        for (const PageRun& r : placed) {
          for (size_t k = r.at; k < r.at + (r.end - r.begin); ++k) {
            EXPECT_EQ(remapped.StringAt(k), want.StringAt(k));
          }
        }
      }
    }
  }
  for (uint8_t encoding = 1; encoding <= 5; ++encoding) {
    EXPECT_TRUE(seen[encoding]) << "encoding " << int{encoding};
  }
}

// The whole page is checked whatever rows are asked for: an out-of-range
// dictionary code in a row no run covers, or a page that disagrees with
// its segment, is Corruption even with no runs at all.
TEST(PageDecodeIntoTest, ChecksRowsItDoesNotWrite) {
  ColumnVector flags;
  flags.type = ColumnType::kString;
  flags.strings = {"A", "N", "R", "A", "N", "R", "A", "N", "R", "A"};
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(flags, 0, 10, &zone);
  ASSERT_EQ(page[kWidthOffset], 2);  // three entries, codes 0..2
  page.back() = 0xff;                // the last rows' codes read 3
  ColumnVector dst;
  dst.type = ColumnType::kString;
  dst.Resize(2);
  EXPECT_TRUE(DecodeColumnPageInto(page, 10, {}, nullptr, &dst)
                  .IsCorruption());
  EXPECT_TRUE(DecodeColumnPageInto(page, 10, {{0, 2, 0}}, nullptr, &dst)
                  .IsCorruption());
  page.back() = 0;
  EXPECT_TRUE(DecodeColumnPageInto(page, 10, {{0, 2, 0}}, nullptr, &dst).ok());
  EXPECT_EQ(dst.strings, (std::vector<std::string>{"A", "N"}));
  // Another row count, or another type, than the segment's.
  EXPECT_TRUE(DecodeColumnPageInto(page, 11, {}, nullptr, &dst)
                  .IsCorruption());
  ColumnVector ints;
  ints.type = ColumnType::kInt64;
  EXPECT_TRUE(DecodeColumnPageInto(page, 10, {}, nullptr, &ints)
                  .IsCorruption());
}

// ParseColumnPage lists a dictionary page's entries in code order, and
// DecodeColumnPageInto takes the parsed page as it takes the bytes.
TEST(PageDecodeIntoTest, ParsedPageListsEntriesAndDecodes) {
  ColumnVector flags;
  flags.type = ColumnType::kString;
  flags.strings = {"R", "A", "N", "A"};
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(flags, 0, 4, &zone);
  ParsedColumnPage parsed;
  ASSERT_TRUE(ParseColumnPage(page, &parsed).ok());
  EXPECT_TRUE(parsed.IsDictionary());
  EXPECT_EQ(parsed.strings, (std::vector<std::string_view>{"A", "N", "R"}));
  ColumnVector dst;
  dst.type = ColumnType::kString;
  dst.Resize(2);
  ASSERT_TRUE(DecodeColumnPageInto(parsed, 4, {{1, 3, 0}}, nullptr, &dst).ok());
  EXPECT_EQ(dst.strings, (std::vector<std::string>{"A", "N"}));

  ColumnVector ints;
  ints.type = ColumnType::kInt64;
  ints.ints = {1, 2};
  ParsedColumnPage int_page;
  ASSERT_TRUE(
      ParseColumnPage(EncodeColumnPage(ints, 0, 2, &zone), &int_page).ok());
  EXPECT_FALSE(int_page.IsDictionary());
  page.resize(page.size() - 1);
  ParsedColumnPage truncated;
  EXPECT_TRUE(ParseColumnPage(page, &truncated).IsCorruption());
}

// A misuse of DecodeColumnPageInto is InvalidArgument, not Corruption: a
// remap that does not fit the page dictionary, or a coded column asked to
// take a raw string page.
TEST(PageDecodeIntoTest, MisuseIsInvalidArgument) {
  ColumnVector flags;
  flags.type = ColumnType::kString;
  flags.strings = {"R", "A", "N", "A"};
  ZoneMapEntry zone;
  std::vector<uint8_t> dict_page = EncodeColumnPage(flags, 0, 4, &zone);
  ColumnVector coded;
  coded.type = ColumnType::kString;
  coded.dict = std::make_shared<StringDict>();
  coded.Resize(4);
  const std::vector<uint32_t> short_remap = {0, 1};
  EXPECT_TRUE(
      DecodeColumnPageInto(dict_page, 4, {{0, 4, 0}}, &short_remap, &coded)
          .IsInvalidArgument());

  ColumnVector notes;
  notes.type = ColumnType::kString;
  notes.strings = {"alpha", "bravo", "charlie", "delta"};
  std::vector<uint8_t> raw_page = EncodeColumnPage(notes, 0, 4, &zone);
  ParsedColumnPage raw;
  ASSERT_TRUE(ParseColumnPage(raw_page, &raw).ok());
  ASSERT_FALSE(raw.IsDictionary());
  EXPECT_TRUE(DecodeColumnPageInto(raw_page, 4, {{0, 4, 0}}, nullptr, &coded)
                  .IsInvalidArgument());
}

// --- DecodeColumnPage on corrupt input: Corruption, never an abort ------

std::vector<uint8_t> IntPage(ColumnType type, int n) {
  ColumnVector col;
  col.type = type;
  for (int i = 0; i < n; ++i) col.ints.push_back(100 + (i * 37) % 1000);
  ZoneMapEntry zone;
  return EncodeColumnPage(col, 0, col.size(), &zone);
}

void SetU32(std::vector<uint8_t>& page, size_t offset, uint32_t v) {
  std::memcpy(page.data() + offset, &v, sizeof(v));
}

TEST(DecodeCorruptionTest, RawDoubleCountBeyondPayload) {
  ColumnVector col;
  col.type = ColumnType::kDouble;
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 0, &zone);
  SetU32(page, kCountOffset, 0xFFFFFFF0u);
  Result<ColumnVector> r = DecodeColumnPage(page);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(DecodeCorruptionTest, TypeEncodingMismatch) {
  std::vector<uint8_t> page = IntPage(ColumnType::kInt64, 10);
  ASSERT_TRUE(DecodeColumnPage(page).ok());
  // An int page relabelled as double (or string) would otherwise decode
  // as an empty column with its ten ints hidden in the wrong vector.
  for (ColumnType relabel : {ColumnType::kDouble, ColumnType::kString}) {
    std::vector<uint8_t> bad = page;
    SetU32(bad, 0, static_cast<uint32_t>(relabel));
    Result<ColumnVector> r = DecodeColumnPage(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption());
  }
  ColumnVector strings;
  strings.type = ColumnType::kString;
  strings.strings = {"a", "b", "a"};
  ZoneMapEntry zone;
  std::vector<uint8_t> string_page = EncodeColumnPage(strings, 0, 3, &zone);
  SetU32(string_page, 0, static_cast<uint32_t>(ColumnType::kDate));
  EXPECT_TRUE(DecodeColumnPage(string_page).status().IsCorruption());
  SetU32(string_page, 0, 7);  // not a ColumnType at all
  EXPECT_TRUE(DecodeColumnPage(string_page).status().IsCorruption());
}

TEST(DecodeCorruptionTest, WidthOutsideRange) {
  std::vector<uint8_t> page = IntPage(ColumnType::kInt64, 10);
  for (uint8_t width : {0, 65, 200}) {
    std::vector<uint8_t> bad = page;
    bad[kWidthOffset] = width;
    EXPECT_TRUE(DecodeColumnPage(bad).status().IsCorruption())
        << "width " << int{width};
  }
}

TEST(DecodeCorruptionTest, NBitCountBeyondPayload) {
  std::vector<uint8_t> page = IntPage(ColumnType::kDate, 10);
  SetU32(page, kCountOffset, 0xFFFFFFF0u);
  EXPECT_TRUE(DecodeColumnPage(page).status().IsCorruption());
}

TEST(DecodeCorruptionTest, DeltaCountBeyondPayload) {
  ColumnVector col;
  col.type = ColumnType::kInt64;
  for (int64_t i = 0; i < 50; ++i) col.ints.push_back(i * 1000);
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 50, &zone);
  ASSERT_EQ(page[kEncodingOffset], 5);  // delta + n-bit
  SetU32(page, kCountOffset, 0xFFFFFFF0u);
  EXPECT_TRUE(DecodeColumnPage(page).status().IsCorruption());
}

TEST(DecodeCorruptionTest, RawStringCountBeyondPayload) {
  ColumnVector col;
  col.type = ColumnType::kString;
  col.strings = {"unique-1", "unique-2"};
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 2, &zone);
  ASSERT_EQ(page[kEncodingOffset], 4);  // raw strings
  SetU32(page, kCountOffset, 0xFFFFFFF0u);
  EXPECT_TRUE(DecodeColumnPage(page).status().IsCorruption());
}

TEST(DecodeCorruptionTest, DictionarySizeBeyondPayload) {
  ColumnVector col;
  col.type = ColumnType::kString;
  for (int i = 0; i < 100; ++i) col.strings.push_back(i % 2 ? "x" : "y");
  ZoneMapEntry zone;
  std::vector<uint8_t> page = EncodeColumnPage(col, 0, 100, &zone);
  ASSERT_EQ(page[kEncodingOffset], 3);  // dictionary
  std::vector<uint8_t> big_dict = page;
  SetU32(big_dict, kWidthOffset + 1, 0xFFFFFFF0u);
  EXPECT_TRUE(DecodeColumnPage(big_dict).status().IsCorruption());
  std::vector<uint8_t> big_count = page;
  SetU32(big_count, kCountOffset, 0xFFFFFFF0u);
  EXPECT_TRUE(DecodeColumnPage(big_count).status().IsCorruption());
}

TEST(DecodeCorruptionTest, TruncatedPages) {
  std::vector<uint8_t> page = IntPage(ColumnType::kInt64, 100);
  for (size_t len = 0; len < page.size(); ++len) {
    std::vector<uint8_t> cut(page.begin(), page.begin() + len);
    EXPECT_TRUE(DecodeColumnPage(cut).status().IsCorruption())
        << "length " << len;
  }
}

// Page `page` of (partition, column), fetched and decoded plain.
Result<ColumnVector> FetchDecoded(TableReader* reader, size_t partition,
                                  int column, size_t page) {
  CLOUDIQ_ASSIGN_OR_RETURN(BufferManager::PageData frame,
                           reader->FetchPage(partition, column, page));
  return DecodeColumnPage(*frame);
}

class TableStoreTest : public ::testing::Test {
 protected:
  TableStoreTest() {
    TransactionManager::Options opts;
    opts.blockmap_fanout = 16;
    opts.buffer_capacity_bytes = 4 << 20;
    txn_mgr_ = std::make_unique<TransactionManager>(h_.storage.get(),
                                                    &h_.system, opts);
    txn_mgr_->set_commit_listener(
        [this](NodeId node, const IntervalSet& keys) {
          h_.keygen.OnTransactionCommitted(node, keys);
        });
  }

  TableSchema TestSchema() {
    TableSchema schema;
    schema.name = "events";
    schema.table_id = 42;
    schema.columns = {{"id", ColumnType::kInt64},
                      {"score", ColumnType::kDouble},
                      {"tag", ColumnType::kString}};
    schema.partition_column = 0;
    schema.partition_bounds = {500};  // two partitions
    schema.hg_index_columns = {0};
    return schema;
  }

  Batch MakeRows(int64_t first, int64_t count) {
    Batch batch;
    ColumnVector ids{ColumnType::kInt64, {}, {}, {}};
    ColumnVector scores{ColumnType::kDouble, {}, {}, {}};
    ColumnVector tags{ColumnType::kString, {}, {}, {}};
    for (int64_t i = first; i < first + count; ++i) {
      ids.ints.push_back(i);
      scores.doubles.push_back(i * 0.5);
      tags.strings.push_back(i % 2 == 0 ? "even" : "odd");
    }
    batch.AddColumn("id", std::move(ids));
    batch.AddColumn("score", std::move(scores));
    batch.AddColumn("tag", std::move(tags));
    return batch;
  }

  SingleNodeHarness h_;
  std::unique_ptr<TransactionManager> txn_mgr_;
};

TEST_F(TableStoreTest, LoadThenReadBack) {
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, TestSchema());
  ASSERT_TRUE(loader.Append(MakeRows(0, 600).columns).ok());
  ASSERT_TRUE(loader.Append(MakeRows(600, 400).columns).ok());
  EXPECT_EQ(loader.rows_appended(), 1000u);
  EXPECT_GT(loader.TakeCpuSeconds(), 0.0);
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  // Rows routed by range partition: ids < 500 in partition 0.
  EXPECT_EQ(meta->partitions.size(), 2u);
  EXPECT_EQ(meta->partitions[0].row_count, 500u);
  EXPECT_EQ(meta->partitions[1].row_count, 500u);
  EXPECT_EQ(meta->TotalRows(), 1000u);

  Transaction* reader_txn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), reader_txn, &h_.system, 42);
  ASSERT_TRUE(reader.ok());
  // Columns page independently; reconstruct each column fully and align
  // by row position.
  int64_t seen = 0;
  for (size_t p = 0; p < 2; ++p) {
    auto read_whole = [&](int column) {
      std::vector<int64_t> ints;
      std::vector<std::string> strings;
      const SegmentMeta& seg = reader->meta().partitions[p].columns[column];
      for (size_t page = 0; page < seg.page_rows.size(); ++page) {
        Result<ColumnVector> vec =
            FetchDecoded(&reader.value(), p, column, page);
        EXPECT_TRUE(vec.ok());
        ints.insert(ints.end(), vec->ints.begin(), vec->ints.end());
        strings.insert(strings.end(), vec->strings.begin(),
                       vec->strings.end());
      }
      return std::make_pair(ints, strings);
    };
    auto [ids, unused] = read_whole(0);
    auto [unused2, tags] = read_whole(2);
    ASSERT_EQ(ids.size(), tags.size());
    for (size_t r = 0; r < ids.size(); ++r) {
      EXPECT_EQ(tags[r], ids[r] % 2 == 0 ? "even" : "odd");
      ++seen;
    }
  }
  EXPECT_EQ(seen, 1000);
  ASSERT_TRUE(txn_mgr_->Commit(reader_txn).ok());
}

TEST_F(TableStoreTest, ZoneMapPruning) {
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, TestSchema());
  ASSERT_TRUE(loader.Append(MakeRows(0, 1000).columns).ok());
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* rtxn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), rtxn, &h_.system, 42);
  ASSERT_TRUE(reader.ok());
  // Sequential ids: a narrow range must prune most pages, and surviving
  // pages must cover the full range (soundness).
  std::vector<uint64_t> pages = reader->PrunePagesInt(0, 0, 100, 120);
  size_t total_pages =
      reader->meta().partitions[0].columns[0].zones.size();
  ASSERT_GT(total_pages, 1u);
  EXPECT_LT(pages.size(), total_pages);
  int64_t found = 0;
  for (uint64_t page : pages) {
    Result<ColumnVector> ids = FetchDecoded(&reader.value(), 0, 0, page);
    ASSERT_TRUE(ids.ok());
    for (int64_t v : ids->ints) {
      if (v >= 100 && v <= 120) ++found;
    }
  }
  EXPECT_EQ(found, 21);
  ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
}

TEST_F(TableStoreTest, HgIndexLookupMatchesScan) {
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, TestSchema());
  ASSERT_TRUE(loader.Append(MakeRows(0, 1000).columns).ok());
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* rtxn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), rtxn, &h_.system, 42);
  ASSERT_TRUE(reader.ok());
  // id 137 lives in partition 0 at partition-local row 137.
  Result<IntervalSet> rows = reader->IndexLookup(0, 0, 137);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->Count(), 1u);
  EXPECT_TRUE(rows->Contains(137));
  // Range lookup.
  Result<IntervalSet> range = reader->IndexLookupRange(0, 0, 10, 19);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->Count(), 10u);
  // Missing value.
  Result<IntervalSet> missing = reader->IndexLookup(0, 0, 100000);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
  // Unindexed column is an error.
  EXPECT_FALSE(reader->IndexLookup(0, 1, 0).ok());
  ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
}

TEST_F(TableStoreTest, DateIndexMatchesColumnScan) {
  TableSchema schema;
  schema.name = "events";
  schema.table_id = 55;
  schema.columns = {{"id", ColumnType::kInt64},
                    {"day", ColumnType::kDate}};
  schema.date_index_columns = {1};

  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
  Batch batch;
  batch.AddColumn("id", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("day", {ColumnType::kDate, {}, {}, {}});
  Rng rng(42);
  std::vector<int64_t> days;
  for (int64_t i = 0; i < 2000; ++i) {
    batch.columns[0].ints.push_back(i);
    int64_t d = DaysFromCivil(1995, 1, 1) + rng.Uniform(3 * 365);
    batch.columns[1].ints.push_back(d);
    days.push_back(d);
  }
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(&h_.system).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* rtxn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), rtxn, &h_.system, 55);
  ASSERT_TRUE(reader.ok());

  // One calendar month.
  Result<IntervalSet> june = reader->DateIndexMonth(0, 1, 1996, 6);
  ASSERT_TRUE(june.ok()) << june.status().ToString();
  uint64_t expected_june = 0;
  for (size_t r = 0; r < days.size(); ++r) {
    int y, m, d;
    CivilFromDays(days[r], &y, &m, &d);
    if (y == 1996 && m == 6) {
      ++expected_june;
      EXPECT_TRUE(june->Contains(r)) << "row " << r;
    }
  }
  EXPECT_EQ(june->Count(), expected_june);
  EXPECT_GT(expected_june, 0u);

  // Whole-year range.
  Result<IntervalSet> y96_97 = reader->DateIndexYears(0, 1, 1996, 1997);
  ASSERT_TRUE(y96_97.ok());
  uint64_t expected_years = 0;
  for (int64_t d : days) {
    int y, m, dd;
    CivilFromDays(d, &y, &m, &dd);
    if (y >= 1996 && y <= 1997) ++expected_years;
  }
  EXPECT_EQ(y96_97->Count(), expected_years);

  // Empty month and unindexed column.
  Result<IntervalSet> empty = reader->DateIndexMonth(0, 1, 1970, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(reader->DateIndexMonth(0, 0, 1996, 6).ok());
  ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
}

TEST(TextIndexTest, TokenizerSplitsAndLowercases) {
  EXPECT_EQ(TextIndex::Tokenize("Special, requests... NOTED-here"),
            (std::vector<std::string>{"special", "requests", "noted",
                                      "here"}));
  EXPECT_TRUE(TextIndex::Tokenize("  ...  ").empty());
  EXPECT_EQ(TextIndex::Tokenize("abc123"),
            std::vector<std::string>{"abc123"});
}

TEST_F(TableStoreTest, TextIndexFindsWordCandidates) {
  TableSchema schema;
  schema.name = "notes";
  schema.table_id = 66;
  schema.columns = {{"id", ColumnType::kInt64},
                    {"note", ColumnType::kString}};
  schema.text_index_columns = {1};

  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
  Batch batch;
  batch.AddColumn("id", {ColumnType::kInt64, {}, {}, {}});
  batch.AddColumn("note", {ColumnType::kString, {}, {}, {}});
  const char* notes[5] = {
      "regular delivery as planned",
      "special requests were made",         // both words, in order
      "requests from a special customer",   // both words, wrong order
      "nothing special here",               // one word
      "ordinary requests only",              // the other word
  };
  for (int64_t i = 0; i < 500; ++i) {
    batch.columns[0].ints.push_back(i);
    batch.columns[1].strings.push_back(notes[i % 5]);
  }
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  ASSERT_TRUE(loader.Finish(&h_.system).ok());
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());

  Transaction* rtxn = txn_mgr_->Begin();
  Result<TableReader> reader =
      TableReader::Open(txn_mgr_.get(), rtxn, &h_.system, 66);
  ASSERT_TRUE(reader.ok());

  // Single word: rows 1, 2, 3 of each 5-cycle contain "special".
  Result<IntervalSet> special =
      reader->TextIndexAllWords(0, 1, {"special"});
  ASSERT_TRUE(special.ok()) << special.status().ToString();
  EXPECT_EQ(special->Count(), 300u);

  // Conjunction: rows with BOTH words = the 1- and 2-mod-5 rows.
  Result<IntervalSet> both =
      reader->TextIndexAllWords(0, 1, {"special", "requests"});
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->Count(), 200u);
  EXPECT_TRUE(both->Contains(1));
  EXPECT_TRUE(both->Contains(2));
  EXPECT_FALSE(both->Contains(0));

  // Missing word and unindexed column.
  Result<IntervalSet> none =
      reader->TextIndexAllWords(0, 1, {"special", "zebra"});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_FALSE(reader->TextIndexAllWords(0, 0, {"x"}).ok());
  ASSERT_TRUE(txn_mgr_->Commit(rtxn).ok());
}

TEST_F(TableStoreTest, PagesRespectPageSizeLimit) {
  // Long strings force frequent page cuts; every page must still fit.
  TableSchema schema;
  schema.name = "blobs";
  schema.table_id = 77;
  schema.columns = {{"id", ColumnType::kInt64},
                    {"body", ColumnType::kString}};
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, schema);
  Batch batch;
  ColumnVector ids{ColumnType::kInt64, {}, {}, {}};
  ColumnVector bodies{ColumnType::kString, {}, {}, {}};
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    ids.ints.push_back(i);
    std::string body(300 + rng.Uniform(200), 'x');
    for (auto& ch : body) ch = static_cast<char>('a' + rng.Uniform(26));
    bodies.strings.push_back(std::move(body));
  }
  batch.AddColumn("id", std::move(ids));
  batch.AddColumn("body", std::move(bodies));
  ASSERT_TRUE(loader.Append(batch.columns).ok());
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
  EXPECT_GT(meta->partitions[0].columns[1].page_rows.size(), 1u);
}

// A batch column of the wrong type, or a dictionary-coded one, is
// rejected before any of its values are read; the loader stays usable.
TEST_F(TableStoreTest, MistypedBatchIsInvalidArgument) {
  Transaction* txn = txn_mgr_->Begin();
  TableLoader loader(txn_mgr_.get(), txn, h_.cloud_space, TestSchema());
  Batch ints_as_tags = MakeRows(0, 1000);
  ints_as_tags.columns[2] = ColumnVector{ColumnType::kInt64, {}, {}, {}};
  ints_as_tags.columns[2].ints.assign(1000, 7);
  EXPECT_TRUE(loader.Append(ints_as_tags.columns).IsInvalidArgument());
  Batch coded = MakeRows(0, 1000);
  auto dict = std::make_shared<StringDict>();
  dict->strings = {"even", "odd"};
  dict->hash = {HashKey(dict->strings[0]), HashKey(dict->strings[1])};
  coded.columns[2].strings.clear();
  coded.columns[2].codes.assign(1000, 1);
  coded.columns[2].dict = std::move(dict);
  EXPECT_TRUE(loader.Append(coded.columns).IsInvalidArgument());
  EXPECT_EQ(loader.rows_appended(), 0u);

  ASSERT_TRUE(loader.Append(MakeRows(0, 1000).columns).ok());
  Result<TableMeta> meta = loader.Finish(&h_.system);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->TotalRows(), 1000u);
  ASSERT_TRUE(txn_mgr_->Commit(txn).ok());
}

TEST_F(TableStoreTest, SchemaSerializationRoundTrip) {
  TableMeta meta;
  meta.schema = TestSchema();
  PartitionMeta pm;
  pm.row_count = 7;
  SegmentMeta seg;
  seg.object_id = 123;
  seg.row_count = 7;
  ZoneMapEntry zone;
  zone.min_int = -5;
  zone.max_int = 12;
  zone.min_string = "aa";
  zone.max_string = "zz";
  zone.row_count = 7;
  seg.zones.push_back(zone);
  seg.page_rows.push_back(7);
  seg.page_bytes.push_back(80);
  pm.columns.push_back(seg);
  pm.index_objects.push_back(456);
  pm.index_page_ranges.push_back({{1, 9}, {10, 20}});
  meta.partitions.push_back(pm);

  Result<TableMeta> back = TableMeta::Deserialize(meta.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->schema.name, "events");
  EXPECT_EQ(back->schema.table_id, 42u);
  EXPECT_EQ(back->schema.partition_bounds, std::vector<int64_t>{500});
  EXPECT_EQ(back->schema.hg_index_columns, std::vector<int>{0});
  ASSERT_EQ(back->partitions.size(), 1u);
  EXPECT_EQ(back->partitions[0].columns[0].object_id, 123u);
  EXPECT_EQ(back->partitions[0].columns[0].zones[0].min_int, -5);
  EXPECT_EQ(back->partitions[0].columns[0].zones[0].max_string, "zz");
  EXPECT_EQ(back->partitions[0].index_page_ranges[0][1].second, 20);
}

// --- TableMeta::Deserialize on corrupt input: Corruption, never an abort

// One partition of one INT64 column whose segment has no pages: under 160
// bytes, with the segment's zone count at a known offset.
TableMeta TinyMeta() {
  TableMeta meta;
  meta.schema.name = "t";
  meta.schema.table_id = 9;
  meta.schema.columns = {{"k", ColumnType::kInt64}};
  meta.partitions.resize(1);
  meta.partitions[0].columns.resize(1);
  meta.partitions[0].columns[0].object_id = 900;
  return meta;
}

// Offset of the first segment's [object_id u64][row_count u64][zones u32]
// in TableMeta::Serialize output.
size_t FirstSegmentOffset(const TableMeta& meta) {
  size_t schema_bytes = meta.schema.Serialize().size();
  // [schema len u64][schema][parts u32][part len u64][row_count u64]
  // [columns u32][segment len u64]
  return 8 + schema_bytes + 4 + 8 + 8 + 4 + 8;
}

TEST(TableMetaDecodeTest, ZoneCountBeyondBytesIsCorruption) {
  TableMeta meta = TinyMeta();
  std::vector<uint8_t> bytes = meta.Serialize();
  ASSERT_TRUE(TableMeta::Deserialize(bytes).ok());
  EXPECT_LT(bytes.size(), 160u);
  SetU32(bytes, FirstSegmentOffset(meta) + 16, 0xFFFFFFFFu);
  EXPECT_TRUE(TableMeta::Deserialize(bytes).status().IsCorruption());
}

TEST(TableMetaDecodeTest, CountsBeyondBytesAreCorruption) {
  TableMeta meta = TinyMeta();
  std::vector<uint8_t> bytes = meta.Serialize();
  size_t seg = FirstSegmentOffset(meta);
  // The partition count, the segment count and the page-row count.
  size_t schema_end = 8 + meta.schema.Serialize().size();
  for (size_t at : {schema_end, seg - 12, seg + 20}) {
    std::vector<uint8_t> bad = bytes;
    SetU32(bad, at, 0x10000000u);
    EXPECT_TRUE(TableMeta::Deserialize(bad).status().IsCorruption())
        << "count at " << at;
  }
}

TEST(TableMetaDecodeTest, EveryTruncationIsCorruption) {
  TableMeta meta = TinyMeta();
  meta.schema.hg_index_columns = {0};
  meta.partitions[0].index_objects = {77};
  meta.partitions[0].index_page_ranges = {{{1, 2}}};
  meta.partitions[0].text_index_ranges = {{{"a", "b"}}};
  std::vector<uint8_t> bytes = meta.Serialize();
  ASSERT_TRUE(TableMeta::Deserialize(bytes).ok());
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + n);
    EXPECT_TRUE(TableMeta::Deserialize(cut).status().IsCorruption())
        << n << " of " << bytes.size() << " bytes";
  }
}

TEST(TableMetaDecodeTest, SchemaOutOfDomainIsCorruption) {
  auto rejects = [](TableMeta meta) {
    return TableMeta::Deserialize(meta.Serialize()).status().IsCorruption();
  };
  TableMeta bad_type = TinyMeta();
  bad_type.schema.columns[0].type = static_cast<ColumnType>(5);
  EXPECT_TRUE(rejects(bad_type));
  TableMeta bad_partition = TinyMeta();
  bad_partition.schema.partition_column = 1;
  EXPECT_TRUE(rejects(bad_partition));
  bad_partition.schema.partition_column = -2;
  EXPECT_TRUE(rejects(bad_partition));
  for (std::vector<int> TableSchema::*list :
       {&TableSchema::hg_index_columns, &TableSchema::date_index_columns,
        &TableSchema::text_index_columns}) {
    for (int column : {-1, 1, 1 << 30}) {
      TableMeta bad_index = TinyMeta();
      (bad_index.schema.*list) = {column};
      EXPECT_TRUE(rejects(bad_index)) << column;
    }
  }
  TableMeta ok = TinyMeta();
  ok.schema.partition_column = 0;
  ok.schema.hg_index_columns = {0};
  EXPECT_TRUE(TableMeta::Deserialize(ok.Serialize()).ok());
}

TEST(TableMetaDecodeTest, InconsistentSegmentIsCorruption) {
  auto with_segment = [](const SegmentMeta& seg) {
    TableMeta meta = TinyMeta();
    meta.partitions[0].columns[0] = seg;
    return TableMeta::Deserialize(meta.Serialize());
  };
  SegmentMeta seg;
  seg.row_count = 30;
  seg.zones.resize(2);
  seg.page_rows = {10, 20};
  seg.page_bytes = {100, 200};
  EXPECT_TRUE(with_segment(seg).ok());
  SegmentMeta unrecorded_frames = seg;
  unrecorded_frames.page_bytes.clear();
  EXPECT_TRUE(with_segment(unrecorded_frames).status().IsCorruption());

  SegmentMeta extra_zone = seg;
  extra_zone.zones.resize(3);
  EXPECT_TRUE(with_segment(extra_zone).status().IsCorruption());
  SegmentMeta missing_rows = seg;
  missing_rows.page_rows = {10};
  EXPECT_TRUE(with_segment(missing_rows).status().IsCorruption());
  SegmentMeta extra_frame = seg;
  extra_frame.page_bytes.push_back(300);
  EXPECT_TRUE(with_segment(extra_frame).status().IsCorruption());
  SegmentMeta wrong_sum = seg;
  wrong_sum.row_count = 31;
  EXPECT_TRUE(with_segment(wrong_sum).status().IsCorruption());
}

}  // namespace
}  // namespace cloudiq

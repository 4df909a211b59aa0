// Seeded mutation fuzz of the two decoders that read persisted page bytes:
// DecodeColumnPage (column-page encodings) and DecodePage (page-codec
// frames). Each starts from valid pages and is fed truncations, bit flips
// and overwritten header fields; every call must return a value or
// Corruption, never crash, abort or allocate from a corrupt count.
// scripts/check.sh fuzz runs this binary under ASan and UBSan.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/encoding.h"
#include "columnar/value.h"
#include "common/random.h"
#include "store/page_codec.h"

namespace cloudiq {
namespace {

constexpr uint64_t kSeed = 0xC0DEC;
constexpr int kIterations = 50000;

// Byte offsets of the mutable header fields of a column page:
// [type u32][count u32][encoding u8][width u8]...
constexpr size_t kTypeOffset = 0;
constexpr size_t kCountOffset = 4;
constexpr size_t kWidthOffset = 9;
// And of a page-codec frame: [magic u32][flags u32][raw_size u64]...
constexpr size_t kFlagsOffset = 4;
constexpr size_t kRawSizeOffset = 8;

std::vector<uint8_t> Encode(const ColumnVector& col) {
  ZoneMapEntry zone;
  return EncodeColumnPage(col, 0, col.size(), &zone);
}

// One valid page per encoding, plus the empty and one-value edge cases.
std::vector<std::vector<uint8_t>> SeedPages() {
  Rng rng(kSeed);
  std::vector<std::vector<uint8_t>> pages;
  ColumnVector for_col;
  for_col.type = ColumnType::kInt64;
  for (int i = 0; i < 300; ++i) {
    for_col.ints.push_back(static_cast<int64_t>(rng.Uniform(1 << 20)));
  }
  pages.push_back(Encode(for_col));
  ColumnVector delta_col;
  delta_col.type = ColumnType::kDate;
  for (int64_t i = 0, day = 9000; i < 300; ++i) {
    day += static_cast<int64_t>(rng.Uniform(3));
    delta_col.ints.push_back(day);
  }
  pages.push_back(Encode(delta_col));
  ColumnVector wide_col;
  wide_col.type = ColumnType::kDecimal;
  for (int i = 0; i < 40; ++i) {
    wide_col.ints.push_back(static_cast<int64_t>(rng.Next()));
  }
  pages.push_back(Encode(wide_col));
  ColumnVector double_col;
  double_col.type = ColumnType::kDouble;
  for (int i = 0; i < 60; ++i) double_col.doubles.push_back(rng.NextDouble());
  pages.push_back(Encode(double_col));
  ColumnVector dict_col;
  dict_col.type = ColumnType::kString;
  const char* flags[3] = {"A", "N", "R"};
  for (int i = 0; i < 300; ++i) dict_col.strings.push_back(flags[i % 3]);
  pages.push_back(Encode(dict_col));
  ColumnVector raw_col;
  raw_col.type = ColumnType::kString;
  for (int i = 0; i < 40; ++i) {
    raw_col.strings.push_back("note " + std::to_string(rng.Next()));
  }
  pages.push_back(Encode(raw_col));
  ColumnVector one;
  one.type = ColumnType::kInt64;
  one.ints = {-7};
  pages.push_back(Encode(one));
  ColumnVector none;
  none.type = ColumnType::kString;
  pages.push_back(Encode(none));
  return pages;
}

void PutU32At(std::vector<uint8_t>& bytes, size_t offset, uint32_t v) {
  if (offset + sizeof(v) <= bytes.size()) {
    std::memcpy(bytes.data() + offset, &v, sizeof(v));
  }
}

uint32_t FuzzU32(Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0:
      return 0;
    case 1:
      return 0xFFFFFFFFu - static_cast<uint32_t>(rng.Uniform(32));
    case 2:
      return static_cast<uint32_t>(rng.Uniform(1024));
    default:
      return static_cast<uint32_t>(rng.Next());
  }
}

// Applies one random mutation: truncate, flip bits, or overwrite one of
// the header fields at `u32_fields` / `u8_fields`.
void Mutate(Rng& rng, std::vector<uint8_t>& bytes,
            const std::vector<size_t>& u32_fields,
            const std::vector<size_t>& u8_fields) {
  switch (rng.Uniform(4)) {
    case 0:
      bytes.resize(rng.Uniform(bytes.size() + 1));
      break;
    case 1:
      for (uint64_t n = 1 + rng.Uniform(4); n > 0 && !bytes.empty(); --n) {
        bytes[rng.Uniform(bytes.size())] ^=
            static_cast<uint8_t>(1u << rng.Uniform(8));
      }
      break;
    case 2:
      PutU32At(bytes, u32_fields[rng.Uniform(u32_fields.size())],
               FuzzU32(rng));
      break;
    default: {
      size_t at = u8_fields[rng.Uniform(u8_fields.size())];
      if (at < bytes.size()) bytes[at] = static_cast<uint8_t>(rng.Next());
      break;
    }
  }
}

TEST(CodecFuzzTest, ColumnPagesDecodeOrReportCorruption) {
  std::vector<std::vector<uint8_t>> pages = SeedPages();
  for (const std::vector<uint8_t>& page : pages) {
    ASSERT_TRUE(DecodeColumnPage(page).ok());
  }
  Rng rng(kSeed);
  int corrupt = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::vector<uint8_t> bytes = pages[rng.Uniform(pages.size())];
    Mutate(rng, bytes, {kTypeOffset, kCountOffset}, {kWidthOffset});
    if (rng.Bernoulli(0.25)) {
      Mutate(rng, bytes, {kTypeOffset, kCountOffset}, {kWidthOffset});
    }
    Result<ColumnVector> r = DecodeColumnPage(bytes);
    if (!r.ok()) {
      ASSERT_TRUE(r.status().IsCorruption()) << "iteration " << it;
      ++corrupt;
    }
  }
  // The mutations must actually reach the error paths.
  EXPECT_GT(corrupt, kIterations / 4);
}

TEST(CodecFuzzTest, PageFramesDecodeOrReportCorruption) {
  std::vector<std::vector<uint8_t>> frames;
  for (const std::vector<uint8_t>& page : SeedPages()) {
    frames.push_back(EncodePage(page));
  }
  // A mostly-zero payload so the RLE body path is among the seeds.
  std::vector<uint8_t> sparse(4096, 0);
  sparse[100] = 7;
  sparse[3000] = 9;
  frames.push_back(EncodePage(sparse));
  Rng rng(kSeed + 1);
  int corrupt = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::vector<uint8_t> bytes = frames[rng.Uniform(frames.size())];
    Mutate(rng, bytes, {kFlagsOffset, kRawSizeOffset, kRawSizeOffset + 4},
           {kFlagsOffset});
    Result<std::vector<uint8_t>> payload = DecodePage(bytes);
    if (!payload.ok()) {
      ASSERT_TRUE(payload.status().IsCorruption()) << "iteration " << it;
      ++corrupt;
      continue;
    }
    // A frame that still verifies carries a payload the column decoder
    // must also survive.
    Result<ColumnVector> column = DecodeColumnPage(*payload);
    if (!column.ok()) {
      ASSERT_TRUE(column.status().IsCorruption()) << "iteration " << it;
    }
  }
  EXPECT_GT(corrupt, kIterations / 4);
}

}  // namespace
}  // namespace cloudiq

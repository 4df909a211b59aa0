// Seeded mutation fuzz of the decoders that read persisted or wire bytes:
// DecodeColumnPage, the code-preserving DecodeColumnPageCoded and the
// in-place DecodeColumnPageInto (column-page encodings; all three must
// agree on every input), DecodePage (page-codec
// frames), TableMeta::Deserialize (table metadata), IntervalSet::Deserialize, Bitmap::Deserialize (the freelist
// frame), PageSet::Deserialize (RF/RB sets), TxnLogRecord::Deserialize, the
// key generator's checkpoint (through ObjectKeyGenerator::Recover),
// Blockmap::ParseNode, IdentityCatalog::Deserialize, the system store's
// directory (through SystemStore::Open), the NDP request and result
// frames, the NDP server (NdpEngine::Evaluate over mutated stored pages),
// the page-scan pipeline (ScanPages, in each of its callers' shapes),
// and the HG, DATE and TEXT posting pages (through the shared page
// walker and through each index's lookup). Each starts from valid bytes and is fed
// truncations, bit flips and overwritten counts; every call must return a
// value or Corruption (InvalidArgument for an NDP request, or a page
// that disagrees with its ref: the store's "cannot evaluate" answer),
// never crash, abort or allocate from a
// corrupt count. The page-codec encoder is fuzzed too: on seeded and
// mutated payloads, EncodedPageSize must equal the frame's size and the
// frame must decode back to the payload. scripts/check.sh fuzz runs this
// binary under ASan and UBSan.

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blockmap/blockmap.h"
#include "blockmap/identity.h"
#include "columnar/date_index.h"
#include "columnar/encoding.h"
#include "columnar/hg_index.h"
#include "columnar/posting_page.h"
#include "columnar/range_scan.h"
#include "columnar/schema.h"
#include "columnar/text_index.h"
#include "columnar/value.h"
#include "common/bitmap.h"
#include "common/coding.h"
#include "common/interval_set.h"
#include "common/key_hash.h"
#include "common/random.h"
#include "keygen/object_key_generator.h"
#include "ndp/ndp_engine.h"
#include "ndp/ndp_protocol.h"
#include "sim/block_volume.h"
#include "store/page_codec.h"
#include "store/system_store.h"
#include "tests/test_util.h"
#include "txn/page_set.h"
#include "txn/transaction_manager.h"
#include "txn/txn_log.h"

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

// A dictionary string page written field by field, so its entries need
// not be the encoder's ascending, distinct set.
std::vector<uint8_t> DictPage(const std::vector<std::string>& dict,
                              const std::vector<uint64_t>& codes) {
  constexpr uint8_t kDictionaryEncoding = 3;
  int width = BitWidthFor(dict.empty() ? 0 : dict.size() - 1);
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(ColumnType::kString));
  PutU32(out, static_cast<uint32_t>(codes.size()));
  out.push_back(kDictionaryEncoding);
  out.push_back(static_cast<uint8_t>(width));
  PutU32(out, static_cast<uint32_t>(dict.size()));
  for (const std::string& entry : dict) PutString(out, entry);
  std::vector<uint8_t> packed = NBitPack(codes, width);
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

// Both decoders reject `bytes` as Corruption, or the coded result
// satisfies the coded-column invariants and expands to the plain one.
// Returns whether the page decoded.
bool ExpectDecodersAgree(const std::vector<uint8_t>& bytes) {
  Result<ColumnVector> coded = DecodeColumnPageCoded(bytes);
  Result<ColumnVector> plain = DecodeColumnPage(bytes);
  EXPECT_EQ(coded.ok(), plain.ok());
  if (!coded.ok() || !plain.ok()) {
    EXPECT_TRUE(coded.ok() || coded.status().IsCorruption());
    EXPECT_TRUE(plain.ok() || plain.status().IsCorruption());
    return false;
  }
  EXPECT_EQ(plain->dict, nullptr);
  if (coded->dict != nullptr) {
    const StringDict& dict = *coded->dict;
    EXPECT_EQ(dict.hash.size(), dict.strings.size());
    for (size_t i = 0; i < dict.strings.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(dict.strings[i - 1], dict.strings[i]);
      }
      EXPECT_EQ(dict.hash[i], HashKey(dict.strings[i]));
    }
    for (uint32_t code : coded->codes) EXPECT_LT(code, dict.strings.size());
  }
  ColumnVector expanded = std::move(coded).value();
  expanded.ExpandStrings();
  EXPECT_EQ(expanded.type, plain->type);
  EXPECT_EQ(expanded.ints, plain->ints);
  EXPECT_EQ(expanded.doubles, plain->doubles);
  EXPECT_EQ(expanded.strings, plain->strings);
  EXPECT_TRUE(expanded.codes.empty());
  EXPECT_EQ(expanded.dict, nullptr);
  return true;
}

TEST(CodecFuzzTest, CodedDecoderAgreesWithPlainDecoder) {
  // The hand-written layout is the encoder's.
  ColumnVector flags;
  flags.type = ColumnType::kString;
  flags.strings = {"N", "A", "R", "A"};
  ASSERT_EQ(DictPage({"A", "N", "R"}, {1, 0, 2, 0}), Encode(flags));
  // Out-of-order or repeated entries would let equal codes stand for
  // different strings, or equal strings carry different codes.
  for (const std::vector<std::string>& dict :
       std::vector<std::vector<std::string>>{
           {"N", "A", "R"}, {"A", "A", "R"}, {"A", "R", "R"}, {"", ""}}) {
    std::vector<uint8_t> page = DictPage(dict, {0, 1, 1, 0});
    EXPECT_TRUE(DecodeColumnPageCoded(page).status().IsCorruption());
    EXPECT_TRUE(DecodeColumnPage(page).status().IsCorruption());
  }

  std::vector<std::vector<uint8_t>> pages = SeedPages();
  Rng rng(kSeed + 2);
  int corrupt = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::vector<uint8_t> bytes;
    if (rng.Bernoulli(0.25)) {
      // A fresh ascending dictionary, then maybe one entry swapped with
      // another or overwritten by its neighbour.
      size_t entries = 1 + rng.Uniform(12);
      std::vector<std::string> dict;
      for (size_t i = 0; i < entries; ++i) {
        dict.push_back("entry " + std::to_string(10 + i));
      }
      std::vector<uint64_t> codes(rng.Uniform(40));
      for (uint64_t& code : codes) code = rng.Uniform(entries);
      if (entries > 1) {
        size_t i = rng.Uniform(entries - 1);
        switch (rng.Uniform(3)) {
          case 0:
            std::swap(dict[i], dict[i + 1 + rng.Uniform(entries - i - 1)]);
            break;
          case 1:
            dict[i + 1] = dict[i];
            break;
          default:
            break;
        }
      }
      bytes = DictPage(dict, codes);
    } else {
      bytes = pages[rng.Uniform(pages.size())];
    }
    Mutate(rng, bytes, {kTypeOffset, kCountOffset}, {kWidthOffset});
    if (rng.Bernoulli(0.25)) {
      Mutate(rng, bytes, {kTypeOffset, kCountOffset}, {kWidthOffset});
    }
    if (!ExpectDecodersAgree(bytes)) ++corrupt;
    if (::testing::Test::HasFailure()) FAIL() << "iteration " << it;
  }
  EXPECT_GT(corrupt, kIterations / 4);
}

// Ascending, disjoint runs over [0, rows), written back to back from
// output row 0: none, the whole page, single rows, or random runs.
std::vector<PageRun> FuzzRuns(Rng& rng, uint32_t rows) {
  std::vector<PageRun> runs;
  size_t at = 0;
  const uint64_t shape = rng.Uniform(4);
  for (uint32_t r = 0; r < rows && shape > 0;) {
    uint32_t end = shape == 1   ? rows
                   : shape == 2 ? r + 1
                                : std::min<uint32_t>(
                                      rows, r + 1 + static_cast<uint32_t>(
                                                        rng.Uniform(30)));
    if (shape == 1 || rng.Bernoulli(0.5)) {
      runs.push_back({r, end, at});
      at += end - r;
    }
    r = end;
  }
  return runs;
}

// DecodeColumnPageInto, given the row count and type the segment recorded
// for the unmutated page, returns Corruption exactly when
// DecodeColumnPageCoded fails or disagrees with them, and otherwise the
// runs' rows of its result, into a plain and into a coded column.
TEST(CodecFuzzTest, PageDecodeIntoAgreesWithCodedDecoder) {
  std::vector<std::vector<uint8_t>> pages = SeedPages();
  Rng rng(kSeed + 3);
  int corrupt = 0;
  for (int it = 0; it < kIterations; ++it) {
    const std::vector<uint8_t>& seed = pages[rng.Uniform(pages.size())];
    Result<ColumnVector> original = DecodeColumnPageCoded(seed);
    ASSERT_TRUE(original.ok());
    const ColumnType type = original->type;
    const auto rows = static_cast<uint32_t>(original->size());
    std::vector<uint8_t> bytes = seed;
    Mutate(rng, bytes, {kTypeOffset, kCountOffset}, {kWidthOffset});
    if (rng.Bernoulli(0.25)) {
      Mutate(rng, bytes, {kTypeOffset, kCountOffset}, {kWidthOffset});
    }
    std::vector<PageRun> runs = FuzzRuns(rng, rows);
    size_t total = 0;
    for (const PageRun& r : runs) total += r.end - r.begin;

    Result<ColumnVector> whole = DecodeColumnPageCoded(bytes);
    ColumnVector plain;
    plain.type = type;
    plain.Resize(total);
    Status st = DecodeColumnPageInto(bytes, rows, runs, nullptr, &plain);
    if (!whole.ok() || whole->type != type || whole->size() != rows) {
      ASSERT_TRUE(st.IsCorruption())
          << "iteration " << it << ": " << st.ToString();
      ++corrupt;
      continue;
    }
    ASSERT_TRUE(st.ok()) << "iteration " << it << ": " << st.ToString();
    ColumnVector want = whole->EmptyLike();
    for (const PageRun& r : runs) want.AppendRange(*whole, r.begin, r.end);
    if (whole->dict != nullptr) {
      ColumnVector coded = whole->EmptyLike();
      coded.Resize(total);
      ASSERT_TRUE(
          DecodeColumnPageInto(bytes, rows, runs, nullptr, &coded).ok());
      ASSERT_EQ(coded.codes, want.codes) << "iteration " << it;
    }
    want.ExpandStrings();
    ASSERT_EQ(plain.ints, want.ints) << "iteration " << it;
    // Bitwise: a mutated double may be a NaN.
    ASSERT_EQ(plain.doubles.size(), want.doubles.size());
    if (!want.doubles.empty()) {
      ASSERT_EQ(std::memcmp(plain.doubles.data(), want.doubles.data(),
                            8 * want.doubles.size()),
                0)
          << "iteration " << it;
    }
    ASSERT_EQ(plain.strings, want.strings) << "iteration " << it;
  }
  EXPECT_GT(corrupt, kIterations / 4);
}

TEST(CodecFuzzTest, PageFramesDecodeOrReportCorruption) {
  std::vector<std::vector<uint8_t>> frames;
  for (const std::vector<uint8_t>& page : SeedPages()) {
    frames.push_back(EncodePage(page));
  }
  // A mostly-zero payload, framed raw like every other.
  std::vector<uint8_t> sparse(4096, 0);
  sparse[100] = 7;
  sparse[3000] = 9;
  frames.push_back(EncodePage(sparse));
  // Every seed with each flags bit set is Corruption before its body is
  // looked at. These stay out of the mutation pool, where they would
  // outnumber the column-page seeds four to one.
  for (const std::vector<uint8_t>& frame : frames) {
    for (int bit = 0; bit < 32; ++bit) {
      std::vector<uint8_t> flagged = frame;
      PutU32At(flagged, kFlagsOffset, 1u << bit);
      ASSERT_TRUE(DecodePage(flagged).status().IsCorruption())
          << "bit " << bit;
    }
  }
  Rng rng(kSeed + 1);
  int corrupt = 0;
  for (int it = 0; it < kIterations; ++it) {
    const std::vector<uint8_t>& seed = frames[rng.Uniform(frames.size())];
    std::vector<uint8_t> bytes = seed;
    Mutate(rng, bytes, {kFlagsOffset, kRawSizeOffset, kRawSizeOffset + 4},
           {kFlagsOffset});
    Result<std::vector<uint8_t>> payload = DecodePage(bytes);
    if (!payload.ok()) {
      ASSERT_TRUE(payload.status().IsCorruption()) << "iteration " << it;
      ++corrupt;
      continue;
    }
    // Only a mutation that left the frame as it was may still verify (a
    // cut to the full length, a flip undone by a second one, a field
    // rewritten with its own value).
    ASSERT_EQ(bytes, seed) << "iteration " << it;
    // A frame that still verifies carries a payload the column decoder
    // must also survive.
    Result<ColumnVector> column = DecodeColumnPage(*payload);
    if (!column.ok()) {
      ASSERT_TRUE(column.status().IsCorruption()) << "iteration " << it;
    }
  }
  EXPECT_GT(corrupt, kIterations / 4);
}

// Payloads of every shape the loader frames: runs of 1..9 bytes of a
// small alphabet, noise, zero pages with a few marks, and column pages.
TEST(CodecFuzzTest, EncodedPageSizeMatchesAndFramesRoundTrip) {
  std::vector<std::vector<uint8_t>> payloads = SeedPages();
  Rng rng(kSeed + 3);
  for (int i = 0; i < 8; ++i) {
    std::vector<uint8_t> runs;
    while (runs.size() < 64u << i) {
      runs.insert(runs.end(), 1 + rng.Uniform(9),
                  static_cast<uint8_t>(rng.Uniform(1 + i)));
    }
    payloads.push_back(runs);
    std::vector<uint8_t> noise(rng.Uniform(512u << i));
    for (uint8_t& b : noise) b = static_cast<uint8_t>(rng.Next());
    payloads.push_back(noise);
    std::vector<uint8_t> sparse(rng.Uniform(512u << i), 0);
    for (size_t k = 0; k < sparse.size(); k += 1 + rng.Uniform(40)) {
      sparse[k] = static_cast<uint8_t>(rng.Next());
    }
    payloads.push_back(sparse);
  }
  for (int it = 0; it < kIterations / 5; ++it) {
    std::vector<uint8_t> payload = payloads[rng.Uniform(payloads.size())];
    Mutate(rng, payload, {kTypeOffset, kCountOffset}, {kWidthOffset});
    if (rng.Bernoulli(0.5)) {
      // Drop a prefix, so runs and literals end at every alignment.
      payload.erase(payload.begin(),
                    payload.begin() + rng.Uniform(payload.size() + 1));
    }
    std::vector<uint8_t> frame = EncodePage(payload);
    ASSERT_EQ(EncodedPageSize(payload), frame.size()) << "iteration " << it;
    Result<std::vector<uint8_t>> back = DecodePage(frame);
    ASSERT_TRUE(back.ok()) << "iteration " << it;
    ASSERT_EQ(*back, payload) << "iteration " << it;
  }
}

// --- persisted bookkeeping: interval sets, page sets, log records,
// --- the key generator's checkpoint -------------------------------------

// Valid bytes plus the offsets of their count / length fields; a count
// overwrite writes a fuzzed u32 into either half of one of them.
struct Seed {
  std::vector<uint8_t> bytes;
  std::vector<size_t> u64_fields;
};

std::vector<size_t> Halves(const std::vector<size_t>& u64_fields) {
  std::vector<size_t> out;
  for (size_t at : u64_fields) {
    out.push_back(at);
    out.push_back(at + 4);
  }
  return out;
}

// Runs `decode` (returning true on success, false on Corruption; anything
// else must fail the test) over mutations of `seeds`, and checks the
// mutations reached the error paths.
template <typename Decode>
void FuzzSeeds(uint64_t seed, int iterations, const std::vector<Seed>& seeds,
               Decode decode) {
  Rng rng(seed);
  int corrupt = 0;
  for (int it = 0; it < iterations; ++it) {
    const Seed& base = seeds[rng.Uniform(seeds.size())];
    std::vector<uint8_t> bytes = base.bytes;
    std::vector<size_t> fields = Halves(base.u64_fields);
    Mutate(rng, bytes, fields, {0});
    if (rng.Bernoulli(0.25)) Mutate(rng, bytes, fields, {0});
    if (!decode(bytes, it)) ++corrupt;
  }
  EXPECT_GT(corrupt, iterations / 4);
}

IntervalSet RangesAt(uint64_t base, std::vector<std::pair<uint64_t, uint64_t>>
                                        ranges) {
  IntervalSet set;
  for (const auto& [b, e] : ranges) set.InsertRange(base + b, base + e);
  return set;
}

std::vector<IntervalSet> SeedSets() {
  const uint64_t key = uint64_t{1} << 63;
  return {IntervalSet(), RangesAt(0, {{0, 1}}),
          RangesAt(key, {{0, 100}, {200, 201}, {300, 4000}}),
          RangesAt(5, {{0, 2}, {4, 6}, {8, 10}, {12, 14}, {16, 18}})};
}

TEST(CodecFuzzTest, IntervalSetFramesDecodeOrReportCorruption) {
  std::vector<Seed> seeds;
  for (const IntervalSet& set : SeedSets()) {
    seeds.push_back({set.Serialize(), {0, 8, 16}});
  }
  FuzzSeeds(kSeed + 2, kIterations, seeds,
            [](const std::vector<uint8_t>& bytes, int it) {
              Result<IntervalSet> set =
                  IntervalSet::Deserialize(bytes.data(), bytes.size());
              if (!set.ok()) {
                EXPECT_TRUE(set.status().IsCorruption()) << it;
                return false;
              }
              // Whatever decodes is canonical: it re-encodes to itself.
              EXPECT_EQ(set->Serialize(), bytes) << it;
              return true;
            });
}

TEST(CodecFuzzTest, BitmapFramesDecodeOrReportCorruption) {
  std::vector<Seed> seeds;
  seeds.push_back({Bitmap().Serialize(), {0}});
  Bitmap one(1);
  one.Set(0);
  seeds.push_back({one.Serialize(), {0, 8}});
  Bitmap sparse;
  for (uint64_t bit = 3; bit < 700; bit += 1 + bit % 11) sparse.Set(bit);
  seeds.push_back({sparse.Serialize(), {0, 8, 16}});
  FuzzSeeds(kSeed + 10, kIterations, seeds,
            [](const std::vector<uint8_t>& bytes, int it) {
              Result<Bitmap> bm = Bitmap::Deserialize(bytes);
              if (!bm.ok()) {
                EXPECT_TRUE(bm.status().IsCorruption()) << it;
                return false;
              }
              // Whatever decodes is canonical: it re-encodes to itself,
              // and every set bit is inside the bitmap.
              EXPECT_EQ(bm->Serialize(), bytes) << it;
              std::vector<uint64_t> bits = bm->SetBits();
              EXPECT_TRUE(bits.empty() || bits.back() < bm->size_bits())
                  << it;
              return true;
            });
}

TEST(CodecFuzzTest, PageSetsDecodeOrReportCorruption) {
  std::vector<Seed> seeds;
  PageSet empty;
  seeds.push_back({empty.Serialize(), {0, 8, 16}});
  PageSet mixed;
  for (uint64_t k = 0; k < 40; k += 1 + k % 3) {
    mixed.Add(1, PhysicalLoc::ForCloudKey(kCloudKeyBase + k));
  }
  mixed.Add(2, PhysicalLoc::ForBlocks(100, 4));
  mixed.Add(3, PhysicalLoc::ForBlocks(7, 1));
  std::vector<uint8_t> bytes = mixed.Serialize();
  uint64_t cloud_len = 0;
  std::memcpy(&cloud_len, bytes.data(), sizeof(cloud_len));
  seeds.push_back({bytes, {0, 8, 8 + cloud_len}});
  FuzzSeeds(kSeed + 3, kIterations, seeds,
            [](const std::vector<uint8_t>& b, int it) {
              Result<PageSet> set = PageSet::Deserialize(b.data(), b.size());
              if (!set.ok()) {
                EXPECT_TRUE(set.status().IsCorruption()) << it;
                return false;
              }
              EXPECT_LE(set->block_locs().size(), b.size() / 12) << it;
              return true;
            });
}

TEST(CodecFuzzTest, TxnLogRecordsDecodeOrReportCorruption) {
  std::vector<Seed> seeds;
  TxnLogRecord commit;
  commit.type = TxnLogRecord::Type::kCommit;
  commit.txn_id = 12;
  commit.commit_seq = 3;
  commit.rf_name = "txn/rf/12";
  commit.rb_name = "txn/rb/12";
  commit.identity_updates = {{1, 2, 3, 4}, {}, {9}};
  commit.dropped_objects = {5, 6, 7};
  TxnLogRecord keygen_commit;
  keygen_commit.type = TxnLogRecord::Type::kKeygenCommit;
  keygen_commit.node = 2;
  keygen_commit.committed_keys =
      RangesAt(kCloudKeyBase, {{0, 10}, {20, 30}});
  TxnLogRecord allocate;
  allocate.type = TxnLogRecord::Type::kKeygenAllocate;
  allocate.range_begin = kCloudKeyBase;
  allocate.range_end = kCloudKeyBase + 128;
  for (const TxnLogRecord& rec : {commit, keygen_commit, allocate}) {
    // Field offsets: keys length at 24 and the keys' count at 32; the
    // update count follows the two ids and two names.
    size_t keys_len = rec.committed_keys.Serialize().size();
    size_t updates_at = 32 + keys_len + 16 + 4 + rec.rf_name.size() + 4 +
                        rec.rb_name.size();
    size_t dropped_at = updates_at + 8;
    std::vector<size_t> fields = {24, 32, updates_at, updates_at + 8};
    for (const std::vector<uint8_t>& u : rec.identity_updates) {
      dropped_at += 8 + u.size();
    }
    fields.push_back(dropped_at);
    seeds.push_back({rec.Serialize(), fields});
  }
  FuzzSeeds(kSeed + 4, kIterations, seeds,
            [](const std::vector<uint8_t>& b, int it) {
              ByteReader reader(b);
              Result<TxnLogRecord> rec = TxnLogRecord::Deserialize(reader);
              if (!rec.ok()) {
                EXPECT_TRUE(rec.status().IsCorruption()) << it;
                return false;
              }
              EXPECT_LE(rec->identity_updates.size() +
                            rec->dropped_objects.size(),
                        b.size() / 8)
                  << it;
              return true;
            });
}

TEST(CodecFuzzTest, KeygenCheckpointsRecoverOrReportCorruption) {
  ObjectKeyGenerator gen;
  gen.AllocateRange(1, 64);
  KeyRange r = gen.AllocateRange(2, 256);
  gen.AllocateRange(3, 16);
  IntervalSet used;
  used.InsertRange(r.begin + 10, r.begin + 20);
  used.InsertRange(r.begin + 40, r.begin + 41);
  gen.OnTransactionCommitted(2, used);
  // [next key][set count]{[node u32][set length][set bytes]}*: the first
  // set's length sits at 20 and its interval count at 28.
  std::vector<Seed> seeds = {{gen.Checkpoint(), {0, 8, 20, 28}}};
  FuzzSeeds(kSeed + 5, kIterations / 5, seeds,
            [](const std::vector<uint8_t>& b, int it) {
              Result<ObjectKeyGenerator> recovered =
                  ObjectKeyGenerator::Recover(b, {});
              if (!recovered.ok()) {
                EXPECT_TRUE(recovered.status().IsCorruption()) << it;
                return false;
              }
              return true;
            });
}

// --- catalog pages: blockmap nodes, the identity catalog, the system
// --- store's directory ---------------------------------------------------

TEST(CodecFuzzTest, BlockmapNodesDecodeOrReportCorruption) {
  std::vector<Seed> seeds;
  for (auto [leaf, count] : {std::pair<uint32_t, uint32_t>{1, 0}, {1, 5},
                             {0, 3}}) {
    std::vector<uint8_t> bytes;
    PutU32(bytes, leaf);
    PutU32(bytes, count);
    for (uint32_t i = 0; i < count; ++i) PutU64(bytes, kCloudKeyBase + i);
    seeds.push_back({bytes, {0}});  // halves: the leaf flag and the count
  }
  const PhysicalLoc loc = PhysicalLoc::ForCloudKey(kCloudKeyBase);
  FuzzSeeds(kSeed + 11, kIterations, seeds,
            [&loc](const std::vector<uint8_t>& b, int it) {
              Result<std::unique_ptr<Blockmap::Node>> node =
                  Blockmap::ParseNode(b, loc);
              if (!node.ok()) {
                EXPECT_TRUE(node.status().IsCorruption()) << it;
                return false;
              }
              EXPECT_LE((*node)->entries.size(), b.size() / 8) << it;
              return true;
            });
}

TEST(CodecFuzzTest, IdentityCatalogsDecodeOrReportCorruption) {
  std::vector<Seed> seeds;
  for (uint64_t n : {0, 1, 3}) {
    IdentityCatalog catalog;
    std::vector<size_t> fields = {0};
    for (uint64_t i = 0; i < n; ++i) {
      IdentityObject id;
      id.object_id = 100 + i;
      id.dbspace_id = 2;
      id.root = PhysicalLoc::ForCloudKey(kCloudKeyBase + i);
      id.page_count = 10 * i;
      id.version = i;
      catalog.Put(id);
      fields.push_back(8 + i * (8 + IdentityObject::kSerializedSize));
    }
    seeds.push_back({catalog.Serialize(), fields});
  }
  FuzzSeeds(kSeed + 12, kIterations, seeds,
            [](const std::vector<uint8_t>& b, int it) {
              Result<IdentityCatalog> catalog = IdentityCatalog::Deserialize(b);
              if (!catalog.ok()) {
                EXPECT_TRUE(catalog.status().IsCorruption()) << it;
                return false;
              }
              EXPECT_LE(catalog->identities().size(), b.size() / 44) << it;
              return true;
            });
}

// A table whose metadata exercises every list: two partitions, string
// and int columns, segments of several pages, and HG, DATE and TEXT
// index ranges.
TableMeta SeedTableMeta() {
  TableMeta meta;
  meta.schema.name = "fuzz";
  meta.schema.table_id = 5;
  meta.schema.columns = {{"k", ColumnType::kInt64},
                         {"d", ColumnType::kDate},
                         {"s", ColumnType::kString}};
  meta.schema.partition_column = 0;
  meta.schema.partition_bounds = {100};
  meta.schema.hg_index_columns = {0};
  meta.schema.date_index_columns = {1};
  meta.schema.text_index_columns = {2};
  for (int p = 0; p < 2; ++p) {
    PartitionMeta part;
    part.row_count = 30;
    for (int c = 0; c < 3; ++c) {
      SegmentMeta seg;
      seg.object_id = 100 * p + c;
      seg.row_count = 30;
      for (uint32_t rows : {10u, 20u}) {
        ZoneMapEntry zone;
        zone.min_int = c;
        zone.max_int = c + rows;
        zone.min_string = "aa";
        zone.max_string = "zz";
        zone.row_count = rows;
        seg.zones.push_back(zone);
        seg.page_rows.push_back(rows);
        seg.page_bytes.push_back(rows * 8);
      }
      part.columns.push_back(seg);
    }
    part.index_objects = {7};
    part.index_page_ranges = {{{1, 5}, {6, 9}}};
    part.date_index_objects = {8};
    part.date_index_ranges = {{{9000, 9100}}};
    part.text_index_objects = {9};
    part.text_index_ranges = {{{"alpha", "beta"}, {"gamma", "omega"}}};
    meta.partitions.push_back(part);
  }
  return meta;
}

TEST(CodecFuzzTest, TableMetasDecodeOrReportCorruption) {
  std::vector<Seed> seeds;
  TableMeta full = SeedTableMeta();
  TableMeta empty;
  for (const TableMeta* meta : {&full, &empty}) {
    Seed seed{meta->Serialize(), {}};
    // Counts and lengths sit at offsets set by the strings before them;
    // overwriting at every offset reaches each of them.
    for (size_t at = 0; at + 8 <= seed.bytes.size(); ++at) {
      seed.u64_fields.push_back(at);
    }
    ASSERT_TRUE(TableMeta::Deserialize(seed.bytes).ok());
    seeds.push_back(std::move(seed));
  }
  FuzzSeeds(kSeed + 4, kIterations, seeds,
            [](const std::vector<uint8_t>& b, int it) {
              Result<TableMeta> meta = TableMeta::Deserialize(b);
              if (!meta.ok()) {
                EXPECT_TRUE(meta.status().IsCorruption()) << it;
                return false;
              }
              for (const ColumnDef& col : meta->schema.columns) {
                EXPECT_LE(static_cast<int>(col.type),
                          static_cast<int>(ColumnType::kDecimal));
              }
              for (const PartitionMeta& part : meta->partitions) {
                for (const SegmentMeta& seg : part.columns) {
                  EXPECT_EQ(seg.zones.size(), seg.page_rows.size()) << it;
                }
              }
              return true;
            });
}

TEST(CodecFuzzTest, SystemDirectoriesOpenOrReportCorruption) {
  std::vector<Seed> seeds;
  for (int n : {0, 1, 4}) {
    std::vector<uint8_t> bytes;
    PutU64(bytes, 1 + n);  // next run
    PutU64(bytes, n);
    std::vector<size_t> fields = {0, 8};
    for (int i = 0; i < n; ++i) {
      fields.push_back(bytes.size());  // name length (and its first bytes)
      PutString(bytes, "name/" + std::to_string(i));
      PutU64(bytes, 1 + i);
    }
    seeds.push_back({bytes, fields});
  }
  SimBlockVolume volume(BlockVolumeOptions{});
  FuzzSeeds(kSeed + 13, kIterations / 5, seeds,
            [&volume](const std::vector<uint8_t>& b, int it) {
              SimTime done = 0;
              // Block 0 is the directory run.
              EXPECT_TRUE(volume.Write(0, b, 0, &done).ok()) << it;
              SystemStore store(&volume);
              Status st = store.Open(0, &done);
              if (!st.ok()) {
                EXPECT_TRUE(st.IsCorruption()) << it;
                return false;
              }
              EXPECT_LE(store.List().size(), b.size() / 12) << it;
              return true;
            });
}

// --- NDP wire frames and the NDP server ---------------------------------

// The one request shape the client sends (PlanNdpScan): the projected
// columns, then the range column, filter-only when the scan does not
// project it.
ndp::NdpRequest SeedRequest(bool project_range) {
  ndp::NdpRequest req;
  ndp::NdpColumn note;
  note.name = "note";
  note.type = ColumnType::kString;
  note.pages = {{"data/01/1", 0, 150}};
  ndp::NdpColumn k;
  k.name = "k";
  k.type = ColumnType::kDate;
  k.projected = project_range;
  k.pages = {{"data/00/1", 0, 100}, {"data/00/2", 100, 50}};
  req.columns = {note, k};
  req.range_column = 1;
  req.lo = 10;
  req.hi = 90;
  return req;
}

// The serialized range predicate's size: And(Cmp >= lo, Cmp <= hi) and
// an aggregate count. Its lo and hi literals sit at these offsets in it.
constexpr size_t kRangeBytes = 84;
constexpr size_t kLoOffset = 8 + 16;
constexpr size_t kHiOffset = 8 + 36 + 16;

// Offsets of a request's counts (columns and each column's pages) and of
// every word of its range predicate.
std::vector<size_t> RequestCountFields(const ndp::NdpRequest& req) {
  std::vector<size_t> fields = {0};
  size_t at = 4;
  for (const ndp::NdpColumn& col : req.columns) {
    at += 4 + col.name.size() + 4 + 4;
    fields.push_back(at);
    at += 4;
    for (const ndp::NdpPageRef& page : col.pages) {
      at += 4 + page.key.size() + 8 + 4;
    }
  }
  for (; at + 8 <= req.Serialize().size(); at += 8) fields.push_back(at);
  return fields;
}

TEST(CodecFuzzTest, NdpRequestsDecodeOrReject) {
  std::vector<Seed> seeds;
  for (bool project_range : {false, true}) {
    ndp::NdpRequest req = SeedRequest(project_range);
    seeds.push_back({req.Serialize(), RequestCountFields(req)});
  }
  FuzzSeeds(kSeed + 7, kIterations, seeds,
            [](const std::vector<uint8_t>& b, int it) {
              Result<ndp::NdpRequest> req = ndp::NdpRequest::Deserialize(b);
              if (!req.ok()) {
                // The server's "cannot evaluate" answer, not retried.
                EXPECT_TRUE(req.status().IsInvalidArgument()) << it;
                return false;
              }
              size_t pages = 0;
              for (const ndp::NdpColumn& col : req->columns) {
                pages += col.pages.size();
              }
              EXPECT_LE(pages, b.size() / 17) << it;
              EXPECT_LT(req->range_column, req->columns.size()) << it;
              return true;
            });
}

// Every byte of the range predicate but its lo and hi literals is fixed:
// a request whose filter has any other shape (another comparison, a
// second column, a non-INT64 literal, a double or string literal, an
// aggregate) is InvalidArgument.
TEST(CodecFuzzTest, NdpRequestsRejectOtherFilterShapes) {
  const std::vector<uint8_t> good = SeedRequest(false).Serialize();
  ASSERT_TRUE(ndp::NdpRequest::Deserialize(good).ok());
  const size_t tail = good.size() - kRangeBytes;
  for (size_t at = tail; at < good.size(); ++at) {
    const size_t in_tail = at - tail;
    const bool literal = (in_tail >= kLoOffset && in_tail < kLoOffset + 8) ||
                         (in_tail >= kHiOffset && in_tail < kHiOffset + 8);
    for (uint8_t flip : {0x01, 0x80}) {
      std::vector<uint8_t> bytes = good;
      bytes[at] ^= flip;
      Result<ndp::NdpRequest> req = ndp::NdpRequest::Deserialize(bytes);
      if (literal) {
        EXPECT_TRUE(req.ok()) << "byte " << in_tail;
      } else {
        EXPECT_TRUE(req.status().IsInvalidArgument()) << "byte " << in_tail;
      }
    }
  }
}

// Offsets of a result's counts: rows_matched, columns, and each column's
// row count and encoded length.
std::vector<size_t> ResultCountFields(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> fields = {4, 12};
  uint32_t columns = 0;
  std::memcpy(&columns, bytes.data() + 12, sizeof(columns));
  size_t at = 16;
  for (uint32_t c = 0; c < columns; ++c) {
    uint64_t rows = 0;
    std::memcpy(&rows, bytes.data() + at + 4, sizeof(rows));
    fields.push_back(at + 4);
    at += 12;
    if (rows == 0) continue;
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + at, sizeof(len));
    fields.push_back(at);
    at += 4 + len;
  }
  return fields;
}

TEST(CodecFuzzTest, NdpResultsDecodeOrReportCorruption) {
  Rng rng(kSeed + 8);
  ndp::NdpResult rows;
  rows.rows_matched = 120;
  ColumnVector ints;
  ints.type = ColumnType::kDecimal;
  ColumnVector doubles;
  doubles.type = ColumnType::kDouble;
  ColumnVector strings;
  strings.type = ColumnType::kString;
  for (uint64_t r = 0; r < rows.rows_matched; ++r) {
    ints.ints.push_back(static_cast<int64_t>(rng.Uniform(1 << 16)));
    doubles.doubles.push_back(rng.NextDouble());
    strings.strings.push_back(r % 3 ? "regular" : "promo sale");
  }
  rows.columns = {ints, doubles, strings};
  ndp::NdpResult empty;
  ColumnVector none;
  none.type = ColumnType::kString;
  empty.columns = {none};
  std::vector<Seed> seeds;
  for (const ndp::NdpResult* res : {&rows, &empty}) {
    std::vector<uint8_t> bytes = res->Serialize();
    ASSERT_TRUE(ndp::NdpResult::Deserialize(bytes).ok());
    // The leading word once flagged an aggregate result; it is always 0.
    for (uint8_t lead : {0x01, 0x80}) {
      std::vector<uint8_t> flagged = bytes;
      flagged[0] = lead;
      EXPECT_TRUE(
          ndp::NdpResult::Deserialize(flagged).status().IsCorruption());
    }
    seeds.push_back({bytes, ResultCountFields(bytes)});
  }
  FuzzSeeds(kSeed + 9, kIterations, seeds,
            [](const std::vector<uint8_t>& b, int it) {
              Result<ndp::NdpResult> res = ndp::NdpResult::Deserialize(b);
              if (!res.ok()) {
                EXPECT_TRUE(res.status().IsCorruption()) << it;
                return false;
              }
              for (const ColumnVector& col : res->columns) {
                EXPECT_EQ(col.size(), res->rows_matched) << it;
              }
              return true;
            });
}

// Mutated pages fed to the NDP server: every stored frame and every
// column page inside one must come back as a result or as Corruption (a
// broken page) or InvalidArgument (a page that disagrees with its ref),
// never abort, leak or read out of bounds. Over a range column, a
// dictionary and a raw string column and a double column whose pages
// break at different rows.
TEST(CodecFuzzTest, NdpEngineRejectsMutatedPages) {
  Rng rng(kSeed + 10);
  ColumnVector k;
  k.type = ColumnType::kInt64;
  ColumnVector flag;
  flag.type = ColumnType::kString;
  ColumnVector note;
  note.type = ColumnType::kString;
  ColumnVector y;
  y.type = ColumnType::kDouble;
  for (int r = 0; r < 150; ++r) {
    k.ints.push_back(static_cast<int64_t>(rng.Uniform(1000)));
    flag.strings.push_back(r % 4 ? "N" : "R");
    note.strings.push_back("note " + std::to_string(rng.Next()));
    y.doubles.push_back(rng.NextDouble());
  }
  // Column pages (unframed), column-major, and the request over them.
  std::vector<std::vector<uint8_t>> payloads;
  ndp::NdpRequest req;
  auto add_column = [&](const std::string& name, const ColumnVector& values,
                        std::vector<size_t> cuts, bool projected) {
    ndp::NdpColumn col;
    col.name = name;
    col.type = values.type;
    col.projected = projected;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      ZoneMapEntry zone;
      payloads.push_back(EncodeColumnPage(values, cuts[i], cuts[i + 1],
                                          &zone));
      col.pages.push_back({name + "/" + std::to_string(i), cuts[i],
                           static_cast<uint32_t>(cuts[i + 1] - cuts[i])});
    }
    req.columns.push_back(std::move(col));
  };
  add_column("flag", flag, {0, 70, 150}, true);
  add_column("note", note, {0, 40, 110, 150}, true);
  add_column("y", y, {0, 150}, true);
  add_column("k", k, {0, 100, 150}, false);
  req.range_column = 3;

  std::vector<std::vector<uint8_t>> frames;
  for (const std::vector<uint8_t>& payload : payloads) {
    frames.push_back(EncodePage(payload));
  }
  std::vector<const std::vector<uint8_t>*> pages;
  for (const std::vector<uint8_t>& frame : frames) pages.push_back(&frame);
  req.lo = 0;
  req.hi = 999;
  Result<ndp::NdpResult> whole = ndp::NdpEngine::Evaluate(req, pages);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->rows_matched, 150u);

  const int iterations = kIterations / 5;
  int rejected = 0;
  for (int it = 0; it < iterations; ++it) {
    const size_t victim = rng.Uniform(frames.size());
    std::vector<uint8_t> bytes;
    if (rng.Bernoulli(0.5)) {
      // A sound frame around a broken column page.
      std::vector<uint8_t> payload = payloads[victim];
      Mutate(rng, payload, {kTypeOffset, kCountOffset}, {kWidthOffset});
      bytes = EncodePage(payload);
    } else {
      bytes = frames[victim];
      Mutate(rng, bytes, {kFlagsOffset, kRawSizeOffset, kRawSizeOffset + 4},
             {kFlagsOffset});
    }
    std::vector<const std::vector<uint8_t>*> mutated = pages;
    mutated[victim] = &bytes;
    req.lo = rng.UniformRange(-10, 1000);
    req.hi = req.lo + rng.UniformRange(-10, 1000);
    Result<ndp::NdpResult> res = ndp::NdpEngine::Evaluate(req, mutated);
    if (!res.ok()) {
      ASSERT_TRUE(res.status().IsCorruption() ||
                  res.status().IsInvalidArgument())
          << "iteration " << it << ": " << res.status().ToString();
      ++rejected;
      continue;
    }
    ASSERT_LE(res->rows_matched, 150u) << it;
    ASSERT_EQ(res->columns.size(), 3u) << it;
    for (const ColumnVector& col : res->columns) {
      ASSERT_EQ(col.size(), res->rows_matched) << it;
    }
  }
  EXPECT_GT(rejected, iterations / 4);
}

// --- the page-scan pipeline ---------------------------------------------

// ScanPages over mutated column pages, in each caller's shape: a range
// with a projection over pages the caller parsed or did not (NdpEngine,
// ScanTable), a row-id set with no range (ScanRowIds), and a range whose
// column, and one more, only the filter reads. Every page is checked
// whole, so a call is Corruption exactly when some page fails a plain
// decode or disagrees with its column's type or row count, also when the
// filter empties that page; otherwise it returns the rows that the plain
// decode of every page selects.
TEST(CodecFuzzTest, PageScanPipelineRejectsMutatedPages) {
  Rng rng(kSeed + 11);
  constexpr uint64_t kRows = 150;
  std::vector<ColumnVector> values(4);  // k (the range column), flag, note, y
  values[0].type = ColumnType::kInt64;
  values[1].type = ColumnType::kString;
  values[2].type = ColumnType::kString;
  values[3].type = ColumnType::kDouble;
  for (uint64_t r = 0; r < kRows; ++r) {
    values[0].ints.push_back(static_cast<int64_t>(rng.Uniform(1000)));
    values[1].strings.push_back(r % 4 ? "N" : "R");
    values[2].strings.push_back("note " + std::to_string(rng.Next()));
    values[3].doubles.push_back(rng.NextDouble());
  }
  // Each column's pages break at other rows.
  const std::vector<std::vector<uint64_t>> cuts = {
      {0, 100, 150}, {0, 70, 150}, {0, 40, 110, 150}, {0, 150}};
  std::vector<std::vector<std::vector<uint8_t>>> payloads(values.size());
  for (size_t c = 0; c < values.size(); ++c) {
    for (size_t k = 0; k + 1 < cuts[c].size(); ++k) {
      ZoneMapEntry zone;
      payloads[c].push_back(
          EncodeColumnPage(values[c], cuts[c][k], cuts[c][k + 1], &zone));
    }
  }

  const int iterations = kIterations / 5;
  int rejected = 0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<std::vector<std::vector<uint8_t>>> pages = payloads;
    std::vector<std::vector<uint8_t>>& column = pages[rng.Uniform(4)];
    Mutate(rng, column[rng.Uniform(column.size())],
           {kTypeOffset, kCountOffset}, {kWidthOffset});
    enum Shape { kProjection, kRowIds, kFilterOnly };
    const auto shape = static_cast<Shape>(it % 3);
    const bool preparsed = shape == kProjection && (it / 3) % 2 == 0;

    // The oracle: every page decoded plainly, or a defect found.
    bool valid = true;
    std::vector<ColumnVector> whole(values.size());
    for (size_t c = 0; c < values.size(); ++c) {
      whole[c].type = values[c].type;
      for (size_t k = 0; k < pages[c].size(); ++k) {
        Result<ColumnVector> page = DecodeColumnPage(pages[c][k]);
        if (!page.ok() || page->type != values[c].type ||
            page->size() != cuts[c][k + 1] - cuts[c][k]) {
          valid = false;
          break;
        }
        whole[c].AppendRange(*page, 0, page->size());
      }
    }

    PageScan scan;
    bool parsed_all = true;
    for (size_t c = 0; c < values.size(); ++c) {
      ScanColumn col;
      col.type = values[c].type;
      col.write = shape != kFilterOnly || (c != 0 && c != 2);
      for (size_t k = 0; k < pages[c].size(); ++k) {
        ScanPage page;
        page.first_row = cuts[c][k];
        page.row_count = cuts[c][k + 1] - cuts[c][k];
        if (preparsed) {
          // The caller parses first, and reports a failure itself.
          parsed_all =
              parsed_all && ParseColumnPage(pages[c][k], &page.parsed).ok();
        } else {
          page.bytes = &pages[c][k];
        }
        col.pages.push_back(std::move(page));
      }
      scan.columns.push_back(std::move(col));
    }
    if (!parsed_all) {
      ASSERT_FALSE(valid) << "iteration " << it;
      ++rejected;
      continue;
    }
    IntervalSet candidates;
    std::vector<IntervalSet> morsels(2);
    if (shape == kRowIds) {
      for (uint64_t r = 0; r < kRows; r += 1 + rng.Uniform(20)) {
        candidates.InsertRange(r, std::min(kRows, r + 1 + rng.Uniform(15)));
      }
      scan.morsels.push_back({0, candidates.Intervals()});
    } else {
      candidates.InsertRange(0, kRows);
      morsels[0].InsertRange(0, 75);
      morsels[1].InsertRange(75, kRows);
      for (const IntervalSet& m : morsels) {
        scan.morsels.push_back({0, m.Intervals()});
      }
      scan.range_column = 0;
      scan.lo = rng.UniformRange(-10, 1000);
      scan.hi = scan.lo + rng.UniformRange(-10, 1000);
    }

    Result<ScannedRows> res = ScanPages(scan);
    if (!valid) {
      ASSERT_TRUE(res.status().IsCorruption())
          << "iteration " << it << ": " << res.status().ToString();
      ++rejected;
      continue;
    }
    ASSERT_TRUE(res.ok()) << "iteration " << it << ": "
                          << res.status().ToString();
    std::vector<size_t> keep;
    for (const IntervalSet::Interval& iv : candidates.Intervals()) {
      for (uint64_t r = iv.begin; r < iv.end; ++r) {
        const int64_t v = whole[0].ints[r];
        if (shape == kRowIds || (v >= scan.lo && v <= scan.hi)) {
          keep.push_back(static_cast<size_t>(r));
        }
      }
    }
    ASSERT_EQ(res->rows, keep.size()) << "iteration " << it;
    for (size_t c = 0; c < values.size(); ++c) {
      ColumnVector got = std::move(res->columns[c]);
      if (!scan.columns[c].write) {
        ASSERT_EQ(got.size(), 0u) << "iteration " << it;
        continue;
      }
      got.ExpandStrings();
      ColumnVector want = whole[c].EmptyLike();
      want.Resize(keep.size());
      want.Gather(whole[c], keep, 0);
      ASSERT_EQ(got.ints, want.ints) << "iteration " << it;
      ASSERT_EQ(got.strings, want.strings) << "iteration " << it;
      // Bitwise: a mutated double may be a NaN.
      ASSERT_EQ(got.doubles.size(), want.doubles.size());
      if (!want.doubles.empty()) {
        ASSERT_EQ(std::memcmp(got.doubles.data(), want.doubles.data(),
                              8 * want.doubles.size()),
                  0)
            << "iteration " << it;
      }
    }
  }
  EXPECT_GT(rejected, iterations / 4);
}

// --- index posting pages -------------------------------------------------

constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxKey = std::numeric_limits<int64_t>::max();
const std::string kLastToken(8, '\xff');

// Builds one HG, one DATE and one TEXT index in a transaction and keeps
// their encoded pages as fuzz seeds; the mutated pages are then decoded
// by the shared page walker and, appended to fresh objects, through each
// index's own lookup.
class IndexPageFuzzTest : public ::testing::Test {
 protected:
  IndexPageFuzzTest() {
    TransactionManager::Options opts;
    opts.buffer_capacity_bytes = 16 << 20;
    txn_mgr_ = std::make_unique<TransactionManager>(h_.storage.get(),
                                                    &h_.system, opts);
    txn_ = txn_mgr_->Begin();
  }
  ~IndexPageFuzzTest() override { (void)txn_mgr_->Rollback(txn_); }

  // The encoded pages of object `id`.
  std::vector<std::vector<uint8_t>> PagesOf(uint64_t id) {
    Result<StorageObject*> object = txn_mgr_->OpenForWrite(txn_, id);
    EXPECT_TRUE(object.ok()) << object.status().ToString();
    std::vector<std::vector<uint8_t>> pages;
    for (uint64_t p = 0; p < (*object)->page_count(); ++p) {
      Result<BufferManager::PageData> data = (*object)->ReadPage(p);
      EXPECT_TRUE(data.ok()) << data.status().ToString();
      pages.push_back(**data);
    }
    return pages;
  }

  // A fresh object holding just `page`.
  StorageObject* ObjectWith(const std::vector<uint8_t>& page) {
    Result<StorageObject*> object =
        txn_mgr_->CreateObject(txn_, next_object_++, h_.cloud_space);
    EXPECT_TRUE(object.ok()) << object.status().ToString();
    EXPECT_TRUE((*object)->AppendPage(page).ok());
    return *object;
  }

  // Offsets of the count fields of a page's first entry, whose key takes
  // `key_bytes`: the page count, the posting length and its run count.
  static std::vector<size_t> FirstEntryFields(size_t key_bytes) {
    return {0, 4 + key_bytes, 4 + key_bytes + 8};
  }

  testing_util::SingleNodeHarness h_;
  std::unique_ptr<TransactionManager> txn_mgr_;
  Transaction* txn_ = nullptr;
  uint64_t next_object_ = 1000;
};

bool LookupOk(const Result<IntervalSet>& rows, int it) {
  if (!rows.ok()) {
    EXPECT_TRUE(rows.status().IsCorruption()) << it << " "
                                              << rows.status().ToString();
    return false;
  }
  return true;
}

TEST_F(IndexPageFuzzTest, PostingPagesDecodeOrReportCorruption) {
  Rng rng(kSeed + 6);
  HgIndex::Builder hg;
  DateIndex::Builder date;
  TextIndex::Builder text;
  const char* words[6] = {"alpha", "beta", "gamma", "delta", "special",
                          "requests"};
  for (uint64_t row = 0; row < 3000; ++row) {
    hg.Add(static_cast<int64_t>(rng.Uniform(200)), row);
    date.Add(DaysFromCivil(1994, 1, 1) + static_cast<int64_t>(
                                             rng.Uniform(5 * 365)),
             row);
    text.Add(std::string(words[rng.Uniform(6)]) + " " + words[rng.Uniform(6)],
             row);
  }
  const uint64_t target = 2048;
  ASSERT_TRUE(HgIndex::Build(txn_mgr_.get(), txn_, 1, h_.cloud_space, &hg,
                             target)
                  .ok());
  ASSERT_TRUE(DateIndex::Build(txn_mgr_.get(), txn_, 2, h_.cloud_space,
                               &date, target)
                  .ok());
  ASSERT_TRUE(TextIndex::Build(txn_mgr_.get(), txn_, 3, h_.cloud_space,
                               &text, target)
                  .ok());
  std::vector<Seed> int_seeds;
  for (const std::vector<uint8_t>& page : PagesOf(1)) {
    int_seeds.push_back({page, {}});
  }
  for (const std::vector<uint8_t>& page : PagesOf(2)) {
    int_seeds.push_back({page, {}});
  }
  std::vector<Seed> text_seeds;
  for (const std::vector<uint8_t>& page : PagesOf(3)) {
    text_seeds.push_back({page, {}});
  }
  ASSERT_GT(int_seeds.size(), 4u);
  ASSERT_GT(text_seeds.size(), 1u);

  // Page walker, every posting decoded: u32 fields are the page count and
  // the first entry's posting length and run count.
  auto fuzz_walker = [&](uint64_t seed, const std::vector<Seed>& seeds,
                         auto collect, size_t first_key_bytes) {
    Rng r(seed);
    int corrupt = 0;
    std::vector<size_t> fields = FirstEntryFields(first_key_bytes);
    fields.push_back(fields[1] + 4);
    fields.push_back(fields[2] + 4);
    for (int it = 0; it < kIterations / 2; ++it) {
      std::vector<uint8_t> bytes = seeds[r.Uniform(seeds.size())].bytes;
      Mutate(r, bytes, fields, {0});
      if (r.Bernoulli(0.25)) Mutate(r, bytes, fields, {0});
      std::vector<IntervalSet> out;
      Status s = collect(bytes, &out);
      if (!s.ok()) {
        ASSERT_TRUE(s.IsCorruption()) << it;
        ++corrupt;
      }
    }
    EXPECT_GT(corrupt, kIterations / 8);
  };
  fuzz_walker(kSeed + 7, int_seeds,
              [](const std::vector<uint8_t>& b, std::vector<IntervalSet>* out) {
                return CollectPostings<int64_t>(b.data(), b.size(), kMinKey,
                                                kMaxKey, "fuzz", out);
              },
              8);
  // Text keys are [len u32][bytes]; the first token is one of `words`.
  uint32_t first_len = 0;
  std::memcpy(&first_len, text_seeds[0].bytes.data() + 4, sizeof(first_len));
  fuzz_walker(kSeed + 8, text_seeds,
              [](const std::vector<uint8_t>& b, std::vector<IntervalSet>* out) {
                return CollectPostings<std::string>(b.data(), b.size(), "",
                                                    kLastToken, "fuzz", out);
              },
              4 + first_len);

  // Through each index's lookup: one mutated page per fresh object.
  Rng r(kSeed + 9);
  int corrupt = 0;
  const int lookups = 600;
  for (int it = 0; it < lookups; ++it) {
    int kind = static_cast<int>(r.Uniform(3));
    const std::vector<Seed>& seeds = kind == 2 ? text_seeds : int_seeds;
    std::vector<uint8_t> bytes = seeds[r.Uniform(seeds.size())].bytes;
    Mutate(r, bytes, FirstEntryFields(kind == 2 ? 4 + first_len : 8), {0});
    StorageObject* object = ObjectWith(bytes);
    bool ok = true;
    switch (kind) {
      case 0:
        ok = LookupOk(HgIndex::LookupRange(object, {{kMinKey, kMaxKey}},
                                           kMinKey, kMaxKey),
                      it);
        break;
      case 1:
        ok = LookupOk(DateIndex::LookupYearRange(
                          object, {{kMinKey, kMaxKey}}, 1900, 2100),
                      it);
        break;
      default:
        ok = LookupOk(TextIndex::LookupAllWords(object, {{"", kLastToken}},
                                                {"special", "requests"}),
                      it);
    }
    if (!ok) ++corrupt;
  }
  EXPECT_GT(corrupt, lookups / 8);
}

}  // namespace
}  // namespace cloudiq

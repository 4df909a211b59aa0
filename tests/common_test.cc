#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/bitmap.h"
#include "common/coding.h"
#include "common/interval_set.h"
#include "common/key_hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace cloudiq {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status st = Status::NotFound("key 17");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.ToString(), "NOT_FOUND: key 17");
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err(Status::IoError("disk on fire"));
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsIoError());
}

Result<int> Half(int n) {
  if (n % 2 != 0) return Status::InvalidArgument("odd");
  return n / 2;
}

Result<int> Quarter(int n) {
  CLOUDIQ_ASSIGN_OR_RETURN(int h, Half(n));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> q = Quarter(8);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

TEST(BitmapTest, SetClearTest) {
  Bitmap bm;
  EXPECT_FALSE(bm.Test(100));
  bm.Set(100);
  EXPECT_TRUE(bm.Test(100));
  EXPECT_FALSE(bm.Test(99));
  bm.Clear(100);
  EXPECT_FALSE(bm.Test(100));
  EXPECT_EQ(bm.CountSet(), 0u);
}

TEST(BitmapTest, Ranges) {
  Bitmap bm;
  bm.SetRange(10, 20);
  EXPECT_EQ(bm.CountSet(), 10u);
  EXPECT_TRUE(bm.Test(10));
  EXPECT_TRUE(bm.Test(19));
  EXPECT_FALSE(bm.Test(20));
  bm.ClearRange(12, 15);
  EXPECT_EQ(bm.CountSet(), 7u);
  EXPECT_EQ(bm.SetBits(),
            (std::vector<uint64_t>{10, 11, 15, 16, 17, 18, 19}));
}

TEST(BitmapTest, FindClearRun) {
  Bitmap bm;
  bm.SetRange(0, 5);
  bm.SetRange(8, 10);
  EXPECT_EQ(bm.FindClearRun(0, 3), 5u);   // 5,6,7 clear
  EXPECT_EQ(bm.FindClearRun(0, 4), 10u);  // must skip to after 8-9
  EXPECT_EQ(bm.FindClearRun(6, 2), 6u);
}

TEST(BitmapTest, FindClearRunGrowsPastEnd) {
  Bitmap bm(8);
  bm.SetRange(0, 8);
  EXPECT_EQ(bm.FindClearRun(0, 2), 8u);
}

TEST(BitmapTest, SerializeRoundTrip) {
  Bitmap bm;
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(1000);
  Result<Bitmap> back = Bitmap::Deserialize(bm.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(bm == *back);
  EXPECT_EQ(back->CountSet(), 4u);
  EXPECT_EQ(back->size_bits(), bm.size_bits());
  EXPECT_EQ(back->Serialize(), bm.Serialize());
  // The empty bitmap is just its zero bit count.
  Result<Bitmap> empty = Bitmap::Deserialize(Bitmap().Serialize());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size_bits(), 0u);
}

// [num_bits][words...] with the given bit count and word payload.
std::vector<uint8_t> BitmapFrame(uint64_t num_bits,
                                 const std::vector<uint64_t>& words) {
  std::vector<uint8_t> out(sizeof(uint64_t) * (1 + words.size()));
  std::memcpy(out.data(), &num_bits, sizeof(num_bits));
  if (!words.empty()) {
    std::memcpy(out.data() + sizeof(uint64_t), words.data(),
                words.size() * sizeof(uint64_t));
  }
  return out;
}

TEST(BitmapTest, DeserializeRejectsShortFrames) {
  for (size_t size = 0; size < sizeof(uint64_t); ++size) {
    std::vector<uint8_t> bytes(size, 0);
    EXPECT_TRUE(Bitmap::Deserialize(bytes).status().IsCorruption()) << size;
  }
  // A valid frame cut mid-word.
  std::vector<uint8_t> cut = BitmapFrame(100, {1, 2});
  cut.pop_back();
  EXPECT_TRUE(Bitmap::Deserialize(cut).status().IsCorruption());
}

TEST(BitmapTest, DeserializeRejectsSizeMismatch) {
  // 100 bits need exactly two words.
  EXPECT_TRUE(Bitmap::Deserialize(BitmapFrame(100, {1, 2})).ok());
  EXPECT_TRUE(
      Bitmap::Deserialize(BitmapFrame(100, {1})).status().IsCorruption());
  EXPECT_TRUE(Bitmap::Deserialize(BitmapFrame(100, {1, 2, 3}))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(
      Bitmap::Deserialize(BitmapFrame(0, {0})).status().IsCorruption());
  // A bit at or past num_bits is not a bit of this bitmap.
  EXPECT_TRUE(Bitmap::Deserialize(BitmapFrame(100, {0, uint64_t{1} << 36}))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(Bitmap::Deserialize(BitmapFrame(100, {0, uint64_t{1} << 35}))
                  .ok());
}

TEST(BitmapTest, DeserializeRejectsHugeBitCountWithoutAllocating) {
  // One payload word claiming 2^62 bits would resize to 2^56 words.
  EXPECT_TRUE(Bitmap::Deserialize(BitmapFrame(uint64_t{1} << 62, {0}))
                  .status()
                  .IsCorruption());
  // The word count must not wrap for bit counts near 2^64.
  EXPECT_TRUE(Bitmap::Deserialize(BitmapFrame(~uint64_t{0}, {0}))
                  .status()
                  .IsCorruption());
}

TEST(BitmapTest, UnionAndSubtract) {
  Bitmap a, b;
  a.SetRange(0, 10);
  b.SetRange(5, 15);
  a.UnionWith(b);
  EXPECT_EQ(a.CountSet(), 15u);
  a.SubtractFrom(b);
  EXPECT_EQ(a.CountSet(), 5u);
  EXPECT_TRUE(a.Test(4));
  EXPECT_FALSE(a.Test(5));
}

TEST(BitmapTest, EqualityIgnoresCapacity) {
  Bitmap a(10), b(1000);
  a.Set(3);
  b.Set(3);
  EXPECT_TRUE(a == b);
  b.Set(999);
  EXPECT_FALSE(a == b);
}

TEST(IntervalSetTest, InsertCoalesces) {
  IntervalSet set;
  set.InsertRange(10, 20);
  set.InsertRange(20, 30);  // adjacent -> coalesce
  EXPECT_EQ(set.IntervalCount(), 1u);
  EXPECT_EQ(set.Count(), 20u);
  set.InsertRange(40, 50);
  EXPECT_EQ(set.IntervalCount(), 2u);
  set.InsertRange(25, 45);  // bridges the gap
  EXPECT_EQ(set.IntervalCount(), 1u);
  EXPECT_EQ(set.Count(), 40u);
  EXPECT_EQ(set.Min(), 10u);
  EXPECT_EQ(set.Max(), 49u);
}

TEST(IntervalSetTest, EraseSplits) {
  IntervalSet set;
  set.InsertRange(0, 100);
  set.EraseRange(40, 60);
  EXPECT_EQ(set.IntervalCount(), 2u);
  EXPECT_EQ(set.Count(), 80u);
  EXPECT_TRUE(set.Contains(39));
  EXPECT_FALSE(set.Contains(40));
  EXPECT_FALSE(set.Contains(59));
  EXPECT_TRUE(set.Contains(60));
}

TEST(IntervalSetTest, EraseAcrossIntervals) {
  IntervalSet set;
  set.InsertRange(0, 10);
  set.InsertRange(20, 30);
  set.InsertRange(40, 50);
  set.EraseRange(5, 45);
  EXPECT_EQ(set.Count(), 10u);
  EXPECT_TRUE(set.Contains(4));
  EXPECT_TRUE(set.Contains(45));
  EXPECT_FALSE(set.Contains(25));
}

TEST(IntervalSetTest, SingletonOps) {
  IntervalSet set;
  set.Insert(7);
  set.Insert(8);
  set.Insert(6);
  EXPECT_EQ(set.IntervalCount(), 1u);
  set.Erase(7);
  EXPECT_EQ(set.IntervalCount(), 2u);
  EXPECT_EQ(set.Values(), (std::vector<uint64_t>{6, 8}));
}

TEST(IntervalSetTest, SerializeRoundTrip) {
  IntervalSet set;
  set.InsertRange(uint64_t{1} << 63, (uint64_t{1} << 63) + 100);
  set.InsertRange((uint64_t{1} << 63) + 200, (uint64_t{1} << 63) + 250);
  std::vector<uint8_t> bytes = set.Serialize();
  Result<IntervalSet> back = IntervalSet::Deserialize(bytes.data(),
                                                      bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(set == *back);
}

TEST(IntervalSetTest, HighRangeKeys) {
  // Object keys live in [2^63, 2^64); make sure no arithmetic trips.
  IntervalSet set;
  uint64_t base = uint64_t{1} << 63;
  set.InsertRange(base, base + 10);
  EXPECT_TRUE(set.Contains(base + 9));
  EXPECT_EQ(set.Max(), base + 9);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(HashKeyPrefixTest, SpreadsConsecutiveKeys) {
  // Consecutive keys must land in distinct prefixes (the whole point of
  // the Mersenne-Twister-style prefix hash, §3.1).
  std::set<uint64_t> prefixes;
  uint64_t base = uint64_t{1} << 63;
  for (uint64_t i = 0; i < 1000; ++i) {
    prefixes.insert(HashKeyPrefix(base + i));
  }
  EXPECT_EQ(prefixes.size(), 1000u);
}

TEST(HashKeyPrefixTest, FormatContainsPrefixAndKey) {
  uint64_t key = (uint64_t{1} << 63) + 0xabc;
  std::string s = FormatObjectKey(key);
  EXPECT_EQ(s.size(), 33u);  // 16 hex + '/' + 16 hex
  EXPECT_EQ(s[16], '/');
  EXPECT_EQ(s.substr(17), "8000000000000abc");
}

TEST(CodingTest, RoundTrip) {
  std::vector<uint8_t> buf;
  PutU64(buf, 0xdeadbeefcafebabeULL);
  PutU32(buf, 17);
  PutI64(buf, -42);
  PutDouble(buf, 3.25);
  PutString(buf, "hello");
  ByteReader reader(buf);
  EXPECT_EQ(reader.GetU64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(reader.GetU32(), 17u);
  EXPECT_EQ(reader.GetI64(), -42);
  EXPECT_DOUBLE_EQ(reader.GetDouble(), 3.25);
  EXPECT_EQ(reader.GetString(), "hello");
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.overflow());
}

TEST(CodingTest, OverflowLatches) {
  std::vector<uint8_t> buf;
  PutU32(buf, 1);
  ByteReader reader(buf);
  reader.GetU64();
  EXPECT_TRUE(reader.overflow());
}

TEST(CodingTest, ChecksumDiffers) {
  std::vector<uint8_t> a{1, 2, 3};
  std::vector<uint8_t> b{1, 2, 4};
  EXPECT_NE(HashBytes(a.data(), a.size()), HashBytes(b.data(), b.size()));
}

}  // namespace
}  // namespace cloudiq

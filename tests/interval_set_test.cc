// IntervalSet checked against a std::set<uint64_t> reference: seeded
// random InsertRange / EraseRange / Contains / Intersect / Union / Count /
// Min / Max over windows at 0 and straddling 2^63, the wire bytes against
// an encoder written here from the format, and the Deserialize validation
// rules.

#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/interval_set.h"
#include "common/random.h"

namespace cloudiq {
namespace {

using Reference = std::set<uint64_t>;

// Maximal runs of a reference set, as [begin, end) pairs.
std::vector<IntervalSet::Interval> RunsOf(const Reference& ref) {
  std::vector<IntervalSet::Interval> runs;
  for (uint64_t v : ref) {
    if (!runs.empty() && runs.back().end == v) {
      ++runs.back().end;
    } else {
      runs.push_back({v, v + 1});
    }
  }
  return runs;
}

// The wire format, from its definition: [count u64]{[begin u64][end u64]}*.
std::vector<uint8_t> ReferenceEncode(const Reference& ref) {
  std::vector<IntervalSet::Interval> runs = RunsOf(ref);
  std::vector<uint8_t> out;
  PutU64(out, runs.size());
  for (const IntervalSet::Interval& iv : runs) {
    PutU64(out, iv.begin);
    PutU64(out, iv.end);
  }
  return out;
}

void ExpectMatches(const IntervalSet& set, const Reference& ref) {
  ASSERT_EQ(set.Values(), std::vector<uint64_t>(ref.begin(), ref.end()));
  // Canonical: the stored runs are exactly the maximal runs.
  ASSERT_EQ(set.Intervals(), RunsOf(ref));
  ASSERT_EQ(set.Count(), ref.size());
  ASSERT_EQ(set.empty(), ref.empty());
  if (!ref.empty()) {
    ASSERT_EQ(set.Min(), *ref.begin());
    ASSERT_EQ(set.Max(), *ref.rbegin());
  }
}

// A random set of values in [base, base + window).
void RandomFill(Rng& rng, uint64_t base, uint64_t window, IntervalSet* set,
                Reference* ref) {
  for (uint64_t n = rng.Uniform(12); n > 0; --n) {
    uint64_t begin = base + rng.Uniform(window);
    uint64_t end = std::min(base + window, begin + rng.Uniform(9));
    set->InsertRange(begin, end);
    for (uint64_t v = begin; v < end; ++v) ref->insert(v);
  }
}

class IntervalSetOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetOracleTest, RandomEditsMatchReference) {
  const uint64_t base = GetParam();
  const uint64_t window = 160;
  Rng rng(base ^ 0x5E7);
  for (int round = 0; round < 200; ++round) {
    IntervalSet set;
    Reference ref;
    for (int op = 0; op < 60; ++op) {
      uint64_t begin = base + rng.Uniform(window);
      // Lengths 0..16 hit empty ranges, singletons, adjacency and full
      // overlap; an occasional inverted range must be a no-op.
      uint64_t end = begin + rng.Uniform(17);
      if (rng.Bernoulli(0.05)) std::swap(begin, end);
      if (rng.Bernoulli(0.6)) {
        set.InsertRange(begin, end);
        for (uint64_t v = begin; v < end; ++v) ref.insert(v);
      } else {
        set.EraseRange(begin, end);
        for (uint64_t v = begin; v < end; ++v) ref.erase(v);
      }
      ExpectMatches(set, ref);
      for (int probe = 0; probe < 4; ++probe) {
        uint64_t v = base + rng.Uniform(window + 2) - 1;
        ASSERT_EQ(set.Contains(v), ref.count(v) == 1) << v;
      }
    }
  }
}

TEST_P(IntervalSetOracleTest, BulkAlgebraMatchesReference) {
  const uint64_t base = GetParam();
  Rng rng(base ^ 0xA16);
  for (int round = 0; round < 500; ++round) {
    std::vector<IntervalSet> sets(rng.Uniform(5));
    std::vector<Reference> refs(sets.size());
    for (size_t i = 0; i < sets.size(); ++i) {
      RandomFill(rng, base, 120, &sets[i], &refs[i]);
    }
    Reference all;
    for (const Reference& r : refs) all.insert(r.begin(), r.end());
    if (sets.size() >= 2) {
      Reference both;
      for (uint64_t v : refs[0]) {
        if (refs[1].count(v) == 1) both.insert(v);
      }
      ExpectMatches(IntervalSet::Intersect(sets[0], sets[1]), both);
      ExpectMatches(IntervalSet::Intersect(sets[1], sets[0]), both);
      ExpectMatches(IntervalSet::Intersect(sets[0], IntervalSet()),
                    Reference());
    }
    ExpectMatches(IntervalSet::Union(sets), all);
  }
}

TEST_P(IntervalSetOracleTest, SerializeMatchesReferenceEncoder) {
  const uint64_t base = GetParam();
  Rng rng(base ^ 0xB17E5);
  for (int round = 0; round < 300; ++round) {
    IntervalSet set;
    Reference ref;
    RandomFill(rng, base, 200, &set, &ref);
    std::vector<uint8_t> bytes = set.Serialize();
    ASSERT_EQ(bytes, ReferenceEncode(ref));
    Result<IntervalSet> back = IntervalSet::Deserialize(bytes.data(),
                                                        bytes.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_TRUE(*back == set);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, IntervalSetOracleTest,
                         ::testing::Values(uint64_t{0},
                                           (uint64_t{1} << 63) - 80));

TEST(IntervalSetTest, AppendPathCoalescesAscendingInserts) {
  IntervalSet set;
  for (uint64_t v = 100; v < 200; ++v) set.Insert(v);
  set.InsertRange(150, 250);  // overlaps the last run
  set.InsertRange(250, 260);  // adjacent to it
  set.InsertRange(300, 310);  // past it
  EXPECT_EQ(set.Intervals(),
            (std::vector<IntervalSet::Interval>{{100, 260}, {300, 310}}));
  set.InsertRange(0, 400);  // swallows everything
  EXPECT_EQ(set.Intervals(), (std::vector<IntervalSet::Interval>{{0, 400}}));
}

TEST(IntervalSetTest, EraseEditsInPlace) {
  IntervalSet set;
  set.InsertRange(0, 100);
  set.EraseRange(0, 30);  // the key generator's commit: a prefix leaves
  EXPECT_EQ(set.Intervals(), (std::vector<IntervalSet::Interval>{{30, 100}}));
  set.EraseRange(50, 60);  // split
  EXPECT_EQ(set.Intervals(),
            (std::vector<IntervalSet::Interval>{{30, 50}, {60, 100}}));
  set.EraseRange(40, 70);  // trims both neighbours
  EXPECT_EQ(set.Intervals(),
            (std::vector<IntervalSet::Interval>{{30, 40}, {70, 100}}));
  set.EraseRange(0, 1000);
  EXPECT_TRUE(set.empty());
}

std::vector<uint8_t> Frame(uint64_t count,
                           const std::vector<uint64_t>& words) {
  std::vector<uint8_t> out;
  PutU64(out, count);
  for (uint64_t w : words) PutU64(out, w);
  return out;
}

bool IsCorrupt(const std::vector<uint8_t>& bytes) {
  return IntervalSet::Deserialize(bytes.data(), bytes.size())
      .status()
      .IsCorruption();
}

TEST(IntervalSetTest, DeserializeRejectsMalformedFrames) {
  EXPECT_FALSE(IsCorrupt(Frame(0, {})));
  EXPECT_FALSE(IsCorrupt(Frame(2, {1, 3, 5, 9})));
  EXPECT_TRUE(IsCorrupt({}));                        // no count
  EXPECT_TRUE(IsCorrupt({0, 0, 0}));                 // short count
  EXPECT_TRUE(IsCorrupt(Frame(2, {1, 3})));          // count past bytes
  EXPECT_TRUE(IsCorrupt(Frame(1, {1, 3, 5, 9})));    // bytes past count
  EXPECT_TRUE(IsCorrupt(Frame(uint64_t{1} << 60, {1, 3})));
  std::vector<uint8_t> ragged = Frame(1, {1, 3});
  ragged.push_back(0);
  EXPECT_TRUE(IsCorrupt(ragged));                    // not 8 + 16k bytes
  EXPECT_TRUE(IsCorrupt(Frame(1, {3, 3})));          // empty run
  EXPECT_TRUE(IsCorrupt(Frame(1, {5, 3})));          // inverted run
  EXPECT_TRUE(IsCorrupt(Frame(2, {1, 3, 3, 9})));    // adjacent runs
  EXPECT_TRUE(IsCorrupt(Frame(2, {1, 5, 3, 9})));    // overlapping runs
  EXPECT_TRUE(IsCorrupt(Frame(2, {5, 9, 1, 3})));    // descending runs
}

}  // namespace
}  // namespace cloudiq

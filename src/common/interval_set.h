#ifndef CLOUDIQ_COMMON_INTERVAL_SET_H_
#define CLOUDIQ_COMMON_INTERVAL_SET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"

namespace cloudiq {

// Set of uint64 values stored as coalesced half-open intervals [begin, end).
//
// The Object Key Generator hands out keys in monotonically increasing
// *ranges* precisely so that bookkeeping structures (active sets, RF/RB
// bitmap entries for cloud keys, post-restore garbage-collection sets) can
// be represented as a handful of intervals instead of millions of singleton
// bits. This container is that representation.
//
// The runs live in one flat vector, sorted, non-overlapping and
// non-adjacent (canonical). Inserting at or past the last run — the
// loader's, the key generator's and PageSet's pattern — appends or extends
// in O(1); anything else binary-searches and splices in place. DESIGN.md
// §5l lists the cost of every operation.
class IntervalSet {
 public:
  struct Interval {
    uint64_t begin;
    uint64_t end;  // exclusive
    bool operator==(const Interval& o) const {
      return begin == o.begin && end == o.end;
    }
  };

  IntervalSet() = default;

  bool empty() const { return runs_.empty(); }

  // Total number of contained values.
  uint64_t Count() const;

  // Number of maximal intervals (bookkeeping footprint).
  size_t IntervalCount() const { return runs_.size(); }

  void Insert(uint64_t value) { InsertRange(value, value + 1); }
  void InsertRange(uint64_t begin, uint64_t end);

  void Erase(uint64_t value) { EraseRange(value, value + 1); }
  void EraseRange(uint64_t begin, uint64_t end);

  bool Contains(uint64_t value) const;

  // Smallest / largest contained value. Undefined when empty.
  uint64_t Min() const;
  uint64_t Max() const;

  // All maximal intervals in ascending order.
  const std::vector<Interval>& Intervals() const { return runs_; }

  // All contained values in ascending order (use only for small sets,
  // e.g. in tests and garbage-collection polls).
  std::vector<uint64_t> Values() const;

  void Clear() { runs_.clear(); }

  // Values in both `a` and `b`: one linear merge of the two run lists.
  static IntervalSet Intersect(const IntervalSet& a, const IntervalSet& b);

  // Values in any of `sets`: one sort of all their runs and one coalescing
  // pass, so interleaved postings cost O(R log R), not a splice per run.
  static IntervalSet Union(std::vector<IntervalSet> sets);

  // Flat serialization: [count][begin,end]... little-endian u64s.
  std::vector<uint8_t> Serialize() const { return SerializeRuns(runs_); }

  // The same bytes for a slice of a canonical set's runs (a posting page
  // that splits one key's runs serializes each part alone).
  static std::vector<uint8_t> SerializeRuns(std::span<const Interval> runs);

  // Reads a serialized set in place. Corruption unless `size` is exactly
  // 8 + 16 * count and the runs are canonical (each non-empty, each
  // starting past the previous run's end).
  static Result<IntervalSet> Deserialize(const uint8_t* data, size_t size);

  bool operator==(const IntervalSet& other) const {
    return runs_ == other.runs_;
  }

 private:
  std::vector<Interval> runs_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_INTERVAL_SET_H_

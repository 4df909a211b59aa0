#include "common/interval_set.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cloudiq {

static_assert(sizeof(IntervalSet::Interval) == 2 * sizeof(uint64_t),
              "runs are copied to and from the wire as u64 pairs");

uint64_t IntervalSet::Count() const {
  uint64_t total = 0;
  for (const Interval& iv : runs_) total += iv.end - iv.begin;
  return total;
}

void IntervalSet::InsertRange(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  if (runs_.empty() || begin > runs_.back().end) {
    runs_.push_back({begin, end});
    return;
  }
  if (begin >= runs_.back().begin) {
    runs_.back().end = std::max(runs_.back().end, end);
    return;
  }
  // Runs that overlap or touch [begin, end) form [first, last).
  auto first = std::lower_bound(
      runs_.begin(), runs_.end(), begin,
      [](const Interval& iv, uint64_t v) { return iv.end < v; });
  auto last = std::upper_bound(
      first, runs_.end(), end,
      [](uint64_t v, const Interval& iv) { return v < iv.begin; });
  if (first == last) {
    runs_.insert(first, {begin, end});
    return;
  }
  first->begin = std::min(first->begin, begin);
  first->end = std::max(end, std::prev(last)->end);
  runs_.erase(std::next(first), last);
}

void IntervalSet::EraseRange(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  // The first run that ends past `begin` is the first one touched.
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), begin,
      [](const Interval& iv, uint64_t v) { return iv.end <= v; });
  if (it == runs_.end() || it->begin >= end) return;
  if (it->begin < begin && it->end > end) {
    // [begin, end) falls strictly inside one run: split it.
    uint64_t tail_end = it->end;
    it->end = begin;
    runs_.insert(std::next(it), {end, tail_end});
    return;
  }
  if (it->begin < begin) {
    it->end = begin;
    ++it;
  }
  auto covered_end = std::lower_bound(
      it, runs_.end(), end,
      [](const Interval& iv, uint64_t v) { return iv.end <= v; });
  it = runs_.erase(it, covered_end);
  if (it != runs_.end() && it->begin < end) it->begin = end;
}

bool IntervalSet::Contains(uint64_t value) const {
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), value,
      [](uint64_t v, const Interval& iv) { return v < iv.begin; });
  if (it == runs_.begin()) return false;
  return value < std::prev(it)->end;
}

uint64_t IntervalSet::Min() const {
  assert(!runs_.empty());
  return runs_.front().begin;
}

uint64_t IntervalSet::Max() const {
  assert(!runs_.empty());
  return runs_.back().end - 1;
}

std::vector<uint64_t> IntervalSet::Values() const {
  std::vector<uint64_t> out;
  out.reserve(Count());
  for (const Interval& iv : runs_) {
    for (uint64_t v = iv.begin; v < iv.end; ++v) out.push_back(v);
  }
  return out;
}

IntervalSet IntervalSet::Intersect(const IntervalSet& a,
                                   const IntervalSet& b) {
  IntervalSet out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.runs_.size() && j < b.runs_.size()) {
    const Interval& x = a.runs_[i];
    const Interval& y = b.runs_[j];
    uint64_t begin = std::max(x.begin, y.begin);
    uint64_t end = std::min(x.end, y.end);
    // Pieces come out ascending and separated by a gap of either input,
    // so they are already canonical.
    if (begin < end) out.runs_.push_back({begin, end});
    if (x.end < y.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

IntervalSet IntervalSet::Union(std::vector<IntervalSet> sets) {
  if (sets.empty()) return IntervalSet();
  if (sets.size() == 1) return std::move(sets.front());
  std::vector<Interval> all;
  size_t total = 0;
  for (const IntervalSet& s : sets) total += s.runs_.size();
  all.reserve(total);
  for (const IntervalSet& s : sets) {
    all.insert(all.end(), s.runs_.begin(), s.runs_.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Interval& x, const Interval& y) {
              return x.begin < y.begin;
            });
  IntervalSet out;
  for (const Interval& iv : all) {
    if (!out.runs_.empty() && iv.begin <= out.runs_.back().end) {
      out.runs_.back().end = std::max(out.runs_.back().end, iv.end);
    } else {
      out.runs_.push_back(iv);
    }
  }
  return out;
}

std::vector<uint8_t> IntervalSet::SerializeRuns(
    std::span<const Interval> runs) {
  uint64_t count = runs.size();
  std::vector<uint8_t> out(sizeof(uint64_t) + sizeof(Interval) * count);
  std::memcpy(out.data(), &count, sizeof(uint64_t));
  if (count > 0) {
    std::memcpy(out.data() + sizeof(uint64_t), runs.data(),
                sizeof(Interval) * count);
  }
  return out;
}

Result<IntervalSet> IntervalSet::Deserialize(const uint8_t* data,
                                             size_t size) {
  if (size < sizeof(uint64_t) ||
      (size - sizeof(uint64_t)) % sizeof(Interval) != 0) {
    return Status::Corruption("interval set: bad frame size");
  }
  uint64_t count = 0;
  std::memcpy(&count, data, sizeof(uint64_t));
  if (count != (size - sizeof(uint64_t)) / sizeof(Interval)) {
    return Status::Corruption("interval set: count does not match size");
  }
  IntervalSet set;
  set.runs_.resize(count);
  if (count > 0) {
    std::memcpy(set.runs_.data(), data + sizeof(uint64_t),
                sizeof(Interval) * count);
  }
  for (size_t i = 0; i < set.runs_.size(); ++i) {
    const Interval& iv = set.runs_[i];
    if (iv.begin >= iv.end ||
        (i > 0 && iv.begin <= set.runs_[i - 1].end)) {
      return Status::Corruption("interval set: runs not canonical");
    }
  }
  return set;
}

}  // namespace cloudiq

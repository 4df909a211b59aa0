#include "keygen/object_key_generator.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"

namespace cloudiq {

ObjectKeyGenerator::ObjectKeyGenerator(Options options)
    : options_(options), next_key_(options.first_key) {
  assert(options_.first_key >= (uint64_t{1} << 63) &&
         "object keys must live in [2^63, 2^64)");
}

ObjectKeyGenerator::ObjectKeyGenerator(ObjectKeyGenerator&& other) noexcept
    : options_(other.options_) {
  MutexLock theirs(&other.mu_);
  next_key_ = other.next_key_;
  active_sets_ = std::move(other.active_sets_);
  pending_log_ = std::move(other.pending_log_);
}

ObjectKeyGenerator& ObjectKeyGenerator::operator=(
    ObjectKeyGenerator&& other) noexcept {
  if (this == &other) return *this;
  // Two instances of the same class, so both mutexes carry the same
  // rank; address order would be nondeterministic, and move-assignment
  // runs single-threaded by contract (callers own both generators), so
  // the same-rank double acquire is safe here and nowhere else.
  ScopedLockRankBypass bypass;
  MutexLock mine(&mu_);
  // NOLINT(cloudiq-lock-order): same-rank sibling instance; single-threaded move-assignment, rank check bypassed above.
  MutexLock theirs(&other.mu_);
  options_ = other.options_;
  next_key_ = other.next_key_;
  active_sets_ = std::move(other.active_sets_);
  pending_log_ = std::move(other.pending_log_);
  return *this;
}

KeyRange ObjectKeyGenerator::AllocateRange(NodeId node, uint64_t size) {
  MutexLock lock(&mu_);
  size = std::clamp(size, options_.min_range_size, options_.max_range_size);
  KeyRange range{next_key_, next_key_ + size};
  next_key_ = range.end;
  active_sets_[node].InsertRange(range.begin, range.end);

  KeygenLogRecord rec;
  rec.type = KeygenLogRecord::Type::kAllocate;
  rec.node = node;
  rec.begin = range.begin;
  rec.end = range.end;
  pending_log_.push_back(std::move(rec));
  return range;
}

void ObjectKeyGenerator::OnTransactionCommitted(NodeId node,
                                                const IntervalSet& keys) {
  MutexLock lock(&mu_);
  auto it = active_sets_.find(node);
  if (it != active_sets_.end()) {
    for (const auto& iv : keys.Intervals()) {
      it->second.EraseRange(iv.begin, iv.end);
    }
  }
  KeygenLogRecord rec;
  rec.type = KeygenLogRecord::Type::kCommit;
  rec.node = node;
  rec.committed = keys;
  pending_log_.push_back(std::move(rec));
}

IntervalSet ObjectKeyGenerator::TakeActiveSetForRecovery(NodeId node) {
  MutexLock lock(&mu_);
  auto it = active_sets_.find(node);
  if (it == active_sets_.end()) return IntervalSet();
  IntervalSet set = std::move(it->second);
  active_sets_.erase(it);
  return set;
}

IntervalSet ObjectKeyGenerator::ActiveSet(NodeId node) const {
  MutexLock lock(&mu_);
  auto it = active_sets_.find(node);
  return it == active_sets_.end() ? IntervalSet() : it->second;
}

std::vector<uint8_t> ObjectKeyGenerator::Checkpoint() {
  MutexLock lock(&mu_);
  std::vector<uint8_t> out;
  PutU64(out, next_key_);
  PutU64(out, active_sets_.size());
  for (const auto& [node, set] : active_sets_) {
    PutU32(out, node);
    std::vector<uint8_t> set_bytes = set.Serialize();
    PutU64(out, set_bytes.size());
    PutBytes(out, set_bytes.data(), set_bytes.size());
  }
  pending_log_.clear();
  return out;
}

Result<ObjectKeyGenerator> ObjectKeyGenerator::Recover(
    const std::vector<uint8_t>& checkpoint,
    const std::vector<KeygenLogRecord>& log) {
  return Recover(checkpoint, log, Options());
}

Result<ObjectKeyGenerator> ObjectKeyGenerator::Recover(
    const std::vector<uint8_t>& checkpoint,
    const std::vector<KeygenLogRecord>& log, Options options) {
  ObjectKeyGenerator gen(options);
  {
    MutexLock lock(&gen.mu_);
    if (!checkpoint.empty()) {
      ByteReader reader(checkpoint);
      gen.next_key_ = reader.GetU64();
      uint64_t n = reader.GetU64();
      // Each active set takes at least a u32 node id and a u64 length.
      if (reader.overflow() || n > reader.remaining() / 12) {
        return Status::Corruption("keygen checkpoint: active-set count");
      }
      for (uint64_t i = 0; i < n; ++i) {
        NodeId node = reader.GetU32();
        uint64_t len = reader.GetU64();
        const uint8_t* set_bytes = reader.Skip(len);
        if (set_bytes == nullptr) {
          return Status::Corruption("keygen checkpoint: active set");
        }
        CLOUDIQ_ASSIGN_OR_RETURN(gen.active_sets_[node],
                                 IntervalSet::Deserialize(set_bytes, len));
      }
    }
    // Replay the transaction log in order, as the coordinator does after
    // the checkpointed state is loaded (Table 1, clock 120).
    for (const KeygenLogRecord& rec : log) {
      switch (rec.type) {
        case KeygenLogRecord::Type::kAllocate:
          gen.active_sets_[rec.node].InsertRange(rec.begin, rec.end);
          gen.next_key_ = std::max(gen.next_key_, rec.end);
          break;
        case KeygenLogRecord::Type::kCommit: {
          auto it = gen.active_sets_.find(rec.node);
          if (it != gen.active_sets_.end()) {
            for (const auto& iv : rec.committed.Intervals()) {
              it->second.EraseRange(iv.begin, iv.end);
            }
          }
          break;
        }
      }
    }
  }
  return gen;
}

NodeKeyCache::NodeKeyCache(RangeFetcher fetcher, Options options)
    : fetcher_(std::move(fetcher)),
      options_(options),
      next_request_size_(options.initial_range_size) {}

uint64_t NodeKeyCache::NextKey(double now) {
  MutexLock lock(&mu_);
  if (cursor_ >= range_.end) {
    // Adapt the request size to the observed consumption rate before
    // fetching: a node that burns through ranges quickly asks for bigger
    // ones (fewer coordinator RPCs); an idle node shrinks its footprint
    // (smaller active set to garbage collect after a crash).
    if (last_fetch_time_ >= 0) {
      double elapsed = now - last_fetch_time_;
      if (elapsed < options_.fast_exhaust_seconds) {
        next_request_size_ =
            std::min(options_.max_range_size, next_request_size_ * 2);
      } else if (elapsed > 10 * options_.fast_exhaust_seconds) {
        next_request_size_ =
            std::max(options_.min_range_size, next_request_size_ / 2);
      }
    }
    uint64_t request = next_request_size_;
    KeyRange fetched;
    {
      // The fetch is a coordinator RPC; release mu_ for its duration.
      MutexUnlock unlock(&mu_);
      fetched = fetcher_(request, now);
    }
    range_ = fetched;
    assert(!range_.empty() && "coordinator returned an empty key range");
    cursor_ = range_.begin;
    last_fetch_time_ = now;
    ++fetch_count_;
  }
  return cursor_++;
}

}  // namespace cloudiq

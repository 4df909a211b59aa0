#include "ocm/object_cache_manager.h"

#include <algorithm>
#include <cassert>

#include "common/random.h"

namespace cloudiq {

ObjectCacheManager::ObjectCacheManager(NodeContext* node, ObjectStoreIo* io,
                                       Options options)
    : node_(node),
      io_(io),
      options_(options),
      capacity_bytes_(node->ssd().CapacityBytes() *
                      options.capacity_fraction),
      telemetry_(&node->telemetry()),
      ledger_(&node->telemetry().ledger()),
      profiler_(&node->telemetry().profiler()),
      trace_pid_(node->trace_pid()),
      hit_latency_(&telemetry_->stats().histogram("ocm.hit")),
      miss_latency_(&telemetry_->stats().histogram("ocm.miss")),
      liveness_(std::make_shared<ObjectCacheManager*>(this)) {}

Result<std::vector<uint8_t>> ObjectCacheManager::Read(uint64_t key,
                                                      SimTime start,
                                                      SimTime* completion) {
  std::string ssd_key = FormatObjectKey(key);
  bool hit = false;
  bool reroute = false;
  {
    MutexLock lock(&mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      hit = true;
      ++stats_.hits;
      ledger_->RecordOcmHit();
      // Touch LRU.
      lru_.erase(it->second.lru_it);
      lru_.push_front(key);
      it->second.lru_it = lru_.begin();
      // Cache hit: read from local SSD. Under a flood of asynchronous
      // background writes the SSD's queues back up and this read can take
      // longer than the object store would — the Figure 6 brown-out. The
      // optional mitigation re-routes the read to the object store when
      // the device backlog exceeds the threshold. (BacklogSeconds is a
      // pure queue-depth query; no I/O runs under mu_.)
      reroute = options_.reroute_on_pressure &&
                node_->ssd().BacklogSeconds(start) >
                    options_.reroute_backlog_seconds;
      if (reroute) ++stats_.rerouted_reads;
    } else {
      // A write-back page still awaiting upload is readable from its queue
      // entry (the storage subsystem normally serves such reads from the
      // RAM buffer, but correctness must not depend on that).
      for (const PendingWrite& pw : write_queue_) {
        if (pw.key == key) {
          *completion = start;  // in-memory
          ++stats_.hits;
          ledger_->RecordOcmHit();
          return pw.data;
        }
      }
      ++stats_.misses;
      ledger_->RecordOcmMiss();
    }
  }

  if (hit) {
    if (reroute) {
      if (telemetry_->tracer().enabled()) {
        telemetry_->tracer().Instant(trace_pid_, kTrackOcm, "ocm",
                                     "reroute (SSD pressure)", start);
      }
      Result<std::vector<uint8_t>> rerouted =
          io_->Get(key, start, completion);
      if (rerouted.ok()) hit_latency_->Record(*completion - start);
      return rerouted;
    }
    Result<std::vector<uint8_t>> r =
        node_->ssd().Read(ssd_key, start, completion);
    if (r.ok()) {
      profiler_->Charge(WaitClass::kOcmFetch, start, *completion);
      hit_latency_->Record(*completion - start);
      if (telemetry_->tracer().enabled()) {
        telemetry_->tracer().CompleteSpan(trace_pid_, kTrackOcm, "ocm",
                                          "hit " + FormatObjectKey(key),
                                          start, *completion);
      }
      return r;
    }
    // Local copy unreadable: fall back to the object store; drop the entry.
    Erase(key);
  }

  // Read-through: fetch from the object store, hand the page to the
  // caller, and cache it on the SSD asynchronously.
  CLOUDIQ_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                           io_->Get(key, start, completion));
  miss_latency_->Record(*completion - start);
  if (telemetry_->tracer().enabled()) {
    telemetry_->tracer().CompleteSpan(trace_pid_, kTrackOcm, "ocm",
                                      "miss " + FormatObjectKey(key),
                                      start, *completion);
  }
  ScheduleCacheFill(key, data, *completion);
  return data;
}

bool ObjectCacheManager::Resident(uint64_t key) const {
  MutexLock lock(&mu_);
  if (index_.find(key) != index_.end()) return true;
  for (const PendingWrite& pw : write_queue_) {
    if (pw.key == key) return true;
  }
  return false;
}

void ObjectCacheManager::ScheduleCacheFill(uint64_t key,
                                           std::vector<uint8_t> data,
                                           SimTime at) {
  NodeContext* node = node_;
  std::weak_ptr<ObjectCacheManager*> alive = liveness_;
  AttributionContext attr = ledger_->current();
  node_->executor().Schedule(
      at + kBackgroundDelay,
      [alive, node, key, at, attr = std::move(attr),
       data = std::move(data)](SimTime run_at) mutable {
        auto token = alive.lock();
        if (!token) return;  // the OCM is gone (instance restart)
        ObjectCacheManager* self = *token;
        ScopedAttribution scope(self->ledger_, std::move(attr));
        // Deferred work consumes no foreground wall time: its queue wait
        // and SSD write book as background (shadow) nanos under the
        // enqueuing query, so cache-fill stalls don't vanish from the
        // breakdown.
        ScopedBackgroundStall bg(self->profiler_);
        self->profiler_->Charge(WaitClass::kOcmFetch, at, run_at);
        self->ledger_->RecordOcmFill();
        SimTime done = run_at;
        uint64_t bytes = data.size();
        Status st = node->ssd().Write(FormatObjectKey(key), std::move(data),
                                      run_at, &done);
        self->profiler_->Charge(WaitClass::kOcmFetch, run_at, done);
        if (!st.ok()) {
          // §4: local cache write failures are ignored.
          MutexLock lock(&self->mu_);
          ++self->stats_.local_write_errors_ignored;
          return;
        }
        self->AdmitToLru(key, bytes);
      });
}

Status ObjectCacheManager::Write(uint64_t key, std::vector<uint8_t> data,
                                 WriteMode mode, uint64_t txn_id,
                                 SimTime start, SimTime* completion) {
  {
    // A transaction that has signalled FlushForCommit writes through from
    // then on (§4).
    MutexLock lock(&mu_);
    if (committing_txns_.count(txn_id) > 0) mode = WriteMode::kWriteThrough;
    if (mode == WriteMode::kWriteThrough) ++stats_.write_through;
  }

  if (mode == WriteMode::kWriteThrough) {
    // Synchronous upload; asynchronous local caching.
    CLOUDIQ_RETURN_IF_ERROR(io_->Put(key, data, start, completion));
    if (telemetry_->tracer().enabled()) {
      telemetry_->tracer().CompleteSpan(
          trace_pid_, kTrackOcm, "ocm",
          "write-through " + FormatObjectKey(key), start, *completion);
    }
    ScheduleCacheFill(key, std::move(data), *completion);
    return Status::Ok();
  }

  // Write-back: synchronous SSD write, asynchronous upload. Latency seen
  // by the caller is the SSD's.
  std::string ssd_key = FormatObjectKey(key);
  bool on_ssd = true;
  Status local = node_->ssd().Write(ssd_key, data, start, completion);
  if (!local.ok()) {
    // Ignore the local error; the upload below is what matters.
    on_ssd = false;
    *completion = start;
  } else {
    profiler_->Charge(WaitClass::kOcmUpload, start, *completion);
  }
  if (telemetry_->tracer().enabled()) {
    telemetry_->tracer().CompleteSpan(trace_pid_, kTrackOcm, "ocm",
                                      "write-back " + FormatObjectKey(key),
                                      start, *completion);
  }
  {
    MutexLock lock(&mu_);
    if (!local.ok()) ++stats_.local_write_errors_ignored;
    pending_bytes_ += data.size();
    write_queue_.push_back(PendingWrite{key, txn_id, std::move(data),
                                        on_ssd, ledger_->current(),
                                        /*enqueued_at=*/*completion});
  }

  // Kick the background pump.
  std::weak_ptr<ObjectCacheManager*> alive = liveness_;
  node_->executor().Schedule(
      *completion + kBackgroundDelay, [alive](SimTime run_at) {
        if (auto token = alive.lock()) (*token)->PumpOne(run_at);
      });
  return Status::Ok();
}

void ObjectCacheManager::PumpOne(SimTime run_at) {
  PendingWrite pw;
  {
    MutexLock lock(&mu_);
    if (write_queue_.empty()) return;
    pw = std::move(write_queue_.front());
    write_queue_.pop_front();
    pending_bytes_ -= pw.data.size();
    ++stats_.background_uploads;
  }

  // Bill the upload (and any retries inside it) to the enqueuing query.
  ScopedAttribution scope(ledger_, pw.attr);
  // The whole drain — queue wait since enqueue plus the upload itself —
  // books as background (shadow) time under the enqueuing query.
  ScopedBackgroundStall bg(profiler_);
  profiler_->Charge(WaitClass::kOcmUpload, pw.enqueued_at, run_at);
  ledger_->RecordOcmUpload();
  SimTime done = run_at;
  Status st = io_->Put(pw.key, pw.data, run_at, &done);
  if (telemetry_->tracer().enabled()) {
    telemetry_->tracer().CompleteSpan(
        trace_pid_, kTrackOcm, "ocm",
        "bg upload " + FormatObjectKey(pw.key), run_at, done);
  }
  if (!st.ok()) {
    // Upload ultimately failed (ObjectStoreIo already retried): the page
    // is not durable. Drop the local copy; the owning transaction will
    // observe the failure at FlushForCommit / flush time and roll back.
    if (pw.on_ssd) node_->ssd().Erase(FormatObjectKey(pw.key));
    return;
  }
  // Only now does the page enter the LRU (§4's "not added to the LRU list
  // until it has been successfully written to the underlying object
  // store").
  if (pw.on_ssd) AdmitToLru(pw.key, pw.data.size());
}

Status ObjectCacheManager::FlushForCommit(uint64_t txn_id, SimTime start,
                                          SimTime* completion) {
  *completion = start;

  // Pull the committing transaction's queued uploads to the head of the
  // queue, then execute them immediately (prioritizing all previously
  // started background jobs for that transaction).
  std::vector<PendingWrite> mine;
  {
    MutexLock lock(&mu_);
    committing_txns_.insert(txn_id);
    std::deque<PendingWrite> rest;
    for (PendingWrite& pw : write_queue_) {
      if (pw.txn_id == txn_id) {
        pending_bytes_ -= pw.data.size();
        mine.push_back(std::move(pw));
      } else {
        rest.push_back(std::move(pw));
      }
    }
    write_queue_ = std::move(rest);
    stats_.commit_promotions += mine.size();
  }

  // The promoted writes waited in the background queue since enqueue;
  // book that wait as background time under each write's own attribution
  // before the foreground uploads start (the uploads themselves advance
  // the node clock and charge inside the parallel section below).
  for (const PendingWrite& pw : mine) {
    ScopedAttribution attr_scope(ledger_, pw.attr);
    ScopedBackgroundStall bg(profiler_);
    profiler_->Charge(WaitClass::kOcmUpload, pw.enqueued_at, start);
  }

  // Upload in parallel using the node's I/O width.
  std::vector<IoScheduler::Op> ops;
  auto statuses = std::make_shared<std::vector<Status>>(mine.size());
  auto pages = std::make_shared<std::vector<PendingWrite>>(std::move(mine));
  ObjectStoreIo* io = io_;
  CostLedger* ledger = ledger_;
  for (size_t i = 0; i < pages->size(); ++i) {
    ops.push_back([io, ledger, pages, statuses, i](SimTime t) {
      // Promoted uploads keep the attribution they were enqueued under.
      ScopedAttribution scope(ledger, (*pages)[i].attr);
      ledger->RecordOcmUpload();
      SimTime done = t;
      (*statuses)[i] = io->Put((*pages)[i].key, (*pages)[i].data, t, &done);
      return done;
    });
  }
  SimTime before = node_->clock().now();
  node_->clock().AdvanceTo(start);
  node_->io().RunParallel(ops, node_->IoWidth());
  *completion = std::max(node_->clock().now(), before);
  if (telemetry_->tracer().enabled() && !pages->empty()) {
    telemetry_->tracer().CompleteSpan(
        trace_pid_, kTrackOcm, "ocm",
        "flush-for-commit (" + std::to_string(pages->size()) + " uploads)",
        start, *completion);
  }

  for (size_t i = 0; i < pages->size(); ++i) {
    const PendingWrite& pw = (*pages)[i];
    if (!(*statuses)[i].ok()) {
      if (pw.on_ssd) node_->ssd().Erase(FormatObjectKey(pw.key));
      return (*statuses)[i];
    }
    if (pw.on_ssd) AdmitToLru(pw.key, pw.data.size());
  }
  return Status::Ok();
}

void ObjectCacheManager::AbortTxn(uint64_t txn_id) {
  // LocalSsd::Erase is metadata-only (no simulated I/O, no executor
  // drain), so it is safe under mu_.
  MutexLock lock(&mu_);
  committing_txns_.erase(txn_id);
  std::deque<PendingWrite> rest;
  for (PendingWrite& pw : write_queue_) {
    if (pw.txn_id == txn_id) {
      pending_bytes_ -= pw.data.size();
      if (pw.on_ssd) node_->ssd().Erase(FormatObjectKey(pw.key));
    } else {
      rest.push_back(std::move(pw));
    }
  }
  write_queue_ = std::move(rest);
}

void ObjectCacheManager::Erase(uint64_t key) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  cached_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  index_.erase(it);
  node_->ssd().Erase(FormatObjectKey(key));
}

void ObjectCacheManager::AdmitToLru(uint64_t key, uint64_t bytes) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.erase(it->second.lru_it);
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
    return;
  }
  lru_.push_front(key);
  index_[key] = Entry{bytes, lru_.begin()};
  cached_bytes_ += bytes;
  EvictIfNeeded();
}

void ObjectCacheManager::EvictIfNeeded() {
  while (cached_bytes_ + pending_bytes_ > capacity_bytes_ && !lru_.empty()) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = index_.find(victim);
    assert(it != index_.end());
    cached_bytes_ -= it->second.bytes;
    index_.erase(it);
    node_->ssd().Erase(FormatObjectKey(victim));
    ++stats_.evictions;
    if (telemetry_->tracer().enabled()) {
      telemetry_->tracer().Instant(trace_pid_, kTrackOcm, "ocm",
                                   "evict " + FormatObjectKey(victim),
                                   node_->clock().now());
    }
  }
}

}  // namespace cloudiq

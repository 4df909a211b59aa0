#include "store/object_store_io.h"

#include <cstdio>

#include "common/random.h"

namespace cloudiq {

void ObjectStoreIo::set_telemetry(Telemetry* telemetry,
                                  uint32_t trace_pid) {
  telemetry_ = telemetry;
  trace_pid_ = trace_pid;
  if (telemetry == nullptr) {
    get_latency_ = put_latency_ = select_latency_ = nullptr;
    ledger_ = nullptr;
    profiler_ = nullptr;
    return;
  }
  get_latency_ = &telemetry->stats().histogram("io.get");
  put_latency_ = &telemetry->stats().histogram("io.put");
  select_latency_ = &telemetry->stats().histogram("io.select");
  ledger_ = &telemetry->ledger();
  profiler_ = &telemetry->profiler();
}

std::string ObjectStoreIo::StoreKey(uint64_t key) const {
  if (options_.hashed_prefixes) return FormatObjectKey(key);
  // Ablation: a single shared prefix funnels all requests into one
  // rate-limit bucket.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "data/%016llx",
                static_cast<unsigned long long>(key));
  return std::string(buf);
}

Status ObjectStoreIo::Put(uint64_t key, const std::vector<uint8_t>& frame,
                          SimTime start, SimTime* completion) {
  std::string store_key = StoreKey(key);
  SimTime t = start;
  for (int attempt = 0;; ++attempt) {
    SimTime nic_done = nic_->Transfer(frame.size(), t);
    if (profiler_ != nullptr) {
      profiler_->Charge(WaitClass::kNetworkTransfer, t, nic_done);
    }
    Status st = store_->Put(store_key, frame, nic_done, completion);
    if (st.ok()) {
      if (put_latency_ != nullptr) put_latency_->Record(*completion - start);
      if (telemetry_ != nullptr && telemetry_->tracer().enabled()) {
        telemetry_->tracer().CompleteSpan(trace_pid_, kTrackStoreIo, "io",
                                          "put " + store_key, start,
                                          *completion);
      }
      return st;
    }
    ++stats_.transient_retries;
    if (ledger_ != nullptr) ledger_->RecordRetry(/*not_found=*/false);
    if (telemetry_ != nullptr && telemetry_->tracer().enabled()) {
      telemetry_->tracer().Instant(trace_pid_, kTrackStoreIo, "io",
                                   "transient retry " + store_key,
                                   *completion);
    }
    if (attempt >= options_.max_transient_retries) {
      // §4: "after a pre-determined number of failures of the same page,
      // the transaction is rolled back."
      return Status::Aborted("PUT retries exhausted for key " + store_key);
    }
    t = *completion;
  }
}

Result<std::vector<uint8_t>> ObjectStoreIo::Get(uint64_t key, SimTime start,
                                                SimTime* completion) {
  std::string store_key = StoreKey(key);
  SimTime t = start;
  double backoff = kNotFoundBackoff;
  int not_found = 0;
  int transient = 0;
  for (;;) {
    Result<std::vector<uint8_t>> r = store_->Get(store_key, t, completion);
    if (r.ok()) {
      // NIC transfer of the downloaded bytes.
      SimTime store_done = *completion;
      *completion = nic_->Transfer(r.value().size(), store_done);
      if (profiler_ != nullptr) {
        profiler_->Charge(WaitClass::kNetworkTransfer, store_done,
                          *completion);
      }
      if (get_latency_ != nullptr) get_latency_->Record(*completion - start);
      if (telemetry_ != nullptr && telemetry_->tracer().enabled()) {
        telemetry_->tracer().CompleteSpan(trace_pid_, kTrackStoreIo, "io",
                                          "get " + store_key, start,
                                          *completion);
      }
      return r;
    }
    if (r.status().IsNotFound()) {
      // Eventual consistency: the one-and-only version of this object may
      // simply not be visible yet. Back off and retry (§3: "we have
      // modified the storage subsystem to retry until the object is
      // found, up to a configurable number of retries").
      if (++not_found > kMaxNotFoundRetries) return r.status();
      ++stats_.not_found_retries;
      if (ledger_ != nullptr) ledger_->RecordRetry(/*not_found=*/true);
      if (telemetry_ != nullptr && telemetry_->tracer().enabled()) {
        telemetry_->tracer().Instant(trace_pid_, kTrackStoreIo, "io",
                                     "NOT_FOUND retry " + store_key,
                                     *completion);
      }
      t = *completion + backoff;
      if (profiler_ != nullptr) {
        profiler_->Charge(WaitClass::kThrottleBackoff, *completion, t);
      }
      backoff *= 2;
      continue;
    }
    if (++transient > options_.max_transient_retries) return r.status();
    ++stats_.transient_retries;
    if (ledger_ != nullptr) ledger_->RecordRetry(/*not_found=*/false);
    t = *completion;
  }
}

Result<std::vector<uint8_t>> ObjectStoreIo::Select(
    const std::vector<uint8_t>& request, SimTime start, SimTime* completion,
    uint64_t* bytes_scanned) {
  if (bytes_scanned != nullptr) *bytes_scanned = 0;
  SimTime t = start;
  double backoff = kNotFoundBackoff;
  int not_found = 0;
  int transient = 0;
  for (;;) {
    // The request itself crosses the NIC (it is tiny next to the pages
    // it spares).
    SimTime nic_done = nic_->Transfer(request.size(), t);
    if (profiler_ != nullptr) {
      profiler_->Charge(WaitClass::kNetworkTransfer, t, nic_done);
    }
    uint64_t scanned = 0;
    Result<std::vector<uint8_t>> r =
        store_->Select(request, nic_done, completion, &scanned);
    if (r.ok()) {
      SimTime store_done = *completion;
      *completion = nic_->Transfer(r.value().size(), store_done);
      if (profiler_ != nullptr) {
        profiler_->Charge(WaitClass::kNetworkTransfer, store_done,
                          *completion);
      }
      ++stats_.selects;
      stats_.select_request_bytes += request.size();
      stats_.select_returned_bytes += r.value().size();
      if (bytes_scanned != nullptr) *bytes_scanned = scanned;
      if (select_latency_ != nullptr) {
        select_latency_->Record(*completion - start);
      }
      if (telemetry_ != nullptr && telemetry_->tracer().enabled()) {
        telemetry_->tracer().CompleteSpan(trace_pid_, kTrackStoreIo, "io",
                                          "select", start, *completion);
      }
      return r;
    }
    if (r.status().IsNotFound()) {
      // A referenced page lost the §3 visibility race; back off and let
      // it become visible, exactly like a Get.
      if (++not_found > kMaxNotFoundRetries) return r.status();
      ++stats_.not_found_retries;
      if (ledger_ != nullptr) ledger_->RecordRetry(/*not_found=*/true);
      if (telemetry_ != nullptr && telemetry_->tracer().enabled()) {
        telemetry_->tracer().Instant(trace_pid_, kTrackStoreIo, "io",
                                     "NOT_FOUND retry (select)",
                                     *completion);
      }
      t = *completion + backoff;
      if (profiler_ != nullptr) {
        profiler_->Charge(WaitClass::kThrottleBackoff, *completion, t);
      }
      backoff *= 2;
      continue;
    }
    if (r.status().IsNotSupported() || r.status().IsInvalidArgument()) {
      // No engine installed or the server cannot evaluate the request
      // (e.g. encrypted pages): not retryable — the caller falls back to
      // pulling pages.
      return r.status();
    }
    if (++transient > options_.max_transient_retries) return r.status();
    ++stats_.transient_retries;
    if (ledger_ != nullptr) ledger_->RecordRetry(/*not_found=*/false);
    t = *completion;
  }
}

bool ObjectStoreIo::Exists(uint64_t key, SimTime start,
                           SimTime* completion) {
  return store_->Exists(StoreKey(key), start, completion);
}

Status ObjectStoreIo::Delete(uint64_t key, SimTime start,
                             SimTime* completion) {
  return store_->Delete(StoreKey(key), start, completion);
}

}  // namespace cloudiq

#include "sim/object_store.h"

#include <algorithm>

namespace cloudiq {

SimObjectStore::SimObjectStore(ObjectStoreOptions options)
    : options_(options), rng_(options.seed), streams_(kStreams) {}

void SimObjectStore::set_telemetry(Telemetry* telemetry) {
  MutexLock lock(&mu_);
  telemetry_ = telemetry;
  if (telemetry == nullptr) {
    get_latency_ = put_latency_ = delete_latency_ = nullptr;
    select_latency_ = nullptr;
    ledger_ = nullptr;
    profiler_ = nullptr;
    return;
  }
  get_latency_ = &telemetry->stats().histogram("s3.get");
  put_latency_ = &telemetry->stats().histogram("s3.put");
  delete_latency_ = &telemetry->stats().histogram("s3.delete");
  select_latency_ = &telemetry->stats().histogram("s3.select");
  ledger_ = &telemetry->ledger();
  profiler_ = &telemetry->profiler();
}

std::string SimObjectStore::PrefixOf(const std::string& key) {
  size_t slash = key.find('/');
  if (slash == std::string::npos) return key;
  return key.substr(0, slash);
}

SimTime SimObjectStore::ServiceRequest(const std::string& key, bool is_put,
                                       uint64_t bytes, SimTime arrival,
                                       double base_latency, WaitClass wait,
                                       double server_seconds) {
  // Per-prefix request-rate pacing (the S3 "optimizing performance"
  // limits the paper works around with hashed prefixes).
  std::string prefix = PrefixOf(key);
  auto& pacers = is_put ? put_pacers_ : get_pacers_;
  double rate =
      is_put ? options_.per_prefix_put_rate : options_.per_prefix_get_rate;
  auto [it, inserted] = pacers.try_emplace(prefix, rate);
  SimTime admitted = it->second.Admit(arrival);
  bool throttled = admitted > arrival + 1e-12;
  double stall = throttled ? admitted - arrival : 0;
  if (throttled) {
    ++stats_.throttle_events;
    if (telemetry_ != nullptr && telemetry_->tracer().enabled()) {
      telemetry_->tracer().Instant(kClusterPid, kTrackObjectStore, "s3",
                                   "throttle " + prefix, arrival);
    }
  }
  if (ledger_ != nullptr) {
    ledger_->RecordPrefix(prefix, throttled, stall);
    if (throttled) ledger_->RecordThrottle(stall);
  }

  // Bound pacer-map growth: hashed prefixes are effectively unique, so
  // stale entries (whose pacing can no longer matter) dominate. Flush the
  // maps wholesale once they get large; in-window pacing state for hot
  // prefixes is rebuilt on the next request.
  if (pacers.size() > 200000) {
    auto hot = pacers.extract(prefix);
    pacers.clear();
    pacers.insert(std::move(hot));
  }

  double transfer = static_cast<double>(bytes) / options_.stream_bandwidth;
  // Mild deterministic-seeded jitter so request times are not lockstep.
  double jitter = rng_.Exponential(base_latency * 0.15);
  SimTime completion = streams_.Submit(
      admitted, transfer, base_latency + server_seconds + jitter);
  // Tile the request's window into the stall ledger: pacer stall first,
  // the rest (queueing behind other streams + latency + transfer) is the
  // request's own wait class.
  if (profiler_ != nullptr) {
    profiler_->Charge(WaitClass::kThrottleBackoff, arrival, admitted);
    profiler_->Charge(wait, admitted, completion);
  }
  return completion;
}

void SimObjectStore::BookLocked(Op op, SimTime arrival, SimTime completion,
                                const std::string& what, uint64_t bytes,
                                uint64_t returned) {
  const char* verb = nullptr;
  Histogram* latency = nullptr;
  CostLedger::Request kind = CostLedger::Request::kGet;  // unused by SELECT
  switch (op) {
    case Op::kPut:
      ++stats_.puts;
      stats_.put_bytes += bytes;
      kind = CostLedger::Request::kPut;
      verb = "PUT";
      latency = put_latency_;
      break;
    case Op::kGet:
      ++stats_.gets;
      stats_.get_bytes += bytes;
      kind = CostLedger::Request::kGet;
      verb = "GET";
      latency = get_latency_;
      break;
    case Op::kHead:
      ++stats_.gets;  // HEAD is billed like GET
      kind = CostLedger::Request::kHead;
      break;
    case Op::kDelete:
      ++stats_.deletes;  // billed at the PUT rate
      kind = CostLedger::Request::kDelete;
      verb = "DELETE";
      latency = delete_latency_;
      break;
    case Op::kRangedGet:
      ++stats_.ranged_gets;
      stats_.get_bytes += bytes;
      kind = CostLedger::Request::kRangedGet;
      verb = "ranged GET";
      latency = get_latency_;
      break;
    case Op::kSelect:
      ++stats_.selects;
      stats_.select_scanned_bytes += bytes;
      stats_.select_returned_bytes += returned;
      verb = "SELECT";
      latency = select_latency_;
      break;
  }
  if (ledger_ != nullptr) {
    if (op == Op::kSelect) {
      ledger_->RecordSelect(bytes, returned);
    } else {
      ledger_->RecordRequest(kind, bytes);
    }
  }
  if (latency != nullptr) latency->Record(completion - arrival);
  if (verb != nullptr && telemetry_ != nullptr &&
      telemetry_->tracer().enabled()) {
    telemetry_->tracer().CompleteSpan(kClusterPid, kTrackObjectStore, "s3",
                                      std::string(verb) + " " + what,
                                      arrival, completion);
  }
}

const SimObjectStore::Version* SimObjectStore::VisibleLocked(
    const std::string& key, SimTime at, const Version** newest) const {
  *newest = nullptr;
  const Version* newest_visible = nullptr;
  auto it = objects_.find(key);
  if (it == objects_.end()) return nullptr;
  for (const Version& v : it->second.versions) {
    *newest = &v;
    if (v.visible_at <= at) newest_visible = &v;
  }
  return newest_visible;
}

void SimObjectStore::NoteMissLocked(const std::string& key,
                                    const Version* newest, SimTime arrival) {
  if (newest == nullptr || newest->is_delete) return;
  ++stats_.not_found_races;
  if (telemetry_ != nullptr && telemetry_->tracer().enabled()) {
    telemetry_->tracer().Instant(kClusterPid, kTrackObjectStore, "s3",
                                 "visibility race " + key, arrival);
  }
}

Status SimObjectStore::Put(const std::string& key,
                           std::vector<uint8_t> value, SimTime arrival,
                           SimTime* completion) {
  MutexLock lock(&mu_);
  if (options_.enforce_never_write_twice && objects_.count(key) > 0) {
    // Tripwire for the paper's core invariant: the engine must never PUT
    // the same object key twice, even after deleting it (a delete marker
    // still counts as "ever written" — reusing the key would resurrect
    // the §3 eventual-consistency scenarios the keygen design rules out).
    return Status::AlreadyExists("never-write-twice violation: " + key);
  }
  *completion = ServiceRequest(key, /*is_put=*/true, value.size(), arrival,
                               options_.put_base_latency);
  BookLocked(Op::kPut, arrival, *completion, key, value.size());
  if (options_.transient_error_rate > 0 &&
      rng_.Bernoulli(options_.transient_error_rate)) {
    return Status::IoError("simulated transient PUT failure");
  }

  SimTime visible_at = *completion;
  if (rng_.Bernoulli(options_.lag_probability)) {
    visible_at += rng_.Exponential(options_.mean_visibility_lag);
  }
  Object& obj = objects_[key];
  if (!obj.versions.empty()) ++stats_.overwrites;
  // Versions are kept in *creation* order: the store eventually converges
  // to the last mutation issued, even when an earlier mutation's
  // visibility lag outlasts a later one's.
  obj.versions.push_back({visible_at, /*is_delete=*/false, std::move(value)});
  return Status::Ok();
}

Result<std::vector<uint8_t>> SimObjectStore::Get(const std::string& key,
                                                 SimTime arrival,
                                                 SimTime* completion) {
  MutexLock lock(&mu_);
  const Version* newest = nullptr;
  const Version* newest_visible = VisibleLocked(key, arrival, &newest);

  if (newest_visible == nullptr || newest_visible->is_delete) {
    // Nothing visible: either the key truly does not exist, or we raced
    // eventual consistency (scenario 3).
    *completion = ServiceRequest(key, /*is_put=*/false, /*bytes=*/0, arrival,
                                 options_.get_base_latency);
    BookLocked(Op::kGet, arrival, *completion, key + " -> NOT_FOUND");
    NoteMissLocked(key, newest, arrival);
    if (options_.transient_error_rate > 0 &&
        rng_.Bernoulli(options_.transient_error_rate)) {
      return Status::IoError("simulated transient GET failure");
    }
    return Status::NotFound(key);
  }

  uint64_t size = newest_visible->value.size();
  *completion = ServiceRequest(key, /*is_put=*/false, size, arrival,
                               options_.get_base_latency);
  BookLocked(Op::kGet, arrival, *completion, key, size);
  if (newest_visible != newest) ++stats_.stale_reads;  // scenario 2
  if (options_.transient_error_rate > 0 &&
      rng_.Bernoulli(options_.transient_error_rate)) {
    return Status::IoError("simulated transient GET failure");
  }
  return newest_visible->value;
}

bool SimObjectStore::Exists(const std::string& key, SimTime arrival,
                            SimTime* completion) {
  MutexLock lock(&mu_);
  *completion = ServiceRequest(key, /*is_put=*/false, /*bytes=*/0, arrival,
                               options_.get_base_latency);
  BookLocked(Op::kHead, arrival, *completion, key);
  const Version* newest = nullptr;
  const Version* newest_visible = VisibleLocked(key, arrival, &newest);
  return newest_visible != nullptr && !newest_visible->is_delete;
}

Status SimObjectStore::Delete(const std::string& key, SimTime arrival,
                              SimTime* completion) {
  MutexLock lock(&mu_);
  *completion = ServiceRequest(key, /*is_put=*/true, /*bytes=*/0, arrival,
                               options_.put_base_latency);
  BookLocked(Op::kDelete, arrival, *completion, key);
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::Ok();  // idempotent
  SimTime visible_at = *completion;
  if (rng_.Bernoulli(options_.lag_probability)) {
    visible_at += rng_.Exponential(options_.mean_visibility_lag);
  }
  it->second.versions.push_back({visible_at, /*is_delete=*/true, {}});
  return Status::Ok();
}

// Every SELECT is billed — even one that loses the §3 visibility race
// or fails server-side (the server still parsed and dispatched it).
Result<std::vector<uint8_t>> SimObjectStore::Select(
    const std::vector<uint8_t>& request, SimTime arrival,
    SimTime* completion, uint64_t* bytes_scanned, uint64_t* bytes_returned) {
  MutexLock lock(&mu_);
  if (bytes_scanned != nullptr) *bytes_scanned = 0;
  if (bytes_returned != nullptr) *bytes_returned = 0;
  if (ndp_engine_ == nullptr) {
    return Status::NotSupported("object store has no NDP engine");
  }

  Result<std::vector<std::string>> keys = ndp_engine_->KeysOf(request);
  if (!keys.ok()) return keys.status();
  if (keys.value().empty()) {
    return Status::InvalidArgument("NDP request references no pages");
  }
  const std::string& first_key = keys.value().front();

  // Resolve every referenced page to its newest visible version. A
  // single invisible page fails the whole request: the consumer retries
  // with backoff exactly like a NOT_FOUND Get.
  std::vector<const std::vector<uint8_t>*> pages;
  pages.reserve(keys.value().size());
  uint64_t scanned = 0;
  for (const std::string& key : keys.value()) {
    const Version* newest = nullptr;
    const Version* newest_visible = VisibleLocked(key, arrival, &newest);
    if (newest_visible == nullptr || newest_visible->is_delete) {
      *completion = ServiceRequest(first_key, /*is_put=*/false, /*bytes=*/0,
                                   arrival, options_.get_base_latency);
      BookLocked(Op::kSelect, arrival, *completion, key + " -> NOT_FOUND");
      NoteMissLocked(key, newest, arrival);
      return Status::NotFound(key);
    }
    scanned += newest_visible->value.size();
    pages.push_back(&newest_visible->value);
  }

  Result<std::vector<uint8_t>> result = ndp_engine_->Execute(request, pages);
  if (!result.ok()) {
    *completion = ServiceRequest(first_key, /*is_put=*/false, /*bytes=*/0,
                                 arrival, options_.get_base_latency);
    BookLocked(Op::kSelect, arrival, *completion, first_key + " -> FAILED");
    return result.status();
  }
  uint64_t returned = result.value().size();

  // Latency: per-prefix GET pacing on the first page's prefix, a SELECT
  // time-to-first-byte, the server-side scan at select_scan_bandwidth,
  // then only the result bytes transferred through a connection stream.
  // A pushed-down SELECT's post-pacer window is server-side scan plus the
  // (much smaller) result transfer; the whole of it is the price of
  // choosing pushdown, so it books as kNdpSelect rather than splitting
  // hairs between scan and result bytes.
  double scan_time =
      static_cast<double>(scanned) / options_.select_scan_bandwidth;
  *completion = ServiceRequest(first_key, /*is_put=*/false, returned,
                               arrival, options_.select_base_latency,
                               WaitClass::kNdpSelect, scan_time);
  BookLocked(Op::kSelect, arrival, *completion,
             "(" + std::to_string(pages.size()) + " pages, " +
                 std::to_string(scanned) + " -> " +
                 std::to_string(returned) + " B)",
             scanned, returned);
  if (bytes_scanned != nullptr) *bytes_scanned = scanned;
  if (bytes_returned != nullptr) *bytes_returned = returned;
  if (options_.transient_error_rate > 0 &&
      rng_.Bernoulli(options_.transient_error_rate)) {
    return Status::IoError("simulated transient SELECT failure");
  }
  return result;
}

SimTime SimObjectStore::ExternalRead(uint64_t bytes, SimTime arrival) {
  MutexLock lock(&mu_);
  // Streamed as 8 MB ranged GETs over multiple connections.
  constexpr uint64_t kPartBytes = 8 << 20;
  uint64_t parts = (bytes + kPartBytes - 1) / kPartBytes;
  SimTime done = arrival;
  for (uint64_t i = 0; i < parts; ++i) {
    uint64_t part = std::min(kPartBytes, bytes - i * kPartBytes);
    double transfer = static_cast<double>(part) / options_.stream_bandwidth;
    SimTime part_done = streams_.Submit(arrival, transfer,
                                        options_.get_base_latency);
    BookLocked(Op::kRangedGet, arrival, part_done,
               "(" + std::to_string(part) + " B)", part);
    done = std::max(done, part_done);
  }
  // The parts stream concurrently; charge the covering window once.
  if (profiler_ != nullptr) {
    profiler_->Charge(WaitClass::kNetworkTransfer, arrival, done);
  }
  return done;
}

uint64_t SimObjectStore::LiveObjectCount() const {
  MutexLock lock(&mu_);
  uint64_t count = 0;
  for (const auto& [key, obj] : objects_) {
    if (!obj.versions.empty() && !obj.versions.back().is_delete) ++count;
  }
  return count;
}

uint64_t SimObjectStore::LiveBytes() const {
  MutexLock lock(&mu_);
  uint64_t bytes = 0;
  for (const auto& [key, obj] : objects_) {
    if (!obj.versions.empty() && !obj.versions.back().is_delete) {
      bytes += obj.versions.back().value.size();
    }
  }
  return bytes;
}

std::vector<std::string> SimObjectStore::LiveKeys() const {
  MutexLock lock(&mu_);
  std::vector<std::string> keys;
  for (const auto& [key, obj] : objects_) {
    if (!obj.versions.empty() && !obj.versions.back().is_delete) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace cloudiq

#include "telemetry/attribution.h"

#include <algorithm>

namespace cloudiq {

void CostLedger::Entry::Fold(const Entry& other) {
  if (tag.empty()) tag = other.tag;
  gets += other.gets;
  puts += other.puts;
  deletes += other.deletes;
  ranged_gets += other.ranged_gets;
  heads += other.heads;
  get_bytes += other.get_bytes;
  put_bytes += other.put_bytes;
  selects += other.selects;
  select_scanned_bytes += other.select_scanned_bytes;
  select_returned_bytes += other.select_returned_bytes;
  throttle_events += other.throttle_events;
  throttle_stall_seconds += other.throttle_stall_seconds;
  not_found_retries += other.not_found_retries;
  transient_retries += other.transient_retries;
  ocm_hits += other.ocm_hits;
  ocm_misses += other.ocm_misses;
  ocm_fills += other.ocm_fills;
  ocm_uploads += other.ocm_uploads;
  buffer_hits += other.buffer_hits;
  buffer_misses += other.buffer_misses;
  buffer_flush_pages += other.buffer_flush_pages;
  sim_seconds += other.sim_seconds;
  ec2_usd += other.ec2_usd;
}

AttributionContext CostLedger::Swap(AttributionContext next) {
  MutexLock lock(&mu_);
  AttributionContext prev = std::move(current_);
  current_ = std::move(next);
  cached_entry_ = nullptr;
  return prev;
}

CostLedger::Entry* CostLedger::MutableLocked() {
  if (cached_entry_ != nullptr) return cached_entry_;
  Key key{current_.query_id, current_.operator_id, current_.node_id};
  Entry& entry = entries_[key];
  if (entry.tag.empty()) entry.tag = current_.tag;
  cached_entry_ = &entry;
  return cached_entry_;
}

void CostLedger::RecordRequest(Request kind, uint64_t bytes) {
  MutexLock lock(&mu_);
  Entry* e = MutableLocked();
  switch (kind) {
    case Request::kGet:
      ++e->gets;
      e->get_bytes += bytes;
      break;
    case Request::kPut:
      ++e->puts;
      e->put_bytes += bytes;
      break;
    case Request::kDelete:
      ++e->deletes;
      break;
    case Request::kRangedGet:
      ++e->ranged_gets;
      e->get_bytes += bytes;
      break;
    case Request::kHead:
      ++e->heads;
      break;
  }
}

void CostLedger::RecordSelect(uint64_t scanned_bytes,
                              uint64_t returned_bytes) {
  MutexLock lock(&mu_);
  Entry* e = MutableLocked();
  ++e->selects;
  e->select_scanned_bytes += scanned_bytes;
  e->select_returned_bytes += returned_bytes;
}

void CostLedger::RecordThrottle(double stall_seconds) {
  MutexLock lock(&mu_);
  Entry* e = MutableLocked();
  ++e->throttle_events;
  e->throttle_stall_seconds += stall_seconds;
}

void CostLedger::RecordRetry(bool not_found) {
  MutexLock lock(&mu_);
  Entry* e = MutableLocked();
  if (not_found) {
    ++e->not_found_retries;
  } else {
    ++e->transient_retries;
  }
}

void CostLedger::RecordPrefix(const std::string& prefix, bool throttled,
                              double stall_seconds) {
  MutexLock lock(&mu_);
  PrefixStats* stats;
  auto it = prefixes_.find(prefix);
  if (it != prefixes_.end()) {
    stats = &it->second;
  } else if (prefixes_.size() < kMaxPrefixes) {
    stats = &prefixes_[prefix];
  } else {
    stats = &prefixes_[kOtherPrefixes];
  }
  ++stats->requests;
  if (throttled) {
    ++stats->throttle_events;
    stats->stall_seconds += stall_seconds;
  }
}

void CostLedger::ChargeCompute(const AttributionContext& who, double seconds,
                               double hourly_usd) {
  MutexLock lock(&mu_);
  Key key{who.query_id, who.operator_id, who.node_id};
  Entry& entry = entries_[key];
  if (entry.tag.empty()) entry.tag = who.tag;
  // Money only: sim_seconds is accumulated by scopes, so query rollups
  // (which fold operator entries in) don't double-count the time.
  entry.ec2_usd += seconds / 3600.0 * hourly_usd;
  cached_entry_ = nullptr;  // entries_ may have moved on insert
}

void CostLedger::SetQueryTenant(uint64_t query_id,
                                const std::string& tenant) {
  MutexLock lock(&mu_);
  if (tenant.empty()) {
    query_tenants_.erase(query_id);
  } else {
    query_tenants_[query_id] = tenant;
  }
}

std::string CostLedger::QueryTenantLocked(uint64_t query_id) const {
  auto it = query_tenants_.find(query_id);
  return it == query_tenants_.end() ? std::string() : it->second;
}

std::string CostLedger::QueryTenant(uint64_t query_id) const {
  MutexLock lock(&mu_);
  return QueryTenantLocked(query_id);
}

CostLedger::Entry CostLedger::TenantTotal(const std::string& tenant) const {
  MutexLock lock(&mu_);
  Entry total;
  for (const auto& [key, entry] : entries_) {
    if (QueryTenantLocked(key.query_id) == tenant) total.Fold(entry);
  }
  return total;
}

std::vector<std::string> CostLedger::Tenants() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (const auto& [query_id, tenant] : query_tenants_) {
    (void)query_id;
    if (out.empty() || out.back() != tenant) out.push_back(tenant);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

CostLedger::Entry CostLedger::QueryTotal(uint64_t query_id) const {
  MutexLock lock(&mu_);
  Entry total;
  for (const auto& [key, entry] : entries_) {
    if (key.query_id == query_id) total.Fold(entry);
  }
  return total;
}

CostLedger::Entry CostLedger::GrandTotal() const {
  MutexLock lock(&mu_);
  Entry total;
  for (const auto& [key, entry] : entries_) total.Fold(entry);
  return total;
}

std::vector<std::pair<uint64_t, std::string>> CostLedger::Queries() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const auto& [key, entry] : entries_) {
    if (out.empty() || out.back().first != key.query_id) {
      out.emplace_back(key.query_id, entry.tag);
    } else if (out.back().second.empty()) {
      out.back().second = entry.tag;
    }
  }
  return out;
}

void CostLedger::Reset() {
  MutexLock lock(&mu_);
  current_ = AttributionContext();
  last_query_id_ = 0;
  entries_.clear();
  prefixes_.clear();
  query_tenants_.clear();
  cached_entry_ = nullptr;
}

}  // namespace cloudiq

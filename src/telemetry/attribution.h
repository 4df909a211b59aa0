#ifndef CLOUDIQ_TELEMETRY_ATTRIBUTION_H_
#define CLOUDIQ_TELEMETRY_ATTRIBUTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/cloud_prices.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cloudiq {

// Who caused a storage-layer event. The query layer opens an attribution
// scope (query id + node), executor operators refine it with an operator
// id, and every layer below — buffer manager, OCM, ObjectStoreIo, the
// simulated object store and block devices — charges its work to whatever
// context is current. Asynchronous work (OCM background uploads, cache
// fills) captures the context at enqueue time and re-establishes it when
// the background pump runs, so deferred I/O is still billed to the query
// that caused it rather than to whoever happens to drain the queue.
struct AttributionContext {
  uint64_t query_id = 0;     // 0 = outside any attributed scope
  int32_t operator_id = -1;  // -1 = query-level work (load, commit, GC)
  uint32_t node_id = 0;      // NodeContext::trace_pid(); 0 = unknown
  std::string tag;           // human label ("load", "Q7", ...)
};

// Per-query cost and causality ledger. Aggregates every attributed event
// by (query, operator, node) and every object-store request by key
// prefix, and prices the result through CloudPrices. It is the run's only
// request and compute bill: every cost figure — per operator, per query,
// per tenant or for the whole run (GrandTotal()) — is read from here.
//
// The "current" context is one slot, swapped by ScopedAttribution; the
// fiber handoff serializes the swappers. mu_ guards the slot, the
// aggregation maps and the one-entry pointer cache. Like the other
// telemetry locks this is a leaf: recording calls arrive from inside
// every other manager's critical sections.
class CostLedger {
 public:
  enum class Request { kGet, kPut, kDelete, kRangedGet, kHead };

  struct Key {
    uint64_t query_id = 0;
    int32_t operator_id = -1;
    uint32_t node_id = 0;

    bool operator<(const Key& o) const {
      if (query_id != o.query_id) return query_id < o.query_id;
      if (operator_id != o.operator_id) return operator_id < o.operator_id;
      return node_id < o.node_id;
    }
    bool operator==(const Key& o) const {
      return query_id == o.query_id && operator_id == o.operator_id &&
             node_id == o.node_id;
    }
  };

  // Everything charged to one (query, operator, node). Fold() merges
  // entries, which is how operator rows roll up to query totals and
  // query totals to the grand total.
  struct Entry {
    std::string tag;

    // Object-store requests.
    uint64_t gets = 0;
    uint64_t puts = 0;
    uint64_t deletes = 0;
    uint64_t ranged_gets = 0;
    uint64_t heads = 0;
    uint64_t get_bytes = 0;
    uint64_t put_bytes = 0;

    // NDP SELECT requests: count, bytes scanned inside the store and
    // bytes actually returned over the wire (the pushdown win is the
    // gap between the two).
    uint64_t selects = 0;
    uint64_t select_scanned_bytes = 0;
    uint64_t select_returned_bytes = 0;

    // Throttling and retries suffered by this originator.
    uint64_t throttle_events = 0;
    double throttle_stall_seconds = 0;
    uint64_t not_found_retries = 0;
    uint64_t transient_retries = 0;

    // Cache interactions.
    uint64_t ocm_hits = 0;
    uint64_t ocm_misses = 0;
    uint64_t ocm_fills = 0;
    uint64_t ocm_uploads = 0;
    uint64_t buffer_hits = 0;
    uint64_t buffer_misses = 0;
    uint64_t buffer_flush_pages = 0;

    // Simulated time spent inside scopes at this key (informational),
    // and compute cost priced by an explicit ChargeCompute call (the
    // bench harness charges each phase's wall time once, at query level,
    // so rolled-up USD does not double-count operator time).
    double sim_seconds = 0;
    double ec2_usd = 0;

    uint64_t Requests() const {
      return gets + puts + deletes + ranged_gets + heads + selects;
    }
    double RequestUsd(const CloudPrices& prices) const {
      return (puts + deletes) / 1000.0 * prices.s3_put_per_1k +
             (gets + ranged_gets + heads) / 1000.0 * prices.s3_get_per_1k +
             selects / 1000.0 * prices.s3_select_per_1k +
             select_scanned_bytes / 1e9 * prices.s3_select_scanned_per_gb +
             select_returned_bytes / 1e9 * prices.s3_select_returned_per_gb;
    }
    double TotalUsd(const CloudPrices& prices) const {
      return RequestUsd(prices) + ec2_usd;
    }
    double OcmHitRate() const {
      uint64_t lookups = ocm_hits + ocm_misses;
      return lookups == 0 ? 0 : static_cast<double>(ocm_hits) / lookups;
    }
    void Fold(const Entry& other);
  };

  // Per-prefix object-store pressure (the throttle heatmap). Hashed
  // prefixes are near-unique, so the map is capped: once full, new
  // prefixes aggregate under kOtherPrefixes.
  struct PrefixStats {
    uint64_t requests = 0;
    uint64_t throttle_events = 0;
    double stall_seconds = 0;
  };
  static constexpr size_t kMaxPrefixes = 4096;
  static constexpr const char* kOtherPrefixes = "(other)";

  // --- current context ---------------------------------------------------
  AttributionContext current() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return current_;
  }
  // Installs `next`, returning the previous context (ScopedAttribution
  // restores it).
  AttributionContext Swap(AttributionContext next) EXCLUDES(mu_);

  // Monotonic query-id source; every Database::NewQueryContext and every
  // bench phase (load, Qn) draws from here so ids are cluster-unique.
  uint64_t NextQueryId() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return ++last_query_id_;
  }
  // The most recently issued query id (0 = none yet issued).
  uint64_t last_query_id() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return last_query_id_;
  }

  // --- tenants -----------------------------------------------------------
  // Maps a query id to a tenant, so multi-tenant workloads (src/workload/)
  // roll up per tenant. Queries never mapped — loads, maintenance, anything
  // outside the workload engine — aggregate under the "" tenant, so
  // TenantTotal("") plus the mapped tenants always sums to GrandTotal().
  void SetQueryTenant(uint64_t query_id, const std::string& tenant)
      EXCLUDES(mu_);
  // "" when the query was never mapped.
  std::string QueryTenant(uint64_t query_id) const EXCLUDES(mu_);
  // Sum of every entry of `tenant`'s queries across operators and nodes
  // ("" sums the unmapped remainder, including unattributed work).
  Entry TenantTotal(const std::string& tenant) const EXCLUDES(mu_);
  // Distinct mapped tenant names, ascending.
  std::vector<std::string> Tenants() const EXCLUDES(mu_);

  // --- recording (all charge to current()) -------------------------------
  void RecordRequest(Request kind, uint64_t bytes) EXCLUDES(mu_);
  // One NDP SELECT: bytes scanned server-side vs. bytes returned.
  void RecordSelect(uint64_t scanned_bytes, uint64_t returned_bytes)
      EXCLUDES(mu_);
  void RecordThrottle(double stall_seconds) EXCLUDES(mu_);
  void RecordRetry(bool not_found) EXCLUDES(mu_);
  void RecordOcmHit() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ++MutableLocked()->ocm_hits;
  }
  void RecordOcmMiss() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ++MutableLocked()->ocm_misses;
  }
  void RecordOcmFill() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ++MutableLocked()->ocm_fills;
  }
  void RecordOcmUpload() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ++MutableLocked()->ocm_uploads;
  }
  void RecordBufferHit() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ++MutableLocked()->buffer_hits;
  }
  void RecordBufferMiss() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    ++MutableLocked()->buffer_misses;
  }
  void RecordBufferFlush(uint64_t pages) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    MutableLocked()->buffer_flush_pages += pages;
  }
  void AddSimSeconds(double seconds) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    MutableLocked()->sim_seconds += seconds;
  }
  void RecordPrefix(const std::string& prefix, bool throttled,
                    double stall_seconds) EXCLUDES(mu_);

  // Prices `seconds` of instance time at `hourly_usd` onto `who`
  // (independent of the current scope: the harness charges a phase after
  // it finishes, when the scope is already closed). Adds money only —
  // sim_seconds stays with the scopes that measured it.
  void ChargeCompute(const AttributionContext& who, double seconds,
                     double hourly_usd) EXCLUDES(mu_);

  // --- views -------------------------------------------------------------
  // Report-time snapshots, by value (references would escape the lock).
  std::map<Key, Entry> entries() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return entries_;
  }
  std::map<std::string, PrefixStats> prefixes() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return prefixes_;
  }
  // Sum of every entry of `query_id` across operators and nodes.
  Entry QueryTotal(uint64_t query_id) const EXCLUDES(mu_);
  // Sum of every entry, attributed or not.
  Entry GrandTotal() const EXCLUDES(mu_);
  // Distinct query ids seen, ascending, with the first non-empty tag.
  std::vector<std::pair<uint64_t, std::string>> Queries() const;

  // The published rates every entry is priced with; constant, so
  // deliberately unguarded.
  const CloudPrices& prices() const { return prices_; }

  void Reset() EXCLUDES(mu_);

 private:
  // Entry for the current context; one-slot cache keeps the hot path
  // (one ledger update per simulated request) to a pointer bump.
  Entry* MutableLocked() REQUIRES(mu_);
  std::string QueryTenantLocked(uint64_t query_id) const REQUIRES(mu_);

  mutable Mutex mu_{lockrank::kCostLedger};
  AttributionContext current_ GUARDED_BY(mu_);
  const CloudPrices prices_;
  uint64_t last_query_id_ GUARDED_BY(mu_) = 0;
  std::map<Key, Entry> entries_ GUARDED_BY(mu_);
  std::map<std::string, PrefixStats> prefixes_ GUARDED_BY(mu_);
  std::map<uint64_t, std::string> query_tenants_ GUARDED_BY(mu_);
  Entry* cached_entry_ GUARDED_BY(mu_) = nullptr;
};

// RAII attribution scope: installs `ctx` on construction, restores the
// previous context on destruction. Safe to nest (operators inside a
// query, a query inside a workload).
class ScopedAttribution {
 public:
  ScopedAttribution(CostLedger* ledger, AttributionContext ctx)
      : ledger_(ledger), prev_(ledger->Swap(std::move(ctx))) {}
  ~ScopedAttribution() { ledger_->Swap(std::move(prev_)); }
  ScopedAttribution(const ScopedAttribution&) = delete;
  ScopedAttribution& operator=(const ScopedAttribution&) = delete;

 private:
  CostLedger* ledger_;
  AttributionContext prev_;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_TELEMETRY_ATTRIBUTION_H_

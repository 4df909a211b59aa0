#include "engine/metrics.h"

#include <cstdio>

namespace cloudiq {

MetricsSnapshot CollectMetrics(Database* db) {
  MetricsSnapshot m;
  const SimObjectStore::Stats& s3 = db->env().object_store().stats();
  m.s3_puts = s3.puts;
  m.s3_gets = s3.gets;
  m.s3_deletes = s3.deletes;
  m.s3_ranged_gets = s3.ranged_gets;
  m.s3_overwrites = s3.overwrites;
  m.s3_stale_reads = s3.stale_reads;
  m.s3_not_found_races = s3.not_found_races;
  m.s3_throttle_events = s3.throttle_events;
  m.live_objects = db->env().object_store().LiveObjectCount();
  m.live_bytes = db->env().object_store().LiveBytes();

  const StorageSubsystem::Stats& st = db->storage().stats();
  m.pages_written = st.pages_written;
  m.pages_read = st.pages_read;
  m.bytes_written = st.bytes_written;
  m.raw_bytes_written = st.raw_bytes_written;
  m.not_found_retries = db->storage().object_io().stats().not_found_retries;
  m.transient_retries = db->storage().object_io().stats().transient_retries;

  const BufferManager::Stats& buf = db->txn_mgr().buffer().stats();
  m.buffer_hits = buf.hits;
  m.buffer_misses = buf.misses;
  m.churn_flushes = buf.churn_flushes;
  m.commit_flushes = buf.commit_flushes;

  if (db->ocm() != nullptr) {
    m.ocm_enabled = true;
    const ObjectCacheManager::Stats& ocm = db->ocm()->stats();
    m.ocm_hits = ocm.hits;
    m.ocm_misses = ocm.misses;
    m.ocm_evictions = ocm.evictions;
    m.ocm_background_uploads = ocm.background_uploads;
    m.ocm_rerouted_reads = ocm.rerouted_reads;
  }

  const TransactionManager::Stats& txn = db->txn_mgr().stats();
  m.commits = txn.commits;
  m.rollbacks = txn.rollbacks;
  m.gc_pages_deleted = txn.gc_pages_deleted;

  m.max_allocated_key = db->keygen().max_allocated();
  m.key_fetches = db->key_cache().fetch_count();

  m.snapshots = db->snapshot_mgr()->ListSnapshots().size();
  m.retained_pages = db->snapshot_mgr()->retained_page_count();

  const CostLedger& ledger = db->env().telemetry().ledger();
  CostLedger::Entry bill = ledger.GrandTotal();
  m.s3_requests = bill.Requests();
  m.s3_request_usd = bill.RequestUsd(ledger.prices());
  m.ec2_usd = bill.ec2_usd;
  m.total_compute_usd = bill.TotalUsd(ledger.prices());
  m.s3_monthly_storage_usd = ledger.prices().S3MonthlyUsd(m.live_bytes / 1e9);
  m.sim_seconds = db->node().clock().now();

  const StatsRegistry& registry = db->env().telemetry().stats();
  for (const auto& [name, hist] : registry.histograms()) {
    if (hist.count() == 0) continue;
    m.latencies.push_back(MetricsSnapshot::LatencySummary{
        name, hist.count(), hist.p50(), hist.p95(), hist.p99(),
        hist.max()});
  }
  for (const auto& [name, counter] : registry.counters()) {
    if (counter.value() == 0) continue;
    m.counters.emplace_back(name, counter.value());
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    m.gauges.emplace_back(name, gauge.value());
  }
  return m;
}

std::string FormatMetrics(const MetricsSnapshot& m) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "=== CloudIQ metrics (t=%.2f sim s) ===\n"
      "object store : %llu PUT / %llu GET / %llu DELETE / %llu ranged GET, "
      "%llu live objects (%.2f MB)\n"
      "               overwrites=%llu stale_reads=%llu (policy invariants)\n"
      "               consistency races retried=%llu throttle events=%llu\n"
      "storage      : %llu pages written (%.2f MB raw -> %.2f MB encoded), "
      "%llu pages read\n"
      "               NOT_FOUND retries=%llu transient retries=%llu\n"
      "buffer (RAM) : %llu hits / %llu misses, churn flushes=%llu, "
      "commit flushes=%llu\n"
      "OCM (SSD)    : %s, %llu hits / %llu misses, evictions=%llu, "
      "bg uploads=%llu, rerouted=%llu\n"
      "transactions : %llu commits, %llu rollbacks, GC deleted %llu pages\n"
      "key generator: watermark offset=%llu, range fetches=%llu\n"
      "snapshots    : %llu taken, %llu pages under retention\n"
      "cost         : %llu requests = $%.4f, EC2 $%.4f, "
      "compute total $%.4f, $%.4f/month at rest\n",
      m.sim_seconds, static_cast<unsigned long long>(m.s3_puts),
      static_cast<unsigned long long>(m.s3_gets),
      static_cast<unsigned long long>(m.s3_deletes),
      static_cast<unsigned long long>(m.s3_ranged_gets),
      static_cast<unsigned long long>(m.live_objects), m.live_bytes / 1e6,
      static_cast<unsigned long long>(m.s3_overwrites),
      static_cast<unsigned long long>(m.s3_stale_reads),
      static_cast<unsigned long long>(m.s3_not_found_races),
      static_cast<unsigned long long>(m.s3_throttle_events),
      static_cast<unsigned long long>(m.pages_written),
      m.raw_bytes_written / 1e6, m.bytes_written / 1e6,
      static_cast<unsigned long long>(m.pages_read),
      static_cast<unsigned long long>(m.not_found_retries),
      static_cast<unsigned long long>(m.transient_retries),
      static_cast<unsigned long long>(m.buffer_hits),
      static_cast<unsigned long long>(m.buffer_misses),
      static_cast<unsigned long long>(m.churn_flushes),
      static_cast<unsigned long long>(m.commit_flushes),
      m.ocm_enabled ? "enabled" : "disabled",
      static_cast<unsigned long long>(m.ocm_hits),
      static_cast<unsigned long long>(m.ocm_misses),
      static_cast<unsigned long long>(m.ocm_evictions),
      static_cast<unsigned long long>(m.ocm_background_uploads),
      static_cast<unsigned long long>(m.ocm_rerouted_reads),
      static_cast<unsigned long long>(m.commits),
      static_cast<unsigned long long>(m.rollbacks),
      static_cast<unsigned long long>(m.gc_pages_deleted),
      static_cast<unsigned long long>(m.max_allocated_key - kCloudKeyBase),
      static_cast<unsigned long long>(m.key_fetches),
      static_cast<unsigned long long>(m.snapshots),
      static_cast<unsigned long long>(m.retained_pages),
      static_cast<unsigned long long>(m.s3_requests), m.s3_request_usd,
      m.ec2_usd, m.total_compute_usd, m.s3_monthly_storage_usd);
  std::string report = buf;
  for (const MetricsSnapshot::LatencySummary& lat : m.latencies) {
    // Milliseconds of simulated time; %-13s keeps the two-column layout
    // of the block above.
    std::snprintf(buf, sizeof(buf),
                  "latency      : %-13s n=%-8llu p50=%9.3fms p95=%9.3fms "
                  "p99=%9.3fms max=%9.3fms\n",
                  lat.name.c_str(),
                  static_cast<unsigned long long>(lat.count),
                  lat.p50 * 1e3, lat.p95 * 1e3, lat.p99 * 1e3,
                  lat.max * 1e3);
    report += buf;
  }
  for (const auto& [name, value] : m.counters) {
    std::snprintf(buf, sizeof(buf), "counter      : %-13s %llu\n",
                  name.c_str(), static_cast<unsigned long long>(value));
    report += buf;
  }
  for (const auto& [name, value] : m.gauges) {
    std::snprintf(buf, sizeof(buf), "gauge        : %-13s %g\n",
                  name.c_str(), value);
    report += buf;
  }
  return report;
}

}  // namespace cloudiq

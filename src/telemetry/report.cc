#include "telemetry/report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace cloudiq {
namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("0");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

void AppendCount(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendField(std::string* out, const char* name, double v, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(name);
  out->append("\":");
  AppendNumber(out, v);
}

void AppendField(std::string* out, const char* name, uint64_t v,
                 bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(name);
  out->append("\":");
  AppendCount(out, v);
}

// One ledger entry as a JSON object body (no braces), so callers can
// prepend identity fields.
void AppendEntryFields(std::string* out, const CostLedger::Entry& e,
                       const CloudPrices& prices, bool* first) {
  AppendField(out, "gets", e.gets, first);
  AppendField(out, "puts", e.puts, first);
  AppendField(out, "deletes", e.deletes, first);
  AppendField(out, "ranged_gets", e.ranged_gets, first);
  AppendField(out, "heads", e.heads, first);
  AppendField(out, "get_bytes", e.get_bytes, first);
  AppendField(out, "put_bytes", e.put_bytes, first);
  AppendField(out, "selects", e.selects, first);
  AppendField(out, "select_scanned_bytes", e.select_scanned_bytes, first);
  AppendField(out, "select_returned_bytes", e.select_returned_bytes, first);
  AppendField(out, "throttle_events", e.throttle_events, first);
  AppendField(out, "throttle_stall_seconds", e.throttle_stall_seconds,
              first);
  AppendField(out, "not_found_retries", e.not_found_retries, first);
  AppendField(out, "transient_retries", e.transient_retries, first);
  AppendField(out, "ocm_hits", e.ocm_hits, first);
  AppendField(out, "ocm_misses", e.ocm_misses, first);
  AppendField(out, "ocm_hit_rate", e.OcmHitRate(), first);
  AppendField(out, "ocm_fills", e.ocm_fills, first);
  AppendField(out, "ocm_uploads", e.ocm_uploads, first);
  AppendField(out, "buffer_hits", e.buffer_hits, first);
  AppendField(out, "buffer_misses", e.buffer_misses, first);
  AppendField(out, "buffer_flush_pages", e.buffer_flush_pages, first);
  AppendField(out, "sim_seconds", e.sim_seconds, first);
  AppendField(out, "request_usd", e.RequestUsd(prices), first);
  AppendField(out, "ec2_usd", e.ec2_usd, first);
  AppendField(out, "total_usd", e.TotalUsd(prices), first);
}

// One stall entry's per-class nanosecond tallies plus the exact total.
// Integer fields keep the conservation invariant checkable on the JSON
// itself (sum of classes == total_nanos, sums across entries == window +
// background).
void AppendStallFields(std::string* out, const CostLedger::Waits& e,
                       bool* first) {
  for (int i = 0; i < kNumWaitClasses; ++i) {
    AppendField(out, WaitClassName(static_cast<WaitClass>(i)),
                static_cast<uint64_t>(e.ns[i]), first);
  }
  AppendField(out, "total_nanos", static_cast<uint64_t>(e.TotalNanos()),
              first);
  AppendField(out, "background_nanos", static_cast<uint64_t>(e.background),
              first);
}

}  // namespace

std::string BuildRunReportJson(const RunReportInfo& info,
                               const StatsRegistry& stats,
                               const CostLedger& ledger,
                               const StallProfiler& profiler) {
  const CloudPrices& prices = ledger.prices();
  std::string out;
  out.reserve(1 << 16);
  out.append("{\n\"schema_version\":2,\n\"bench\":");
  AppendEscaped(&out, info.bench);
  out.append(",\n\"scale_factor\":");
  AppendNumber(&out, info.scale_factor);
  out.append(",\n\"sim_seconds\":");
  AppendNumber(&out, info.sim_seconds);

  // The ledger's grand total is the run's whole request + compute bill;
  // storage at rest is priced per month beside it.
  CostLedger::Entry grand = ledger.GrandTotal();
  const std::map<CostLedger::Key, CostLedger::Entry> entries =
      ledger.entries();
  out.append(",\n\"cost\":{\"storage_usd_month\":");
  AppendNumber(&out, info.storage_usd_month);
  out.append(",\"ledger\":{");
  {
    bool first = true;
    AppendEntryFields(&out, grand, prices, &first);
  }
  out.append("}}");

  // Per-query rollups, with the per-(operator, node) entries nested so a
  // consumer can reconstruct EXPLAIN ANALYZE or per-node splits.
  out.append(",\n\"queries\":[");
  bool first_query = true;
  for (const auto& [query_id, tag] : ledger.Queries()) {
    if (!first_query) out.push_back(',');
    first_query = false;
    CostLedger::Entry total = ledger.QueryTotal(query_id);
    out.append("\n{\"query_id\":");
    AppendCount(&out, query_id);
    out.append(",\"tag\":");
    AppendEscaped(&out, total.tag.empty() ? tag : total.tag);
    bool first = false;  // false: AppendField prepends the comma
    AppendEntryFields(&out, total, prices, &first);
    out.append(",\"entries\":[");
    bool first_entry = true;
    for (const auto& [key, entry] : entries) {
      if (key.query_id != query_id) continue;
      if (!first_entry) out.push_back(',');
      first_entry = false;
      out.append("{\"operator_id\":");
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%d", key.operator_id);
      out.append(buf);
      out.append(",\"node_id\":");
      AppendCount(&out, key.node_id);
      out.append(",\"tag\":");
      AppendEscaped(&out, entry.tag);
      bool f = false;
      AppendEntryFields(&out, entry, prices, &f);
      out.push_back('}');
    }
    out.append("]}");
  }
  out.append("]");

  // Per-node rollup across all queries.
  std::map<uint32_t, CostLedger::Entry> by_node;
  for (const auto& [key, entry] : entries) {
    by_node[key.node_id].Fold(entry);
  }
  out.append(",\n\"nodes\":[");
  bool first_node = true;
  for (const auto& [node_id, entry] : by_node) {
    if (!first_node) out.push_back(',');
    first_node = false;
    out.append("\n{\"node_id\":");
    AppendCount(&out, node_id);
    bool first = false;
    AppendEntryFields(&out, entry, prices, &first);
    out.push_back('}');
  }
  out.append("]");

  // Per-tenant workload rollup: admission/SLO counters and latency
  // quantiles from the workload.<tenant>.* registry instruments, spend
  // from the ledger's tenant dimension. Empty when no workload engine ran.
  const auto& counters = stats.counters();
  const auto& histograms = stats.histograms();
  auto tenant_count = [&](const std::string& tenant, const char* name) {
    auto it = counters.find("workload." + tenant + "." + name);
    return it == counters.end() ? uint64_t{0} : it->second.value();
  };
  auto tenant_hist = [&](const std::string& tenant,
                         const char* name) -> const Histogram* {
    auto it = histograms.find("workload." + tenant + "." + name);
    return it == histograms.end() ? nullptr : &it->second;
  };
  // Mapped tenants plus any the workload counters name.
  std::vector<std::string> mapped = ledger.Tenants();
  std::set<std::string> tenant_names(mapped.begin(), mapped.end());
  const std::string kPrefix = "workload.";
  const std::string kSuffix = ".submitted";
  for (const auto& [name, c] : counters) {
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    tenant_names.insert(name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()));
  }
  out.append(",\n\"tenants\":[");
  bool first_tenant = true;
  for (const std::string& tenant : tenant_names) {
    if (!first_tenant) out.push_back(',');
    first_tenant = false;
    out.append("\n{\"tenant\":");
    AppendEscaped(&out, tenant);
    bool first = false;
    AppendField(&out, "submitted", tenant_count(tenant, "submitted"),
                &first);
    AppendField(&out, "completed", tenant_count(tenant, "completed"),
                &first);
    AppendField(&out, "failed", tenant_count(tenant, "failed"), &first);
    const uint64_t shed = tenant_count(tenant, "shed_queue_full") +
                          tenant_count(tenant, "shed_rate_limited") +
                          tenant_count(tenant, "shed_budget");
    AppendField(&out, "shed", shed, &first);
    AppendField(&out, "shed_queue_full",
                tenant_count(tenant, "shed_queue_full"), &first);
    AppendField(&out, "shed_rate_limited",
                tenant_count(tenant, "shed_rate_limited"), &first);
    AppendField(&out, "shed_budget", tenant_count(tenant, "shed_budget"),
                &first);
    AppendField(&out, "slo_met", tenant_count(tenant, "slo_met"), &first);
    AppendField(&out, "slo_missed", tenant_count(tenant, "slo_missed"),
                &first);
    const Histogram* lat = tenant_hist(tenant, "latency");
    AppendField(&out, "latency_p50", lat ? lat->p50() : 0, &first);
    AppendField(&out, "latency_p95", lat ? lat->p95() : 0, &first);
    const Histogram* wait = tenant_hist(tenant, "queue_wait");
    AppendField(&out, "queue_wait_p50", wait ? wait->p50() : 0, &first);
    AppendField(&out, "queue_wait_p95", wait ? wait->p95() : 0, &first);
    CostLedger::Entry spend = ledger.TenantTotal(tenant);
    AppendField(&out, "request_usd", spend.RequestUsd(prices), &first);
    AppendField(&out, "ec2_usd", spend.ec2_usd, &first);
    AppendField(&out, "cost_usd", spend.TotalUsd(prices), &first);
    // Wait-class breakdown for the tenant's queries plus the SLO-burn
    // fractions: the average per-completed-query seconds spent in each
    // class as a fraction of the tenant's p95 latency budget — "tenant A
    // burns 32% of its SLO on network transfer" is the
    // decide-what-to-fix-next number.
    const CostLedger::Waits& stall = spend.waits;
    const uint64_t completed = tenant_count(tenant, "completed");
    double slo_seconds = 0;
    {
      const auto& gauges = stats.gauges();
      auto it = gauges.find("workload." + tenant + ".slo_seconds");
      if (it != gauges.end()) slo_seconds = it->second.value();
    }
    AppendField(&out, "stall_total_seconds", stall.TotalNanos() / 1e9,
                &first);
    for (int i = 0; i < kNumWaitClasses; ++i) {
      std::string field = "stall_";
      field += WaitClassName(static_cast<WaitClass>(i));
      field += "_seconds";
      AppendField(&out, field.c_str(), stall.ns[i] / 1e9, &first);
    }
    for (int i = 0; i < kNumWaitClasses; ++i) {
      std::string field = "slo_burn_";
      field += WaitClassName(static_cast<WaitClass>(i));
      double burn = 0;
      if (completed > 0 && slo_seconds > 0) {
        burn = (stall.ns[i] / 1e9) /
               (static_cast<double>(completed) * slo_seconds);
      }
      AppendField(&out, field.c_str(), burn, &first);
    }
    out.push_back('}');
  }
  out.append("]");

  // The ledger's wait columns: where every simulated nanosecond went,
  // globally and per query / operator / node, for every entry the
  // StallProfiler charged. All integer nanos; sum over queries' entries
  // of all classes equals the profiler's independently tallied
  // window_nanos + background_nanos exactly (check.sh profile asserts
  // this on the emitted JSON).
  out.append(",\n\"stalls\":{\"window_nanos\":");
  AppendCount(&out, static_cast<uint64_t>(profiler.window_nanos()));
  out.append(",\"background_nanos\":");
  AppendCount(&out, static_cast<uint64_t>(profiler.background_nanos()));
  out.append(",\"total\":{");
  {
    bool first = true;
    AppendStallFields(&out, grand.waits, &first);
  }
  out.append("},\"queries\":[");
  {
    std::map<uint64_t, std::string> query_tags;
    for (const auto& [query_id, tag] : ledger.Queries()) {
      query_tags[query_id] = tag;
    }
    std::map<uint64_t, CostLedger::Waits> by_query;
    for (const auto& [key, entry] : entries) {
      if (entry.waits.TotalNanos() > 0) {
        by_query[key.query_id].Fold(entry.waits);
      }
    }
    bool first_query = true;
    for (const auto& [query_id, total] : by_query) {
      if (!first_query) out.push_back(',');
      first_query = false;
      out.append("\n{\"query_id\":");
      AppendCount(&out, query_id);
      out.append(",\"tag\":");
      auto tag_it = query_tags.find(query_id);
      AppendEscaped(&out,
                    tag_it != query_tags.end() ? tag_it->second : "");
      bool first = false;
      AppendStallFields(&out, total, &first);
      out.append(",\"entries\":[");
      bool first_entry = true;
      for (const auto& [key, entry] : entries) {
        // Only the entries that were charged any time.
        if (key.query_id != query_id || entry.waits.TotalNanos() == 0) {
          continue;
        }
        if (!first_entry) out.push_back(',');
        first_entry = false;
        out.append("{\"operator_id\":");
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%d", key.operator_id);
        out.append(buf);
        out.append(",\"node_id\":");
        AppendCount(&out, key.node_id);
        bool f = false;
        AppendStallFields(&out, entry.waits, &f);
        out.push_back('}');
      }
      out.append("]}");
    }
  }
  out.append("]}");

  // The per-prefix throttle heatmap.
  out.append(",\n\"prefixes\":[");
  bool first_prefix = true;
  for (const auto& [prefix, ps] : ledger.prefixes()) {
    if (!first_prefix) out.push_back(',');
    first_prefix = false;
    out.append("\n{\"prefix\":");
    AppendEscaped(&out, prefix);
    bool first = false;
    AppendField(&out, "requests", ps.requests, &first);
    AppendField(&out, "throttle_events", ps.throttle_events, &first);
    AppendField(&out, "stall_seconds", ps.stall_seconds, &first);
    out.push_back('}');
  }
  out.append("]");

  out.append(",\n\"histograms\":[");
  bool first_hist = true;
  for (const auto& [name, h] : stats.histograms()) {
    if (!first_hist) out.push_back(',');
    first_hist = false;
    out.append("\n{\"name\":");
    AppendEscaped(&out, name);
    bool first = false;
    AppendField(&out, "count", h.count(), &first);
    AppendField(&out, "sum", h.sum(), &first);
    AppendField(&out, "min", h.min(), &first);
    AppendField(&out, "mean", h.mean(), &first);
    AppendField(&out, "p50", h.p50(), &first);
    AppendField(&out, "p95", h.p95(), &first);
    AppendField(&out, "p99", h.p99(), &first);
    AppendField(&out, "max", h.max(), &first);
    out.push_back('}');
  }
  out.append("]");

  out.append(",\n\"counters\":{");
  bool first_counter = true;
  for (const auto& [name, c] : stats.counters()) {
    if (!first_counter) out.push_back(',');
    first_counter = false;
    out.push_back('\n');
    AppendEscaped(&out, name);
    out.push_back(':');
    AppendCount(&out, c.value());
  }
  out.append("}");

  out.append(",\n\"gauges\":{");
  bool first_gauge = true;
  for (const auto& [name, g] : stats.gauges()) {
    if (!first_gauge) out.push_back(',');
    first_gauge = false;
    out.push_back('\n');
    AppendEscaped(&out, name);
    out.push_back(':');
    AppendNumber(&out, g.value());
  }
  out.append("}\n}\n");
  return out;
}

Status WriteRunReport(const RunReportInfo& info, const StatsRegistry& stats,
                      const CostLedger& ledger,
                      const StallProfiler& profiler,
                      const std::string& path) {
  std::string json = BuildRunReportJson(info, stats, ledger, profiler);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open report file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IoError("short write to report file: " + path);
  }
  return Status::Ok();
}

}  // namespace cloudiq

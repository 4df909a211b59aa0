#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sim_clock.h"
#include "telemetry/attribution.h"
#include "telemetry/report.h"
#include "telemetry/stats.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracer.h"

namespace cloudiq {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

// While the sample set is small the histogram keeps raw values, so
// quantiles are *exact*, not bucket midpoints.
TEST(HistogramTest, ExactQuantilesWhileSmall) {
  Histogram h;
  // 100 distinct values, inserted out of order.
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i * 0.001);
  std::reverse(values.begin(), values.end());
  for (double v : values) h.Record(v);

  EXPECT_EQ(h.count(), 100u);
  // Nearest rank: rank = ceil(q * n).
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 0.050);
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), 0.095);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.099);
  EXPECT_DOUBLE_EQ(h.Quantile(1.00), 0.100);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.100);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-12);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(0.042);
  EXPECT_DOUBLE_EQ(h.p50(), 0.042);
  EXPECT_DOUBLE_EQ(h.p99(), 0.042);
  EXPECT_DOUBLE_EQ(h.min(), 0.042);
  EXPECT_DOUBLE_EQ(h.max(), 0.042);
}

// Past kExactSamples the histogram answers from log buckets; every
// quantile must stay within the documented relative-error bound of the
// true (nearest-rank) sample quantile.
TEST(HistogramTest, LogBucketRelativeErrorBound) {
  Histogram h;
  std::vector<double> values;
  // Log-uniform spread over six decades (0.1 us .. 100 s) — the worst
  // case for a fixed-width design and the natural case for a geometric
  // one. Deterministic LCG so the test is stable.
  uint64_t state = 12345;
  for (int i = 0; i < 10000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    double u = static_cast<double>(state >> 11) / 9007199254740992.0;
    double v = 1e-7 * std::pow(10.0, 9.0 * u);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());

  double bound = Histogram::MaxRelativeError();
  EXPECT_GT(bound, 0);
  EXPECT_LT(bound, 0.05);  // ~2.47% at growth 1.05
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
    if (rank == 0) rank = 1;
    double exact = values[rank - 1];
    double approx = h.Quantile(q);
    EXPECT_NEAR(approx, exact, exact * (bound + 1e-9))
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  // And the edges are clamped to observed extremes.
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

TEST(HistogramTest, MergeSmallStaysExact) {
  Histogram a, b;
  for (int i = 1; i <= 40; ++i) a.Record(i * 0.001);
  for (int i = 41; i <= 80; ++i) b.Record(i * 0.001);
  a.Merge(b);
  EXPECT_EQ(a.count(), 80u);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 0.040);  // still exact
  EXPECT_DOUBLE_EQ(a.min(), 0.001);
  EXPECT_DOUBLE_EQ(a.max(), 0.080);
  EXPECT_NEAR(a.sum(), 0.001 * (80 * 81) / 2, 1e-9);
}

TEST(HistogramTest, MergeLargeMatchesCombinedRecording) {
  Histogram a, b, combined;
  uint64_t state = 99;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    double v = 1e-5 + static_cast<double>(state >> 40) * 1e-9;
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  // Bucket-level merge is lossless: identical quantiles, not merely
  // close ones.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), combined.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  for (int i = 0; i < 500; ++i) h.Record(0.001 * (i + 1));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(StatsRegistryTest, StableRefsAndIteration) {
  StatsRegistry registry;
  Counter& c = registry.counter("s3.retries");
  c.Add(3);
  registry.counter("s3.retries").Add();
  EXPECT_EQ(registry.counter("s3.retries").value(), 4u);

  registry.gauge("cache.bytes").Set(1.5e9);
  registry.histogram("s3.get").Record(0.012);

  EXPECT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(registry.gauges().size(), 1u);
  EXPECT_EQ(registry.histograms().size(), 1u);

  registry.Reset();
  EXPECT_EQ(registry.counter("s3.retries").value(), 0u);
  EXPECT_EQ(registry.gauge("cache.bytes").value(), 0);
  EXPECT_EQ(registry.histogram("s3.get").count(), 0u);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer;
  SimClock clock;
  tracer.CompleteSpan(1, 1, "x", "span", 0.0, 1.0);
  tracer.Instant(1, 1, "x", "evt", 0.5);
  {
    ScopedSpan span(&tracer, &clock, 1, 1, "x", "scoped");
    clock.Advance(1.0);
  }
  EXPECT_TRUE(tracer.events().empty());
}

// Nested scoped spans under the sim clock: the inner span closes first
// (so it is recorded first) and its interval nests inside the outer's.
TEST(TracerTest, ScopedSpanNestingAndOrdering) {
  Tracer tracer;
  tracer.set_enabled(true);
  SimClock clock;
  clock.Advance(10.0);
  {
    ScopedSpan outer(&tracer, &clock, 2, kTrackTxn, "txn", "commit");
    clock.Advance(1.0);
    {
      ScopedSpan inner(&tracer, &clock, 2, kTrackBuffer, "buffer", "flush");
      clock.Advance(2.0);
    }
    clock.Advance(0.5);
  }
  std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "flush");
  EXPECT_EQ(outer.name, "commit");
  EXPECT_EQ(inner.phase, 'X');
  EXPECT_DOUBLE_EQ(outer.ts, 10.0);
  EXPECT_DOUBLE_EQ(outer.dur, 3.5);
  EXPECT_DOUBLE_EQ(inner.ts, 11.0);
  EXPECT_DOUBLE_EQ(inner.dur, 2.0);
  // Interval containment.
  EXPECT_LE(outer.ts, inner.ts);
  EXPECT_GE(outer.ts + outer.dur, inner.ts + inner.dur);
}

TEST(TracerTest, BackwardsSpanClampedToZeroLength) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.CompleteSpan(1, 1, "x", "oops", 5.0, 4.0);
  std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].ts, 5.0);
  EXPECT_DOUBLE_EQ(events[0].dur, 0.0);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON
// ---------------------------------------------------------------------------

// Minimal JSON validity scanner: verifies the whole string parses as one
// JSON value. Enough to prove chrome://tracing / Perfetto can load it.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& s) : s_(s) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == '-' || (c >= '0' && c <= '9')) return Number();
    if (Literal("true") || Literal("false") || Literal("null")) return true;
    return false;
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw ctrl
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(s_[pos_])) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(esc) ==
                   std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(s_[pos_]) || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) == 0) { pos_ += n; return true; }
    return false;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceExporterTest, ChromeTraceJsonWellFormed) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.SetProcessName(0, "cluster");
  tracer.SetProcessName(1, "node0 (m5d.16xlarge)");
  tracer.SetTrackName(1, kTrackBuffer, "buffer manager");
  // Names that exercise every escape path.
  tracer.CompleteSpan(1, kTrackBuffer, "buffer",
                      "evil \"name\" with \\ and \n and \t and \x01", 0.001,
                      0.002);
  tracer.Instant(0, kTrackObjectStore, "s3", "throttle p/42", 0.0015);
  tracer.CompleteSpan(1, kTrackExec, "exec", "Q1", 0.0, 1.5);

  std::string json = TraceExporter::ToChromeTraceJson(tracer);
  EXPECT_TRUE(JsonScanner(json).Validate()) << json;

  // Structure spot checks: trace_event requires these fields.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Q1 span: 1.5 sim seconds -> 1500000 us.
  EXPECT_NE(json.find("\"dur\":1500000"), std::string::npos);
  // The raw control byte must have been \u-escaped.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(TraceExporterTest, EmptyTracerStillValidJson) {
  Tracer tracer;
  std::string json = TraceExporter::ToChromeTraceJson(tracer);
  EXPECT_TRUE(JsonScanner(json).Validate()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceExporterTest, PercentileReportListsInstruments) {
  Telemetry telemetry;
  for (int i = 1; i <= 100; ++i) {
    telemetry.stats().histogram("s3.get").Record(i * 0.001);
  }
  telemetry.stats().counter("s3.retries").Add(7);
  telemetry.stats().counter("zero.counter");  // zero: skipped
  telemetry.stats().gauge("cache.bytes").Set(2.5e9);

  std::string report = TraceExporter::PercentileReport(telemetry.stats());
  EXPECT_NE(report.find("s3.get"), std::string::npos);
  EXPECT_NE(report.find("s3.retries"), std::string::npos);
  EXPECT_NE(report.find("cache.bytes"), std::string::npos);
  EXPECT_EQ(report.find("zero.counter"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CostLedger
// ---------------------------------------------------------------------------

AttributionContext Attr(uint64_t query, int32_t op, uint32_t node,
                        std::string tag = "") {
  AttributionContext attr;
  attr.query_id = query;
  attr.operator_id = op;
  attr.node_id = node;
  attr.tag = std::move(tag);
  return attr;
}

TEST(CostLedgerTest, ScopedAttributionChargesAndRestores) {
  CostLedger ledger;
  ledger.RecordRequest(CostLedger::Request::kGet, 100);  // unattributed
  {
    ScopedAttribution q1(&ledger, Attr(1, -1, 7, "Q1"));
    ledger.RecordRequest(CostLedger::Request::kPut, 4096);
    {
      ScopedAttribution op(&ledger, Attr(1, 0, 7, "scan"));
      ledger.RecordRequest(CostLedger::Request::kGet, 512);
      ledger.RecordRequest(CostLedger::Request::kGet, 512);
    }
    // Back at query level after the nested scope closes.
    EXPECT_EQ(ledger.current().operator_id, -1);
    ledger.RecordRequest(CostLedger::Request::kDelete, 0);
  }
  EXPECT_EQ(ledger.current().query_id, 0u);

  CostLedger::Entry q1 = ledger.QueryTotal(1);
  EXPECT_EQ(q1.gets, 2u);
  EXPECT_EQ(q1.puts, 1u);
  EXPECT_EQ(q1.deletes, 1u);
  EXPECT_EQ(q1.get_bytes, 1024u);
  EXPECT_EQ(q1.put_bytes, 4096u);
  EXPECT_EQ(q1.Requests(), 4u);

  // The operator-level entry is separate from the query-level one.
  auto entries = ledger.entries();
  auto it = entries.find(CostLedger::Key{1, 0, 7});
  ASSERT_NE(it, entries.end());
  EXPECT_EQ(it->second.gets, 2u);
  EXPECT_EQ(it->second.puts, 0u);

  // Unattributed work stays on query 0 and appears only in the grand
  // total.
  EXPECT_EQ(ledger.QueryTotal(0).gets, 1u);
  EXPECT_EQ(ledger.GrandTotal().Requests(), 5u);
}

TEST(CostLedgerTest, RequestPricingMatchesRates) {
  CostLedger ledger;
  const CloudPrices& prices = ledger.prices();
  {
    ScopedAttribution q(&ledger, Attr(3, -1, 1, "priced"));
    for (int i = 0; i < 1000; ++i) {
      ledger.RecordRequest(CostLedger::Request::kPut, 1);
    }
    for (int i = 0; i < 500; ++i) {
      ledger.RecordRequest(CostLedger::Request::kDelete, 0);
    }
    for (int i = 0; i < 2000; ++i) {
      ledger.RecordRequest(CostLedger::Request::kGet, 1);
    }
    for (int i = 0; i < 500; ++i) {
      ledger.RecordRequest(CostLedger::Request::kRangedGet, 1);
    }
    for (int i = 0; i < 500; ++i) {
      ledger.RecordRequest(CostLedger::Request::kHead, 0);
    }
  }
  CostLedger::Entry total = ledger.QueryTotal(3);
  // 1500 PUT-class requests at $0.005/1k + 3000 GET-class at $0.0004/1k.
  EXPECT_NEAR(total.RequestUsd(prices), 1.5 * 0.005 + 3.0 * 0.0004, 1e-12);
  EXPECT_DOUBLE_EQ(total.ec2_usd, 0);
  EXPECT_DOUBLE_EQ(total.TotalUsd(prices), total.RequestUsd(prices));
}

TEST(CostLedgerTest, SelectPricingAndFold) {
  CostLedger ledger;
  const CloudPrices& prices = ledger.prices();
  {
    ScopedAttribution q(&ledger, Attr(4, -1, 1, "ndp"));
    for (int i = 0; i < 1000; ++i) {
      ledger.RecordSelect(/*scanned_bytes=*/1000000,
                          /*returned_bytes=*/50000);
    }
  }
  // Unattributed selects still land in the grand total.
  ledger.RecordSelect(1000000, 50000);

  CostLedger::Entry query = ledger.QueryTotal(4);
  EXPECT_EQ(query.selects, 1000u);
  EXPECT_EQ(query.select_scanned_bytes, uint64_t{1000000} * 1000);
  EXPECT_EQ(query.select_returned_bytes, uint64_t{50000} * 1000);
  EXPECT_EQ(query.Requests(), 1000u);
  // 1k requests at $0.0004/1k + 1 GB scanned at $0.002/GB + 0.05 GB
  // returned at $0.0007/GB.
  EXPECT_NEAR(query.RequestUsd(prices),
              1.0 * 0.0004 + 1.0 * 0.002 + 0.05 * 0.0007, 1e-12);

  CostLedger::Entry total = ledger.GrandTotal();
  EXPECT_EQ(total.selects, 1001u);

  // Fold carries the select dimensions.
  CostLedger::Entry sum;
  sum.Fold(query);
  sum.Fold(query);
  EXPECT_EQ(sum.selects, 2000u);
  EXPECT_EQ(sum.select_scanned_bytes, uint64_t{1000000} * 2000);
  EXPECT_NEAR(sum.RequestUsd(prices), 2 * query.RequestUsd(prices), 1e-12);
}

TEST(CostLedgerTest, ChargeComputeAddsMoneyNotSimTime) {
  CostLedger ledger;
  AttributionContext who = Attr(5, -1, 2, "Q5");
  {
    ScopedAttribution q(&ledger, who);
    ledger.AddSimSeconds(1.25);
  }
  ledger.ChargeCompute(who, /*seconds=*/3600, /*hourly_usd=*/4.225);
  CostLedger::Entry total = ledger.QueryTotal(5);
  EXPECT_DOUBLE_EQ(total.sim_seconds, 1.25);
  EXPECT_NEAR(total.ec2_usd, 4.225, 1e-12);
  EXPECT_NEAR(total.TotalUsd(ledger.prices()), 4.225, 1e-12);
}

TEST(CostLedgerTest, ThrottleRetryAndCacheCounters) {
  CostLedger ledger;
  {
    ScopedAttribution q(&ledger, Attr(9, -1, 1, "Q9"));
    ledger.RecordThrottle(0.25);
    ledger.RecordThrottle(0.75);
    ledger.RecordRetry(/*not_found=*/true);
    ledger.RecordRetry(/*not_found=*/false);
    ledger.RecordOcmHit();
    ledger.RecordOcmHit();
    ledger.RecordOcmMiss();
    ledger.RecordOcmFill();
    ledger.RecordOcmUpload();
    ledger.RecordBufferHit();
    ledger.RecordBufferMiss();
    ledger.RecordBufferFlush(16);
  }
  CostLedger::Entry total = ledger.QueryTotal(9);
  EXPECT_EQ(total.throttle_events, 2u);
  EXPECT_DOUBLE_EQ(total.throttle_stall_seconds, 1.0);
  EXPECT_EQ(total.not_found_retries, 1u);
  EXPECT_EQ(total.transient_retries, 1u);
  EXPECT_EQ(total.ocm_hits, 2u);
  EXPECT_EQ(total.ocm_misses, 1u);
  EXPECT_EQ(total.ocm_fills, 1u);
  EXPECT_EQ(total.ocm_uploads, 1u);
  EXPECT_EQ(total.buffer_hits, 1u);
  EXPECT_EQ(total.buffer_misses, 1u);
  EXPECT_EQ(total.buffer_flush_pages, 16u);
  EXPECT_NEAR(total.OcmHitRate(), 2.0 / 3.0, 1e-12);
}

TEST(CostLedgerTest, QueriesListsIdsWithTags) {
  CostLedger ledger;
  EXPECT_EQ(ledger.NextQueryId(), 1u);
  EXPECT_EQ(ledger.NextQueryId(), 2u);
  EXPECT_EQ(ledger.last_query_id(), 2u);
  {
    ScopedAttribution a(&ledger, Attr(2, -1, 1, "load"));
    ledger.RecordRequest(CostLedger::Request::kPut, 1);
  }
  {
    ScopedAttribution b(&ledger, Attr(1, 3, 1, "Q1"));
    ledger.RecordRequest(CostLedger::Request::kGet, 1);
  }
  auto queries = ledger.Queries();
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].first, 1u);
  EXPECT_EQ(queries[0].second, "Q1");
  EXPECT_EQ(queries[1].first, 2u);
  EXPECT_EQ(queries[1].second, "load");
}

TEST(CostLedgerTest, PrefixHeatmapCapsAtOtherBucket) {
  CostLedger ledger;
  for (size_t i = 0; i < CostLedger::kMaxPrefixes; ++i) {
    ledger.RecordPrefix("p" + std::to_string(i), /*throttled=*/false, 0);
  }
  EXPECT_EQ(ledger.prefixes().size(), CostLedger::kMaxPrefixes);
  ledger.RecordPrefix("one-too-many", /*throttled=*/true, 0.5);
  ledger.RecordPrefix("and-another", /*throttled=*/true, 0.5);
  auto prefixes = ledger.prefixes();
  EXPECT_EQ(prefixes.size(), CostLedger::kMaxPrefixes + 1);
  auto it = prefixes.find(CostLedger::kOtherPrefixes);
  ASSERT_NE(it, prefixes.end());
  EXPECT_EQ(it->second.requests, 2u);
  EXPECT_EQ(it->second.throttle_events, 2u);
  EXPECT_DOUBLE_EQ(it->second.stall_seconds, 1.0);
  // Known prefixes keep aggregating even once the map is full.
  ledger.RecordPrefix("p0", /*throttled=*/false, 0);
  EXPECT_EQ(ledger.prefixes().at("p0").requests, 2u);
}

TEST(CostLedgerTest, ResetClearsEverything) {
  CostLedger ledger;
  {
    ScopedAttribution q(&ledger, Attr(1, -1, 1, "Q1"));
    ledger.RecordRequest(CostLedger::Request::kGet, 1);
    ledger.RecordPrefix("p", false, 0);
  }
  ledger.Reset();
  EXPECT_TRUE(ledger.entries().empty());
  EXPECT_TRUE(ledger.prefixes().empty());
  EXPECT_EQ(ledger.GrandTotal().Requests(), 0u);
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

TEST(RunReportTest, EmitsExpectedTopLevelKeys) {
  StatsRegistry stats;
  stats.histogram("s3.get.latency").Record(0.012);
  stats.counter("s3.retries").Add(3);
  stats.gauge("ocm.bytes").Set(1e6);

  CostLedger ledger;
  {
    ScopedAttribution q(&ledger, Attr(1, -1, 4, "Q1"));
    ledger.RecordRequest(CostLedger::Request::kGet, 2048);
    ledger.RecordPrefix("ab12", /*throttled=*/true, 0.125);
  }
  ledger.ChargeCompute(Attr(1, -1, 4, "Q1"), 60, 0.704);

  RunReportInfo info;
  info.bench = "unit \"bench\"";  // quote must be escaped
  info.scale_factor = 0.01;
  info.sim_seconds = 123.5;
  info.storage_usd_month = 0.25;

  StallProfiler profiler(&ledger, /*tracer=*/nullptr);
  {
    ScopedAttribution q(&ledger, Attr(1, -1, 4, "Q1"));
    profiler.Charge(WaitClass::kNetworkTransfer, 1.0, 1.5);
  }
  // The stall charge joined the request's ledger entry: one row.
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_EQ(ledger.QueryTotal(1).waits.TotalNanos(), 500000000);
  EXPECT_EQ(ledger.QueryTotal(1).gets, 1u);
  std::string json = BuildRunReportJson(info, stats, ledger, profiler);
  for (const char* key :
       {"\"schema_version\"", "\"bench\"", "\"scale_factor\"",
        "\"sim_seconds\"", "\"cost\"", "\"storage_usd_month\"",
        "\"ledger\"", "\"queries\"", "\"nodes\"", "\"stalls\"",
        "\"window_nanos\"", "\"network_transfer\"", "\"prefixes\"",
        "\"histograms\"", "\"counters\"", "\"gauges\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("unit \\\"bench\\\""), std::string::npos);
  // The ledger is the only bill: no second (meter) copy of the costs.
  EXPECT_NE(json.find("\"schema_version\":2,"), std::string::npos);
  EXPECT_EQ(json.find("\"meter\""), std::string::npos);
  EXPECT_NE(json.find("\"tag\":\"Q1\""), std::string::npos);
  EXPECT_NE(json.find("\"ab12\""), std::string::npos);
  EXPECT_NE(json.find("s3.get.latency"), std::string::npos);

  // No stray separators (the field emitters share comma placement).
  EXPECT_EQ(json.find(",,"), std::string::npos);
  EXPECT_EQ(json.find("{,"), std::string::npos);
  EXPECT_EQ(json.find("[,"), std::string::npos);

  // Structurally sound: quotes aside, braces and brackets balance.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

// The stalls section lists exactly the ledger entries charged any time;
// an entry with requests but no waits stays out of it.
TEST(RunReportTest, StallsSectionListsChargedEntriesOnly) {
  StatsRegistry stats;
  CostLedger ledger;
  StallProfiler profiler(&ledger, /*tracer=*/nullptr);
  {
    ScopedAttribution q(&ledger, Attr(1, -1, 4, "Q1"));
    ledger.RecordRequest(CostLedger::Request::kGet, 64);
    profiler.Charge(WaitClass::kOcmFetch, 0.0, 0.25);
  }
  {
    ScopedAttribution q(&ledger, Attr(2, -1, 4, "Q2"));
    ledger.RecordRequest(CostLedger::Request::kPut, 64);
  }
  RunReportInfo info;
  info.bench = "stalls-test";
  std::string json = BuildRunReportJson(info, stats, ledger, profiler);
  size_t stalls = json.find("\"stalls\"");
  size_t prefixes = json.find("\"prefixes\"");
  ASSERT_NE(stalls, std::string::npos);
  ASSERT_NE(prefixes, std::string::npos);
  std::string section = json.substr(stalls, prefixes - stalls);
  EXPECT_NE(section.find("\"query_id\":1,"), std::string::npos);
  EXPECT_EQ(section.find("\"query_id\":2,"), std::string::npos);
  EXPECT_NE(section.find("\"ocm_fetch\":250000000"), std::string::npos);
  // Both queries are billed rows.
  EXPECT_NE(json.find("\"tag\":\"Q2\""), std::string::npos);
}

TEST(RunReportTest, WritesFileToDisk) {
  StatsRegistry stats;
  CostLedger ledger;
  StallProfiler profiler(&ledger, /*tracer=*/nullptr);
  RunReportInfo info;
  info.bench = "write-test";
  std::string path = ::testing::TempDir() + "cloudiq_report_test.json";
  ASSERT_TRUE(WriteRunReport(info, stats, ledger, profiler, path).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_GT(n, 0u);
  EXPECT_EQ(buf[0], '{');
}

}  // namespace
}  // namespace cloudiq

// Tests for the wait-state stall profiler: integer-nanosecond charges,
// scope residuals, parallel-lane scaling, background shadow time, frame
// isolation, and above all the conservation invariant — the sum of every
// ledger entry's wait classes equals window_nanos + background_nanos
// exactly. The profiler books into the CostLedger, so every assertion
// reads the ledger's entries.

#include "telemetry/stall_profiler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "telemetry/attribution.h"

namespace cloudiq {
namespace {

constexpr int64_t kSecond = 1000000000;

AttributionContext Attr(uint64_t query, int32_t op, uint32_t node,
                        std::string tag = "") {
  AttributionContext attr;
  attr.query_id = query;
  attr.operator_id = op;
  attr.node_id = node;
  attr.tag = std::move(tag);
  return attr;
}

int64_t EntrySum(const CostLedger& ledger) {
  int64_t sum = 0;
  for (const auto& [key, entry] : ledger.entries()) {
    sum += entry.waits.TotalNanos();
  }
  return sum;
}

void ExpectConserved(const CostLedger& ledger,
                     const StallProfiler& profiler) {
  EXPECT_EQ(EntrySum(ledger),
            profiler.window_nanos() + profiler.background_nanos());
}

TEST(StallProfilerTest, DirectChargeBooksEntryAndWindow) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, /*tracer=*/nullptr);
  {
    ScopedAttribution scope(&ledger, Attr(7, -1, 1, "q"));
    profiler.Charge(WaitClass::kNetworkTransfer, 1.0, 1.25);
  }
  CostLedger::Waits entry = ledger.QueryTotal(7).waits;
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kNetworkTransfer)],
            kSecond / 4);
  EXPECT_EQ(entry.TotalNanos(), kSecond / 4);
  EXPECT_EQ(entry.background, 0);
  EXPECT_EQ(profiler.window_nanos(), kSecond / 4);
  EXPECT_EQ(profiler.background_nanos(), 0);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, EmptyAndBackwardWindowsChargeNothing) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  profiler.Charge(WaitClass::kLockWait, 2.0, 2.0);
  profiler.Charge(WaitClass::kLockWait, 3.0, 2.5);
  EXPECT_TRUE(ledger.entries().empty());
  EXPECT_EQ(profiler.window_nanos(), 0);
}

TEST(StallProfilerTest, ScopeResidualTakesScopeClass) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  ScopedAttribution scope(&ledger, Attr(3, -1, 1));
  profiler.BeginScope(WaitClass::kCpuExec, 0.0);
  profiler.Charge(WaitClass::kNetworkTransfer, 0.2, 0.45);
  profiler.EndScope(1.0);

  CostLedger::Waits entry = ledger.QueryTotal(3).waits;
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kNetworkTransfer)],
            kSecond / 4);
  // Unclaimed remainder of the 1s scope: 0.75s of kCpuExec.
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kCpuExec)],
            3 * kSecond / 4);
  EXPECT_EQ(profiler.window_nanos(), kSecond);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, NestedScopesPropagateElapsedNotResidual) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  ScopedAttribution scope(&ledger, Attr(5, 2, 1));
  profiler.BeginScope(WaitClass::kCpuExec, 0.0);     // outer: the operator
  profiler.BeginScope(WaitClass::kBufferFill, 0.1);  // inner: a miss fill
  profiler.Charge(WaitClass::kNetworkTransfer, 0.1, 0.3);
  profiler.EndScope(0.5);  // fill residual 0.2s -> kBufferFill
  profiler.EndScope(1.0);  // operator residual 0.5s -> kCpuExec

  CostLedger::Waits entry = ledger.QueryTotal(5).waits;
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kNetworkTransfer)],
            kSecond / 5);
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kBufferFill)],
            kSecond / 5);
  // Outer scope: 1.0s elapsed minus the inner scope's 0.4s elapsed (the
  // whole inner window counts as claimed, not just its charges).
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kCpuExec)],
            6 * kSecond / 10);
  EXPECT_EQ(entry.TotalNanos(), kSecond);
  EXPECT_EQ(profiler.window_nanos(), kSecond);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, PinnedResidualSurvivesAttributionChange) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  {
    ScopedAttribution query(&ledger, Attr(9, -1, 2));
    profiler.BeginScope(WaitClass::kCpuExec, 0.0);
    profiler.PinScopeAttribution();
  }
  // Attribution has been restored to default; the residual must still
  // land on query 9 because the scope pinned it.
  profiler.EndScope(2.0);
  CostLedger::Waits entry = ledger.QueryTotal(9).waits;
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kCpuExec)], 2 * kSecond);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, ParallelLanesScaleToElapsedExactly) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  profiler.BeginParallel(0.0);
  {
    ScopedAttribution a(&ledger, Attr(1, -1, 1));
    profiler.Charge(WaitClass::kNetworkTransfer, 0.0, 0.6);
  }
  {
    ScopedAttribution b(&ledger, Attr(2, -1, 1));
    profiler.Charge(WaitClass::kNetworkTransfer, 0.0, 0.6);
  }
  // Two lanes of 0.6s overlapped inside a section that took 0.6s of
  // wall sim-time: each is scaled to half the section.
  profiler.EndParallel(0.6);
  EXPECT_EQ(ledger.QueryTotal(1).waits.TotalNanos(), 3 * kSecond / 10);
  EXPECT_EQ(ledger.QueryTotal(2).waits.TotalNanos(), 3 * kSecond / 10);
  EXPECT_EQ(profiler.window_nanos(), 6 * kSecond / 10);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, ParallelScalingIsExactUnderRemainders) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  profiler.BeginParallel(0.0);
  // Three lanes whose scaled shares cannot all round down (1/3 ns each
  // of remainder); largest-remainder assignment must still sum exactly.
  for (uint64_t q = 1; q <= 3; ++q) {
    ScopedAttribution a(&ledger, Attr(q, -1, 1));
    profiler.Charge(WaitClass::kOcmFetch, 0.0, 1.0);
  }
  profiler.EndParallel(1.0 / 3.0);
  int64_t elapsed = StallProfiler::ToNanos(1.0 / 3.0);
  EXPECT_EQ(EntrySum(ledger), elapsed);
  EXPECT_EQ(profiler.window_nanos(), elapsed);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, ParallelUnderfillRegistersRawCharges) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  ScopedAttribution scope(&ledger, Attr(4, -1, 1));
  profiler.BeginScope(WaitClass::kCpuExec, 0.0);
  profiler.BeginParallel(0.0);
  profiler.Charge(WaitClass::kNetworkTransfer, 0.0, 0.25);
  // Section elapsed 1s > 0.25s of lane weight: charges register raw and
  // the idle tail stays with the enclosing scope's residual.
  profiler.EndParallel(1.0);
  profiler.EndScope(1.0);
  CostLedger::Waits entry = ledger.QueryTotal(4).waits;
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kNetworkTransfer)],
            kSecond / 4);
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kCpuExec)],
            3 * kSecond / 4);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, BackgroundChargesAreShadowTime) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  {
    ScopedAttribution scope(&ledger, Attr(6, -1, 1));
    profiler.BeginBackground();
    profiler.Charge(WaitClass::kOcmUpload, 10.0, 10.5);
    profiler.EndBackground();
  }
  CostLedger::Waits entry = ledger.QueryTotal(6).waits;
  EXPECT_EQ(entry.ns[static_cast<int>(WaitClass::kOcmUpload)], kSecond / 2);
  EXPECT_EQ(entry.background, kSecond / 2);
  EXPECT_EQ(profiler.window_nanos(), 0);
  EXPECT_EQ(profiler.background_nanos(), kSecond / 2);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, BackgroundInsideScopeLeavesForegroundExact) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  ScopedAttribution scope(&ledger, Attr(8, -1, 1));
  profiler.BeginScope(WaitClass::kCpuExec, 0.0);
  {
    // Deferred work drains while query 8's scope is open, attributed to
    // the enqueuing query 11; the open scope's inner time must not move.
    ScopedAttribution enqueuer(&ledger, Attr(11, -1, 1));
    profiler.BeginBackground();
    profiler.Charge(WaitClass::kOcmUpload, 0.0, 5.0);
    profiler.EndBackground();
  }
  profiler.EndScope(1.0);
  EXPECT_EQ(ledger.QueryTotal(8).waits.TotalNanos(), kSecond);
  EXPECT_EQ(ledger.QueryTotal(8).waits.background, 0);
  EXPECT_EQ(ledger.QueryTotal(11).waits.background, 5 * kSecond);
  EXPECT_EQ(profiler.window_nanos(), kSecond);
  EXPECT_EQ(profiler.background_nanos(), 5 * kSecond);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, FramesIsolateScopeStacks) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  ScopedAttribution scope(&ledger, Attr(1, -1, 1));
  profiler.BeginScope(WaitClass::kCpuExec, 0.0);

  // A different fiber's frame swaps in: its charges must not credit the
  // default frame's open scope.
  auto frame = profiler.NewFrame();
  StallProfiler::Frame* host = profiler.SwapFrame(frame.get());
  {
    ScopedAttribution other(&ledger, Attr(2, -1, 1));
    profiler.Charge(WaitClass::kLockWait, 0.0, 0.5);
  }
  profiler.SwapFrame(host);

  profiler.EndScope(1.0);
  // Query 1's scope keeps its full residual; query 2's charge was
  // top-level in its own frame, so both credited the window.
  EXPECT_EQ(ledger.QueryTotal(1).waits.ns[static_cast<int>(WaitClass::kCpuExec)],
            kSecond);
  EXPECT_EQ(ledger.QueryTotal(2).waits.ns[static_cast<int>(WaitClass::kLockWait)],
            kSecond / 2);
  EXPECT_EQ(profiler.window_nanos(), kSecond + kSecond / 2);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, TenantTotalJoinsLedgerMapping) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  ledger.SetQueryTenant(21, "red");
  ledger.SetQueryTenant(22, "blue");
  {
    ScopedAttribution a(&ledger, Attr(21, -1, 1));
    profiler.Charge(WaitClass::kNetworkTransfer, 0.0, 1.0);
  }
  {
    ScopedAttribution b(&ledger, Attr(22, -1, 1));
    profiler.Charge(WaitClass::kNetworkTransfer, 0.0, 2.0);
  }
  EXPECT_EQ(ledger.TenantTotal("red").waits.TotalNanos(), kSecond);
  EXPECT_EQ(ledger.TenantTotal("blue").waits.TotalNanos(), 2 * kSecond);
  EXPECT_EQ(ledger.TenantTotal("").waits.TotalNanos(), 0);
  EXPECT_EQ(profiler.GrandTotal().TotalNanos(), 3 * kSecond);
  EXPECT_EQ(ledger.GrandTotal().waits.TotalNanos(), 3 * kSecond);
}

// Time and money for one key live in one row: a stall charge and a
// request under the same attribution land in the same ledger entry,
// whichever comes first, and the entry keeps the attribution's tag.
TEST(StallProfilerTest, RequestAndStallShareOneLedgerEntry) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  {
    ScopedAttribution scope(&ledger, Attr(12, 3, 2, "Q12"));
    profiler.Charge(WaitClass::kNetworkTransfer, 0.0, 0.5);
    ledger.RecordRequest(CostLedger::Request::kGet, 4096);
    profiler.Charge(WaitClass::kThrottleBackoff, 0.5, 0.75);
  }
  auto entries = ledger.entries();
  ASSERT_EQ(entries.size(), 1u);
  const CostLedger::Key key{12, 3, 2};
  ASSERT_EQ(entries.count(key), 1u);
  const CostLedger::Entry& entry = entries.at(key);
  EXPECT_EQ(entry.tag, "Q12");
  EXPECT_EQ(entry.gets, 1u);
  EXPECT_EQ(entry.get_bytes, 4096u);
  EXPECT_EQ(entry.waits.ns[static_cast<int>(WaitClass::kNetworkTransfer)],
            kSecond / 2);
  EXPECT_EQ(entry.waits.ns[static_cast<int>(WaitClass::kThrottleBackoff)],
            kSecond / 4);
  EXPECT_EQ(entry.waits.TotalNanos(), 3 * kSecond / 4);
  ExpectConserved(ledger, profiler);
}

// The tenant rollup covers waits exactly as it covers dollars: the ""
// tenant (unmapped queries and unattributed work) plus every mapped
// tenant sums to the grand total.
TEST(StallProfilerTest, TenantWaitsSumToGrandTotal) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  ledger.SetQueryTenant(31, "red");
  ledger.SetQueryTenant(32, "blue");
  ledger.SetQueryTenant(33, "red");
  profiler.Charge(WaitClass::kLockWait, 0.0, 0.125);  // unattributed
  for (uint64_t q : {31, 32, 33, 34}) {  // 34 is never mapped
    ScopedAttribution scope(&ledger, Attr(q, -1, 1));
    ledger.RecordRequest(CostLedger::Request::kPut, 100);
    profiler.Charge(WaitClass::kNetworkTransfer, 0.0, 0.001 * q);
    profiler.BeginBackground();
    profiler.Charge(WaitClass::kOcmUpload, 1.0, 1.0 + 0.002 * q);
    profiler.EndBackground();
  }
  CostLedger::Entry sum;
  for (const std::string& tenant : ledger.Tenants()) {
    sum.Fold(ledger.TenantTotal(tenant));
  }
  sum.Fold(ledger.TenantTotal(""));
  CostLedger::Entry grand = ledger.GrandTotal();
  EXPECT_EQ(sum.waits.ns, grand.waits.ns);
  EXPECT_EQ(sum.waits.background, grand.waits.background);
  EXPECT_EQ(sum.puts, grand.puts);
  EXPECT_NEAR(sum.TotalUsd(ledger.prices()), grand.TotalUsd(ledger.prices()),
              1e-12);
  EXPECT_GT(ledger.TenantTotal("").waits.TotalNanos(), kSecond / 8);
  EXPECT_EQ(grand.waits.TotalNanos(),
            profiler.window_nanos() + profiler.background_nanos());
}

TEST(StallProfilerTest, ResetClearsEverything) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  profiler.Charge(WaitClass::kLockWait, 0.0, 1.0);
  profiler.BeginBackground();
  profiler.Charge(WaitClass::kOcmUpload, 0.0, 1.0);
  profiler.EndBackground();
  ledger.Reset();
  EXPECT_TRUE(ledger.entries().empty());
  EXPECT_EQ(profiler.window_nanos(), 0);
  EXPECT_EQ(profiler.background_nanos(), 0);
}

// CostLedger::Reset() is the one reset: it clears the waits with the
// entries and drops the profiler's frames — open scopes on the default
// frame and an installed job frame alike.
TEST(StallProfilerTest, LedgerResetClearsWaitsAndFrames) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, nullptr);
  ScopedAttribution scope(&ledger, Attr(5, -1, 1));
  profiler.BeginScope(WaitClass::kCpuExec, 0.0);  // left open on purpose
  auto frame = profiler.NewFrame();
  profiler.SwapFrame(frame.get());
  profiler.BeginScope(WaitClass::kCpuExec, 0.0);  // open in the job frame
  profiler.Charge(WaitClass::kOcmFetch, 0.0, 1.0);
  ASSERT_GT(ledger.GrandTotal().waits.TotalNanos(), 0);

  ledger.Reset();
  EXPECT_TRUE(ledger.entries().empty());
  EXPECT_EQ(ledger.GrandTotal().waits.TotalNanos(), 0);
  // The default frame is current again: installing a frame hands back
  // nullptr, and swapping it back out returns the one installed.
  auto next = profiler.NewFrame();
  EXPECT_EQ(profiler.SwapFrame(next.get()), nullptr);
  EXPECT_EQ(profiler.SwapFrame(nullptr), next.get());
  // No scope survived on the default frame: a charge is top-level and
  // credits the window directly.
  ScopedAttribution after(&ledger, Attr(6, -1, 1));
  profiler.Charge(WaitClass::kLockWait, 2.0, 2.5);
  EXPECT_EQ(profiler.window_nanos(), kSecond / 2);
  EXPECT_EQ(ledger.QueryTotal(6).waits.TotalNanos(), kSecond / 2);
  ExpectConserved(ledger, profiler);
}

// The morsel executor's shape: a parallel section whose lane charges are
// consecutive disjoint windows telescoping to exactly the section's
// elapsed time, nested inside an operator scope, nested inside a pinned
// per-job query scope (how the workload engine brackets a job body).
// The telescoping lanes must register unscaled, the operator residual
// and the pinned query residual must each be exact, and the per-entry
// class sums must telescope to the window (what tools/stall_top.py
// --check verifies per entry on every report).
TEST(StallProfilerTest, MorselLanesInsidePinnedScopeStayExact) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, /*tracer=*/nullptr);
  {
    ScopedAttribution query(&ledger, Attr(11, -1, 1, "job"));
    profiler.BeginScope(WaitClass::kCpuExec, 0.0);
    profiler.PinScopeAttribution();
    {
      ScopedAttribution op(&ledger, Attr(11, 0, 1, "job"));
      profiler.BeginScope(WaitClass::kCpuExec, 0.0);
      profiler.BeginParallel(0.0);
      profiler.Charge(WaitClass::kCpuExec, 0.0, 0.25);  // morsel 0
      profiler.Charge(WaitClass::kCpuExec, 0.25, 0.5);  // morsel 1
      profiler.EndParallel(0.5);
      profiler.EndScope(0.75);
    }
    profiler.EndScope(1.0);
  }
  int64_t op_ns = 0, query_level_ns = 0;
  for (const auto& [key, entry] : ledger.entries()) {
    ASSERT_EQ(key.query_id, 11u);
    if (key.operator_id == 0) op_ns = entry.waits.TotalNanos();
    if (key.operator_id == -1) query_level_ns = entry.waits.TotalNanos();
  }
  // Operator: 0.5s of unscaled morsel lanes + 0.25s scope residual.
  EXPECT_EQ(op_ns, 3 * kSecond / 4);
  // Pinned query scope keeps only its own residual.
  EXPECT_EQ(query_level_ns, kSecond / 4);
  EXPECT_EQ(ledger.QueryTotal(11).waits.TotalNanos(), kSecond);
  EXPECT_EQ(profiler.window_nanos(), kSecond);
  ExpectConserved(ledger, profiler);
}

// The RAII wrapper the executor-adjacent code uses for parallel
// sections: construction/destruction bracket Begin/EndParallel on the
// clock's current time.
TEST(StallProfilerTest, ScopedParallelStallBracketsSection) {
  CostLedger ledger;
  StallProfiler profiler(&ledger, /*tracer=*/nullptr);
  SimClock clock;
  ScopedAttribution scope(&ledger, Attr(4, -1, 1));
  {
    ScopedParallelStall parallel(&profiler, &clock);
    profiler.Charge(WaitClass::kCpuExec, 0.0, 0.125);
    clock.AdvanceTo(0.125);
  }
  EXPECT_EQ(ledger.QueryTotal(4).waits.TotalNanos(), kSecond / 8);
  EXPECT_EQ(profiler.window_nanos(), kSecond / 8);
  ExpectConserved(ledger, profiler);
}

TEST(StallProfilerTest, WaitClassNamesAreStable) {
  EXPECT_STREQ(WaitClassName(WaitClass::kCpuExec), "cpu_exec");
  EXPECT_STREQ(WaitClassName(WaitClass::kLockWait), "lock_wait");
  EXPECT_STREQ(WaitClassName(WaitClass::kAdmissionQueue),
               "admission_queue");
  EXPECT_STREQ(WaitClassName(WaitClass::kBufferFill), "buffer_fill");
  EXPECT_STREQ(WaitClassName(WaitClass::kOcmFetch), "ocm_fetch");
  EXPECT_STREQ(WaitClassName(WaitClass::kOcmUpload), "ocm_upload");
  EXPECT_STREQ(WaitClassName(WaitClass::kNetworkTransfer),
               "network_transfer");
  EXPECT_STREQ(WaitClassName(WaitClass::kThrottleBackoff),
               "throttle_backoff");
  EXPECT_STREQ(WaitClassName(WaitClass::kNdpSelect), "ndp_select");
}

}  // namespace
}  // namespace cloudiq

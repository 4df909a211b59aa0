#!/usr/bin/env bash
# Tier-1 verification plus sanitizer sweeps.
#
#   scripts/check.sh            # lint + determinism + build + ctest,
#                               # report + stress smoke, tidy,
#                               # ASan, UBSan, TSan
#   scripts/check.sh asan       # just the AddressSanitizer pass
#   scripts/check.sh ubsan      # just the UndefinedBehaviorSanitizer pass
#   scripts/check.sh tsan       # just the ThreadSanitizer pass
#   scripts/check.sh plain      # just the uninstrumented build + tests
#   scripts/check.sh report     # just the --report JSON smoke check
#   scripts/check.sh stress     # concurrency bench smoke under ASan + TSan
#   scripts/check.sh lint       # cloudiq_lint.py rules + its unit tests
#   scripts/check.sh tidy       # clang-tidy + Clang -Wthread-safety gate
#                               # (skips with a notice if clang is absent)
#   scripts/check.sh determinism # run tpch_power_run --report twice with
#                               # the fixed seed and byte-compare the JSON
#   scripts/check.sh ndp        # bench_ndp smoke: >= 5x NIC cut, auto's
#                               # request USD no more than the cheaper of
#                               # off and on, identical results, double-run
#                               # --report byte-identical, and a run
#                               # under ASan
#   scripts/check.sh profile    # stall-profiler gate: conservation
#                               # invariant on the report JSON (single-
#                               # node and multi-tenant), double-run
#                               # byte-compare with stalls included, and
#                               # a --profile run under ASan
#   scripts/check.sh costopt    # bench_costopt smoke: cost-aware planning
#                               # dominates always-push and keeps warm
#                               # scans local, predictive admission cuts
#                               # reactive admission's overshoot, double-run
#                               # --report byte-identical, and a run
#                               # under ASan
#   scripts/check.sh locks      # lock-order gate: cloudiq_locks.py
#                               # fixture tests, whole-tree analysis
#                               # against LOCKS.md, generated rank-header
#                               # freshness, the runtime tripwire tests
#                               # with the observer force-enabled, and a
#                               # double-run byte-compare proving the
#                               # tripwire never perturbs the simulation
#   scripts/check.sh benches    # every bench_* but bench_micro at a
#                               # small scale factor (and the page-size
#                               # ablation at its own): any nonzero exit
#                               # fails
#   scripts/check.sh fuzz       # seeded mutation fuzz of the persisted-
#                               # and wire-byte decoders (column pages,
#                               # page-codec frames, table metadata,
#                               # interval sets, RF/RB
#                               # page sets, txn-log records, the keygen
#                               # checkpoint, blockmap nodes, the identity
#                               # catalog, the system-store directory,
#                               # NDP request/result frames,
#                               # HG/DATE/TEXT index pages, the freelist
#                               # bitmap), plus the page encoder's size
#                               # pass and round trip, under ASan
#                               # and UBSan (UB is fatal)
#   scripts/check.sh parallel   # morsel-executor gate: scale-up bench
#                               # --report byte-identical across double
#                               # runs and across --workers=1 vs 8
#                               # (8 real threads race the inline run),
#                               # stall conservation (incl. per-entry
#                               # telescoping) on the parallel report,
#                               # stall_top fixture tests, the 1/2/4/8
#                               # worker sweep under TSan, and the
#                               # parallel-executor and hash-table
#                               # oracle tests and the coded-vs-
#                               # plain column tests under TSan
#
# Several passes may be named in one call (scripts/check.sh ndp benches);
# they run in the order given.
#
# Each pass uses its own build tree (build/, build-asan/, build-ubsan/,
# build-tsan/) so the sweeps never poison the primary build's cache.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_pass() {
  local name="$1" dir="$2" sanitize="$3"
  echo "=== ${name}: configure + build + ctest (${dir}) ==="
  cmake -B "${dir}" -S . -DCLOUDIQ_SANITIZE="${sanitize}" \
    > "${dir}-configure.log" 2>&1 || {
      cat "${dir}-configure.log"; return 1; }
  cmake --build "${dir}" -j "${JOBS}"
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
  echo "=== ${name}: OK ==="
}

# Runs tpch_power_run with --report and validates that the emitted JSON
# parses, carries the expected top-level keys and bills through the ledger
# alone (no second "meter" copy of the costs), and that the per-query
# USD sums to the ledger total. A second run, bench_table5 with NDP
# forced on, checks that pushed-down SELECTs reach the ledger and that
# its stall section (the only CI report charging ndp_select) conserves.
report_smoke() {
  echo "=== report: --report JSON smoke (build) ==="
  cmake -B build -S . > build-configure.log 2>&1 || {
    cat build-configure.log; return 1; }
  cmake --build build -j "${JOBS}" \
    --target tpch_power_run bench_table5_ocm_utilization
  local out ndp_out
  out="$(mktemp /tmp/cloudiq_report.XXXXXX.json)"
  ndp_out="$(mktemp /tmp/cloudiq_report_ndp.XXXXXX.json)"
  CLOUDIQ_BENCH_SF=0.002 ./build/examples/tpch_power_run \
    --report="${out}" > /dev/null
  CLOUDIQ_BENCH_SF=0.002 ./build/bench/bench_table5_ocm_utilization \
    --ndp=on --report="${ndp_out}" > /dev/null
  python3 - "${out}" "${ndp_out}" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        report = json.load(f)
    assert report["schema_version"] == 2, report["schema_version"]
    assert "ledger" in report["cost"], report["cost"].keys()
    assert "meter" not in report["cost"], "stale cost.meter block"
    return report

report = load(sys.argv[1])
expected = ["schema_version", "bench", "scale_factor", "sim_seconds",
            "cost", "queries", "nodes", "tenants", "prefixes",
            "histograms", "counters", "gauges"]
missing = [k for k in expected if k not in report]
assert not missing, f"missing top-level keys: {missing}"

ledger_usd = report["cost"]["ledger"]["total_usd"]
assert report["queries"], "no queries attributed"
per_query = sum(q["total_usd"] for q in report["queries"])
assert abs(per_query - ledger_usd) < 1e-6, (per_query, ledger_usd)
print(f"report OK: {len(report['queries'])} queries, "
      f"per-query sum ${per_query:.6f} == ledger ${ledger_usd:.6f}")

selects = load(sys.argv[2])["cost"]["ledger"]["selects"]
assert selects > 0, "NDP run billed no SELECTs"
print(f"report OK: NDP run billed {selects} SELECTs")
EOF
  python3 tools/stall_top.py --check "${ndp_out}"
  rm -f "${out}" "${ndp_out}"
  echo "=== report: OK ==="
}

# Runs the concurrency bench (one pinned multi-tenant configuration, tiny
# scale factor) under a sanitizer. The workload engine drives real fibers
# through a strict handoff protocol — exactly the code ASan and TSan are
# best placed to vet, and far more schedule pressure than the unit tests.
stress_one() {
  local sanitize="$1" dir="$2"
  echo "--- stress (${sanitize}): build + run bench_concurrency"
  cmake -B "${dir}" -S . -DCLOUDIQ_SANITIZE="${sanitize}" \
    > "${dir}-configure.log" 2>&1 || {
      cat "${dir}-configure.log"; return 1; }
  cmake --build "${dir}" -j "${JOBS}" --target bench_concurrency
  CLOUDIQ_BENCH_SF=0.002 "./${dir}/bench/bench_concurrency" \
    --tenants=2 --arrival=2 --concurrency=2 > /dev/null
  echo "--- stress (${sanitize}): OK"
}

stress_smoke() {
  echo "=== stress: concurrency bench smoke under ASan + TSan ==="
  stress_one address build-asan
  stress_one thread build-tsan
  echo "=== stress: OK ==="
}

# Project linter (determinism + storage-policy rules) and its own tests.
lint_pass() {
  echo "=== lint: cloudiq_lint.py over src bench tests examples ==="
  python3 tools/cloudiq_lint_test.py
  python3 tools/cloudiq_lint.py src bench tests examples
  echo "=== lint: OK ==="
}

# clang-tidy over the library sources plus the Clang thread-safety
# analysis gate (-Wthread-safety -Werror). Both need LLVM tooling; when
# the container only ships GCC the pass reports SKIPPED instead of
# silently passing, so CI logs show exactly what ran.
tidy_pass() {
  echo "=== tidy: clang-tidy + -Wthread-safety gate ==="
  local src_files
  src_files="$(find src -name '*.cc' | sort)"
  local ran_anything=0
  if command -v clang++ > /dev/null 2>&1; then
    ran_anything=1
    echo "--- tidy: clang++ -Wthread-safety -Werror (syntax-only)"
    # shellcheck disable=SC2086
    clang++ -std=c++20 -Isrc -fsyntax-only \
      -Wthread-safety -Wthread-safety-beta -Werror ${src_files}
    echo "--- tidy: thread-safety analysis clean"
  else
    echo "--- tidy: SKIPPED thread-safety gate (no clang++ in PATH)"
  fi
  if command -v clang-tidy > /dev/null 2>&1; then
    ran_anything=1
    echo "--- tidy: clang-tidy (.clang-tidy config)"
    # shellcheck disable=SC2086
    clang-tidy --quiet ${src_files} -- -std=c++20 -Isrc
    echo "--- tidy: clang-tidy clean"
  else
    echo "--- tidy: SKIPPED clang-tidy (not in PATH)"
  fi
  if [ "${ran_anything}" = 0 ]; then
    echo "=== tidy: SKIPPED (no LLVM tooling available) ==="
  else
    echo "=== tidy: OK ==="
  fi
}

# Determinism contract (EXPERIMENTS.md): the same seed must produce a
# byte-identical --report JSON, twice in a row, fresh process each time.
determinism_pass() {
  echo "=== determinism: double-run byte-compare of --report JSON ==="
  cmake -B build -S . > build-configure.log 2>&1 || {
    cat build-configure.log; return 1; }
  cmake --build build -j "${JOBS}" --target tpch_power_run
  local out1 out2
  out1="$(mktemp /tmp/cloudiq_det1.XXXXXX.json)"
  out2="$(mktemp /tmp/cloudiq_det2.XXXXXX.json)"
  CLOUDIQ_BENCH_SF=0.002 ./build/examples/tpch_power_run \
    --report="${out1}" > /dev/null
  CLOUDIQ_BENCH_SF=0.002 ./build/examples/tpch_power_run \
    --report="${out2}" > /dev/null
  if ! cmp -s "${out1}" "${out2}"; then
    echo "determinism FAILED: reports differ" >&2
    diff "${out1}" "${out2}" | head -40 >&2 || true
    rm -f "${out1}" "${out2}"
    return 1
  fi
  echo "reports byte-identical ($(wc -c < "${out1}") bytes)"
  rm -f "${out1}" "${out2}"
  echo "=== determinism: OK ==="
}

# Near-data processing smoke: bench_ndp's own exit status enforces the
# crossover claims (>= 5x NIC-byte reduction on the Q6-style scan, auto's
# request USD no more than the cheaper of the off and on runs' on every case,
# identical results across modes); on top of that the --report JSON must be byte-identical
# across double runs, and the whole sweep plus ndp_test (the server's
# in-place page writes) must be clean under ASan.
ndp_pass() {
  echo "=== ndp: bench_ndp crossover + determinism + ASan ==="
  cmake -B build -S . > build-configure.log 2>&1 || {
    cat build-configure.log; return 1; }
  cmake --build build -j "${JOBS}" --target bench_ndp
  local out1 out2
  out1="$(mktemp /tmp/cloudiq_ndp1.XXXXXX.json)"
  out2="$(mktemp /tmp/cloudiq_ndp2.XXXXXX.json)"
  CLOUDIQ_BENCH_SF=0.005 ./build/bench/bench_ndp --report="${out1}" \
    > /dev/null
  CLOUDIQ_BENCH_SF=0.005 ./build/bench/bench_ndp --report="${out2}" \
    > /dev/null
  if ! cmp -s "${out1}" "${out2}"; then
    echo "ndp determinism FAILED: reports differ" >&2
    diff "${out1}" "${out2}" | head -40 >&2 || true
    rm -f "${out1}" "${out2}"
    return 1
  fi
  echo "--- ndp: reports byte-identical ($(wc -c < "${out1}") bytes)"
  rm -f "${out1}" "${out2}"
  echo "--- ndp: ASan run"
  cmake -B build-asan -S . -DCLOUDIQ_SANITIZE=address \
    > build-asan-configure.log 2>&1 || {
      cat build-asan-configure.log; return 1; }
  cmake --build build-asan -j "${JOBS}" --target bench_ndp ndp_test
  CLOUDIQ_BENCH_SF=0.005 ./build-asan/bench/bench_ndp > /dev/null
  ./build-asan/tests/ndp_test
  echo "=== ndp: OK ==="
}

# Stall-profiler gate. Three legs:
#   1. conservation — tools/stall_top.py --check recomputes, from the
#      JSON alone, that every entry's classes sum to its total and the
#      totals sum to window + background nanos; run against both the
#      sequential power run and the multi-tenant concurrency bench
#      (interleaved fibers are where mis-bracketed scopes would show);
#   2. determinism — the report (stalls section included) must stay
#      byte-identical across double runs at the fixed seed, with
#      --profile on so the stall-top printer path is exercised too;
#   3. ASan — the concurrency bench under --profile, since frame swaps
#      and scope stacks are fresh pointer-juggling code.
profile_pass() {
  echo "=== profile: stall conservation + determinism + ASan ==="
  cmake -B build -S . > build-configure.log 2>&1 || {
    cat build-configure.log; return 1; }
  cmake --build build -j "${JOBS}" --target tpch_power_run bench_concurrency
  local out1 out2 conc
  out1="$(mktemp /tmp/cloudiq_prof1.XXXXXX.json)"
  out2="$(mktemp /tmp/cloudiq_prof2.XXXXXX.json)"
  conc="$(mktemp /tmp/cloudiq_prof_conc.XXXXXX.json)"
  CLOUDIQ_BENCH_SF=0.002 ./build/examples/tpch_power_run \
    --profile --report="${out1}" > /dev/null
  CLOUDIQ_BENCH_SF=0.002 ./build/examples/tpch_power_run \
    --profile --report="${out2}" > /dev/null
  echo "--- profile: conservation (tpch_power_run)"
  python3 tools/stall_top.py --check "${out1}"
  if ! cmp -s "${out1}" "${out2}"; then
    echo "profile determinism FAILED: reports differ" >&2
    diff "${out1}" "${out2}" | head -40 >&2 || true
    rm -f "${out1}" "${out2}" "${conc}"
    return 1
  fi
  echo "--- profile: reports byte-identical ($(wc -c < "${out1}") bytes)"
  echo "--- profile: conservation (bench_concurrency, multi-tenant)"
  CLOUDIQ_BENCH_SF=0.002 ./build/bench/bench_concurrency \
    --tenants=2 --arrival=2 --concurrency=2 --profile \
    --report="${conc}" > /dev/null
  python3 tools/stall_top.py --check "${conc}"
  rm -f "${out1}" "${out2}" "${conc}"
  echo "--- profile: ASan run"
  cmake -B build-asan -S . -DCLOUDIQ_SANITIZE=address \
    > build-asan-configure.log 2>&1 || {
      cat build-asan-configure.log; return 1; }
  cmake --build build-asan -j "${JOBS}" --target bench_concurrency
  CLOUDIQ_BENCH_SF=0.002 ./build-asan/bench/bench_concurrency \
    --tenants=2 --arrival=2 --concurrency=2 --profile > /dev/null
  echo "=== profile: OK ==="
}

# Cost-intelligent planning smoke: bench_costopt's own exit status
# enforces the headline claims (cost-aware strictly dominates always-push
# on the warm-rescan mix and keeps every warm scan local, predictive
# admission defers where reactive admission overshoots the budget); on
# top of that the --report JSON — which carries the
# costopt.prediction_error gauge and the whole decision trail — must be
# byte-identical across double runs, and the bench must be clean under
# ASan.
costopt_pass() {
  echo "=== costopt: bench_costopt dominance + determinism + ASan ==="
  cmake -B build -S . > build-configure.log 2>&1 || {
    cat build-configure.log; return 1; }
  cmake --build build -j "${JOBS}" --target bench_costopt
  local out1 out2
  out1="$(mktemp /tmp/cloudiq_costopt1.XXXXXX.json)"
  out2="$(mktemp /tmp/cloudiq_costopt2.XXXXXX.json)"
  CLOUDIQ_BENCH_SF=0.005 ./build/bench/bench_costopt --report="${out1}" \
    > /dev/null
  CLOUDIQ_BENCH_SF=0.005 ./build/bench/bench_costopt --report="${out2}" \
    > /dev/null
  if ! cmp -s "${out1}" "${out2}"; then
    echo "costopt determinism FAILED: reports differ" >&2
    diff "${out1}" "${out2}" | head -40 >&2 || true
    rm -f "${out1}" "${out2}"
    return 1
  fi
  echo "--- costopt: reports byte-identical ($(wc -c < "${out1}") bytes)"
  rm -f "${out1}" "${out2}"
  echo "--- costopt: ASan run"
  cmake -B build-asan -S . -DCLOUDIQ_SANITIZE=address \
    > build-asan-configure.log 2>&1 || {
      cat build-asan-configure.log; return 1; }
  cmake --build build-asan -j "${JOBS}" --target bench_costopt
  CLOUDIQ_BENCH_SF=0.005 ./build-asan/bench/bench_costopt > /dev/null
  echo "=== costopt: OK ==="
}

# Lock-order gate. Static side first: the analyzer's own fixture tests,
# then the whole-tree run against the LOCKS.md rank manifest (any
# unregistered mutex, rank inversion, deadlock cycle, or lock held
# across a callback / simulated I/O fails here — loudly, never SKIP),
# then the freshness check tying src/common/lock_ranks.h to the
# manifest. Dynamic side second: the tripwire regression tests with the
# observer force-enabled, the seed-swept interleaving stress, and a
# double-run byte-compare showing the tripwire's bookkeeping never
# changes simulation output.
locks_pass() {
  echo "=== locks: analyzer + manifest + tripwire + determinism ==="
  echo "--- locks: cloudiq_locks.py fixture tests"
  python3 tools/cloudiq_locks_test.py
  echo "--- locks: whole-tree lock-graph analysis vs LOCKS.md"
  python3 tools/cloudiq_locks.py src
  echo "--- locks: generated rank header is fresh"
  python3 tools/cloudiq_locks.py --check-ranks src/common/lock_ranks.h
  echo "--- locks: tripwire regression + interleaving stress (observer on)"
  cmake -B build -S . > build-configure.log 2>&1 || {
    cat build-configure.log; return 1; }
  cmake --build build -j "${JOBS}" --target lock_rank_test lock_stress_test \
    tpch_power_run
  CLOUDIQ_LOCK_RANK_CHECK=1 ./build/tests/lock_rank_test
  CLOUDIQ_LOCK_RANK_CHECK=1 ./build/tests/lock_stress_test
  echo "--- locks: tripwire-on double-run byte-compare"
  local out1 out2
  out1="$(mktemp /tmp/cloudiq_locks1.XXXXXX.json)"
  out2="$(mktemp /tmp/cloudiq_locks2.XXXXXX.json)"
  CLOUDIQ_LOCK_RANK_CHECK=1 CLOUDIQ_BENCH_SF=0.002 \
    ./build/examples/tpch_power_run --report="${out1}" > /dev/null
  CLOUDIQ_LOCK_RANK_CHECK=1 CLOUDIQ_BENCH_SF=0.002 \
    ./build/examples/tpch_power_run --report="${out2}" > /dev/null
  if ! cmp -s "${out1}" "${out2}"; then
    echo "locks determinism FAILED: reports differ with tripwire on" >&2
    diff "${out1}" "${out2}" | head -40 >&2 || true
    rm -f "${out1}" "${out2}"
    return 1
  fi
  echo "--- locks: reports byte-identical ($(wc -c < "${out1}") bytes)"
  rm -f "${out1}" "${out2}"
  echo "=== locks: OK ==="
}

# Morsel-executor gate. Four legs:
#   1. sim determinism — the scale-up bench's --report (stalls included)
#      must be byte-identical across double runs AND across executor
#      worker counts (--workers=1 runs morsels inline, --workers=8 on
#      real pool threads), since the executor charges morsels to the
#      simulated clock in a fixed order regardless of how many threads
#      ran them;
#   2. conservation — tools/stall_top.py --check on the parallel report,
#      now including the per-entry telescoping check (a parallel
#      section's lane totals must sum to each entry's declared total);
#   3. the checker's own fixture tests (stall_top_test.py);
#   4. TSan — the 1/2/4/8 worker sweep under ThreadSanitizer, the one
#      place real threads race over morsel queues and fragments, plus
#      exec_test's multi-worker cases (ParallelExecTest, the join and
#      aggregate oracles at 1/2/4 workers, the row-key table, and the
#      1-vs-8-worker scans whose tasks decode into disjoint rows of one
#      output) on small inputs.
parallel_pass() {
  echo "=== parallel: morsel executor determinism + conservation + TSan ==="
  cmake -B build -S . > build-configure.log 2>&1 || {
    cat build-configure.log; return 1; }
  cmake --build build -j "${JOBS}" --target bench_fig7_scale_up
  local out1 out2 w1 w8
  out1="$(mktemp /tmp/cloudiq_par1.XXXXXX.json)"
  out2="$(mktemp /tmp/cloudiq_par2.XXXXXX.json)"
  w1="$(mktemp /tmp/cloudiq_parw1.XXXXXX.json)"
  w8="$(mktemp /tmp/cloudiq_parw8.XXXXXX.json)"
  CLOUDIQ_BENCH_SF=0.01 ./build/bench/bench_fig7_scale_up --quick \
    --report="${out1}" > /dev/null
  CLOUDIQ_BENCH_SF=0.01 ./build/bench/bench_fig7_scale_up --quick \
    --report="${out2}" > /dev/null
  if ! cmp -s "${out1}" "${out2}"; then
    echo "parallel determinism FAILED: double-run reports differ" >&2
    diff "${out1}" "${out2}" | head -40 >&2 || true
    rm -f "${out1}" "${out2}" "${w1}" "${w8}"
    return 1
  fi
  echo "--- parallel: double-run reports byte-identical ($(wc -c < "${out1}") bytes)"
  CLOUDIQ_BENCH_SF=0.01 ./build/bench/bench_fig7_scale_up --quick \
    --workers=1 --report="${w1}" > /dev/null
  CLOUDIQ_BENCH_SF=0.01 ./build/bench/bench_fig7_scale_up --quick \
    --workers=8 --report="${w8}" > /dev/null
  if ! cmp -s "${w1}" "${w8}"; then
    echo "parallel determinism FAILED: sim report depends on worker count" >&2
    diff "${w1}" "${w8}" | head -40 >&2 || true
    rm -f "${out1}" "${out2}" "${w1}" "${w8}"
    return 1
  fi
  echo "--- parallel: --workers=1 vs --workers=8 reports byte-identical"
  echo "--- parallel: stall conservation on the parallel report"
  python3 tools/stall_top.py --check "${out1}"
  rm -f "${out1}" "${out2}" "${w1}" "${w8}"
  echo "--- parallel: stall_top checker fixture tests"
  python3 tools/stall_top_test.py
  echo "--- parallel: TSan worker sweep"
  cmake -B build-tsan -S . -DCLOUDIQ_SANITIZE=thread \
    > build-tsan-configure.log 2>&1 || {
      cat build-tsan-configure.log; return 1; }
  cmake --build build-tsan -j "${JOBS}" --target bench_fig7_scale_up
  CLOUDIQ_BENCH_SF=0.005 ./build-tsan/bench/bench_fig7_scale_up --quick \
    > /dev/null
  echo "--- parallel: TSan exec_test multi-worker and oracle cases"
  cmake --build build-tsan -j "${JOBS}" --target exec_test
  ./build-tsan/tests/exec_test \
    --gtest_filter='ParallelExecTest.*:ExecOracleTest.*:RowKeyTableTest.*:DenseKeyIndexTest.*:CodedColumnTest.*:ScanDecodeTest.*'
  echo "=== parallel: OK ==="
}

# Decoder fuzz gate: codec_fuzz_test feeds DecodeColumnPage,
# DecodeColumnPageCoded and DecodeColumnPageInto (with random run sets),
# DecodePage, TableMeta::Deserialize,
# IntervalSet::Deserialize,
# Bitmap::Deserialize, PageSet::Deserialize, TxnLogRecord::Deserialize,
# ObjectKeyGenerator::Recover, Blockmap::ParseNode,
# IdentityCatalog::Deserialize, SystemStore::Open, NdpRequest::Deserialize,
# NdpResult::Deserialize and the HG / DATE / TEXT posting-page walker and
# lookups truncated, bit-flipped and count-overwritten bytes from a fixed
# seed, plus dictionary pages with swapped and duplicated entries. Every
# call must return a value or Corruption (InvalidArgument for an NDP
# request), and the column-page decoders must agree: all Corruption, or
# the coded result expands to the plain one and the in-place decode
# writes exactly the asked-for rows of it. It also feeds seeded and
# mutated payloads to the page encoder: EncodedPageSize must equal the
# frame's size and the frame must decode back to the payload, and a page
# frame with any flags bit set must be Corruption. ASan catches
# overreads and oversized allocations, UBSan (halting on the first
# report) catches shifts by a corrupt width.
fuzz_pass() {
  echo "=== fuzz: decoder mutation fuzz under ASan + UBSan ==="
  local pass sanitize dir
  for pass in address:build-asan undefined:build-ubsan; do
    sanitize="${pass%%:*}" dir="${pass#*:}"
    echo "--- fuzz (${sanitize}): build + run codec_fuzz_test"
    cmake -B "${dir}" -S . -DCLOUDIQ_SANITIZE="${sanitize}" \
      > "${dir}-configure.log" 2>&1 || {
        cat "${dir}-configure.log"; return 1; }
    cmake --build "${dir}" -j "${JOBS}" --target codec_fuzz_test
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      "./${dir}/tests/codec_fuzz_test"
  done
  echo "=== fuzz: OK ==="
}

# Every bench binary except bench_micro (google-benchmark, host timing
# only), each at CLOUDIQ_BENCH_SF=0.005. A bench exits nonzero when one of
# its own checks fails or a sweep point cannot load, and any such exit
# fails the pass. bench_ablation_page_size also runs at its default SF
# 0.1: index postings grow with the scale, and at 0.005 none of them
# comes near filling one of its 64 KB pages.
benches_pass() {
  echo "=== benches: every bench_* but bench_micro ==="
  cmake -B build -S . > build-configure.log 2>&1 || {
    cat build-configure.log; return 1; }
  local benches bench
  benches="$(sed -n 's/^cloudiq_bench(\(bench_[a-z0-9_]*\))$/\1/p' \
    bench/CMakeLists.txt)"
  # shellcheck disable=SC2086
  cmake --build build -j "${JOBS}" --target ${benches}
  for bench in ${benches}; do
    echo "--- benches: ${bench} (SF 0.005)"
    CLOUDIQ_BENCH_SF=0.005 "./build/bench/${bench}" > /dev/null || {
      echo "benches FAILED: ${bench} exited $?" >&2; return 1; }
  done
  echo "--- benches: bench_ablation_page_size (its default SF)"
  env -u CLOUDIQ_BENCH_SF ./build/bench/bench_ablation_page_size \
    > /dev/null || {
      echo "benches FAILED: bench_ablation_page_size exited $?" >&2
      return 1; }
  echo "=== benches: OK ==="
}

run_named() {
  case "$1" in
    plain)  run_pass "plain" build "" ;;
    asan)   run_pass "ASan"  build-asan address ;;
    ubsan)  run_pass "UBSan" build-ubsan undefined ;;
    tsan)   run_pass "TSan"  build-tsan thread ;;
    report) report_smoke ;;
    stress) stress_smoke ;;
    lint)   lint_pass ;;
    tidy)   tidy_pass ;;
    determinism) determinism_pass ;;
    ndp) ndp_pass ;;
    profile) profile_pass ;;
    costopt) costopt_pass ;;
    locks) locks_pass ;;
    parallel) parallel_pass ;;
    fuzz) fuzz_pass ;;
    benches) benches_pass ;;
    all)
      lint_pass
      locks_pass
      run_pass "plain" build ""
      report_smoke
      determinism_pass
      ndp_pass
      profile_pass
      costopt_pass
      benches_pass
      parallel_pass
      fuzz_pass
      tidy_pass
      run_pass "ASan"  build-asan address
      run_pass "UBSan" build-ubsan undefined
      run_pass "TSan"  build-tsan thread
      stress_smoke
      ;;
    *)
      echo "usage: $0 [all|plain|asan|ubsan|tsan|report|stress|lint|tidy|determinism|ndp|profile|costopt|locks|parallel|fuzz|benches]..." >&2
      exit 2
      ;;
  esac
}

if [ "$#" -eq 0 ]; then set -- all; fi
for what in "$@"; do run_named "${what}"; done

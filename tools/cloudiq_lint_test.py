#!/usr/bin/env python3
"""Unit tests for cloudiq_lint.py: every rule's positive and negative
fixtures plus the NOLINT escape hatch, run against real files in a temp
tree (the rules are path-sensitive)."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cloudiq_lint  # noqa: E402


class LintFixtureTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel_path, content):
        path = os.path.join(self.tmp.name, rel_path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path

    def lint(self, rel_path, content):
        return cloudiq_lint.lint_file(self.write(rel_path, content))

    def rules(self, violations):
        return sorted(v.rule for v in violations)

    # --- cloudiq-wall-clock -------------------------------------------------

    def test_wall_clock_flags_every_source(self):
        code = (
            "#include <chrono>\n"
            "auto a = std::chrono::system_clock::now();\n"
            "auto b = std::chrono::steady_clock::now();\n"
            "std::random_device rd;\n"
            "long c = time(nullptr);\n"
            "int d = rand();\n"
            "void f() { srand(42); }\n"
        )
        violations = self.lint("src/engine/clocky.cc", code)
        self.assertEqual(self.rules(violations), ["wall-clock"] * 6)

    def test_wall_clock_allows_sim_and_random(self):
        code = "auto a = std::chrono::steady_clock::now();\n"
        self.assertEqual(self.lint("src/sim/sim_clock.cc", code), [])
        self.assertEqual(self.lint("src/common/random.cc", code), [])

    def test_wall_clock_ignores_comments_strings_and_substrings(self):
        code = (
            "// uses system_clock for nothing\n"
            "const char* s = \"steady_clock\";\n"
            "double fetch_time(int x);\n"   # _time( is not time(
            "SimTime t = SimTime(3);\n"
        )
        self.assertEqual(self.lint("src/engine/clean.cc", code), [])

    # --- cloudiq-raw-new ----------------------------------------------------

    def test_raw_new_and_delete_flagged_in_src(self):
        code = (
            "void f() {\n"
            "  int* p = new int(3);\n"
            "  delete p;\n"
            "}\n"
        )
        violations = self.lint("src/engine/owner.cc", code)
        self.assertEqual(self.rules(violations), ["raw-new", "raw-new"])

    def test_deleted_functions_and_tests_are_fine(self):
        code = "Foo(const Foo&) = delete;\nFoo& operator=(Foo&&) = delete;\n"
        self.assertEqual(self.lint("src/engine/rule5.h", code), [])
        raw = "void f() { int* p = new int; delete p; }\n"
        # Rule scope is engine code: tests/bench are out of scope.
        self.assertEqual(self.lint("tests/foo_test.cc", raw), [])

    def test_new_in_identifier_not_flagged(self):
        code = "int new_string = 3; int renew = new_string;\n"
        self.assertEqual(self.lint("src/engine/names.cc", code), [])

    # --- cloudiq-unordered-iter ---------------------------------------------

    def test_unordered_iteration_flagged_in_emit_files(self):
        code = (
            "#include <unordered_map>\n"
            "std::unordered_map<uint64_t, std::vector<uint8_t>> runs_;\n"
            "void Emit() {\n"
            "  for (const auto& [k, v] : runs_) { Write(k); }\n"
            "}\n"
        )
        violations = self.lint("src/telemetry/report.cc", code)
        self.assertEqual(self.rules(violations), ["unordered-iter"])

    def test_unordered_begin_flagged_in_emit_files(self):
        code = (
            "std::unordered_set<int> keys_;\n"
            "auto it = keys_.begin();\n"
        )
        violations = self.lint("src/exec/explain.cc", code)
        self.assertEqual(self.rules(violations), ["unordered-iter"])

    def test_unordered_iteration_ok_outside_emit_files(self):
        code = (
            "std::unordered_map<int, int> build_;\n"
            "void f() { for (auto& [k, v] : build_) { v++; } }\n"
        )
        self.assertEqual(self.lint("src/exec/executor.cc", code), [])

    def test_ordered_map_ok_in_emit_files(self):
        code = (
            "std::map<int, int> rows_;\n"
            "void Emit() { for (auto& [k, v] : rows_) { Write(k); } }\n"
        )
        self.assertEqual(self.lint("src/telemetry/report.cc", code), [])

    def test_unordered_decl_in_sibling_header_is_seen(self):
        self.write("src/telemetry/trace_sink.h",
                   "std::unordered_map<int, int> events_;\n")
        code = "void Emit() { for (auto& [k, v] : events_) {} }\n"
        violations = self.lint("src/telemetry/trace_sink.cc", code)
        self.assertEqual(self.rules(violations), ["unordered-iter"])

    # --- cloudiq-direct-put -------------------------------------------------

    def test_direct_put_flagged(self):
        code = (
            "SimObjectStore* store_;\n"
            "void f() { (void)store_->Put(\"k\", {}, 0.0, &done); }\n"
        )
        violations = self.lint("src/engine/writer.cc", code)
        self.assertEqual(self.rules(violations), ["direct-put"])

    def test_env_object_store_put_flagged(self):
        code = "void f() { (void)env.object_store().Put(k, b, 0.0, &d); }\n"
        violations = self.lint("bench/bench_thing.cc", code)
        self.assertEqual(self.rules(violations), ["direct-put"])

    def test_sanctioned_paths_exempt(self):
        code = (
            "SimObjectStore* store_;\n"
            "void f() { (void)store_->Put(\"k\", {}, 0.0, &done); }\n"
        )
        self.assertEqual(self.lint("src/sim/object_store.cc", code), [])
        self.assertEqual(self.lint("src/store/object_store_io.cc", code), [])
        self.assertEqual(self.lint("tests/sim_test.cc", code), [])

    def test_other_put_methods_not_flagged(self):
        code = (
            "SystemStore* system_;\n"
            "IdentityCatalog catalog_;\n"
            "void f() { (void)system_->Put(\"n\", {}, 0.0, &d);\n"
            "           catalog_.Put(obj); }\n"
        )
        self.assertEqual(self.lint("src/engine/meta.cc", code), [])

    # --- cloudiq-ndp-layering -----------------------------------------------

    def test_ndp_forbidden_includes_flagged(self):
        code = (
            '#include "ocm/object_cache_manager.h"\n'
            '#include "buffer/buffer_manager.h"\n'
            '#include "txn/transaction_manager.h"\n'
        )
        violations = self.lint("src/ndp/ndp_engine.cc", code)
        self.assertEqual(self.rules(violations), ["ndp-layering"] * 3)

    def test_ndp_allowed_includes_ok(self):
        code = (
            '#include "columnar/encoding.h"\n'
            '#include "common/result.h"\n'
            '#include "ndp/ndp_protocol.h"\n'
            '#include "sim/object_store.h"\n'
            '#include "store/page_codec.h"\n'
        )
        self.assertEqual(self.lint("src/ndp/ndp_engine.h", code), [])

    def test_ndp_rule_scoped_to_ndp_dir(self):
        # Consumer-side code may of course see the buffer pool and txns.
        code = '#include "txn/transaction_manager.h"\n'
        self.assertEqual(self.lint("src/exec/executor.cc", code), [])

    def test_ndp_mention_in_comment_not_flagged(self):
        code = (
            "// Never #include \"ocm/object_cache_manager.h\" here: the\n"
            "// engine runs inside the store.\n"
            "int x = 0;\n"
        )
        self.assertEqual(self.lint("src/ndp/notes.h", code), [])

    # --- cloudiq-column-switch ----------------------------------------------

    def test_column_switch_flagged_in_exec(self):
        code = (
            "switch (col.type) {\n"
            "  case ColumnType::kDouble:\n"
            "    break;\n"
            "  case  ColumnType :: kString:\n"
            "    break;\n"
            "  default:\n"
            "    break;\n"
            "}\n"
        )
        violations = self.lint("src/exec/operator.cc", code)
        self.assertEqual(self.rules(violations), ["column-switch"] * 2)
        self.assertEqual([v.line for v in violations], [2, 4])
        self.assertEqual(
            self.rules(self.lint("src/exec/batch.h", code)),
            ["column-switch"] * 2)

    def test_column_switch_scoped_to_exec(self):
        code = "switch (t) {\n  case ColumnType::kDouble: return 8;\n}\n"
        for path in ("src/columnar/value.h", "src/columnar/encoding.cc",
                     "src/ndp/ndp_engine.cc", "tests/exec_test.cc"):
            self.assertEqual(self.lint(path, code), [], path)

    def test_column_switch_ignores_comparisons_and_comments(self):
        code = (
            "// case ColumnType::kString: used to be a switch here\n"
            "bool s = col.type == ColumnType::kString;\n"
            "const char* n = \"case ColumnType::kDate\";\n"
        )
        self.assertEqual(self.lint("src/exec/executor.cc", code), [])

    def test_column_switch_nolint_with_justification(self):
        code = (
            "switch (type) {\n"
            "  // NOLINT(cloudiq-column-switch): a planner weight.\n"
            "  case ColumnType::kDouble: return 8.0;\n"
            "  case ColumnType::kString: return 16.0;\n"
            "}\n"
        )
        violations = self.lint("src/exec/executor.cc", code)
        self.assertEqual(self.rules(violations), ["column-switch"])
        self.assertEqual(violations[0].line, 4)

    # --- cloudiq-row-lookup -------------------------------------------------

    def test_row_lookup_flagged_under_src(self):
        code = (
            "bool keep = b.Int(\"l_quantity\", r) < 24;\n"
            "double v = batch->Double(\"total\", 0);\n"
            "const std::string& s = b . Str (\"n_name\", r);\n"
        )
        for path in ("src/tpch/queries_a.cc", "src/exec/executor.h"):
            violations = self.lint(path, code)
            self.assertEqual(self.rules(violations), ["row-lookup"] * 3, path)
            self.assertEqual([v.line for v in violations], [1, 2, 3])

    def test_row_lookup_allows_resolved_columns_and_other_trees(self):
        clean = (
            "const std::vector<int64_t>& q = Ints(b, \"l_quantity\");\n"
            "const std::vector<double>& t = b.column(\"total\").doubles;\n"
            "int64_t Int(const std::string& name, size_t row) const;\n"
            "// b.Int(\"l_quantity\", r) resolved per row, as before\n"
            "const char* doc = \"b.Str(name, r)\";\n"
            "auto s = col.StringAt(r);\n"
        )
        self.assertEqual(self.lint("src/tpch/queries_b.cc", clean), [])
        lookup = "EXPECT_EQ(sorted.Int(\"id\", 0), 9);\n"
        for path in ("tests/exec_test.cc", "examples/tpch_power_run.cc",
                     "bench/bench_micro.cc", "perfbench/perfbench.cc"):
            self.assertEqual(self.lint(path, lookup), [], path)

    def test_row_lookup_nolint_with_justification(self):
        code = (
            "// NOLINT(cloudiq-row-lookup): one cell of a one-row result.\n"
            "double avg = agg.Double(\"avg\", 0);\n"
            "double bad = agg.Double(\"avg\", 0);\n"
        )
        violations = self.lint("src/tpch/queries_b.cc", code)
        self.assertEqual(self.rules(violations), ["row-lookup"])
        self.assertEqual(violations[0].line, 3)

    # --- cloudiq-stall-report -----------------------------------------------

    def test_unreported_wait_and_backoff_flagged(self):
        code = (
            "void f() {\n"
            "  cv_.Wait(&mu_, [this] { return done_; });\n"
            "}\n"
            "void g(double backoff, double t) {\n"
            "  t = t + backoff;\n"
            "  backoff *= 2;\n"
            "}\n"
        )
        violations = self.lint("src/engine/waiter.cc", code)
        self.assertEqual(self.rules(violations), ["stall-report"] * 3)

    def test_wait_with_nearby_charge_ok(self):
        code = (
            "void f(double t, double backoff) {\n"
            "  t = t + backoff;\n"
            "  profiler_->Charge(WaitClass::kThrottleBackoff, was, t);\n"
            "  backoff *= 2;\n"
            "}\n"
        )
        self.assertEqual(self.lint("src/store/retry.cc", code), [])

    def test_scoped_stall_counts_as_reporting(self):
        code = (
            "void f() {\n"
            "  ScopedStall stall(&profiler, &clock, WaitClass::kBufferFill);\n"
            "  cv_.Wait(&mu_, [this] { return filled_; });\n"
            "}\n"
        )
        self.assertEqual(self.lint("src/buffer/fill.cc", code), [])

    def test_stall_rule_exempts_primitives_and_profiler(self):
        code = "void f() { cv_.wait(lock, pred); }\n"
        self.assertEqual(self.lint("src/common/mutex.h", code), [])
        self.assertEqual(
            self.lint("src/telemetry/stall_profiler.cc", code), [])
        # Out of scope entirely: tests and bench harnesses.
        self.assertEqual(self.lint("tests/fiber_test.cc", code), [])

    def test_stall_rule_nolint_with_justification(self):
        code = (
            "// NOLINT(cloudiq-stall-report): real-thread handoff, no\n"
            "// sim-time passes while parked here.\n"
            "cv_.Wait(&mu_, [this] { return turn_; });\n"
        )
        self.assertEqual(self.lint("src/workload/fiber.cc", code), [])

    # --- cloudiq-costopt-evidence ---------------------------------------------

    def test_costopt_decision_without_trail_flagged(self):
        code = (
            "void Plan() {\n"
            "  costopt::PlanChoice c =\n"
            "      costopt::ChoosePlan(cands, policy, slo, budget);\n"
            "  use_push = c.index == 1;\n"
            "}\n"
        )
        violations = self.lint("src/exec/planner.cc", code)
        self.assertEqual(self.rules(violations), ["costopt-evidence"])

    def test_predictive_decision_without_trail_flagged(self):
        # `DecidePredictive` contains `Predict`, but the call itself must
        # not count as its own evidence.
        code = (
            "void Admit() {\n"
            "  auto d = admission_.DecidePredictive(t, now, spent, est,\n"
            "                                       inflight, budget, ok);\n"
            "  Apply(d);\n"
            "}\n"
        )
        violations = self.lint("src/workload/gate.cc", code)
        self.assertEqual(self.rules(violations), ["costopt-evidence"])

    def test_costopt_decision_with_whatif_record_ok(self):
        code = (
            "void Plan() {\n"
            "  costopt::PlanChoice c =\n"
            "      costopt::ChoosePlan(cands, policy, slo, budget);\n"
            "  costopt::WhatIfScan record;\n"
            "  record.chosen = c.index;\n"
            "}\n"
        )
        self.assertEqual(self.lint("src/exec/planner.cc", code), [])

    def test_predictive_decision_with_predictor_ok(self):
        code = (
            "void Admit() {\n"
            "  job->predicted_usd = predictor_.Predict(job->tenant, tag);\n"
            "  auto d = admission_.DecidePredictive(t, now, spent,\n"
            "                                       job->predicted_usd,\n"
            "                                       inflight, budget, ok);\n"
            "}\n"
        )
        self.assertEqual(self.lint("src/workload/gate.cc", code), [])

    def test_costopt_rule_exempts_mechanism_and_tests(self):
        code = (
            "PlanChoice Retry() {\n"
            "  return costopt::ChoosePlan(cands, policy, slo, budget);\n"
            "}\n"
        )
        # The subsystem itself and out-of-src harnesses are not decision
        # sites that owe a trail.
        self.assertEqual(self.lint("src/costopt/chooser.cc", code), [])
        self.assertEqual(self.lint("tests/costopt_test.cc", code), [])
        self.assertEqual(self.lint("bench/bench_costopt.cc", code), [])

    def test_costopt_declarations_not_flagged(self):
        code = (
            "class AdmissionController {\n"
            " public:\n"
            "  Decision DecidePredictive(const std::string& tenant,\n"
            "                            SimTime now, double spent);\n"
            "};\n"
        )
        self.assertEqual(self.lint("src/workload/admission.h", code), [])

    # --- NOLINT escape hatch ------------------------------------------------

    def test_nolint_with_justification_suppresses(self):
        code = (
            "void f() {\n"
            "  // NOLINT(cloudiq-raw-new): arena handoff, freed by pool.\n"
            "  int* p = new int(3);\n"
            "}\n"
        )
        self.assertEqual(self.lint("src/engine/escape.cc", code), [])

    def test_nolint_covers_multiline_statement(self):
        code = (
            "SimObjectStore* store_;\n"
            "// NOLINT(cloudiq-direct-put): reserved metadata prefix,\n"
            "// disjoint from keygen keys.\n"
            "Status st = store_->Put(kKey, std::move(bytes),\n"
            "                        now, &done);\n"
        )
        self.assertEqual(self.lint("src/engine/meta2.cc", code), [])

    def test_nolint_without_justification_is_a_violation(self):
        code = (
            "void f() {\n"
            "  int* p = new int(3);  // NOLINT(cloudiq-raw-new)\n"
            "}\n"
        )
        violations = self.lint("src/engine/lazy.cc", code)
        # The invalid suppression is reported AND the underlying rule
        # still fires — a bare NOLINT buys nothing.
        self.assertEqual(self.rules(violations),
                         ["nolint-justification", "raw-new"])

    def test_nolint_only_suppresses_named_rule(self):
        code = (
            "// NOLINT(cloudiq-raw-new): wrong rule name on purpose.\n"
            "int x = rand();\n"
        )
        violations = self.lint("src/engine/mismatch.cc", code)
        self.assertEqual(self.rules(violations), ["wall-clock"])

    # --- driver -------------------------------------------------------------

    def test_lint_paths_walks_directories_and_exit_codes(self):
        self.write("src/engine/a.cc", "int x = rand();\n")
        self.write("src/engine/b.cc", "int y = 0;\n")
        violations = cloudiq_lint.lint_paths(["src"], root=self.tmp.name)
        self.assertEqual(self.rules(violations), ["wall-clock"])
        self.assertEqual(
            cloudiq_lint.main(["--root", self.tmp.name, "src"]), 1)
        self.write("src/engine/a.cc", "int x = 0;\n")
        self.assertEqual(
            cloudiq_lint.main(["--root", self.tmp.name, "src"]), 0)


if __name__ == "__main__":
    unittest.main()

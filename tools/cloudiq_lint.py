#!/usr/bin/env python3
"""cloudiq-lint: project-specific determinism and storage-policy checks.

CloudIQ's experiment harness promises byte-identical --report JSON for a
fixed seed (EXPERIMENTS.md) and never-write-twice object storage (§3).
Those are source-level disciplines, so they are checked at the source
level. Rules:

  cloudiq-wall-clock      No wall-clock or entropy source (system_clock,
                          steady_clock, time(), rand(), srand(),
                          std::random_device) outside src/common/random.*
                          and the sim/ layer. Everything else must take
                          time from SimClock and randomness from the
                          seeded engine RNG.
  cloudiq-unordered-iter  No iteration over std::unordered_map/set in
                          serialization / report / trace-emit code (file
                          name matches report|serial|trace|export|json|
                          explain). Hash-order iteration depends on
                          pointer values and libc++ vs libstdc++, which
                          breaks byte-identical reports.
  cloudiq-raw-new         No raw `new` / `delete` in engine code (src/).
                          Ownership goes through unique_ptr/make_unique;
                          `= delete` declarations are of course fine.
  cloudiq-direct-put      No direct SimObjectStore::Put outside the
                          store's own layer (src/sim/), its unit test,
                          and the sanctioned ObjectStoreIo wrapper that
                          derives keys from the ObjectKeyGenerator.
                          Ad-hoc Puts can collide with keygen-issued
                          keys and silently violate never-write-twice.
  cloudiq-ndp-layering    src/ndp/ (the server-side pushdown evaluator)
                          must not include ocm/, buffer/ or txn/
                          headers. The NDP engine models code running
                          *inside the object store*: it sees encoded
                          pages and nothing of the compute node's
                          caches or transactions. An include from those
                          layers would let server code depend on client
                          state that a real storage service cannot see.
  cloudiq-stall-report    Every wait/sleep/backoff site in src/ must
                          report through the StallProfiler: a condition
                          wait (.Wait/.wait/wait_for/...), a sleep, or a
                          backoff application (`+ backoff`, `backoff *=`)
                          needs a profiler Charge / ScopedStall /
                          ScopedBackgroundStall within a few lines, or
                          that sim-time silently escapes the ledger's
                          wait-class columns and the per-query
                          conservation invariant ("every sim-microsecond
                          attributed") rots. src/common/mutex.h (the
                          primitives themselves) and src/telemetry/ (the
                          profiler and the ledger) are exempt; real-
                          thread handoffs that consume no sim-time
                          justify a NOLINT instead.
  cloudiq-costopt-evidence
                          Every cost decision site in src/ — a call to
                          costopt::ChoosePlan or
                          AdmissionController::DecidePredictive — must
                          leave an auditable trail nearby: a WhatIfScan /
                          WhatIfLog record, a SpendPredictor prediction
                          (predicted_usd), or an Observe() feeding the
                          predictor, within a few lines. A decision with
                          no recorded prediction silently escapes the
                          predicted-vs-billed accounting that EXPLAIN
                          WHATIF and costopt.prediction_error promise.
                          src/costopt/ itself (the mechanism) is exempt.
  cloudiq-column-switch   No `case ColumnType::` label under src/exec/.
                          Operators move typed values through the one
                          column primitive (VisitValues and the
                          AppendRange / Gather / Resize operations in
                          src/columnar/value.h), so a new storage kind
                          is one more case there, not one per operator.
                          A label that is not a value copy (a per-type
                          planner weight) justifies a NOLINT.
  cloudiq-row-lookup      No by-name row accessor call (`.Int(`,
                          `.Double(`, `.Str(` on a Batch) under src/.
                          Each call finds its column by a linear search
                          with string compares, so inside a per-row loop
                          it costs more than the row's work. Resolve the
                          column once (`batch.column(name).ints`) and
                          index it. Tests, examples and benchmarks, which
                          read a few result cells, may still use them.

Escape hatch: `// NOLINT(cloudiq-<rule>): <justification>` on the
offending line (or the line above) suppresses that rule there. The
justification after the colon is mandatory; a bare NOLINT is itself a
violation (cloudiq-nolint-justification).

Usage: cloudiq_lint.py [--root DIR] [paths...]   (default paths:
src bench tests examples). Exits 1 if any violation is found.

Structure: every rule is a row in the RULES registry — (name, a
path-applicability predicate, a checker over a FileContext). Sibling
tools reuse the shared pieces rather than duplicating them:
FileContext, strip_comments_and_strings, parse_nolint_directives (the
NOLINT escape-hatch grammar), Violation, collect_files and the
run_checker() driver are the walker/suppression harness that
cloudiq_locks.py (the lock-graph analyzer) builds on.
"""

import argparse
import os
import re
import sys

DEFAULT_PATHS = ["src", "bench", "tests", "examples"]
SOURCE_EXTENSIONS = (".h", ".cc")

NOLINT_RE = re.compile(r"//\s*NOLINT\(cloudiq-([a-z0-9-]+)\)(.*)")

WALLCLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\btime\s*\("), "time()"),
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
]

RAW_NEW_RE = re.compile(r"(?<![\w.])new\s+[\w:<(]")
RAW_DELETE_RE = re.compile(r"(?<![\w.])delete\s*(\[\s*\])?\s+[\w(*]")

EMIT_FILE_RE = re.compile(r"report|serial|trace|export|json|explain", re.I)

UNORDERED_OPEN_RE = re.compile(r"\bunordered_(?:map|set)\s*<")

STORE_DECL_RE = re.compile(r"\bSimObjectStore\b\s*[*&]?\s*(\w+)")

NDP_FORBIDDEN_INCLUDE_RE = re.compile(
    r'#\s*include\s*"((?:ocm|buffer|txn)/[^"]*)"')

# Wait/sleep/backoff sites that must report through the stall profiler.
STALL_WAIT_RE = re.compile(
    r"\.\s*[Ww]ait(?:_for|_until|For|Until)?\s*\(|"
    r"\bsleep_(?:for|until)\s*\(|\busleep\s*\(|\bnanosleep\s*\(")
STALL_BACKOFF_RE = re.compile(r"\+\s*backoff\b|\bbackoff\s*\*=")
# Evidence the elapsed time is being attributed, looked for within
# STALL_REPORT_WINDOW lines of the site.
STALL_REPORT_RE = re.compile(
    r"profiler|Charge\s*\(|ScopedStall|ScopedBackgroundStall")
STALL_REPORT_WINDOW = 5

# Cost decision sites (calls only — the `.`/`->`/`::` prefix keeps the
# declarations and definitions in admission.h / chooser.h out of scope).
COSTOPT_DECISION_RE = re.compile(
    r"(\.|->|::)\s*(ChoosePlan|DecidePredictive)\s*\(")
# Evidence the decision was recorded, looked for within
# COSTOPT_EVIDENCE_WINDOW lines. Deliberately excludes the bare tokens
# `costopt` and `Predict`, which appear in the decision calls themselves
# and would make the rule vacuously satisfied.
COSTOPT_EVIDENCE_RE = re.compile(
    r"WhatIfScan|WhatIfLog|whatif\s*\(|\.Observe\s*\(|predicted_usd|"
    r"SpendPredictor|predictor|PredictionStats")
COSTOPT_EVIDENCE_WINDOW = 10

COLUMN_SWITCH_RE = re.compile(r"\bcase\s+ColumnType\s*::")

ROW_LOOKUP_RE = re.compile(r"(\.|->)\s*(Int|Double|Str)\s*\(")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __repr__(self):
        return f"{self.path}:{self.line}: [cloudiq-{self.rule}] {self.message}"


def strip_comments_and_strings(text, keep_strings=False):
    """Returns `text` with comment and string/char literal contents
    blanked (newlines preserved), so rule regexes never fire on prose.
    With `keep_strings`, literals survive (for rules like ndp-layering
    that inspect #include paths, which live inside string tokens)."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"' if keep_strings else " ")
                i += 1
            elif c == "'":
                state = "char"
                out.append("'" if keep_strings else " ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote if keep_strings else " ")
                i += 1
            else:
                if keep_strings:
                    out.append(c)
                else:
                    out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def norm(path):
    return path.replace(os.sep, "/")


def wallclock_exempt(path):
    p = norm(path)
    base = os.path.basename(p)
    if base.startswith("random.") and "/common/" in p:
        return True
    return "/sim/" in p or p.startswith("sim/")


def raw_new_applies(path):
    p = norm(path)
    return p.startswith("src/") or "/src/" in p


def emit_file(path):
    return bool(EMIT_FILE_RE.search(os.path.basename(path)))


def direct_put_exempt(path):
    p = norm(path)
    if "/sim/" in p or p.startswith("sim/"):
        return True
    if os.path.basename(p).startswith("object_store_io."):
        return True  # the sanctioned keygen-keyed wrapper
    if os.path.basename(p) == "sim_test.cc":
        return True  # the store's own unit test
    return False


def ndp_layer_file(path):
    p = norm(path)
    return p.startswith("src/ndp/") or "/src/ndp/" in p


def stall_report_applies(path):
    p = norm(path)
    if not (p.startswith("src/") or "/src/" in p):
        return False
    # The synchronization primitives themselves and the profiler are the
    # mechanism, not reporting sites.
    if os.path.basename(p).startswith("mutex."):
        return False
    return "/telemetry/" not in p


def costopt_evidence_applies(path):
    p = norm(path)
    if not (p.startswith("src/") or "/src/" in p):
        return False
    return not (p.startswith("src/costopt/") or "/src/costopt/" in p)


def column_switch_applies(path):
    p = norm(path)
    return p.startswith("src/exec/") or "/src/exec/" in p


def row_lookup_applies(path):
    p = norm(path)
    return p.startswith("src/") or "/src/" in p


def unordered_names(stripped_text):
    """Names (variables or functions) declared with an unordered_map/set
    type: `unordered_map<...> name`. Angle brackets are balanced so
    nested template arguments don't truncate the match."""
    names = set()
    for m in UNORDERED_OPEN_RE.finditer(stripped_text):
        depth = 1
        i = m.end()
        n = len(stripped_text)
        while i < n and depth > 0:
            if stripped_text[i] == "<":
                depth += 1
            elif stripped_text[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            continue
        rest = stripped_text[i:]
        name_match = re.match(r"\s*&?\s*(\w+)", rest)
        if name_match:
            names.add(name_match.group(1))
    return names


def sibling_path(path):
    root, ext = os.path.splitext(path)
    if ext == ".cc":
        return root + ".h"
    if ext == ".h":
        return root + ".cc"
    return None


def store_var_names(stripped_text):
    names = set()
    for m in STORE_DECL_RE.finditer(stripped_text):
        names.add(m.group(1))
    return names


def read_file(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


class FileContext:
    """One file's text in every stripped form a checker needs, computed
    once and shared across rules (and across sibling tools)."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.original_lines = text.split("\n")
        self.stripped_text = strip_comments_and_strings(text)
        self.stripped_lines = self.stripped_text.split("\n")
        self._include_lines = None

    @property
    def include_lines(self):
        """Comment-stripped lines with string literals kept — for rules
        that inspect #include paths (which live inside string tokens)."""
        if self._include_lines is None:
            self._include_lines = strip_comments_and_strings(
                self.text, keep_strings=True).split("\n")
        return self._include_lines


def parse_nolint_directives(path, original_lines, stripped_lines):
    """Parses `// NOLINT(cloudiq-<rule>): <why>` escape hatches.

    Returns (suppressed, violations): suppressed maps rule name -> set of
    0-based line indexes the directive covers — its own line, the rest of
    its (possibly multi-line) comment, and the whole next statement
    (scanning forward to the first stripped line that closes one with
    `;`/`{`/`}` within a small window). A directive without the mandatory
    justification buys nothing and is itself reported.
    """
    suppressed = {}
    violations = []
    for idx, line in enumerate(original_lines):
        m = NOLINT_RE.search(line)
        if not m:
            continue
        rule, tail = m.group(1), m.group(2)
        if not re.match(r"^\s*:\s*\S", tail):
            violations.append(Violation(
                path, idx + 1, "nolint-justification",
                f"NOLINT(cloudiq-{rule}) needs a justification: "
                "write `// NOLINT(cloudiq-" + rule + "): <why>`"))
            continue
        covered = {idx}
        j = idx + 1
        while j < len(original_lines) and j <= idx + 8:
            covered.add(j)
            stripped = stripped_lines[j].strip()
            if stripped and re.search(r"[;{}]\s*$", stripped):
                break
            j += 1
        suppressed.setdefault(rule, set()).update(covered)
    return suppressed, violations


def run_checker(path, text, check):
    """Shared driver: builds the FileContext and NOLINT suppression map,
    runs `check(ctx, report)`, returns the Violations. `report(idx, rule,
    message)` drops anything a justified NOLINT covers."""
    ctx = FileContext(path, text if text is not None else read_file(path))
    suppressed, violations = parse_nolint_directives(
        path, ctx.original_lines, ctx.stripped_lines)

    def report(idx, rule, message):
        if idx in suppressed.get(rule, ()):
            return
        violations.append(Violation(path, idx + 1, rule, message))

    check(ctx, report)
    return violations


# --- per-rule checkers (each over a FileContext) ---------------------------

def check_wall_clock(ctx, report):
    for idx, line in enumerate(ctx.stripped_lines):
        for pattern, what in WALLCLOCK_PATTERNS:
            if pattern.search(line):
                report(idx, "wall-clock",
                       f"{what} breaks deterministic replay; use "
                       "SimClock / the seeded engine RNG "
                       "(src/common/random.h)")


def check_raw_new(ctx, report):
    for idx, line in enumerate(ctx.stripped_lines):
        if RAW_NEW_RE.search(line):
            report(idx, "raw-new",
                   "raw `new` in engine code; use std::make_unique "
                   "or a container")
        if RAW_DELETE_RE.search(line):
            report(idx, "raw-new",
                   "raw `delete` in engine code; ownership belongs "
                   "in unique_ptr")


def check_unordered_iter(ctx, report):
    names = unordered_names(ctx.stripped_text)
    sib = sibling_path(ctx.path)
    if sib and os.path.exists(sib):
        names |= unordered_names(
            strip_comments_and_strings(read_file(sib)))
    for name in sorted(names):
        for_re = re.compile(
            r"for\s*\([^;)]*:\s*[^)]*\b" + re.escape(name) + r"\b")
        begin_re = re.compile(
            r"\b" + re.escape(name) +
            r"\s*(\(\s*\))?\s*\.\s*c?begin\s*\(")
        for idx, line in enumerate(ctx.stripped_lines):
            if for_re.search(line) or begin_re.search(line):
                report(idx, "unordered-iter",
                       f"iterating unordered container `{name}` in "
                       "emit code; hash order is nondeterministic — "
                       "copy into a std::map/sorted vector first")


def check_ndp_layering(ctx, report):
    for idx, line in enumerate(ctx.include_lines):
        m = NDP_FORBIDDEN_INCLUDE_RE.search(line)
        if m:
            report(idx, "ndp-layering",
                   f'src/ndp/ must not include "{m.group(1)}": the '
                   "NDP engine runs inside the object store and "
                   "cannot see the compute node's OCM, buffer pool "
                   "or transactions")


def check_stall_report(ctx, report):
    for idx, line in enumerate(ctx.stripped_lines):
        if not (STALL_WAIT_RE.search(line) or
                STALL_BACKOFF_RE.search(line)):
            continue
        lo = max(0, idx - STALL_REPORT_WINDOW)
        hi = min(len(ctx.stripped_lines), idx + STALL_REPORT_WINDOW + 1)
        nearby = "\n".join(ctx.stripped_lines[lo:hi])
        if STALL_REPORT_RE.search(nearby):
            continue
        report(idx, "stall-report",
               "wait/sleep/backoff site without a stall-profiler "
               "charge nearby; attribute the elapsed sim-time "
               "(Charge / ScopedStall / ScopedBackgroundStall) or "
               "justify with NOLINT if no sim-time passes here")


def check_costopt_evidence(ctx, report):
    for idx, line in enumerate(ctx.stripped_lines):
        if not COSTOPT_DECISION_RE.search(line):
            continue
        lo = max(0, idx - COSTOPT_EVIDENCE_WINDOW)
        hi = min(len(ctx.stripped_lines), idx + COSTOPT_EVIDENCE_WINDOW + 1)
        nearby = "\n".join(ctx.stripped_lines[lo:hi])
        if COSTOPT_EVIDENCE_RE.search(nearby):
            continue
        report(idx, "costopt-evidence",
               "cost decision (ChoosePlan / DecidePredictive) with no "
               "recorded trail nearby; capture it in a WhatIfScan / "
               "WhatIfLog or feed the SpendPredictor (predicted_usd / "
               "Observe) so predicted-vs-billed accounting sees it")


def check_column_switch(ctx, report):
    for idx, line in enumerate(ctx.stripped_lines):
        if COLUMN_SWITCH_RE.search(line):
            report(idx, "column-switch",
                   "`case ColumnType::` in an operator; move values "
                   "through VisitValues / AppendRange / Gather / Resize "
                   "(columnar/value.h) instead of a per-operator type "
                   "switch")


def check_row_lookup(ctx, report):
    for idx, line in enumerate(ctx.stripped_lines):
        m = ROW_LOOKUP_RE.search(line)
        if m:
            report(idx, "row-lookup",
                   f"by-name `{m.group(2)}(name, row)` searches the "
                   "batch's columns on every call; resolve the column "
                   "once (batch.column(name).ints / .doubles / "
                   "StringAt) before the loop")


def check_direct_put(ctx, report):
    names = store_var_names(ctx.stripped_text)
    sib = sibling_path(ctx.path)
    if sib and os.path.exists(sib):
        names |= store_var_names(
            strip_comments_and_strings(read_file(sib)))
    put_res = [re.compile(r"\bobject_store\s*\(\s*\)\s*\.\s*Put\s*\(")]
    for name in sorted(names):
        put_res.append(re.compile(
            r"\b" + re.escape(name) + r"\s*(\.|->)\s*Put\s*\("))
    for idx, line in enumerate(ctx.stripped_lines):
        for put_re in put_res:
            if put_re.search(line):
                report(idx, "direct-put",
                       "direct SimObjectStore::Put bypasses the "
                       "ObjectKeyGenerator path; go through "
                       "ObjectStoreIo (or justify with NOLINT)")
                break


class Rule:
    """One registry row: the rule's name, its file-applicability
    predicate, and its checker over a FileContext."""

    def __init__(self, name, applies, check):
        self.name = name
        self.applies = applies
        self.check = check


# The rule registry. To add a rule: write a checker + predicate, add the
# row here, a row to the DESIGN.md §5e table, and fixtures to the test.
RULES = [
    Rule("wall-clock", lambda p: not wallclock_exempt(p), check_wall_clock),
    Rule("raw-new", raw_new_applies, check_raw_new),
    Rule("unordered-iter", emit_file, check_unordered_iter),
    Rule("ndp-layering", ndp_layer_file, check_ndp_layering),
    Rule("stall-report", stall_report_applies, check_stall_report),
    Rule("costopt-evidence", costopt_evidence_applies,
         check_costopt_evidence),
    Rule("direct-put", lambda p: not direct_put_exempt(p),
         check_direct_put),
    Rule("column-switch", column_switch_applies, check_column_switch),
    Rule("row-lookup", row_lookup_applies, check_row_lookup),
]


def lint_file(path, text=None, rules=None):
    """Lints one file against the registry; returns a list of
    Violations."""
    active = [r for r in (rules if rules is not None else RULES)
              if r.applies(path)]

    def check_all(ctx, report):
        for rule in active:
            rule.check(ctx, report)

    return run_checker(path, text, check_all)


def collect_files(paths, root):
    files = []
    for p in paths:
        full = os.path.join(root, p) if root else p
        if os.path.isfile(full):
            files.append(full)
        elif os.path.isdir(full):
            for dirpath, _dirnames, filenames in os.walk(full):
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
    return sorted(set(files))


def lint_paths(paths, root=""):
    violations = []
    for path in collect_files(paths, root):
        violations.extend(lint_file(path))
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="CloudIQ determinism & storage-policy linter")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: %s)"
                             % " ".join(DEFAULT_PATHS))
    parser.add_argument("--root", default="",
                        help="prefix for all paths (repo root)")
    args = parser.parse_args(argv)
    paths = args.paths or DEFAULT_PATHS

    violations = lint_paths(paths, args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"cloudiq-lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

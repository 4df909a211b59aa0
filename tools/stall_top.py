#!/usr/bin/env python3
"""stall_top: render the wait-state stall profile from a --report JSON.

Reads the `stalls` section of a report — the ledger entries the
StallProfiler charged, in integer nanoseconds, conservation-exact: per
entry the classes sum to total_nanos, and across all entries the totals
sum to the profiler's window_nanos + background_nanos — and prints a
`top`-style view:

  * per-class totals for the whole run, sorted by time;
  * the top queries ranked by wait time (everything but cpu_exec), with
    each query's two heaviest wait classes;
  * optionally (--operators) the per-operator rows of one query.

Usage:
  tools/stall_top.py REPORT.json [--limit N] [--operators QUERY_ID]
  tools/stall_top.py REPORT.json --locks   # join stalls vs the LOCKS.md ranks
  tools/stall_top.py --check REPORT.json   # verify conservation, exit 1 on drift

--check recomputes the invariant from the JSON alone and is what
scripts/check.sh's `profile`, `parallel` and `report` passes run against
the bench reports.

--locks joins the profile against the lock-rank manifest (LOCKS.md, the
same file tools/cloudiq_locks.py enforces): each registered lock that
declares stall classes is charged the run-wide nanoseconds of those
classes, and the queries with the most `lock_wait` time are listed so a
contended rank can be chased to the queries paying for it.
"""

import argparse
import json
import os
import sys

WAIT_CLASSES = [
    "cpu_exec",
    "lock_wait",
    "admission_queue",
    "buffer_fill",
    "ocm_fetch",
    "ocm_upload",
    "network_transfer",
    "throttle_backoff",
    "ndp_select",
]


def class_nanos(entry):
    return {cls: int(entry.get(cls, 0)) for cls in WAIT_CLASSES}


def wait_nanos(entry):
    """Time spent not executing: total minus cpu_exec."""
    return int(entry.get("total_nanos", 0)) - int(entry.get("cpu_exec", 0))


def check_conservation(stalls):
    """Returns a list of human-readable invariant violations (empty = ok)."""
    problems = []
    window = int(stalls.get("window_nanos", 0))
    background = int(stalls.get("background_nanos", 0))
    total = stalls.get("total", {})
    class_sum = sum(class_nanos(total).values())
    declared = int(total.get("total_nanos", 0))
    if class_sum != declared:
        problems.append(
            "grand total: classes sum to %d but total_nanos says %d"
            % (class_sum, declared)
        )
    if declared != window + background:
        problems.append(
            "conservation: total %d != window %d + background %d"
            % (declared, window, background)
        )
    fold = 0
    for query in stalls.get("queries", []):
        qsum = sum(class_nanos(query).values())
        qdecl = int(query.get("total_nanos", 0))
        if qsum != qdecl:
            problems.append(
                "query %s: classes sum to %d but total_nanos says %d"
                % (query.get("query_id"), qsum, qdecl)
            )
        esum = 0
        for e in query.get("entries", []):
            edecl = int(e.get("total_nanos", 0))
            ecls = sum(class_nanos(e).values())
            # Per-entry telescoping: each (query, operator, node) entry's
            # classes must sum to its own declared total — a lane total
            # that drifted inside a nested parallel section shows up here
            # even when the query-level sums still balance out.
            if ecls != edecl:
                problems.append(
                    "query %s op %s node %s: entry classes sum to %d but "
                    "total_nanos says %d"
                    % (
                        query.get("query_id"),
                        e.get("operator_id"),
                        e.get("node_id"),
                        ecls,
                        edecl,
                    )
                )
            esum += edecl
        if esum != qdecl:
            problems.append(
                "query %s: entries sum to %d but query total is %d"
                % (query.get("query_id"), esum, qdecl)
            )
        fold += qdecl
    if stalls.get("queries") is not None and fold != declared:
        problems.append(
            "per-query totals sum to %d but grand total is %d"
            % (fold, declared)
        )
    return problems


def fmt_seconds(nanos):
    return "%12.6fs" % (nanos / 1e9)


def print_class_table(total):
    nanos = class_nanos(total)
    grand = sum(nanos.values())
    print(
        "wait-state profile: %s total (%s background)"
        % (fmt_seconds(grand).strip(), fmt_seconds(int(total.get("background_nanos", 0))).strip())
    )
    for cls in sorted(WAIT_CLASSES, key=lambda c: (-nanos[c], c)):
        if nanos[cls] == 0:
            continue
        share = 100.0 * nanos[cls] / grand if grand else 0.0
        print("  %-18s %s  %5.1f%%" % (cls, fmt_seconds(nanos[cls]), share))


def top_classes(entry, count=2):
    nanos = class_nanos(entry)
    ranked = sorted(WAIT_CLASSES, key=lambda c: (-nanos[c], c))
    out = []
    for cls in ranked[:count]:
        if nanos[cls] == 0:
            break
        total = int(entry.get("total_nanos", 0))
        out.append("%s %.1f%%" % (cls, 100.0 * nanos[cls] / total))
    return ", ".join(out) if out else "-"


def print_query_table(queries, limit):
    ranked = sorted(
        (q for q in queries if int(q.get("total_nanos", 0)) > 0),
        key=lambda q: (-wait_nanos(q), int(q.get("query_id", 0))),
    )
    if not ranked:
        return
    print("top queries by wait time:")
    for query in ranked[:limit]:
        print(
            "  q%-6s %-14s total %s  wait %s  [%s]"
            % (
                query.get("query_id"),
                query.get("tag") or "(untagged)",
                fmt_seconds(int(query.get("total_nanos", 0))).strip(),
                fmt_seconds(wait_nanos(query)).strip(),
                top_classes(query),
            )
        )
    if len(ranked) > limit:
        print("  ... %d more (raise --limit)" % (len(ranked) - limit))


def print_operator_table(queries, query_id):
    for query in queries:
        if int(query.get("query_id", -1)) != query_id:
            continue
        print(
            "operators of query %d (%s):"
            % (query_id, query.get("tag") or "untagged")
        )
        for entry in query.get("entries", []):
            op = entry.get("operator_id")
            label = "query-level" if op == -1 else "op %d" % op
            print(
                "  %-12s node %-3s total %s  [%s]"
                % (
                    label,
                    entry.get("node_id"),
                    fmt_seconds(int(entry.get("total_nanos", 0))).strip(),
                    top_classes(entry),
                )
            )
        return
    print("no query %d in report" % query_id, file=sys.stderr)


def print_locks_table(stalls, manifest_path, limit):
    """Join the stall profile against the LOCKS.md rank manifest."""
    from cloudiq_locks import parse_manifest

    entries, problems = parse_manifest(manifest_path)
    if problems:
        for violation in problems:
            print("FAIL: %s" % violation, file=sys.stderr)
        return 1

    total = stalls.get("total", {})
    nanos = class_nanos(total)
    grand = sum(nanos.values())
    print("ranked locks vs stall classes (%s):" % manifest_path)
    for entry in sorted(entries, key=lambda e: e.rank):
        attributed = sum(nanos.get(cls, 0) for cls in entry.stall_classes)
        classes = ",".join(entry.stall_classes) if entry.stall_classes else "-"
        share = 100.0 * attributed / grand if grand else 0.0
        print(
            "  rank %3d  %-20s %s  %5.1f%%  [%s]"
            % (entry.rank, entry.owner, fmt_seconds(attributed), share, classes)
        )

    ranked = sorted(
        (q for q in stalls.get("queries", [])
         if int(q.get("lock_wait", 0)) > 0),
        key=lambda q: (-int(q.get("lock_wait", 0)),
                       int(q.get("query_id", 0))),
    )
    if ranked:
        print("top queries by lock_wait:")
        for query in ranked[:limit]:
            total_ns = int(query.get("total_nanos", 0))
            wait = int(query.get("lock_wait", 0))
            share = 100.0 * wait / total_ns if total_ns else 0.0
            print(
                "  q%-6s %-14s lock_wait %s  %5.1f%% of query"
                % (
                    query.get("query_id"),
                    query.get("tag") or "(untagged)",
                    fmt_seconds(wait).strip(),
                    share,
                )
            )
    else:
        print("no query recorded lock_wait time")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="render the stall profile of a --report JSON"
    )
    parser.add_argument("report", help="path to the run-report JSON")
    parser.add_argument(
        "--limit", type=int, default=15, help="queries to show (default 15)"
    )
    parser.add_argument(
        "--operators",
        type=int,
        metavar="QUERY_ID",
        help="also print the per-operator rows of one query",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the conservation invariant and exit (1 on drift)",
    )
    parser.add_argument(
        "--locks",
        action="store_true",
        help="join the profile against the LOCKS.md lock-rank manifest",
    )
    parser.add_argument(
        "--manifest",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "LOCKS.md",
        ),
        help="lock-rank manifest for --locks (default: repo LOCKS.md)",
    )
    args = parser.parse_args(argv)

    with open(args.report, "r", encoding="utf-8") as f:
        report = json.load(f)
    stalls = report.get("stalls")
    if stalls is None:
        print("report has no `stalls` section (pre-profiler report?)",
              file=sys.stderr)
        return 1

    if args.check:
        problems = check_conservation(stalls)
        # An empty profile passes conservation vacuously (0 == 0 + 0), which
        # would let a run that never attributed a single query slip through
        # the gate. Checking nothing is a failure, not a pass.
        queries = stalls.get("queries", []) or []
        if not queries:
            problems.append(
                "empty stall profile: %d queries checked — the run recorded "
                "no per-query stalls, so conservation was not exercised"
                % len(queries)
            )
        for problem in problems:
            print("FAIL: %s" % problem, file=sys.stderr)
        if not problems:
            print(
                "stall conservation ok: %d queries, %d ns window, %d ns background"
                % (
                    len(queries),
                    int(stalls.get("window_nanos", 0)),
                    int(stalls.get("background_nanos", 0)),
                )
            )
        return 1 if problems else 0

    if args.locks:
        return print_locks_table(stalls, args.manifest, args.limit)

    print_class_table(stalls.get("total", {}))
    print_query_table(stalls.get("queries", []), args.limit)
    if args.operators is not None:
        print_operator_table(stalls.get("queries", []), args.operators)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

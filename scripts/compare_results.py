#!/usr/bin/env python3
"""Diff two REPRO_JSON bench artifacts (see docs/OBSERVABILITY.md).

Usage: compare_results.py BASELINE.json CANDIDATE.json [--threshold PCT]

Points are matched on (bench, label, threads). For each matched point the
throughput delta is reported; deltas below -THRESHOLD% (default 5) are
regressions. Abort totals that grew by more than the same factor are
flagged too (as warnings — abort counts are legitimately noisy at low
thread counts).

Host (wall-clock) speed is not compared here: benchmark/ (ptmbench)
measures it.

Exit status: 0 when no regression, 1 otherwise. Comparing an artifact
against itself must report zero regressions.

Only the standard library is used, so the script runs anywhere the bench
binaries do.
"""

import argparse
import json
import sys


def load_points(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("tool") != "optane-ptm-bench":
        sys.exit(f"{path}: not an optane-ptm-bench artifact")
    points = {}
    for r in doc.get("results", []):
        key = (r["bench"], r["label"], r["threads"])
        if key in points:
            sys.exit(f"{path}: duplicate point {key}")
        points[key] = r
    return points


def fmt_key(key):
    bench, label, threads = key
    return f"{bench} / {label} @ {threads}t"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="regression threshold in percent (default 5)",
    )
    args = ap.parse_args()

    base = load_points(args.baseline)
    cand = load_points(args.candidate)

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    matched = sorted(set(base) & set(cand))
    if not matched:
        sys.exit("no matching points between the two artifacts")

    regressions, improvements, abort_warnings = [], [], []
    for key in matched:
        b, c = base[key], cand[key]
        tb, tc = b["throughput_tx_per_sec"], c["throughput_tx_per_sec"]
        delta = 100.0 * (tc / tb - 1.0) if tb else 0.0
        if delta < -args.threshold:
            regressions.append((key, tb, tc, delta))
        elif delta > args.threshold:
            improvements.append((key, tb, tc, delta))
        ab = b["counters"]["aborts"]
        ac = c["counters"]["aborts"]
        if ab and ac > ab * (1.0 + args.threshold / 100.0):
            abort_warnings.append((key, ab, ac))
        elif ab == 0 and ac > 0:
            # With a zero baseline the truthiness guard above short-
            # circuits, so a point that went from no aborts to any aborts
            # was never flagged. Growth from zero is infinite in relative
            # terms — always worth a warning.
            abort_warnings.append((key, ab, ac))

    print(f"matched points : {len(matched)}")
    print(f"within ±{args.threshold:g}%    : "
          f"{len(matched) - len(regressions) - len(improvements)}")
    print(f"improvements   : {len(improvements)}")
    print(f"regressions    : {len(regressions)}")

    for key, tb, tc, delta in sorted(regressions, key=lambda r: r[3]):
        print(f"  REGRESSION {fmt_key(key)}: {tb:.0f} -> {tc:.0f} tx/s ({delta:+.1f}%)")
    for key, tb, tc, delta in sorted(improvements, key=lambda r: -r[3]):
        print(f"  improved   {fmt_key(key)}: {tb:.0f} -> {tc:.0f} tx/s ({delta:+.1f}%)")
    for key, ab, ac in abort_warnings:
        print(f"  warn: aborts grew {fmt_key(key)}: {ab} -> {ac}")
    for key in only_base:
        print(f"  warn: only in baseline : {fmt_key(key)}")
    for key in only_cand:
        print(f"  warn: only in candidate: {fmt_key(key)}")

    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

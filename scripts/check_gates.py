#!/usr/bin/env python3
"""The checks that span several bench artifacts: `compare`.

A single point's own invariants (clean startup recovery, no capacity
abort, phase samples under REPRO_JSON) are judged where the point is
produced, by bench::Output::add_result (stats::RunResult::verdict): a
bench with a failing point aborts before it writes any artifact.

`compare` diffs two REPRO_JSON artifacts (docs/OBSERVABILITY.md has the
schema). Points are matched on (bench, label, threads); a throughput drop
beyond PCT percent (default 5) is a regression. Abort totals that grew by
more than the same factor, or from zero, are warnings: abort counts are
legitimately noisy at low thread counts. Comparing an artifact against
itself reports no regression. Host (wall-clock) speed is not compared
here: benchmark/ (ptmbench) measures it.

Usage: check_gates.py compare BASELINE CANDIDATE [--threshold PCT]
Exit status: 0 no regression, 1 a regression or unreadable input,
2 usage error.

Only the standard library is used, so the script runs anywhere the bench
binaries do.
"""
import argparse
import json
import sys


def load_points(path):
    """The artifact's points keyed by (bench, label, threads)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("tool") != "optane-ptm-bench":
        raise ValueError("not an optane-ptm-bench artifact")
    points = {}
    for r in doc.get("results", []):
        key = (r["bench"], r["label"], r["threads"])
        if key in points:
            raise ValueError(f"duplicate point {key}")
        points[key] = r
    return points


def fmt_key(key):
    bench, label, threads = key
    return f"{bench} / {label} @ {threads}t"


def compare(argv):
    ap = argparse.ArgumentParser(
        prog="check_gates.py compare",
        description="Diff two REPRO_JSON bench artifacts.")
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="regression threshold in percent (default 5)",
    )
    args = ap.parse_args(argv)

    try:
        base = load_points(args.baseline)
        cand = load_points(args.candidate)
    except (OSError, ValueError, KeyError) as e:
        print(f"cannot read artifact points: {e}", file=sys.stderr)
        return 1

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    matched = sorted(set(base) & set(cand))
    if not matched:
        print("no matching points between the two artifacts", file=sys.stderr)
        return 1

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
        # From a zero baseline, any abort at all is growth.
        if ac > ab * (1.0 + args.threshold / 100.0):
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


def main(argv):
    if len(argv) > 1 and argv[1] == "compare":
        return compare(argv[2:])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))

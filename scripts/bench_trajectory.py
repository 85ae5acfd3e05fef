#!/usr/bin/env python3
"""Merge per-binary REPRO_BENCH self-profile artifacts into one trajectory
record (BENCH_<n>.json at the repo root).

Usage: bench_trajectory.py --out BENCH_6.json --pr 6 results/*.bench.json

Each input is the JSON a bench binary writes when REPRO_BENCH=<file> is set
(tool "optane-ptm-bench-profile"): per benchmark point, the simulated
throughput plus the wall-clock self-profile — host nanoseconds spent, the
simulation-event count, and event counts per simulator subsystem (cache,
channel, wpq, psan, fault, scheduler). This script rolls those up per bench
binary and overall, producing the per-PR snapshot that compare_results.py --trajectory
diffs across the BENCH_*.json sequence to catch simulator slowdowns.

Wall-clock numbers are machine-dependent; a trajectory is only comparable
with itself when the files were produced on similar hardware (CI uses a
lenient threshold for this reason).

Only the standard library is used.
"""

import argparse
import json
import os
import platform
import sys

SUBSYSTEMS = ("cache", "channel", "wpq", "psan", "fault", "scheduler")


def rate(events, wall_ns):
    # A zero wall-clock denominator means the self-profiler never measured
    # anything (REPRO_BENCH plumbing broken, or a truncated artifact). A
    # silent 0.0 here once produced trajectory records whose every
    # comparison passed the CI gate vacuously — refuse instead.
    if wall_ns <= 0:
        sys.exit(
            f"zero/negative wall_ns for {events} sim events: the wall-clock "
            "self-profile is broken; refusing to record a zero rate"
        )
    return events * 1e9 / wall_ns


def environment():
    """Host identity recorded with each trajectory: wall-clock rates are
    machine-dependent, so compare_results.py --trajectory uses this to
    downgrade cross-machine deltas to warnings."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "hostname": platform.node(),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "cores": os.cpu_count() or 0,
    }


def summarize(points):
    wall_ns = sum(p["wall_ns"] for p in points)
    sim_events = sum(p["sim_events"] for p in points)
    tp = [p["throughput_tx_per_sec"] for p in points]
    return {
        "points": len(points),
        "wall_ns": wall_ns,
        "sim_events": sim_events,
        "sim_events_per_sec": rate(sim_events, wall_ns),
        "sim_throughput_tx_per_sec_mean": sum(tp) / len(tp) if tp else 0.0,
        "subsystem_events": {
            s: sum(p["subsystems"].get(s, 0) for p in points) for s in SUBSYSTEMS
        },
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output trajectory file")
    ap.add_argument("--pr", type=int, required=True, help="PR number for the record")
    ap.add_argument("profiles", nargs="+", help="per-binary REPRO_BENCH files")
    args = ap.parse_args()

    benches = {}
    all_points = []
    for path in args.profiles:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("tool") != "optane-ptm-bench-profile":
            sys.exit(f"{path}: not an optane-ptm-bench-profile artifact")
        points = doc.get("points", [])
        if not points:
            print(f"note: {path} has no points (skipped)", file=sys.stderr)
            continue
        for p in points:
            if p.get("wall_ns", 0) <= 0:
                sys.exit(
                    f"{path}: point {p.get('bench', '?')}/{p.get('label', '?')} "
                    "has zero wall_ns — the self-profile is broken"
                )
        name = os.path.basename(path)
        for suffix in (".bench.json", ".json"):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
                break
        if name in benches:
            sys.exit(f"duplicate bench name {name!r} (from {path})")
        benches[name] = summarize(points)
        all_points.extend(points)

    if not all_points:
        sys.exit("no points in any input profile")

    record = {
        "schema_version": 1,
        "tool": "optane-ptm-bench-trajectory",
        "pr": args.pr,
        "environment": environment(),
        "benches": dict(sorted(benches.items())),
        "totals": summarize(all_points),
    }
    record["totals"].pop("sim_throughput_tx_per_sec_mean")

    with open(args.out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=False)
        f.write("\n")
    t = record["totals"]
    print(
        f"{args.out}: {len(benches)} benches, {t['points']} points, "
        f"{t['sim_events']} events in {t['wall_ns'] / 1e9:.2f}s wall "
        f"({t['sim_events_per_sec'] / 1e6:.2f} M events/s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

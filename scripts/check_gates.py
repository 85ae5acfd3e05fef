#!/usr/bin/env python3
"""The artifact checks: section gates and the two-artifact compare.

Section gates fail if a gated report section carries a nonzero gated
counter. One table-driven gate covers the report sections. Each row of
GATES below names a section, the keys that must be zero (with the reason
a nonzero value is a bug), the keys that are only reported, keys gated
only when a flag in the same record is set, and whether an artifact point
without the section fails.

Inputs are REPRO_JSON bench artifacts (docs/OBSERVABILITY.md has the
schemas): every point under "results" may carry the section as a key
("recovery", "abort_causes"). psan and rsan have no gate here: a
correctness diagnostic aborts the bench at pool teardown, before any
artifact is written (docs/ANALYSIS.md, "The verdict").

`compare` diffs two REPRO_JSON artifacts. Points are matched on (bench,
label, threads); a throughput drop beyond PCT percent (default 5) is a
regression. Abort totals that grew by more than the same factor, or from
zero, are warnings: abort counts are legitimately noisy at low thread
counts. Comparing an artifact against itself reports no regression. Host
(wall-clock) speed is not compared here: benchmark/ (ptmbench) measures
it.

Usage: check_gates.py SECTION FILE [FILE ...]
       SECTION is one of: recovery, abort_causes
       check_gates.py compare BASELINE CANDIDATE [--threshold PCT]
Exit status: 0 all clean, 1 any gated counter nonzero or a compare
regression (or unreadable input, or a missing record the section
requires), 2 usage error.

Only the standard library is used, so the script runs anywhere the bench
binaries do.
"""
import argparse
import json
import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Gate:
    gated: dict              # key -> why a nonzero value is a bug
    informational: tuple     # summed and reported, never fail
    conditional: dict = field(default_factory=dict)  # key -> (flag, why)
    missing_fails: bool = False  # an artifact point without the section
    hint: str = ""           # printed once when any file fails


GATES = {
    # Startup recovery of a clean bench run must refuse nothing: anything
    # discarded means the product corrupted or mis-sized its own metadata
    # before the measured run began. Mirrored pools also promise zero loss.
    "recovery": Gate(
        gated={
            "records_discarded":
                "recovery refused log records (torn/invalid/media)",
            "records_torn": "per-record CRC failures on a fresh pool",
            "records_invalid": "log records with out-of-bounds offsets",
            "records_media_faulted": "records lost to media faults",
            "log_crc_mismatches": "committed whole-log checksum mismatches",
            "media_faults": "poisoned lines present at startup",
            "segment_links_truncated": "overflow-chain links dropped",
            "log_range_drops":
                "log-range registrations dropped (PDRAM-Lite misroute)",
        },
        informational=("records_stale", "records_damaged",
                       "records_repaired"),
        conditional={
            "records_lost": ("mirror_enabled",
                             "log records with no usable copy despite "
                             "mirroring"),
        },
        missing_fails=True,
        hint="unclean startup recovery on default configs — see "
             "docs/FAULTS.md for what each counter means"),
    # Capacity aborts mean the runtime grew a log mid-run: correct, but on
    # the paper-default configs the measured ratios would then include
    # log-growth machinery the paper's numbers do not.
    "abort_causes": Gate(
        gated={"capacity":
               "transactions outgrew their per-worker log or write index"},
        informational=("read_conflict", "write_conflict", "validation",
                       "explicit"),
        hint="capacity aborts on default configs indicate undersized "
             "per-worker logs (see docs/LOGGING.md)"),
}


def records(path, section, gate):
    """Yield (label, record) per `section` record in one artifact; the
    record is None for a point that lacks a section it must carry."""
    with open(path) as f:
        doc = json.load(f)
    for point in doc.get("results", []):
        label = "[{}] {} @ {} threads".format(
            point.get("bench", "?"), point.get("label", "?"),
            point.get("threads", "?"))
        rec = point.get(section)
        if rec is not None or gate.missing_fails:
            yield label, rec


def check(path, section, gate):
    """Returns (n_records, violations, informational totals)."""
    n, bad = 0, []
    info = dict.fromkeys(gate.informational, 0)
    for label, rec in records(path, section, gate):
        n += 1
        if rec is None:
            bad.append((label, section, "missing",
                        "section absent from the artifact point"))
            continue
        if not isinstance(rec, dict):
            raise ValueError(f"{label} is not a JSON object")
        gated = dict(gate.gated)
        gated.update({key: why for key, (flag, why)
                      in gate.conditional.items() if rec.get(flag)})
        for key, why in gated.items():
            if rec.get(key, 0):
                bad.append((label, f"{section}.{key}", rec[key], why))
        for key in info:
            info[key] += rec.get(key, 0)
    return n, bad, info


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
    if len(argv) < 3 or argv[1] not in GATES:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    section, gate = argv[1], GATES[argv[1]]
    failed = False
    for path in argv[2:]:
        try:
            n, bad, info = check(path, section, gate)
        except (OSError, ValueError) as e:
            print(f"{path}: cannot read {section} records: {e}",
                  file=sys.stderr)
            failed = True
            continue
        for label, key, value, why in bad:
            print(f"{path}: {key}={value} in {label} — {why}",
                  file=sys.stderr)
        if bad:
            failed = True
            continue
        note = ", ".join(f"{k}={v}" for k, v in info.items() if v)
        print(f"{path}: {n} {section} record(s), all gated counters zero"
              + (f" (info: {note})" if note else ""))
    if failed:
        print(gate.hint, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

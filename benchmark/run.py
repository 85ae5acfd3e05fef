#!/usr/bin/env python3
"""Build, run, check and compare the repository's benchmark (ptmbench).

  python3 benchmark/run.py [--seed N] [--seconds S] [--repeat K] [--out FILE]
      Every workload in BENCHMARK.json (3 untraced runs and 1 traced run
      each), then the component suite. Prints every metric with its unit,
      writes a results file and exits 1 if any correctness check failed.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One workload. The last stdout line is one JSON object holding the
      end-to-end (--trace 0) or per-layer (--trace 1) metrics.

  python3 benchmark/run.py compare A.json B.json
      A verdict (better, same, worse, unresolved) per (workload, end-to-end
      metric) between two results files, using the BENCHMARK.json bounds.

Run from anywhere; paths are resolved from this file. README.md explains
the metrics, the workloads and the comparison rule.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "ptmbench")
UNTRACED_RUNS = 3
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
POINT_DEADLINE_S = 170  # a contract run must end within 180 s after the build


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then bring ptmbench up to date (cmake output to stderr).
    Compiler temporaries go under the build directory, not the system's."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--target", "ptmbench",
                    "-j", str(os.cpu_count() or 1)], stdout=sys.stderr, check=True, env=env)


def call(args, deadline):
    """Run ptmbench once. Returns (report or None, error or None)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"ptmbench {' '.join(args)}: timed out"
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    if out is None:
        return None, f"ptmbench exit {p.returncode}: {p.stderr.strip()[-400:]}"
    if p.returncode != 0 or not out.get("ok", True):
        return out, out.get("error") or f"ptmbench exit {p.returncode}"
    if out.get("aslr_off") is not True:
        return out, "ptmbench ran with ASLR on; its simulated results are not repeatable"
    return out, None


def sim_diff(a, b):
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def run_workload(name, seed, seconds, deadline, untraced_runs=UNTRACED_RUNS,
                 trace_path=None):
    """R untraced runs and one traced run of one workload, checked and reduced
    to its end-to-end and per-layer metrics. `seconds` is shared by the
    untraced runs: each is sized to spend seconds/R in Engine::run."""
    if trace_path is None:
        trace_path = os.path.join(BUILD, "traces", f"{name}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    common = ["--workload", name, "--seed", str(seed),
              "--run-seconds", repr(seconds / untraced_runs)]
    errors, untraced, ops_of = [], [], []
    for _ in range(untraced_runs):
        out, err = call(["--mode", "untraced", *common], deadline)
        ops_of.append((out or {}).get("ops"))
        if err:
            errors.append(err)
        else:
            untraced.append(out)
    traced, err = call(["--mode", "traced", *common, "--trace-out", trace_path], deadline)
    ops_of.append((traced or {}).get("ops"))
    if err:
        errors.append(err)
        traced = None

    ops = next((n for n in ops_of if n), 1)
    failed_runs = untraced_runs + 1 - len(untraced) - (traced is not None)
    if traced is not None and untraced:
        for u in untraced:
            diff = sim_diff(u["sim"], traced["sim"])
            if diff:
                errors.append("traced run does not reproduce the untraced run: "
                              + ", ".join(diff))
                failed_runs += 1
                break
    attempted = ops * (untraced_runs + 1)
    failed = min(attempted, ops * failed_runs)
    res = {
        "workload": name, "seed": seed, "ops": ops, "attempted": attempted,
        "failed": failed, "failed_op_frac": failed / attempted,
        "correct": not errors, "errors": errors, "trace_file": trace_path,
        "end_to_end": {}, "per_layer": {},
    }
    if errors:
        return res

    run_s = statistics.median(u["host"]["run_s"] for u in untraced)
    sim = traced["sim"]
    res["end_to_end"] = {
        "run_s": run_s,
        "setup_s": statistics.median(u["host"]["setup_s"] for u in untraced),
        "peak_rss_mb": statistics.median(u["host"]["peak_rss_mb"] for u in untraced),
        "sim_mtx_per_s": sim["commits"] / sim["sim_ns"] * 1e3,
        "op_iqm_sim_us": traced["latency"]["iqm_us"],
        "op_p999_sim_us": traced["latency"]["p999_us"],
    }
    layers = dict(traced["layers"])
    # Unbounded: percentiles sit on a few exact values (README.md, "Why an
    # interquartile mean").
    for q in ("p50", "p90", "p99"):
        layers[f"workloads.op_{q}_sim_us"] = traced["latency"][f"{q}_us"]
    layers["sim.mevents_per_s"] = (sim["sim_events"] + traced["switches"]) / run_s / 1e6
    layers["bench.trace_overhead_frac"] = traced["host"]["run_s"] / run_s - 1
    res["per_layer"] = layers
    res["latency_samples"] = traced["latency"]["samples"]
    return res


def select(res, spec, kind):
    """The `kind` metrics named in BENCHMARK.json as {name: {value, unit}};
    a missing metric makes the run incorrect."""
    metrics = {}
    for m in spec[kind]:
        v = res[kind].get(m["name"])
        if v is None:
            if res["correct"]:
                res["correct"] = False
                res["errors"].append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return metrics


def print_workload(res, spec):
    state = "correct" if res["correct"] else "FAILED"
    print(f"== {res['workload']}  seed {res['seed']}  {res['ops']} ops per run  "
          f"{UNTRACED_RUNS} untraced + 1 traced  {state} ==")
    for e in res["errors"]:
        print(f"  error: {e}")
    for kind, title in (("end_to_end", "end-to-end"), ("per_layer", "per-layer (traced run)")):
        print(f"  {title}")
        for name, m in select(res, spec, kind).items():
            print(f"    {name:40s} {m['value']:<22.10g} {m['unit']}")
    print(f"    {'failed_op_frac':40s} {res['failed_op_frac']:<22.10g} fraction")
    print(f"  trace: {res['trace_file']}")


def contract(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    build()
    deadline = time.monotonic() + POINT_DEADLINE_S
    res = run_workload(args.workload, args.seed, args.seconds, deadline)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = select(res, spec, kind)
    print(f"{res['workload']}: {res['ops']} ops per run, "
          f"{res.get('latency_samples', 0)} latency samples")
    for e in res["errors"]:
        print(f"error: {e}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


def full(args, spec):
    build()
    out_path = args.out or os.path.join(
        BUILD, "results", time.strftime("ptmbench-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    doc = {"schema": "ptmbench-results/1", "seconds": args.seconds,
           "runs": [], "components": []}
    if os.path.exists(out_path):
        with open(out_path) as f:
            doc = json.load(f)
        if doc["seconds"] != args.seconds:
            print(f"run.py: {out_path} holds runs of --seconds {doc['seconds']}, "
                  f"not {args.seconds}; the op counts would differ", file=sys.stderr)
            return 2
    correct = True
    for k in range(args.repeat):
        run = {"seed": args.seed + k, "workloads": {}}
        for w in spec["workloads"]:
            deadline = time.monotonic() + 4 * POINT_DEADLINE_S
            res = run_workload(w["name"], args.seed + k, args.seconds, deadline)
            print_workload(res, spec)
            correct &= res["correct"]
            run["workloads"][w["name"]] = res
        doc["runs"].append(run)
    out, err = call(["--components"], time.monotonic() + 4 * POINT_DEADLINE_S)
    print("== components (host ns per call, median of 5 batches) ==")
    if err:
        print(f"  error: {err}")
        correct = False
    else:
        for name, ns in out["components"].items():
            print(f"    {name:40s} {ns:<22.10g} ns")
        doc["components"].append(out["components"])
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"results: {out_path}")
    return 0 if correct else 1


def verdict(a, b, better, bound):
    """Compare runs `b` against base runs `a` (paired by index)."""
    if not a or not b:
        return "unresolved", "no runs"
    sign = 1 if better == "higher" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    qa = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
    iqr = qa[2] - qa[0]
    spread = iqr / abs(ma) if ma else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (mb - ma)
    rel = gain / abs(ma) if ma else 0.0
    detail = (f"median {ma:.6g} -> {mb:.6g} ({rel:+.2%}), wins {wins}/{len(pairs)}, "
              f"base IQR {spread:.2%}, bound {bound:.0%}")
    if wins >= 0.9 * len(pairs) and gain > iqr:
        if len(pairs) >= 10:
            return "better", detail
        return "unresolved", detail + ", fewer than 10 pairs"
    if -rel > bound:
        return "worse", detail
    if spread > bound and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved", detail + ", spread wider than bound"
    return "same", detail


def compare(a_path, b_path, spec):
    with open(a_path) as f:
        a_doc = json.load(f)
    with open(b_path) as f:
        b_doc = json.load(f)
    # --seconds sets every workload's op count, and the op count every
    # simulated metric; runs of different sizes are not comparable.
    if a_doc["seconds"] != b_doc["seconds"]:
        print(f"run.py: {a_path} ran --seconds {a_doc['seconds']} and {b_path} "
              f"--seconds {b_doc['seconds']}; not comparable", file=sys.stderr)
        return 2
    for w in spec["workloads"]:
        ops = {r["workloads"][w["name"]]["ops"] for doc in (a_doc, b_doc)
               for r in doc["runs"]
               if r["workloads"].get(w["name"], {}).get("correct")}
        if len(ops) > 1:
            print(f"run.py: {w['name']} ran different op counts {sorted(ops)}; "
                  "not comparable", file=sys.stderr)
            return 2
    if [r["seed"] for r in a_doc["runs"]] != [r["seed"] for r in b_doc["runs"]]:
        print("warning: the two files ran different seeds; pairs are by position")
    worse = False
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            vals = []
            for doc in (a_doc, b_doc):
                vals.append([r["workloads"][w["name"]]["end_to_end"][m["name"]]
                             for r in doc["runs"]
                             if r["workloads"].get(w["name"], {}).get("correct")])
            v, detail = verdict(vals[0], vals[1], m["better"], m["bound"])
            worse |= v == "worse"
            print(f"{w['name']:22s} {m['name']:16s} {v:10s} {detail}")
    return 1 if worse else 0


def main():
    spec = load_spec()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(sys.argv[2], sys.argv[3], spec)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload (contract mode)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="Engine::run seconds shared by the untraced runs of a workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="contract mode: 0 prints end-to-end, 1 per-layer metrics")
    ap.add_argument("--repeat", type=int, default=1,
                    help="full mode: repeat the workloads with seeds seed..seed+K-1")
    ap.add_argument("--out", help="full mode: results file; runs are appended if it "
                                  "exists and was written with the same --seconds")
    args = ap.parse_args()
    if args.seconds <= 0 or args.repeat < 1:
        ap.error("--seconds and --repeat must be positive")
    try:
        return contract(args, spec) if args.workload else full(args, spec)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Quick self-test of the benchmark (about 30 s on a 4-core host).

  python3 benchmark/test_benchmark.py

Builds ptmbench, runs every workload small (2 untraced runs + 1 traced run)
and checks the contract: names and units, traced == untraced, repeatable
simulated metrics, ASLR off in every process, zero failed ops, a parseable
trace, the one-workload command's output, the compare verdicts and size
check, and a nonzero exit without sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

QUICK_SECONDS = 0.3  # Engine::run seconds per workload, shared by the untraced runs
SEED = 7
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def quick(name, trace_name):
    return run.run_workload(name, SEED, QUICK_SECONDS, time.monotonic() + 300,
                            untraced_runs=2,
                            trace_path=os.path.join(run.BUILD, "traces", trace_name))


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        run.build()
        cls.results = {w["name"]: quick(w["name"], f"test-{w['name']}.json")
                       for w in cls.spec["workloads"]}

    def test_spec_follows_the_contract(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in spec[k]]
        self.assertEqual(len(names), len(set(names)))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_metric_is_emitted_with_its_unit(self):
        for name, res in self.results.items():
            for kind in ("end_to_end", "per_layer"):
                got = run.select(res, self.spec, kind)
                for m in self.spec[kind]:
                    with self.subTest(workload=name, metric=m["name"]):
                        self.assertRegex(m["name"], run.NAME_RE)
                        self.assertRegex(m["unit"], UNIT_RE)
                        self.assertIn(m["name"], got)
                        self.assertEqual(got[m["name"]]["unit"], m["unit"])
                        self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_traced_run_reproduces_untraced_runs(self):
        # run_workload compares the traced run's simulated counters with each
        # untraced run's and records a mismatch as an error.
        for name, res in self.results.items():
            with self.subTest(workload=name):
                self.assertTrue(res["correct"], res["errors"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(res["failed_op_frac"], 0)

    def test_simulated_metrics_repeat_exactly(self):
        # The contended workload is the one a layout change would perturb.
        name = "contended_btree_redo"
        again = quick(name, "test-repeat.json")
        first = self.results[name]
        self.assertTrue(again["correct"], again["errors"])
        for m in ("sim_mtx_per_s", "op_iqm_sim_us", "op_p999_sim_us"):
            self.assertEqual(first["end_to_end"][m], again["end_to_end"][m], m)
        for m, v in first["per_layer"].items():
            if m.startswith(("ptm.", "nvm.", "workloads.op_p")) or m == "sim.switches_per_op":
                self.assertEqual(v, again["per_layer"][m], m)

    def test_trace_parses(self):
        for name, res in self.results.items():
            with self.subTest(workload=name):
                with open(res["trace_file"]) as f:
                    trace = json.load(f)
                spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
                by_name = {}
                for e in spans:
                    by_name.setdefault(e["name"], []).append(e)
                for kind in ("pool_create", "recover", "populate", "prewarm", "run",
                             "verify", "teardown", "point"):
                    self.assertEqual(len(by_name[kind]), 1, kind)
                ops = by_name["op"]
                self.assertEqual(trace["otherData"]["span_counts"]["op"], res["ops"])
                self.assertEqual(len(ops), min(res["ops"], 100000))
                run_id = by_name["run"][0]["args"]["id"]
                self.assertTrue(all(e["args"]["parent"] == run_id for e in ops))
                self.assertTrue(all(e["args"]["sim_dur_ns"] > 0 for e in ops))

    def test_one_workload_command_prints_the_contract_line(self):
        p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                            "--workload", "solo_tpcc_undo", "--seed", "3",
                            "--seconds", str(QUICK_SECONDS), "--trace", "1"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=180)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        out = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertIsInstance(out["attempted"], int)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in self.spec["per_layer"]})

    def test_fails_without_the_sources(self):
        lone = os.path.join(run.BUILD, "standalone-test")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(lone, "benchmark"),
                        ignore=shutil.ignore_patterns("build", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), lone)
        try:
            p = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                                "solo_tpcc_undo", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=lone, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, timeout=180)
        finally:
            shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)

    def test_every_report_has_aslr_off(self):
        # run_workload goes through run.call, which fails a report without
        # aslr_off; check the field directly on each kind of process too.
        for mode in ("untraced", "traced"):
            with self.subTest(mode=mode):
                out, err = run.call(["--mode", mode, "--workload", "solo_tpcc_undo",
                                     "--run-seconds", "0.05", "--trace-out",
                                     os.path.join(run.BUILD, "traces", "test-aslr.json")],
                                    time.monotonic() + 120)
                self.assertIsNone(err)
                self.assertIs(out["aslr_off"], True)

    def test_a_report_with_aslr_on_fails(self):
        with open("/proc/self/personality") as f:
            if int(f.read(), 16) & 0x0040000:  # ADDR_NO_RANDOMIZE, inherited
                self.skipTest("ASLR is already off in this process")
        out, err = run.call(["--mode", "untraced", "--workload", "solo_tpcc_undo",
                             "--run-seconds", "0.05", "--aslr"], time.monotonic() + 120)
        self.assertIs(out["aslr_off"], False)
        self.assertIn("ASLR", err)

    def test_compare_refuses_different_sizes(self):
        def doc(seconds, ops):
            res = {"correct": True, "ops": ops, "end_to_end": {}}
            return {"seconds": seconds, "runs": [{"seed": 1, "workloads": {
                w["name"]: res for w in self.spec["workloads"]}}]}
        tmp = os.path.join(run.BUILD, "test-compare")
        os.makedirs(tmp, exist_ok=True)
        cases = {"seconds": (doc(10, 5), doc(5, 5)), "ops": (doc(10, 5), doc(10, 6))}
        for case, (a, b) in cases.items():
            with self.subTest(case=case):
                paths = []
                for tag, d in (("a", a), ("b", b)):
                    paths.append(os.path.join(tmp, f"{case}-{tag}.json"))
                    with open(paths[-1], "w") as f:
                        json.dump(d, f)
                self.assertEqual(run.compare(*paths, self.spec), 2)

    def test_compare_verdicts(self):
        base = [100.0 + i * 0.1 for i in range(10)]
        faster = [v * 0.8 for v in base]
        slower = [v * 1.2 for v in base]
        self.assertEqual(run.verdict(base, faster, "lower", 0.1)[0], "better")
        self.assertEqual(run.verdict(base, slower, "lower", 0.1)[0], "worse")
        self.assertEqual(run.verdict(base, list(base), "lower", 0.1)[0], "same")
        self.assertEqual(run.verdict(base[:5], faster[:5], "lower", 0.1)[0], "unresolved")
        noisy = [100.0, 140.0, 70.0, 130.0, 80.0, 125.0, 60.0, 135.0, 90.0, 110.0]
        self.assertEqual(run.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0],
                         "unresolved")


if __name__ == "__main__":
    unittest.main(verbosity=2)

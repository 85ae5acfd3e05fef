#!/usr/bin/env python3
"""Self-tests for the CI gate scripts (check_gates.py, including its
compare command, and hang_guard.py), run in CI so the gates themselves are
gated.

The cases pin the failure modes that once let the gates pass vacuously:
the abort check never firing from a zero baseline, the hang guard
passing exit codes through / reliably killing a hung process tree with
the post-mortem on stderr, and a section gate that passes an empty or
unreadable input. One more case keeps docs/OBSERVABILITY.md's knob table
in step with the REPRO_* names the code reads.

Usage: python3 scripts/test_scripts.py   (exit 0 = all pass)
Only the standard library is used.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import unittest

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SCRIPTS)


def run(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True, text=True)


def results_doc(aborts):
    return {
        "schema_version": 1, "tool": "optane-ptm-bench",
        "results": [{
            "bench": "b", "label": "l", "threads": 1,
            "throughput_tx_per_sec": 1e6,
            "counters": {"aborts": aborts},
        }],
    }


class TempDirTest(unittest.TestCase):
    def setUp(self):
        self._td = tempfile.TemporaryDirectory()
        self.dir = self._td.name

    def tearDown(self):
        self._td.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path


class HangGuardTest(TempDirTest):
    def test_fast_command_passes_exit_code_through(self):
        r = run("hang_guard.py", "--timeout", "30", "--",
                sys.executable, "-c", "import sys; sys.exit(3)")
        self.assertEqual(r.returncode, 3, r.stderr)
        self.assertNotIn("TIMEOUT", r.stderr)

    def test_success_is_silent(self):
        r = run("hang_guard.py", "--timeout", "30", "--",
                sys.executable, "-c", "print('ok')")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("ok", r.stdout)

    def test_hang_exits_124_with_postmortem(self):
        r = run("hang_guard.py", "--timeout", "1", "--grace", "0.2", "--",
                sys.executable, "-c", "import time; time.sleep(600)")
        self.assertEqual(r.returncode, 124, r.stderr)
        self.assertIn("TIMEOUT", r.stderr)
        # The post-mortem names at least the hung process itself.
        self.assertIn("hang_guard: pid", r.stderr)
        self.assertIn("state=", r.stderr)

    def test_kills_the_whole_process_group(self):
        # The child forks a grandchild that writes a marker AFTER the
        # guard's deadline; if only the leader died, the marker appears.
        marker = os.path.join(self.dir, "leaked")
        prog = (
            "import os, time, sys\n"
            "if os.fork() == 0:\n"
            "    time.sleep(4)\n"
            f"    open({marker!r}, 'w').close()\n"
            "    sys.exit(0)\n"
            "time.sleep(600)\n"
        )
        r = run("hang_guard.py", "--timeout", "1", "--grace", "0.2", "--",
                sys.executable, "-c", prog)
        self.assertEqual(r.returncode, 124, r.stderr)
        time.sleep(4.5)
        self.assertFalse(os.path.exists(marker), "grandchild survived the kill")

    def test_sigabrt_grace_allows_clean_shutdown(self):
        # A child that exits 7 on SIGABRT must be reaped during the grace
        # window; the guard still reports the timeout as 124.
        prog = (
            "import signal, sys, time\n"
            "signal.signal(signal.SIGABRT, lambda *a: sys.exit(7))\n"
            "time.sleep(600)\n"
        )
        r = run("hang_guard.py", "--timeout", "1", "--grace", "5", "--",
                sys.executable, "-c", prog)
        self.assertEqual(r.returncode, 124, r.stderr)

    def test_usage_errors_exit_125(self):
        r = run("hang_guard.py", "--timeout", "5", "--")
        self.assertEqual(r.returncode, 125)
        r = run("hang_guard.py", "--timeout", "0", "--", "true")
        self.assertEqual(r.returncode, 125)
        r = run("hang_guard.py", "--timeout", "5", "--",
                os.path.join(self.dir, "no-such-binary"))
        self.assertEqual(r.returncode, 125)


def gate(section, *paths):
    return run("check_gates.py", section, *paths)


# What each gated section must do, written out independently of the gate
# script's own table: (gated keys, informational keys).
SECTIONS = {
    "psan": (("missing_flush", "misordered_persist"),
             ("events", "checks", "redundant_flush", "redundant_fence",
              "unflushed_at_crash", "torn_at_crash", "diags_dropped")),
    "rsan": (("write_write_race", "read_write_race", "orec_coverage",
              "early_release"),
             ("events", "loads", "stores", "acquires", "releases",
              "validated_reads", "inherits", "diags_dropped")),
    "recovery": (("records_discarded", "records_torn", "records_invalid",
                  "records_media_faulted", "log_crc_mismatches",
                  "media_faults", "segment_links_truncated",
                  "log_range_drops"),
                 ("slots_scanned", "slots_committed", "slots_rolled_back",
                  "records_replayed", "records_stale", "allocs_cancelled",
                  "frees_applied", "records_damaged", "records_repaired",
                  "records_lost")),
    "abort_causes": (("capacity",),
                     ("read_conflict", "write_conflict", "validation",
                      "explicit")),
}
SANITIZERS = ("psan", "rsan")  # the sections with a REPRO_*_OUT JSONL form


def clean_section(section, **overrides):
    gated, info = SECTIONS[section]
    obj = dict.fromkeys(gated + info, 0)
    if section == "psan":
        obj["redundant_fence_by_phase"] = {}
    obj.update(overrides)
    return obj


def artifact(section=None, obj=None, points=1):
    point = {"bench": "b", "label": "l", "threads": 1}
    if section is not None:
        point[section] = obj
    return {"schema_version": 1, "tool": "optane-ptm-bench",
            "results": [dict(point) for _ in range(points)]}


class GateTest(TempDirTest):
    def jsonl(self, name, records):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            for rec in records:
                f.write(json.dumps(dict(rec, enabled=True)) + "\n")
        return path

    def inputs(self, section, obj):
        """Every form a section can arrive in: the bench artifact, plus the
        JSONL stream for the sanitizers."""
        paths = [self.write(f"{section}.json", artifact(section, obj))]
        if section in SANITIZERS:
            paths.append(self.jsonl(f"{section}.jsonl", [obj, obj]))
        return paths

    def assertGate(self, code, section, *paths):
        r = gate(section, *paths)
        self.assertEqual(r.returncode, code,
                         f"{section} {paths}: {r.stdout}{r.stderr}")

    def test_clean_input_passes(self):
        for section in SECTIONS:
            for path in self.inputs(section, clean_section(section)):
                self.assertGate(0, section, path)

    def test_each_gated_key_fails(self):
        for section, (gated, _info) in SECTIONS.items():
            for key in gated:
                for path in self.inputs(section,
                                        clean_section(section, **{key: 3})):
                    self.assertGate(1, section, path)

    def test_informational_keys_never_fail(self):
        for section, (_gated, info) in SECTIONS.items():
            noisy = clean_section(section,
                                  **{k: i + 5 for i, k in enumerate(info)})
            if section == "psan":
                noisy["redundant_fence_by_phase"] = {"abort_backoff": 9}
            for path in self.inputs(section, noisy):
                self.assertGate(0, section, path)

    def test_empty_sanitizer_input_fails(self):
        # A gated run whose sanitizer never started is a plumbing bug.
        for section in SANITIZERS:
            self.assertGate(1, section, self.jsonl("empty.jsonl", []))
            self.assertGate(1, section, self.write("bare.json", artifact()))

    def test_artifact_gates_accept_zero_points(self):
        for section in ("recovery", "abort_causes"):
            self.assertGate(0, section,
                            self.write("none.json", artifact(points=0)))

    def test_records_lost_fails_only_under_mirror(self):
        lost = clean_section("recovery", records_lost=2)
        self.assertGate(0, "recovery", self.write("a.json",
                                                  artifact("recovery", lost)))
        lost["mirror_enabled"] = True
        self.assertGate(1, "recovery", self.write("b.json",
                                                  artifact("recovery", lost)))

    def test_missing_recovery_object_fails(self):
        self.assertGate(1, "recovery", self.write("bare.json", artifact()))

    def test_missing_abort_causes_passes(self):
        self.assertGate(0, "abort_causes", self.write("bare.json", artifact()))

    def test_one_bad_file_fails_the_run(self):
        for section in SECTIONS:
            good = self.write("good.json",
                              artifact(section, clean_section(section)))
            bad = self.write("bad.json", artifact(
                section, clean_section(section, **{SECTIONS[section][0][0]: 1})))
            self.assertGate(1, section, good, bad)

    def test_unreadable_file_exits_1(self):
        garbage = os.path.join(self.dir, "garbage.json")
        with open(garbage, "w") as f:
            f.write("{not json\n")
        for section in SECTIONS:
            self.assertGate(1, section, os.path.join(self.dir, "missing.json"))
            self.assertGate(1, section, garbage)

    def test_usage_error_exits_2(self):
        for section in SECTIONS:
            self.assertGate(2, section)
        good = self.write("good.json", artifact())
        self.assertEqual(run("check_gates.py").returncode, 2)
        self.assertEqual(run("check_gates.py", "no_such_section", good)
                         .returncode, 2)


class KnobTableTest(unittest.TestCase):
    def test_knob_table_lists_exactly_the_knobs_the_code_reads(self):
        # Every "REPRO_*" string literal in src/ and bench/ names an
        # environment knob (read by std::getenv directly or through
        # nvm::Pool's resolver).
        read = set()
        for sub in ("src", "bench"):
            for dirpath, _dirs, files in os.walk(os.path.join(ROOT, sub)):
                for name in files:
                    if name.endswith((".cpp", ".h")):
                        with open(os.path.join(dirpath, name)) as f:
                            read.update(re.findall(r'"(REPRO_[A-Z0-9_]+)"',
                                                   f.read()))
        with open(os.path.join(ROOT, "docs", "OBSERVABILITY.md")) as f:
            doc = f.read()
        table = doc.split("\n## Environment knobs\n", 1)[1].split("\n## ", 1)[0]
        listed = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)", table, re.M))
        self.assertIn("REPRO_PSAN", read)
        self.assertEqual(sorted(read - listed), [],
                         "knobs missing from docs/OBSERVABILITY.md's table")
        self.assertEqual(sorted(listed - read), [],
                         "table rows for knobs nothing reads")


class CompareResultsTest(TempDirTest):
    def test_aborts_from_zero_baseline_are_flagged(self):
        base = self.write("base.json", results_doc(aborts=0))
        cand = self.write("cand.json", results_doc(aborts=7))
        r = run("check_gates.py", "compare", base, cand)
        self.assertEqual(r.returncode, 0, r.stdout)  # warning, not failure
        self.assertIn("warn: aborts grew", r.stdout)
        self.assertIn("0 -> 7", r.stdout)

    def test_abort_growth_above_threshold_is_flagged(self):
        base = self.write("base.json", results_doc(aborts=10))
        cand = self.write("cand.json", results_doc(aborts=100))
        r = run("check_gates.py", "compare", base, cand)
        self.assertIn("warn: aborts grew", r.stdout)

    def test_throughput_drop_beyond_threshold_fails(self):
        base = self.write("base.json", results_doc(aborts=3))
        slow = results_doc(aborts=3)
        slow["results"][0]["throughput_tx_per_sec"] = 0.9e6
        cand = self.write("cand.json", slow)
        r = run("check_gates.py", "compare", base, cand)
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("REGRESSION", r.stdout)
        r = run("check_gates.py", "compare", base, cand, "--threshold", "20")
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_self_comparison_is_clean(self):
        base = self.write("base.json", results_doc(aborts=3))
        r = run("check_gates.py", "compare", base, base)
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertNotIn("warn", r.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

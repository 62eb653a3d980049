#!/usr/bin/env python3
"""Tests for tools/perf_pairs.py, run on two fake trees.

Each fake tree holds a BENCHMARK.json and a perfbench/run.py that
prints the next of a list of canned results and logs which tree ran.

    python3 tests/test_perf_pairs.py
"""

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "perf_pairs.py")

BENCHMARK = {"end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_kcyc_per_s", "unit": "kcyc/s", "better": "higher",
     "bound": 0.25},
]}

FAKE_RUN = textwrap.dedent("""\
    import json, os, sys
    here = os.path.dirname(os.path.abspath(__file__))
    tree = os.path.dirname(here)
    with open(os.path.join(here, "canned.json")) as f:
        canned = json.load(f)
    count_path = os.path.join(here, "count")
    n = int(open(count_path).read()) if os.path.exists(count_path) else 0
    open(count_path, "w").write(str(n + 1))
    with open(os.environ["FAKE_LOG"], "a") as f:
        f.write(os.path.basename(tree) + " " + " ".join(sys.argv[1:]) + "\\n")
    print("fake perfbench")
    print(json.dumps(canned[n]))
    """)


def result(run_s, kcyc, correct=True, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "sim_kcyc_per_s": {"value": kcyc,
                                           "unit": "kcyc/s"}}}


class PerfPairs(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "log")

    def tearDown(self):
        self.tmp.cleanup()

    def tree(self, name, canned):
        root = os.path.join(tempfile.mkdtemp(dir=self.tmp.name), name)
        os.makedirs(os.path.join(root, "perfbench"))
        with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
            json.dump(BENCHMARK, f)
        with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
            f.write(FAKE_RUN)
        with open(os.path.join(root, "perfbench", "canned.json"), "w") as f:
            json.dump(canned, f)
        return root

    def run_tool(self, parent, change, *extra, seconds=("--seconds", "2")):
        proc = subprocess.run(
            [sys.executable, TOOL, self.tree("parent", parent),
             self.tree("change", change), "--workload", "walk_replay",
             "--pairs", str(len(parent))] + list(seconds) + list(extra),
            capture_output=True, text=True,
            env=dict(os.environ, FAKE_LOG=self.log))
        return proc.returncode, proc.stdout

    def verdict(self, out, metric):
        line = next(l for l in out.splitlines() if l.startswith(metric + " "))
        return line.split()[-1]

    def rows(self, out):
        return json.loads(out[out.index("\n[") + 1:])

    def test_alternates_and_passes_the_arguments(self):
        code, _ = self.run_tool([result(1, 100)] * 4, [result(1, 100)] * 4)
        self.assertEqual(code, 0)
        with open(self.log) as f:
            runs = [l.split() for l in f]
        self.assertEqual([r[0] for r in runs],
                         ["parent", "change", "change", "parent"] * 2)
        self.assertEqual(runs[0][1:], ["--workload", "walk_replay", "--seed",
                                       "1", "--seconds", "2.0", "--trace",
                                       "0"])

    def test_the_defaults_are_the_benchmarks(self):
        code, out = self.run_tool([result(1, 100)] * 2, [result(1, 100)] * 2,
                                  seconds=())
        self.assertEqual(code, 0)
        with open(self.log) as f:
            self.assertIn("--seed 1 --seconds 25.0 --trace 0", f.readline())
        self.assertEqual(self.rows(out)[0]["seconds"], 25)

    def test_clear_gain_meets_the_claim(self):
        parent = [result(1.0 + i / 100, 100 + i) for i in range(10)]
        change = [result(0.8 + i / 100, 130 + i) for i in range(10)]
        code, out = self.run_tool(parent, change, "--claim",
                                  "sim_kcyc_per_s")
        self.assertEqual(code, 0)
        self.assertEqual(self.verdict(out, "run_s"), "ok")
        self.assertEqual(self.verdict(out, "sim_kcyc_per_s"), "ok")
        self.assertIn("claim sim_kcyc_per_s: claim met (10/10 won", out)
        rows = {r["metric"]: r for r in self.rows(out)}
        kcyc = rows["sim_kcyc_per_s"]
        self.assertEqual((kcyc["parent_median"], kcyc["change_median"]),
                         (104.5, 134.5))
        # Four significant digits, as the trajectory keeps them.
        self.assertEqual((kcyc["parent_q1"], kcyc["parent_q3"]),
                         (102.2, 106.8))
        self.assertEqual(kcyc["change_won"], 10)
        self.assertTrue(kcyc["gain_claimed"])
        self.assertFalse(rows["run_s"]["gain_claimed"])
        self.assertEqual(rows["run_s"]["seconds"], 2)

    def test_eight_wins_or_a_small_gap_is_no_claim(self):
        parent = [result(1, 100 + i) for i in range(10)]
        change = [result(1, 110 + i) for i in range(8)] + \
            [result(1, 90), result(1, 90)]
        _, out = self.run_tool(parent, change, "--claim", "sim_kcyc_per_s")
        self.assertIn("claim not met (8/10 won", out)
        # 10/10 won, but by less than the parent's IQR (4.5).
        change = [result(1, 100.5 + i) for i in range(10)]
        _, out = self.run_tool(parent, change, "--claim", "sim_kcyc_per_s")
        self.assertIn("claim not met (10/10 won", out)

    def test_ties_count_for_neither_side(self):
        code, out = self.run_tool([result(1, 100)] * 4,
                                  [result(1, 100)] * 4)
        self.assertEqual(code, 0)
        self.assertTrue(all(r["change_won"] == 0 for r in self.rows(out)))

    def test_a_median_past_the_bound_is_worse(self):
        parent = [result(1.0, 100)] * 4
        change = [result(1.3, 100)] * 4
        code, out = self.run_tool(parent, change)
        self.assertEqual(code, 0)  # verdicts do not set the status
        self.assertEqual(self.verdict(out, "run_s"), "WORSE")
        self.assertEqual(self.verdict(out, "sim_kcyc_per_s"), "ok")

    def test_a_wide_parent_spread_is_unresolved(self):
        parent = [result(1, v) for v in (50, 150, 60, 140)]
        _, out = self.run_tool(parent, [result(1, 100)] * 4)
        self.assertEqual(self.verdict(out, "sim_kcyc_per_s"), "unresolved")
        # Unless every change run beats every parent run.
        _, out = self.run_tool(parent, [result(1, 151)] * 4)
        self.assertEqual(self.verdict(out, "sim_kcyc_per_s"), "ok")

    def test_an_incorrect_run_exits_1(self):
        change = [result(1, 100)] * 3 + [result(1, 100, correct=False)]
        code, out = self.run_tool([result(1, 100)] * 4, change)
        self.assertEqual(code, 1)
        self.assertIn("change: 1 of 4 runs not correct", out)

    def test_a_larger_failed_share_exits_1(self):
        parent = [result(1, 100, failed=1)] * 2
        change = [result(1, 100, failed=2)] * 2
        code, out = self.run_tool(parent, change)
        self.assertEqual(code, 1)
        self.assertIn("change fails 0.2000 of its operations", out)
        code, _ = self.run_tool(change, parent)
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests for tools/compare_bench_tables.py, run on two fake builds.

Each fake build dir holds an fdip_experiments script that prints the
canned stdout and exit status stored for its command line, and logs
the FDIP_* environment it was given.

    python3 tests/test_compare_bench_tables.py
"""

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "compare_bench_tables.py")

RUN = " --jobs 4 --warmup 4000 --measure 12000"

FAKE_PROGRAM = textwrap.dedent("""\
    import json, os, sys
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "canned.json")) as f:
        canned = json.load(f)
    with open(os.environ["FAKE_LOG"], "a") as f:
        env = sorted(k + "=" + v for k, v in os.environ.items()
                     if k.startswith("FDIP_"))
        f.write(" ".join(env) + "\\n")
    out, rc = canned.get(" ".join(sys.argv[1:]), ["", 2])
    sys.stdout.write(out)
    sys.exit(rc)
    """)


def canned(ids=("R-A", "R-B"), footer="sweep: 4 points in 1.0s wall\n"
           "reuse: 0 memo hits\n"):
    """Command line -> [stdout, exit status] of a healthy build."""
    c = {"--list": ["".join(f"{i}        4 points  title of {i}\n"
                            for i in ids), 0]}
    for i in ids:
        c[f"run {i}" + RUN] = [footer + f"=====\n{i}: title of {i}\n"
                               "| gcc | 1.0% |\n", 0]
        c[f"--describe {i}"] = [f"{i}: title of {i}\n  run: 4000 + 12000\n",
                                0]
    return c


class CompareBenchTables(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "log")

    def tearDown(self):
        self.tmp.cleanup()

    def build(self, name, commands):
        root = os.path.join(self.tmp.name, name)
        os.makedirs(root)
        program = os.path.join(root, "fdip_experiments")
        with open(program, "w") as f:
            f.write(f"#!{sys.executable}\n" + FAKE_PROGRAM)
        os.chmod(program, 0o755)
        with open(os.path.join(root, "canned.json"), "w") as f:
            json.dump(commands, f)
        return root

    def run_tool(self, parent, change):
        proc = subprocess.run(
            [sys.executable, TOOL, self.build("parent", parent),
             self.build("change", change)],
            capture_output=True, text=True,
            env=dict(os.environ, FAKE_LOG=self.log,
                     FDIP_CACHE_DIR="/nonexistent"))
        return proc.returncode, proc.stdout.splitlines()

    def test_identical_builds_pass(self):
        rc, lines = self.run_tool(canned(), canned())
        self.assertEqual(rc, 0, lines)
        self.assertEqual(lines[:3], ["identical  --list", "identical  R-A",
                                     "identical  R-B"])
        self.assertEqual(lines[-1], "3/3 identical (--list and "
                                    "2 experiments)")
        # Every run saw FDIP_NO_CACHE=1 and no other FDIP_* variable.
        with open(self.log) as f:
            envs = set(f.read().splitlines())
        self.assertEqual(envs, {"FDIP_NO_CACHE=1"})

    def test_changed_table_cell_is_different(self):
        change = canned()
        change["run R-B" + RUN][0] = change["run R-B" + RUN][0].replace(
            "1.0%", "2.0%")
        rc, lines = self.run_tool(canned(), change)
        self.assertEqual(rc, 1)
        self.assertIn("DIFFERENT  R-B (table: line 3)", lines)
        self.assertIn("identical  R-A", lines)

    def test_host_lines_are_ignored(self):
        change = canned(footer="sweep: 4 points in 9.9s wall\n"
                        "reuse: 3 memo hits\n")
        rc, lines = self.run_tool(canned(), change)
        self.assertEqual(rc, 0, lines)

    def test_describe_difference(self):
        change = canned()
        change["--describe R-A"][0] = "R-A: title of R-A\n  run: other\n"
        rc, lines = self.run_tool(canned(), change)
        self.assertEqual(rc, 1)
        self.assertIn("DIFFERENT  R-A (--describe: line 2)", lines)

    def test_missing_id(self):
        rc, lines = self.run_tool(canned(), canned(ids=("R-A",)))
        self.assertEqual(rc, 1)
        self.assertIn("DIFFERENT  (--list: line 2)", lines)
        missing = [l for l in lines if l.startswith("MISSING")]
        self.assertEqual(len(missing), 1, lines)
        self.assertTrue(missing[0].startswith("MISSING    R-B (not in "))
        self.assertTrue(missing[0].endswith("change)"), missing[0])

    def test_exit_status_difference(self):
        change = canned()
        change["run R-A" + RUN][1] = 3
        rc, lines = self.run_tool(canned(), change)
        self.assertEqual(rc, 1)
        self.assertIn("DIFFERENT  R-A (table: exit 0 vs 3)", lines)


if __name__ == "__main__":
    unittest.main()

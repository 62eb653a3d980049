#!/usr/bin/env python3
"""Check that two builds print the same bench tables.

Usage:

    python3 tools/compare_bench_tables.py PARENT_BUILD CHANGE_BUILD

Each argument is a CMake build directory holding the bench_* binaries.
Every binary found in either directory is run in both, with every
FDIP_* environment variable removed and then FDIP_NO_CACHE=1 set, as

    bench_X --jobs 4 --warmup 4000 --measure 12000
    bench_X --list
    bench_X --describe

The "sweep:" and "reuse:" lines (host timing and cache counts) are
dropped from the table output; everything else on stdout, and the exit
status, must match byte for byte. Prints one line per binary and exits
1 on any difference or on a binary missing from either build.
"""

import argparse
import glob
import os
import subprocess
import sys

RUN_ARGS = ["--jobs", "4", "--warmup", "4000", "--measure", "12000"]
HOST_LINE_PREFIXES = ("sweep:", "reuse:")
# Generous: at these run lengths the slowest bench takes seconds.
TIMEOUT_S = 600


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FDIP_")}
    env["FDIP_NO_CACHE"] = "1"
    return env


def benches(build_dir):
    found = {}
    for path in glob.glob(os.path.join(build_dir, "bench_*")):
        if os.path.isfile(path) and os.access(path, os.X_OK):
            found[os.path.basename(path)] = path
    return found


def run(binary, args, env):
    """Exit status and stdout lines of one invocation, host lines cut."""
    proc = subprocess.run([binary] + args, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines()
             if not line.startswith(HOST_LINE_PREFIXES)]
    return proc.returncode, lines


def first_difference(a, b):
    """1-based number of the first line where a and b differ."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i + 1
    return min(len(a), len(b)) + 1


def compare(parent, change, env):
    """None when both builds agree, else a short description."""
    diffs = []
    for label, args in (("table", RUN_ARGS), ("--list", ["--list"]),
                        ("--describe", ["--describe"])):
        p_rc, p_out = run(parent, args, env)
        c_rc, c_out = run(change, args, env)
        if p_rc != c_rc:
            diffs.append(f"{label}: exit {p_rc} vs {c_rc}")
        elif p_out != c_out:
            diffs.append(f"{label}: line {first_difference(p_out, c_out)}")
    return "; ".join(diffs) if diffs else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_build")
    p.add_argument("change_build")
    args = p.parse_args()
    parent_dir, change_dir = args.parent_build, args.change_build
    parent, change = benches(parent_dir), benches(change_dir)
    if not parent and not change:
        print(f"no bench_* binaries in {parent_dir} or {change_dir}",
              file=sys.stderr)
        return 1

    env = bench_env()
    failed = 0
    for name in sorted(set(parent) | set(change)):
        if name not in parent or name not in change:
            where = parent_dir if name not in parent else change_dir
            print(f"MISSING    {name} (not in {where})")
            failed += 1
            continue
        diff = compare(parent[name], change[name], env)
        if diff is None:
            print(f"identical  {name}")
        else:
            print(f"DIFFERENT  {name} ({diff})")
            failed += 1

    total = len(set(parent) | set(change))
    print(f"{total - failed}/{total} bench binaries identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

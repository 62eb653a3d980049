#!/usr/bin/env python3
"""Check that two builds print the same experiment tables.

Usage:

    python3 tools/compare_bench_tables.py PARENT_BUILD CHANGE_BUILD

Each argument is a CMake build directory holding fdip_experiments. The
experiment ids are read from each build's `fdip_experiments --list`;
every id found in either build is run in both, with every FDIP_*
environment variable removed and then FDIP_NO_CACHE=1 set, as

    fdip_experiments run ID --jobs 4 --warmup 4000 --measure 12000
    fdip_experiments --describe ID

and `fdip_experiments --list` is compared once. The "sweep:" and
"reuse:" lines (host timing and cache counts) are dropped from the
table output; everything else on stdout, and the exit status, must
match byte for byte. Prints one line per id and exits 1 on any
difference or on an id missing from either build.
"""

import argparse
import os
import subprocess
import sys

PROGRAM = "fdip_experiments"
RUN_ARGS = ["--jobs", "4", "--warmup", "4000", "--measure", "12000"]
HOST_LINE_PREFIXES = ("sweep:", "reuse:")
# Generous: at these run lengths the slowest experiment takes seconds.
TIMEOUT_S = 600


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FDIP_")}
    env["FDIP_NO_CACHE"] = "1"
    return env


def run(build_dir, args, env):
    """Exit status and stdout lines of one invocation, host lines cut."""
    proc = subprocess.run([os.path.join(build_dir, PROGRAM)] + args, env=env,
                          capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines()
             if not line.startswith(HOST_LINE_PREFIXES)]
    return proc.returncode, lines


def first_difference(a, b):
    """1-based number of the first line where a and b differ."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i + 1
    return min(len(a), len(b)) + 1


def difference(label, p, c):
    """None when two (exit status, lines) results agree, else a short
    description of where they part."""
    (p_rc, p_out), (c_rc, c_out) = p, c
    if p_rc != c_rc:
        return f"{label}: exit {p_rc} vs {c_rc}"
    if p_out != c_out:
        return f"{label}: line {first_difference(p_out, c_out)}"
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_build")
    p.add_argument("change_build")
    args = p.parse_args()
    parent, change = args.parent_build, args.change_build
    for build in (parent, change):
        if not os.access(os.path.join(build, PROGRAM), os.X_OK):
            print(f"no {PROGRAM} in {build}", file=sys.stderr)
            return 1

    env = bench_env()
    listed = {build: run(build, ["--list"], env) for build in (parent, change)}
    diff = difference("--list", listed[parent], listed[change])
    print("identical  --list" if diff is None else f"DIFFERENT  ({diff})")
    failed = int(diff is not None)

    ids = {build: [line.split()[0] for line in lines if line.strip()]
           for build, (_, lines) in listed.items()}
    all_ids = sorted(set(ids[parent]) | set(ids[change]))
    for exp_id in all_ids:
        if exp_id not in ids[parent] or exp_id not in ids[change]:
            where = parent if exp_id not in ids[parent] else change
            print(f"MISSING    {exp_id} (not in {where})")
            failed += 1
            continue
        diffs = [difference(label, run(parent, cmd, env),
                            run(change, cmd, env))
                 for label, cmd in (("table", ["run", exp_id] + RUN_ARGS),
                                    ("--describe", ["--describe", exp_id]))]
        diffs = [d for d in diffs if d is not None]
        if diffs:
            print(f"DIFFERENT  {exp_id} ({'; '.join(diffs)})")
            failed += 1
        else:
            print(f"identical  {exp_id}")

    print(f"{len(all_ids) + 1 - failed}/{len(all_ids) + 1} identical "
          f"(--list and {len(all_ids)} experiments)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fdp_gcc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, untraced

Builds perfbench/ (and the simulator library it links) in Release mode
under .bench_build/, runs the benchmark program with every FDIP_*
environment variable removed, and relays its output: one metric per
line, then one JSON object {"correct", "attempted", "failed", "metrics"}
as the last line of stdout. With --workload all (the default) the JSON
line merges every workload's result, metric names prefixed by workload.
Build output goes to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fdp_gcc", "walk_replay", "mc4_mix", "zoo_sweep")
# Wall-clock limit for the benchmark program itself (the build is
# separate and only slow the first time).
RUN_TIMEOUT_S = 150
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", default=1, type=int)
    p.add_argument("--seconds", default=25, type=float)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def clean_env():
    """The environment minus every FDIP_* knob (they change what is
    measured: skipping, telemetry, faults, caching, jobs, retries)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FDIP_")}


def build(env):
    for required in ("CMakeLists.txt", os.path.join("src", "sim", "simulator.hh")):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"simulator sources missing ({required}); run from a full checkout")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, env=env, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "fdip_perfbench",
                   "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, env=env, stdout=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(BUILD_DIR, "fdip_perfbench")


def run(binary, workload, args, env):
    """Run one workload; returns its stdout lines and parsed result."""
    work_dir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: benchmark program exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload}: benchmark program exited with status "
             f"{proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: benchmark program printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed JSON result")
    return lines, result


def main():
    args = parse_args()
    env = clean_env()
    binary = build(env)
    if args.workload != "all":
        lines, _ = run(binary, args.workload, args, env)
        print("\n".join(lines), flush=True)
        return
    # Every workload in turn; the last line merges their results, with
    # metric names prefixed by the workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run(binary, workload, args, env)
        print("\n".join(lines[:-1]), flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged), flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run perfbench in alternating pairs and apply the benchmark's rules.

Usage:

    python3 tools/perf_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        [--seed 1] [--pairs 10] [--seconds 25] [--claim METRIC]

Each tree is a checkout holding perfbench/run.py. Every pair runs

    python3 TREE/perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, the parent first in even pairs and the change first
in odd ones. The end-to-end metrics, their direction and their bounds
come from the parent tree's BENCHMARK.json. For each metric it prints
both sides' median and quartiles, the pairs the change won (ties count
for neither side) and one verdict:

    ok          the change's median is within the bound of the parent's
    WORSE       the change's median is worse by more than the bound
    unresolved  the parent's IQR/median exceeds the bound and not every
                change run beats every parent run

With --claim METRIC it also prints "claim met" or "claim not met": met
means the change won at least 9 pairs in 10 and its median beats the
parent's by more than the parent's IQR. Then it prints the rows in
BENCH_perfbench.json's shape as a JSON list (pr, commit and parent are
null, for the caller to fill in). It writes no file.

Exits 1 if any run is not "correct": true, or if the change's runs
fail a larger share of their attempted operations than the parent's.
Verdicts do not change the exit status.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
WIN_SHARE = 0.9


def fail(message):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_tree")
    p.add_argument("change_tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", default=1, type=int)
    p.add_argument("--pairs", default=10, type=int)
    p.add_argument("--seconds", default=25.0, type=float)
    p.add_argument("--claim", metavar="METRIC")
    args = p.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    return args


def end_to_end_metrics(tree):
    path = os.path.join(tree, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)["end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read end_to_end metrics from {path}: {e}")


def run_once(tree, args):
    """The JSON result of one perfbench run in @p tree."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{tree}: run.py printed no JSON result "
             f"(exit status {proc.returncode})")
    return result


def quartiles(values):
    """(q1, median, q3), inclusive method; one value is its own."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def sig(x):
    """@p x to 4 significant digits, as BENCH_perfbench.json keeps."""
    return float(f"{x:.4g}")


def judge(metric, parent, change):
    """Summary and verdict of one metric over paired runs."""
    lower = metric["better"] == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    won = sum(beats(c, p) for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    scale = abs(p_med) or 1.0
    worse = (c_med - p_med if lower else p_med - c_med) / scale
    spread = (p_q3 - p_q1) / scale
    separated = all(beats(c, p) for p in parent for c in change)
    if spread > metric["bound"] and not separated:
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "WORSE"
    else:
        verdict = "ok"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "won": won,
        "gap": -worse * scale,
        "iqr": p_q3 - p_q1,
        "verdict": verdict,
    }


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    args = parse_args()
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    metrics = end_to_end_metrics(args.parent_tree)
    names = [m["name"] for m in metrics]
    if args.claim is not None and args.claim not in names:
        fail(f"--claim {args.claim} is not an end-to-end metric "
             f"({', '.join(names)})")

    results = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            r = run_once(trees[side], args)
            results[side].append(r)
            values = " ".join(f"{n} {r['metrics'].get(n, {}).get('value')}"
                              for n in names)
            print(f"pair {i + 1}/{args.pairs} {side}: correct "
                  f"{r['correct']}, failed {r['failed']}, {values}",
                  file=sys.stderr, flush=True)

    status = 0
    for side in SIDES:
        bad = sum(not r["correct"] for r in results[side])
        if bad:
            print(f"{side}: {bad} of {args.pairs} runs not correct")
            status = 1
    shares = {side: failed_share(results[side]) for side in SIDES}
    if shares["change"] > shares["parent"]:
        print(f"change fails {shares['change']:.4f} of its operations, "
              f"parent {shares['parent']:.4f}")
        status = 1

    names_seen = all(name in r["metrics"] for side in SIDES
                     for r in results[side] for name in names)
    if not names_seen:
        print("no verdicts: some runs report no end-to-end metrics")
        return 1

    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of "
          f"{args.seconds:g} s")
    print(f"{'metric':<16}{'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32}{'won':>7}  verdict")
    rows = []
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in SIDES}
        j = judge(metric, values["parent"], values["change"])
        cells = [f"{sig(q[1]):g} [{sig(q[0]):g}, {sig(q[2]):g}]"
                 for q in (j["parent"], j["change"])]
        print(f"{name:<16}{cells[0]:>32} {cells[1]:>32}"
              f"{j['won']:>4}/{args.pairs:<2}  {j['verdict']}")
        if name == args.claim:
            met = (j["won"] >= WIN_SHARE * args.pairs and
                   j["gap"] > j["iqr"])
            print(f"claim {name}: {'claim met' if met else 'claim not met'}"
                  f" ({j['won']}/{args.pairs} won, median gap "
                  f"{sig(j['gap']):g} against parent IQR {sig(j['iqr']):g})")
        rows.append({
            "pr": None, "commit": None, "parent": None,
            "workload": args.workload, "seed": args.seed,
            "seconds": (int(args.seconds) if args.seconds.is_integer()
                        else args.seconds),
            "pairs": args.pairs,
            "metric": name, "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": sig(j["parent"][1]),
            "parent_q1": sig(j["parent"][0]),
            "parent_q3": sig(j["parent"][2]),
            "change_median": sig(j["change"][1]),
            "change_q1": sig(j["change"][0]),
            "change_q3": sig(j["change"][2]),
            "change_won": j["won"],
            "gain_claimed": name == args.claim,
        })
    print(json.dumps(rows, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())

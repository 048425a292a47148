#!/usr/bin/env python3
"""Records paired sets of perfbench runs of two checkouts and compares them.

  record   Runs perfbench/run.py in checkout A and in checkout B, seed by
           seed: for every seed and every workload of BENCHMARK.json it runs
           both sides back to back, A first on odd seeds and B first on even
           ones, so that the host's drift falls on both sides alike. Each run
           measures BENCHMARK.json's run_seconds. Stores every result, with
           its run_seconds, as DIR/<A|B>/<workload>-seed<N>.json:

             python3 perfbench/trajectory.py record --out DIR \\
                 [--seeds 1-10] A_ROOT B_ROOT

           A_ROOT and B_ROOT may be the same checkout; the two sets then
           measure the benchmark's own noise.

  compare  For each workload x end-to-end metric prints each side's median
           and quartiles (statistics.quantiles, n=4) over the seeds and its
           spread, the interquartile distance as a share of the median: the
           figure BENCHMARK.json's bound must hold across seeds. Then it
           prints the median and quartiles of the per-seed ratio B/A, which
           pairs runs of the same inputs taken minutes apart, and in how many
           pairs B read better, and flags the change only when the median
           ratio is worse than the bound:

             python3 perfbench/trajectory.py compare DIR

           Refuses sets recorded with different run_seconds. Exits 1 if a
           spread exceeds its bound (setup_s excepted) or a change is worse
           than its bound.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

SIDES = ("A", "B")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    """One untraced run in checkout `root`; its JSON result."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout keeps its own build
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("%s: %s seed %d: run failed (exit %d)" %
              (root, workload, seed, done.returncode), file=sys.stderr)
        sys.exit(1)
    return json.loads(lines[-1])


def record(args):
    bench = load_benchmark(args.benchmark)
    seconds = bench["run_seconds"]
    roots = dict(zip(SIDES, (args.a_root, args.b_root)))
    for side in SIDES:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for seed in parse_seeds(args.seeds):
        order = SIDES if seed % 2 == 1 else SIDES[::-1]
        for workload in [w["name"] for w in bench["workloads"]]:
            for side in order:
                result = run_once(roots[side], workload, seed, seconds)
                path = os.path.join(args.out, side,
                                    "%s-seed%d.json" % (workload, seed))
                with open(path, "w") as f:
                    json.dump({"workload": workload, "seed": seed,
                               "run_seconds": seconds, "result": result}, f)
                print("%s %s seed %d: correct=%s failed=%d/%d" %
                      (side, workload, seed, result["correct"],
                       result["failed"], result["attempted"]), flush=True)


def load_side(directory):
    """{(workload, seed): metrics} and the set of run_seconds seen."""
    runs, lengths = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        lengths.add(rec["run_seconds"])
        runs[(rec["workload"], rec["seed"])] = {
            name: metric["value"]
            for name, metric in rec["result"]["metrics"].items()}
    return runs, lengths


def quartiles(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return median, q1, q3


def compare(args):
    bench = load_benchmark(args.benchmark)
    sides, lengths = {}, set()
    for side in SIDES:
        sides[side], seen = load_side(os.path.join(args.dir, side))
        lengths |= seen
    if len(lengths) > 1:
        sys.exit("refusing to compare runs of different lengths: %s s" %
                 sorted(lengths))
    bad = False
    print("%-16s %-18s %-6s %12s %12s %12s %8s" % (
        "workload", "metric", "side", "median", "q1", "q3", "spread"))
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_side = {}
            for side in SIDES:
                per_side[side] = {
                    seed: m[name] for (w, seed), m in sides[side].items()
                    if w == workload and name in m}
                values = list(per_side[side].values())
                if not values:
                    continue
                median, q1, q3 = quartiles(values)
                spread = (q3 - q1) / median if median else 0.0
                flag = ""
                if spread > bound and name != "setup_s":
                    flag, bad = "  SPREAD>bound", True
                print("%-16s %-18s %-6s %12.4f %12.4f %12.4f %7.1f%%%s" % (
                    workload, name, "%s(%d)" % (side, len(values)), median,
                    q1, q3, 100 * spread, flag))
            seeds = sorted(set(per_side["A"]) & set(per_side["B"]))
            ratios = [per_side["B"][s] / per_side["A"][s] for s in seeds
                      if per_side["A"][s]]
            if not ratios:
                continue
            median, q1, q3 = quartiles(ratios)
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(1 for r in ratios if sign * (r - 1) < 0)
            change = median - 1
            worse = sign * change
            verdict = "within bound %.0f%%" % (100 * bound)
            if worse > bound:
                verdict, bad = "WORSE beyond bound %.0f%%" % (100 * bound), True
            elif -worse > bound:
                verdict = "better beyond bound %.0f%%" % (100 * bound)
            print("%-16s %-18s %-6s %+11.1f%% %+11.1f%% %+11.1f%%  "
                  "B better in %d/%d, %s" % (
                      workload, name, "B/A", 100 * change, 100 * (q1 - 1),
                      100 * (q3 - 1), wins, len(ratios), verdict))
    sys.exit(1 if bad else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--out", required=True)
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("a_root")
    rec.add_argument("b_root")
    cmp = sub.add_parser("compare")
    cmp.add_argument("dir")
    args = parser.parse_args()
    if args.command == "record":
        record(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()

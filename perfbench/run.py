#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another, each in its own
process, and prints every one's metrics.

The first run configures and builds perfbench/CMakeLists.txt (the lll
libraries from src/ plus the driver, RelWithDebInfo like the repository's
own build) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later runs rebuild incrementally. Build output goes
to stderr. The driver's detail lines are relayed; its last line, the run's
JSON result, is checked against BENCHMARK.json and printed as the last line
of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 every end-to-end metric of BENCHMARK.json must be there,
with its declared unit. With --trace 1 the driver reports the per-layer
metrics on the workload's path; they get their units from BENCHMARK.json,
and every declared layer the workload never calls reads 0. A metric
BENCHMARK.json does not declare fails the run.

Workloads (see BENCHMARK.json for why each exists):

  serve_mixed     2 sessions on one QueryServer, 95% reads / 5% updates.
                  primary = Session::Query reads, secondary = PublishUpdate.
  docgen_reports  3 templates x 3 model sizes through both docgen engines.
                  primary = GenerateXQuery report, secondary = GenerateNative.
  awbql_queries   45 seeded AWB-QL queries through both backends.
                  primary = XQueryBackend::Eval, secondary = EvalNative.

End-to-end metrics are the medians of those two paths, ops_per_s, setup_s
and peak_rss_mb; tail percentiles are printed as detail lines only. Every
time is steady_clock wall time scaled to a fixed reference clock, with each
measuring thread kept on the least contended vCPU (Pacer, driver/bench.h).

With --trace 1 the run spends half its time untraced and half traced,
reports the per-layer metrics instead, and writes its spans to
<build dir>/traces/<workload>-seed<N>.trace.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_mixed", "docgen_reports", "awbql_queries")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_declared():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}, in order."""
    path = "BENCHMARK.json"
    if not os.path.isfile(path):
        fail("no BENCHMARK.json here; run from the root of an lll checkout")
    with open(path) as f:
        bench = json.load(f)
    return {key: {m["name"]: m["unit"] for m in bench[key]}
            for key in ("end_to_end", "per_layer")}


def check_result(line, trace, declared):
    """The driver's result line with its metrics checked against (and, for
    the per-layer set, completed from) BENCHMARK.json."""
    result = json.loads(line)
    metrics = result["metrics"]
    expected = declared["per_layer" if trace else "end_to_end"]
    undeclared = sorted(set(metrics) - set(expected))
    if undeclared:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(undeclared))
    completed = {}
    for name, unit in expected.items():
        if name not in metrics:
            if not trace:
                fail("end-to-end metric %s missing" % name)
            completed[name] = {"value": 0, "unit": unit}
            continue
        reported = metrics[name].get("unit", unit)
        if reported != unit:
            fail("%s reported in %s, declared in %s" % (name, reported, unit))
        completed[name] = {"value": metrics[name]["value"], "unit": unit}
    result["metrics"] = completed
    return json.dumps(result)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(bench_dir, out_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt here; run from the root of an lll checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the driver failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", out_dir, "--target", "perfbench_driver",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("building the driver failed")
    return os.path.join(out_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    declared = load_declared()
    out_dir = build_dir()
    driver = build(bench_dir, out_dir)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        command = [driver, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--state-dir", os.path.join(out_dir, "state"),
                   "--trace-dir", os.path.join(out_dir, "traces")]
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as process:
            try:
                out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                fail("the driver did not finish within %d s" % RUN_TIMEOUT_S)
        if process.returncode != 0:
            sys.exit(process.returncode)
        lines = out.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(line)
        print(check_result(lines[-1], args.trace, declared), flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload kernels|serve_spmv|serve_fleet \
        --seed N --seconds S --trace 0|1

Builds the perfbench binary from the sources in this checkout (CMake,
into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when set),
runs one workload and prints two lines: the binary's full report
(counts, thread layout, info) and, last, the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list for --trace 0 and its
per_layer list for --trace 1, each as {"value": v, "unit": u}; a layer
the workload bypasses reads 0 in a traced run.
Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(build_dir):
    """Configure once, then (re)build the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) are missing from this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    work = os.path.join(root, "perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"binary exited with code {proc.returncode}", proc.returncode if proc.returncode > 0 else 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("binary printed no report")
    report = json.loads(lines[-1])

    got = report["metrics"]
    names = [m["name"] for m in wanted]
    unknown = sorted(set(got) - set(names))
    if unknown:
        fail(f"binary reported metrics BENCHMARK.json does not list: {unknown}")
    if args.trace:
        # A traced run reports the layers its workload exercises; the
        # layers it bypasses did no work.
        got = {n: got.get(n, 0) for n in names}
    missing = [n for n in names if n not in got]
    if missing:
        fail(f"binary did not report {missing}")
    bad = [n for n in names if not isinstance(got[n], (int, float)) or not math.isfinite(got[n])]
    if bad:
        fail(f"binary reported non-numeric metrics: {bad}")
    correct = report["failed"] == 0 and report["attempted"] >= 1 and report["model_repeatable"]
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark harness (perfbench/CMakeLists.txt, which compiles the
mmsoc libraries of the enclosing checkout in Release mode) and runs one
workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a separate traced run (spans are written to
<build dir>/spans/<workload>.csv).

    python3 perfbench/run.py --smoke

runs every workload at a tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json is reported with its unit and that
every output digest matches its reference.

The build directory is $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench at the checkout root). Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build; returns the harness binary path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "runtime", "engine.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no mmsoc sources in {ROOT} (missing {needed})")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = os.path.join(build_dir, "mmsoc_perfbench")
    if not os.path.exists(binary):
        fail(f"build produced no {binary}")
    return binary, build_dir


def run_one(binary, build_dir, workload, seed, seconds, trace, smoke=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{workload}.csv")]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def smoke(binary, build_dir):
    """Every workload, tiny, both modes: metric names, units and digests."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            proc = run_one(binary, build_dir, workload, 1, 0.3, trace, smoke=True)
            label = f"{workload} trace={int(trace)}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no JSON result (exit {proc.returncode})")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: outputs differ from the reference (exit "
                                f"{proc.returncode})")
            if result["attempted"] < 1:
                problems.append(f"{label}: attempted no units")
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{label}: {len(metrics)} metrics, correct={result['correct']}")
    for p in problems:
        print("FAIL " + p)
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    binary, build_dir = build()
    if args.smoke:
        return smoke(binary, build_dir)
    proc = run_one(binary, build_dir, args.workload, args.seed, args.seconds, args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

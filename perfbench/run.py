#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (a
CMake project over ../src) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs perfbench_runner for the
workload. The runner repeats the workload for S seconds and checks its
outputs. This script prints the runner's report, every metric that
BENCHMARK.json names with its unit, and finally one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
and writes the traced repetition's spans to
<build dir>/traces/<workload>-seed<N>.jsonl.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_runner", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "perfbench_runner"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    runner = build(bdir)
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = bdir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner did not finish within {RUNNER_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner exited with code {proc.returncode}")
    print("\n".join(lines[:-1]))
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("runner printed no result line")

    names = [m["name"] for m in wanted]
    if set(raw["metrics"]) != set(names):
        fail(f"runner metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(raw['metrics']))}, "
             f"extra {sorted(set(raw['metrics']) - set(names))}")
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for m in wanted:
        print(f"  {m['name']:32} {raw['metrics'][m['name']]:>16.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

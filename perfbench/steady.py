#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and records a baseline.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--trace-seed N] [--out FILE]

Run it from the repository root. For each workload it runs
perfbench/run.py once per seed (untraced, BENCHMARK.json's run_seconds),
then prints each end-to-end metric's median, quartiles and spread: the
distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median.
A spread of a third of the metric's bound or more is flagged.
--trace-seed also runs each workload once traced on that seed and keeps
its per-layer metrics. --out writes the host, every run, the summaries
and the per-layer metrics as JSON (perfbench/BASELINE.json is such a
file).
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def host_info():
    model = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "cpus": os.cpu_count(),
            "system": platform.system()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"host": host_info(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            r = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
                         "failed": r["failed"],
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={r['correct']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]] for r in runs])
            s["bound"] = m["bound"]
            summary[m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- not below bound/3"
            print(f"  {workload:15} {m['name']:15} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){flag}", flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace_seed is not None:
            r = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": r["correct"],
                               "per_layer": {k: v["value"] for k, v in r["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()

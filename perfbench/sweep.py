"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 perfbench/sweep.py --workload exact-ties --runs 10 [--trace 1] [--record]

Each run is ``perfbench/run.py`` in a fresh process, with seeds 1 .. runs
and the run length from BENCHMARK.json.  For every metric it prints the
median of the runs, their quartiles, and the spread (the distance between
the quartiles as a share of the median) beside the metric's bound.
``--record`` stores the summary in baseline.json under the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def machine() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    for seed in range(1, args.runs + 1):
        cmd = config["command"] + ["--workload", args.workload, "--seed", str(seed),
                                   "--seconds", str(config["run_seconds"]),
                                   "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
        if proc.returncode not in (0, 1):  # 1: a check failed, result printed
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        expected = {m["name"] for m in config["per_layer" if args.trace else "end_to_end"]}
        if set(result["metrics"]) != expected:
            sys.exit(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
            flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.runs} runs, {failed} of {attempted} operations failed")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": units[name],
                         "runs": len(vals)}
        bound = bounds.get(name)
        limit = f"bound {bound}" if bound is not None and not args.trace else ""
        print(f"  {name:<34} {median:14.4f} {units[name]:<5} q1 {q1:.4f} q3 {q3:.4f}"
              f"  spread {spread:.3f} {limit}")

    if args.record:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline["machine"] = machine()
        baseline["run_seconds"] = config["run_seconds"]
        key = "per_layer" if args.trace else "end_to_end"
        baseline.setdefault(key, {})[args.workload] = summary
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

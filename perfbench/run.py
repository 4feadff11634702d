"""Benchmark of the ``quantizer`` CLI and the ifsquant library.

    python3 perfbench/run.py --workload exact-scale --seed 1 --seconds 36 --trace 0

Runs from the root of a checkout against ``src/``.  A run repeats passes of
the workload while another pass is expected to fit in ``--seconds`` (at
least one pass), and checks the output of every operation.  With
``--trace 0`` it also measures the cold start of the CLI, and the last
stdout line is a JSON object with the end-to-end metrics over the whole
run, operation and pass times in seconds at the reference speed (see
``Speed``).  With
``--trace 1`` untraced and traced passes alternate, the JSON object holds
the per-layer metrics and the tracing overhead, and the spans are written
to ``perfbench/out/``.  NOTES.md describes the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Cold start of a CLI call: a fresh interpreter imports the CLI and builds
# its parser.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from ifsquant import cli; cli.build_parser()")
SETUP_REPEATS = 11

# Seconds that one call of reference_work() takes at the reference speed,
# about its time on a quiet 2-core Xeon VM with Python 3.11.
REFERENCE_S = 0.02
REFERENCE_CALLS = 3  # calls between two operations


def reference_work() -> Fraction:
    """Fixed pure-Python work of the kind the program does: rational
    arithmetic, sorting, hashing and formatting.  It must not change: the
    reported times are relative to it."""
    acc = Fraction(0)
    rows = []
    for i in range(1, 1500):
        f = Fraction(i, 3 * i + 1) * Fraction(2 * i + 1, 7)
        acc += f / i
        rows.append((f, i % 17, str(f)))
    rows.sort()
    index = {text: (f, k) for f, k, text in rows}
    json.dumps(sorted(index))
    return acc


class Speed:
    """The speed of the machine while an operation runs.

    The machine is shared, and its speed drifts by tens of percent from one
    second to the next and over minutes; all code slows together.  Each
    operation runs between two samples of ``reference_work()`` calls, and
    ``at_reference()`` turns its time into its time at the reference speed:
    seconds * REFERENCE_S / mean time of the calls around it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # every reference call of the run

    def sample(self) -> list[float]:
        times = []
        for _ in range(REFERENCE_CALLS):
            start = perf_counter()
            reference_work()
            times.append(perf_counter() - start)
        self.samples += times
        return times

    @staticmethod
    def at_reference(seconds: float, around: list[float]) -> float:
        return seconds * REFERENCE_S / statistics.fmean(around)

    def reference_s(self) -> float:
        """Mean time of a reference call over the run."""
        return statistics.fmean(self.samples)

    def scale(self, seconds: float) -> float:
        """A time at the reference speed of the whole run."""
        return seconds * REFERENCE_S / self.reference_s()


def cold_start_s() -> list[float]:
    """Times of SETUP_REPEATS cold starts, as measured.  No timeout: with
    one, ``subprocess`` polls the child in steps of up to 50 ms, and the
    times would be rounded up to the next poll."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


class Runner:
    """Runs passes of one workload, checking every operation."""

    def __init__(self, ops, speed, tracer=None):
        self.ops = ops
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.pass_bytes = 0  # stdout bytes of the last pass
        self.gap: list[float] = []  # reference calls after the last operation

    def run_op(self, op, traced: bool) -> tuple[float, float]:
        """Latency of one operation: as measured and at the reference speed."""
        gc.collect()
        before = self.gap or self.speed.sample()
        out = ""
        start = perf_counter()
        try:
            if traced:
                code, out = self.tracer.operation(op.name, op.cli, op.run)
            else:
                code, out = op.run()
            elapsed = perf_counter() - start
            problem = op.check(code, out)
        except Exception:  # an operation that raises is a failed operation
            elapsed = perf_counter() - start
            problem = traceback.format_exc()
        self.gap = self.speed.sample()
        scaled = self.speed.at_reference(elapsed, before + self.gap)
        self.attempted += 1
        self.pass_bytes += len(out.encode())
        if problem:
            self.failed += 1
            print(f"FAILED {op.name}: {problem}", file=sys.stderr)
        return elapsed, scaled

    def run_pass(self, traced: bool = False) -> dict[str, tuple[float, float]]:
        """Latency of each operation in one pass (see ``run_op``)."""
        self.pass_bytes = 0
        return {op.name: self.run_op(op, traced) for op in self.ops}


def measured_passes(seconds, run):
    """Call ``run()`` while another call is expected to fit in ``seconds``,
    and at least once."""
    start, last = perf_counter(), 0.0
    while last == 0.0 or perf_counter() - start + last <= seconds:
        call = perf_counter()
        run()
        last = perf_counter() - call


def show(name, unit, reported, raw=()):
    """Print a reported metric, and the quartiles of the raw times behind it."""
    line = f"  {name:<34} {reported:14.4f} {unit:<5}"
    if len(raw) > 1:
        q1, q2, q3 = statistics.quantiles(raw, n=4, method="inclusive")
        line += f"  raw median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(raw)}"
    print(line)


def show_speed(speed) -> None:
    print(f"  operation times at the reference speed; the machine ran at "
          f"{REFERENCE_S / speed.reference_s():.3f} of it "
          f"({len(speed.samples)} reference calls, mean {speed.reference_s():.4f} s)")


def report(runner, metrics) -> int:
    print(f"  failed_frac {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} operations)")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def untraced_run(args, ops) -> int:
    import workloads

    speed = Speed()
    runner = Runner(ops, speed)
    passes = []

    def one_pass():
        passes.append(runner.run_pass())

    setup = cold_start_s()
    measured_passes(args.seconds, one_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # (reported value, times as measured) of each time metric.  Operations
    # and passes report their mean over the run at the reference speed.  The
    # cold start reports the median of its starts as measured: process
    # creation and imports do not slow with the reference work, and one
    # stray slow start would move a mean.
    def over_run(times):
        return statistics.fmean(t for _, t in times), [t for t, _ in times]

    pass_times = [tuple(map(sum, zip(*p.values()))) for p in passes]
    times = {"setup_s": (statistics.median(setup), setup),
             "wall_s": over_run(pass_times)}
    for slot, op in zip(workloads.SLOTS, ops):
        times[slot] = over_run([p[op.name] for p in passes])
    metrics = {name: (value, "s") for name, (value, _) in times.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    print(f"{args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{SETUP_REPEATS} cold starts")
    show_speed(speed)
    names = {slot: f"{slot} = {op.name}_s" for slot, op in zip(workloads.SLOTS, ops)}
    for name, (value, unit) in metrics.items():
        show(names.get(name, name), unit, value, times.get(name, (0, ()))[1])
    return report(runner, metrics)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_eff")):
        return "ratio"
    return "count"


def traced_run(args, ops) -> int:
    import tracing

    speed = Speed()
    tracer = tracing.Tracer()
    runner = Runner(ops, speed, tracer)
    untraced, traced, layers = [], [], []

    def one_pair():
        untraced.append(sum(raw for raw, _ in runner.run_pass().values()))
        first = len(tracer.spans)
        with tracer.installed():
            traced.append(sum(raw for raw, _ in runner.run_pass(traced=True).values()))
        layers.append(tracing.layer_metrics(tracer.spans[first:]))
        layers[-1]["cli.stdout_bytes"] = runner.pass_bytes

    measured_passes(args.seconds, one_pair)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
    tracer.write(spans_path)

    raw = {name: [layer[name] for layer in layers] for name in layers[0]}
    raw["measure.validate_constants_s"] = [tracing.validate_constants_s()]
    raw["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
    metrics = {}
    for name, values in raw.items():
        value = statistics.median(values)
        unit = unit_of(name)
        metrics[name] = (speed.scale(value) if unit == "s" else value, unit)
    # The reference time itself is reported as measured: the machine's speed.
    metrics["bench.reference_s"] = (speed.reference_s(), "s")

    print(f"{args.workload}, seed {args.seed}: {len(traced)} traced and "
          f"{len(untraced)} untraced passes; spans in "
          f"{spans_path.relative_to(HERE.parent)}")
    show_speed(speed)
    show("untraced wall_s", "s", speed.scale(statistics.median(untraced)), untraced)
    show("traced wall_s", "s", speed.scale(statistics.median(traced)), traced)
    for name, (value, unit) in metrics.items():
        show(name, unit, value, raw.get(name, ()))
    return report(runner, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ifsquant" / "cli.py").is_file():
        print(f"error: no ifsquant sources under {SRC}", file=sys.stderr)
        return 2
    # At most two threads: the oracle operations pin --threads, and numpy's
    # own thread pools stay single-threaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # The exact workloads have fixed inputs; the seed feeds the oracles' --seed.
    ops = workloads.WORKLOADS[args.workload](args.seed % 2**32)
    return (traced_run if args.trace else untraced_run)(args, ops)


if __name__ == "__main__":
    sys.exit(main())

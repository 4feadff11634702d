"""The benchmark's workloads: the operations of one pass and their checks.

Every operation is a closed-loop call made by a single client: a
``cli.main(argv)`` call with stdout captured, or one library call.  A check
returns ``None`` when the output is correct and a reason otherwise.  Exact
operations must reproduce, byte for byte, the stdout digests recorded in
``expected.json``; oracle operations are checked against tolerances, since
their output depends on the sampling seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ifsquant import cli, engine

EXPECTED_PATH = Path(__file__).parent / "expected.json"
EXPECTED = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}

# Operation latencies are reported in the slots op1_s .. op4_s, so every
# workload prints the same end-to-end metric names.
SLOTS = ("op1_s", "op2_s", "op3_s", "op4_s")

SCALE_N = 20_000
ENUMERATE_N = 67
MEAN = Fraction(4, 7)  # mean of the measure


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns (exit code, stdout text)."""

    name: str
    cli: bool
    run: Callable[[], tuple[int, str]]
    check: Callable[[int, str], str | None]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_op(name, argv, check) -> Op:
    return Op(name, True, lambda: run_cli(argv), check)


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def digest_check(name, extra=None):
    """Exit code 0 and the stdout digest recorded for ``name``."""

    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        if digest(out) != EXPECTED.get(name):
            return "stdout digest differs from expected.json"
        return extra(out) if extra else None

    return check


def _audit() -> tuple[int, str]:
    report = engine.validate_structure(engine.optimal_set(SCALE_N))
    return (0 if report.ok else 1), "\n".join(report.failures)


def _audit_check(code, out):
    return None if code == 0 else f"structure audit failed: {out}"


def exact_scale(seed: int) -> list[Op]:
    return [
        cli_op("optimal", ["optimal", "--n", str(SCALE_N), "--format", "json"],
               digest_check("optimal")),
        cli_op("count", ["count", "--n", str(SCALE_N)], digest_check("count")),
        cli_op("table", ["table", "--from", "1", "--to", str(SCALE_N), "--format", "csv"],
               digest_check("table")),
        Op("audit", False, _audit, _audit_check),
    ]


def exact_ties(seed: int) -> list[Op]:
    count = engine.count_optimal_sets(ENUMERATE_N)

    def json_count(out):
        got = len(json.loads(out))
        return None if got == count else f"{got} sets, count says {count}"

    def text_count(out):
        line = out.splitlines()[1]
        return None if line == f"count = {count}" else f"{line!r}, count says {count}"

    def passed(out):
        return None if out.endswith("verification PASSED\n") else "verify did not pass"

    n = str(ENUMERATE_N)
    return [
        cli_op("enumerate", ["enumerate", "--n", n, "--format", "json"],
               digest_check("enumerate", json_count)),
        cli_op("tree", ["tree", "--from", "60", "--to", n, "--format", "json"],
               digest_check("tree")),
        cli_op("verify", ["verify", "--n", "40"], digest_check("verify", passed)),
        cli_op("enumerate_text", ["enumerate", "--n", n],
               digest_check("enumerate_text", text_count)),
    ]


def _summary(out: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in out.splitlines())


def oracle_cluster(seed: int) -> list[Op]:
    common = ["--seed", str(seed)]
    summaries: dict[int, str] = {}

    def sample_check(threads):
        def check(code, out):
            if code != 0:
                return f"exit code {code}"
            summaries[threads] = out
            if threads > 1 and out != summaries.get(1):
                return f"--threads {threads} summary differs from --threads 1"
            stats = _summary(out)
            stderr = math.sqrt(float(stats["variance"]) / int(stats["count"]))
            gap = abs(float(stats["mean"]) - float(MEAN))
            return None if gap <= 4 * stderr else f"mean off by {gap / stderr:.1f} stderr"

        return check

    def lloyd_check(code, out):
        if code != 0:
            return f"exit code {code}"
        result = json.loads(out)
        if not result["dp_max_deviation"] < 3e-3:
            return f"dp_max_deviation {result['dp_max_deviation']}"
        if not result["dp_distortion"] <= result["lloyd_distortion"] + 1e-12:
            return "exact DP distortion above Lloyd's"
        return None

    def oracle_pass(code, out):
        if code != 0 or not out.endswith("result: PASS\n"):
            return f"exit code {code}, {out.splitlines()[-1:]}"
        return None

    sample = ["oracle-sample", "--samples", "1000000"] + common
    return [
        cli_op("sample_t1", sample + ["--threads", "1"], sample_check(1)),
        cli_op("sample_t2", sample + ["--threads", "2"], sample_check(2)),
        cli_op("lloyd", ["oracle-lloyd", "--n", "8", "--samples", "200000",
                         "--threads", "2", "--format", "json"] + common, lloyd_check),
        cli_op("check", ["oracle-check", "--n", "12", "--threads", "2"] + common,
               oracle_pass),
    ]


WORKLOADS = {
    "exact-scale": exact_scale,
    "exact-ties": exact_ties,
    "oracle-cluster": oracle_cluster,
}

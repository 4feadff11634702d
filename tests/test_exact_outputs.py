"""The exact benchmark operations reproduce their recorded outputs.

Every exact operation of ``perfbench/workloads.py`` is run once and its own
check applied: CLI operations must print, byte for byte, the stdout whose
SHA-256 digest ``perfbench/expected.json`` records.  The benchmark's tracer
must still find every function it wraps.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ifsquant import engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
EXACT_OPS = [
    (name, op)
    for name in ("exact-scale", "exact-ties")
    for op in workloads.WORKLOADS[name](1)
]


def test_every_digest_is_checked():
    checked = {op.name for _, op in EXACT_OPS if op.cli}
    assert checked == set(workloads.EXPECTED)


@pytest.mark.parametrize("op", [op for _, op in EXACT_OPS],
                         ids=[f"{name}-{op.name}" for name, op in EXACT_OPS])
def test_exact_operation_output(op):
    code, out = op.run()
    assert op.check(code, out) is None


def test_tracer_installs_and_restores():
    # Loading resolves every wrapped owner (engine.GenerationState, ...) and
    # installing every wrapped name, so an engine change that drops one
    # fails here rather than in a traced benchmark run.
    tracing = _load("tracing")
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        engine.optimal_set(3)
        engine.optimal_set(1000)
        walked = [span.name for span in tracer.spans]
        engine.enumerate_optimal_sets(16)
    assert "engine.optimal_set" in walked
    # The walk splits through its own binding, so ``engine.children`` spans
    # count only the splits of a block's tied slots: three at n = 16.
    assert "engine.children" not in walked
    assert [span.name for span in tracer.spans].count("engine.children") == 3
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS] == originals

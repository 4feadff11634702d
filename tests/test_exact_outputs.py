"""The exact benchmark operations reproduce their recorded outputs.

Every exact operation of ``perfbench/workloads.py`` is run once and its own
check applied: CLI operations must print, byte for byte, the stdout whose
SHA-256 digest ``perfbench/expected.json`` records.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
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

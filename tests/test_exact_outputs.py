"""The exact benchmark operations reproduce their recorded outputs.

Every exact operation of ``perfbench/workloads.py`` is run once and its own
check applied: CLI operations must print, byte for byte, the stdout whose
SHA-256 digest ``perfbench/expected.json`` records.  The benchmark's tracer
must still find every function it wraps.  Every form of ``tree``, and the
``enumerate``, ``verify`` and ``table`` calls below, print, byte for byte,
the stdout whose SHA-256 digest is recorded here, and so do
``str(quantization_error(n))`` at a few deep n.
"""

import hashlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from ifsquant import engine
from ifsquant.cli import main

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


@pytest.mark.parametrize("argv, digest", [
    ("--from 1 --to 30",
     "0082d34c0083b8da00269920175b53b9c5b9d20183a55f370f57145e01a6b4fd"),
    ("--from 1 --to 30 --format dot",
     "a505f317f2278f41b8dbcb8dc5b768befab4e86031afc663407ec2525612bd8a"),
    ("--from 1 --to 30 --format json",
     "a6d644058eefd089e225f8f79b9767e32a028f21a19632ae056565c3d92d2599"),
    ("--from 15 --to 21",
     "4af173a41d0a37e450ebec31ab43b2f8fef05e5aa8f9579c4c2c50f077d19ec1"),
    ("--from 15 --to 21 --format dot",
     "bf8529709c1f2d295e9f80b9f38e373492fb6be1988c679f2f019be38d0cbca6"),
    ("--from 15 --to 21 --format json",
     "05c3f48823fadf7542918a7b0da97429489617197bc3c9b709e3ce696a17ef11"),
    ("--from 60 --to 67",
     "8261238567bd913e8768dd68e890abab6b44adfc4022e1d5a43bf2b85aca53c9"),
    ("--from 60 --to 67 --format dot",
     "bc05ec39b627db6247b1bd66595d763740bf5af8af6c12eb326da338a455ab34"),
    ("--from 60 --to 67 --format json",
     "2981ce5e54f6e6bb320d93d33f31c4f3264d53e6d27d2dc201d7bcaf614fea31"),
])
def test_tree_output_digest(capsys, argv, digest):
    assert main(["tree", *argv.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_output_digest(capsys):
    # Past n = 40 the structure line's bound differs from the count line's.
    assert main(["verify", "--n", "60"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "217698f87d3a6afd339ae28e5dbc188c5004226812e4d9d2dd6ade7c6132b231")


# Layer 71 holds the most sets below n = 90: 3432 sets of 71 nodes each.
@pytest.mark.parametrize("argv, digest", [
    ("--n 71",
     "001591aeccbca6dd6211c619be4433d0b98de77254422d51ff64e7eb48955723"),
    ("--n 71 --format json",
     "52b9c49e7768aa99bf3966f48a67d66518eb32efb9f989e866877206ef6dffcf"),
    ("--n 16 --format csv",
     "a3c7975f3a4c4cfd685d39d4e7767d5cac72916c0826c58d05b6e43681f35d52"),
])
def test_enumerate_output_digest(capsys, argv, digest):
    assert main(["enumerate", *argv.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# table writes V_n from _layers' reduced pairs: the digests were recorded
# when each row's V_n was a Fraction, printed by str() and float().
N100 = 10**100


@pytest.mark.parametrize("n_lo, n_hi, form, digest", [
    (1, 200000, "csv",
     "2dead227acd27e414b768f83a407b5bfca18526048f76b08e934356b24ced814"),
    (N100, N100 + 5000, "csv",
     "79e43fcb9177adaaaf3bfedcfcb757c1e193376595a9d26e7845006053ac7dd6"),
    (1, 3000, "text",
     "c4ba7e7305acf9f0abac98992943b0bf801c06c987d92518d41d7abf90049d7a"),
    (1, 3000, "json",
     "0cab380bb0216d1d85be2ff65ffda66ca3e990eb15ac156293250cd52914817f"),
    (N100, N100 + 300, "text",
     "8a70ee7ae501987668041a7bc8e66a32fdea4c6ed3c864770962e06b95838011"),
    (N100, N100 + 300, "json",
     "04a801455ed07775e4edc7419e6a61c2a52b977a8689d19d502d452955642a08"),
], ids=["csv-1", "csv-10^100", "text-1", "json-1", "text-10^100", "json-10^100"])
def test_table_output_digest(capsys, n_lo, n_hi, form, digest):
    assert main(["table", "--from", str(n_lo), "--to", str(n_hi), "--format", form]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Deep V_n, from the block stream's rows far past n = 10^12.
DEEP_DIGESTS = {
    10**30: "44d873553946f04aa77898b676248d52cf4a3e0bb41dda2a56a64fcb3d958eb4",
    10**60: "4410499ea1641869b757ab649e90fd9ce95c49e7062151d08673d7e8ac56125a",
    10**100: "8fcd1dc10ddff00fc98b0ed4d2b39c821a67b622b127742faa7fb9c553be7071",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("exponent", [30, 60, 100])
def test_deep_quantization_error_digest(exponent):
    n = 10**exponent
    assert _digest(str(engine.quantization_error(n))) == DEEP_DIGESTS[n]


def test_two_threads_grow_one_stream(monkeypatch):
    # From a fresh stream, both threads need rows that neither has taken:
    # they share one generator, so it must be advanced under the lock.
    monkeypatch.setattr(engine, "_STREAM", engine._rows())
    monkeypatch.setattr(engine, "_ROWS", [])
    got = {}

    def ask(n):
        got[n] = _digest(str(engine.quantization_error(n)))

    threads = [threading.Thread(target=ask, args=(n,)) for n in (10**60, 10**100)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == {n: DEEP_DIGESTS[n] for n in (10**60, 10**100)}

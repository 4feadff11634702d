"""The exact benchmark operations reproduce their recorded outputs.

Every exact operation of ``perfbench/workloads.py`` is run once and its own
check applied: CLI operations must print, byte for byte, the stdout whose
SHA-256 digest ``perfbench/expected.json`` records.  The benchmark's tracer
must still find every function it wraps.  Every form of ``tree`` and of
``optimal``, and the ``enumerate``, ``verify`` and ``table`` calls below,
print, byte for byte, the stdout whose SHA-256 digest is recorded here, and
so do ``str(quantization_error(n))`` at a few deep n.
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


# optimal's json, csv and text digests, recorded when the walk built a Node
# and its word tuple for every region and each form rendered the word.  The
# sizes cover n = 1, a tail block's first set (71) and a cylinder block's
# last (62), block ends and starts (23, 24), and the deep sets up to 10^5.
OPTIMAL_DIGESTS = {
    1: (
        "b80e8eb15137ac26732e92b471f2156296fb699320ca8d3f45a09fd8e603527f",
        "7897ccb9b1785703f6df367bf2c1a15a8872e49f03714973f268d5881481faca",
        "ec9dd0086716f005cc78bd8f4a2318f9f852e8569f86388ac86bcc9a3a2228ae",
    ),
    2: (
        "da7c6a25ec7d898933a056925d9ae2b35675a25914be26eec5e0a502c6d086c9",
        "558f7174710ac0e1d218f74f152a72ed29a4ef19959ad5b1db9148759d0fdd10",
        "80f69d296506da497bbea001504c14ab178ed11e86428524aec92b99e1e7dcf5",
    ),
    7: (
        "1e59c114a37ab7806a47fcf2fb11cf2671da415be4969700cb04c9b76b25a35a",
        "42e36a1181d002fd3f9a41baea97445d4cc5a4a8b0c069baf12898aa047c8ff9",
        "02f096a890750b2e8e624c043e3d596edd087cc9dca27c5830d5b6cf254397b8",
    ),
    16: (
        "0e87ad80316b2e89034d02e7914126e0da5b696097710cc186b52afef1014f01",
        "e85d83ff64bd5be12d72b619e23c3bf08ec39d56a2fcf7f43cfaf2edb5abc847",
        "e3300e9e808fa0c2d0f71ba96ab7bc6d275bf91fdb4ef9b5ab8ded73fea58134",
    ),
    23: (
        "b8802b53c588289a0dfeb7530ff654a9a77b78d72bff0397f0b6054bb8c4058f",
        "f8351296a574308e54eccbed8cd60f9a8313085035f4e062ac4d154796a4ca3c",
        "d8f4b10e94843f89684becb087c903bfdc20397bb9d989e890bebe087fbc231e",
    ),
    24: (
        "1d02046f058fe761418c34dad62cfb9048bafe3306a01d3f8e24d2b4b78da762",
        "ddbf9e35a96cdd0080be04d488e27c21981c340b975e05380b46a8c66ef891f8",
        "3228e9180ccfe818fc999bf48e6bf4ab9bd671df8ecbc31f16ad88bd27b17903",
    ),
    62: (
        "a617262faaf501c9978ab8436520b004d7efd0812ae4f1851c3b56cad583662b",
        "fa3407467a25f3489ddc0fb56e5055aa1c18955ff209fbeb205e6f4774e3239f",
        "56b83687943b5d3a49b7e80783bc8168ec4ccbd8da3e49182e286f3acd2791d0",
    ),
    67: (
        "b68eef43ce7ffbda6473a06ab2bb116fa34e9e1e0f3be7a815735b526a3939ef",
        "20804100d99599979fd35e994dfb10d91f71b38e365be4ceed9c4e14a8b38fe0",
        "81385621588bdc82f8c681d1f31732f35fda2dd07f67fe0289fb3deb4b9983dd",
    ),
    71: (
        "a51a6c1e8bcff9502fa90ce21201a35d4741f14380547df7c7444a9136053dd0",
        "d7f794c58a8421519db68abbb4b95355fcddb39325040f370c895360e0970bc9",
        "1ee6ad3d91c34b5b687ab9c390b19f56eb5d872f2d1062152c6b90c92b3d43ca",
    ),
    2000: (
        "ec03818252c75d5f6969f3320082d17235216cce94ba749d428caa90287d9a4f",
        "70ac33842625031c0b628c91cd580b71bb0be9dc720759160c1265ed79e32659",
        "f54dc9ac7f53b4838d288f44859df4adeb8e629acb383f33b520a2a4b3fcb129",
    ),
    20000: (
        "591f76990af3f2ee8690f3ff3387ed5ecaae1e16bb732d8fcd1726c50bb44dd8",
        "1f7059eda53ff1357c3d5a55f02f2da89fa7c1057358e52f5f2a7e4b62e37258",
        "6c7e8e27e95fddf9d87c11c237e8f94861a4b50716a6ac62a0bb5c65989e7034",
    ),
    100000: (
        "2881be6698138efd979e724daa1a0e03d1b87bc37a39a93b92e98ad2017daab8",
        "cae4784efc1da584b90c50d7ca92682e0d333ea364cb7e61ff88c497b1cecb3e",
        "eaa3c1af6506394bd9d3d35cbe5cf6ccfb938cf679ee9b57aedfd703476b1863",
    ),
}


@pytest.mark.parametrize("n", sorted(OPTIMAL_DIGESTS))
def test_optimal_output_digest(capsys, n):
    for form, digest in zip(("json", "csv", "text"), OPTIMAL_DIGESTS[n]):
        assert main(["optimal", "--n", str(n), "--format", form]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, form


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


# Past the normal doubles: V_n's float is subnormal at 10^108 (8.473165e-317
# in the JSON and CSV forms, which keep fewer figures than the text form) and
# 0 at 10^111 (0.0 in them, 0 in the text form).
@pytest.mark.parametrize("exponent, form, hint, digest", [
    (108, "csv", ",8.473165e-317\n",
     "898be7389f57d374e97103e1e5973f852d263514c6c8f8ffd436c47ef0470c4b"),
    (108, "json", '"V_float": 8.473165e-317}',
     "92ab6435089de08077c8cc1af50986f6ae5bf639e4a96ef7893d1550fc7fc6af"),
    (108, "text", " 8.473165056e-317\n",
     "d6076022f9b12445a5ccf99168b62907c2c7ef00012dc579a0d9c583876308ed"),
    (111, "csv", ",0.0\n",
     "126456b9e4b1da9d30960d8e19370e7ad7bbe92b7780d25c2d54346957e83551"),
    (111, "json", '"V_float": 0.0}',
     "6770286fb191af421377f76648e36c620ee7b209f83d86af6571242668a56de0"),
    (111, "text", " 0\n",
     "a72281e74b2c3325cd4a2cc69dbb0c65ca18e1a00298ed109b4d8b3d7ebb1d3c"),
], ids=[f"10^{e}-{form}" for e in (108, 111) for form in ("csv", "json", "text")])
def test_table_hint_of_subnormal_and_zero_v(capsys, exponent, form, hint, digest):
    n = 10**exponent
    assert main(["table", "--from", str(n), "--to", str(n + 2), "--format", form]) == 0
    out = capsys.readouterr().out
    assert out.count(hint) == 3
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

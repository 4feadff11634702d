import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import kmeans_reference
from ifsquant import engine, exact_oracle, golden, measure, oracle
from ifsquant.engine import enumerate_optimal_sets, optimal_set, quantization_error
from ifsquant.exact_oracle import exhaustive_min
from ifsquant.measure import Region, closed, node_error, region_interval, tail
from ifsquant.oracle import (
    empirical_mass,
    kmeans_1d_exact,
    lloyd,
    mc_distortion,
    mc_distortion_stats,
    read_batch_values,
    sample,
    write_batch,
)

BATCH = sample(300_000)


def test_sample_is_read_only():
    assert isinstance(BATCH, np.ndarray) and BATCH.dtype == np.float64
    assert not BATCH.flags.writeable
    with pytest.raises(ValueError):
        BATCH[0] = 0.0


def test_sample_determinism():
    again = sample(300_000)
    assert np.array_equal(BATCH, again)
    threaded = sample(300_000, threads=4)
    assert np.array_equal(BATCH, threaded)
    other_seed = sample(10_000, seed=1)
    assert not np.array_equal(other_seed, sample(10_000, seed=2))


def _reference_chunk(seed, index, size, depth):
    # Reference sampler: the chunk's whole (depth, size) block of uniforms
    # at once, letters by floor, powers of two by np.ldexp.
    uniforms = np.random.default_rng([seed, index]).random((depth, size))
    x = np.full(size, 4.0 / 7.0)
    for level in range(depth - 1, -1, -1):
        letters = np.floor(np.log2(3.0 / (1.0 - uniforms[level]))).astype(np.int64)
        letters = np.maximum(letters, 1)
        scale = np.ldexp(1.0, -(letters + 1))
        x = scale * x + 1.0 - np.ldexp(1.0, -(letters - 1))
    return x


@pytest.mark.parametrize("depth", [1, 7, 40])
@pytest.mark.parametrize("seed", [0, 1, 20240317])
def test_sample_matches_reference_kernel(seed, depth):
    for count in (1, 3392, 65536, 65537, 200_000):
        sizes = [
            min(oracle.CHUNK_SIZE, count - start)
            for start in range(0, count, oracle.CHUNK_SIZE)
        ]
        expected = b"".join(
            _reference_chunk(seed, index, size, depth).tobytes()
            for index, size in enumerate(sizes)
        )
        for threads in (1, 2):
            got = sample(count, depth, seed, threads).tobytes()
            assert got == expected, (count, threads)


def test_letter_tables_cover_every_letter():
    assert oracle._LETTER_SCALE.size > 54
    assert oracle._LETTER_DROP.size > 54
    j = np.arange(1, 55)
    assert np.array_equal(oracle._LETTER_SCALE[j], np.ldexp(1.0, -(j + 1)))
    assert np.array_equal(oracle._LETTER_DROP[j], np.ldexp(1.0, -(j - 1)))
    # The letter expression of _chunk_values at both ends of [0, 1).
    u = np.array([0.0, np.nextafter(1.0, 0.0)])
    assert np.log2(3.0 / (1.0 - u)).astype(np.intp).tolist() == [1, 54]


def test_sample_values_in_unit_interval():
    assert BATCH.min() >= 0.0
    assert BATCH.max() <= 1.0
    assert BATCH.size == 300_000


def test_sample_rejects_bad_args():
    with pytest.raises(ValueError):
        sample(0)
    with pytest.raises(ValueError):
        sample(10, depth=0)
    with pytest.raises(ValueError):
        sample(10, seed=-1)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        sample(10, threads=0)


def test_sample_moments():
    assert abs(BATCH.mean() - 4 / 7) < 2e-3
    assert abs(BATCH.var() - 288 / 3577) < 2e-3


def test_sample_region_masses():
    assert abs(empirical_mass(BATCH, 0.5, 0.625) - 3 / 8) < 4e-3
    assert abs(empirical_mass(BATCH, 0.0, 0.25) - 1 / 4) < 4e-3
    # the support leaves the open gaps between cylinders empty
    assert empirical_mass(BATCH, 0.2500001, 0.4999999) == 0.0
    assert empirical_mass(BATCH, 0.6250001, 0.7499999) == 0.0


def test_sample_tail_support():
    # tail region of (1,) spans [1/2, 1] and carries 3/4 of the mass
    lo, hi = region_interval(tail(1))
    assert (float(lo), float(hi)) == (0.5, 1.0)
    assert abs(empirical_mass(BATCH, 0.5, 1.0) - 0.75) < 4e-3


def test_lloyd_two_means():
    result = lloyd(BATCH, [0.2, 0.8])
    assert abs(result.centers[0] - 1 / 7) < 2e-3
    assert abs(result.centers[1] - 5 / 7) < 2e-3


def test_lloyd_three_means():
    result = lloyd(BATCH, [0.1, 0.5, 0.9])
    exact = [1 / 7, 4 / 7, 6 / 7]
    assert max(abs(c - e) for c, e in zip(result.centers, exact)) < 2e-3


def test_lloyd_one_mean():
    result = lloyd(BATCH, [0.3])
    assert abs(result.centers[0] - 4 / 7) < 1e-3


def test_lloyd_validates_init():
    with pytest.raises(ValueError):
        lloyd(BATCH, [0.8, 0.2])
    with pytest.raises(ValueError, match="^need at least one center$"):
        lloyd(BATCH[:100], [])


def test_lloyd_rejects_k_above_sample_count():
    with pytest.raises(ValueError, match="k=5 exceeds sample count 3"):
        lloyd(sample(3, threads=1), [0.1, 0.2, 0.3, 0.4, 0.5])


def test_lloyd_reseeds_empty_cluster():
    xs = np.array([0.6, 0.62, 0.7, 0.9])
    result = lloyd(xs, [0.1, 0.65])
    # the left cluster starts empty; reseeding must still yield two centers
    assert result.centers.size == 2
    assert result.centers[0] < result.centers[1]
    assert result.distortion < np.var(xs)


def test_lloyd_rejects_k_above_distinct_values():
    # Three distinct values cannot fill four clusters; reseeding onto samples
    # already on a center would only run out the sweep limit.
    xs = np.array([0.1, 0.1, 0.5, 0.5, 0.9, 0.9])
    with pytest.raises(ValueError, match="k=4 exceeds the 3 distinct sample values"):
        lloyd(xs, [0.1, 0.3, 0.5, 0.9])


def _brute_min_cost(xs, k):
    xs = np.sort(xs)
    n = len(xs)
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(xs * xs)))

    def cost(i, j):
        count = j - i + 1
        sx = prefix[j + 1] - prefix[i]
        return prefix_sq[j + 1] - prefix_sq[i] - sx * sx / count

    dp = [cost(0, j) for j in range(n)]
    for _ in range(k - 1):
        dp = [
            min(dp[i - 1] + cost(i, j) for i in range(1, j + 1))
            if j >= 1
            else math.inf
            for j in range(n)
        ]
    return dp[n - 1]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 12])
def test_kmeans_matches_quadratic_dp(k):
    rng = np.random.default_rng(42 + k)
    inputs = [
        rng.random(180),
        # two decimals: many equal positions and many tied costs
        np.round(rng.random(180), 2),
        # k = n - 1 and k = n: intervals down to a single candidate start
        rng.random(k + 1),
        rng.random(k),
    ]
    for xs in inputs:
        result = kmeans_1d_exact(xs, k)
        assert result.centers.size == k
        assert np.all(np.diff(result.centers) > 0)
        expected = _brute_min_cost(xs, k) / xs.size
        got = mc_distortion(xs, result.centers)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert np.unique(xs).size >= k
        reference = kmeans_reference.kmeans_1d_exact(xs, k)
        assert result.centers.tobytes() == reference.centers.tobytes()


@pytest.mark.parametrize("decimals", [None, 1, 2])
def test_kmeans_matches_reference_dp(decimals):
    # Every cost is the same double as the reference's, so the centers are
    # bit-identical wherever there are at least k distinct values.  With
    # fewer, the least cost is 0 and many splits reach it within about
    # 1e-33, so only the cost is pinned.
    rng = np.random.default_rng(2011 + (decimals or 0))
    for _ in range(120):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, min(n, 16) + 1))
        xs = rng.random(n)
        if decimals is not None:
            xs = np.round(xs, decimals)
        result = kmeans_1d_exact(xs, k)
        if np.unique(xs).size >= k:
            reference = kmeans_reference.kmeans_1d_exact(xs, k)
            assert result.centers.tobytes() == reference.centers.tobytes()
        else:
            expected = _brute_min_cost(xs, k) / n
            got = mc_distortion(xs, result.centers)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_kmeans_matches_reference_dp_on_a_large_sample():
    batch = sample(200_000, seed=3, threads=2)
    result = kmeans_1d_exact(batch, 8)
    reference = kmeans_reference.kmeans_1d_exact(batch, 8)
    assert result.centers.tobytes() == reference.centers.tobytes()
    assert result.distortion == reference.distortion


def test_kmeans_one_mean_is_sample_mean():
    result = kmeans_1d_exact(BATCH, 1)
    assert result.centers[0] == pytest.approx(float(BATCH.mean()), abs=1e-15)


def test_kmeans_five_means_near_exact():
    result = kmeans_1d_exact(BATCH, 5)
    exact = [1 / 28, 5 / 28, 4 / 7, 11 / 14, 13 / 14]
    assert max(abs(c - e) for c, e in zip(result.centers, exact)) < 3e-3


@pytest.mark.parametrize("init", [(0.2, 0.8), (0.1, 0.3), (0.5, 0.9), (0.05, 0.97)])
def test_kmeans_never_worse_than_lloyd(init):
    dp = kmeans_1d_exact(BATCH, 2)
    local = lloyd(BATCH, list(init))
    assert dp.distortion <= local.distortion + 1e-12


def test_kmeans_rejects_bad_k():
    with pytest.raises(ValueError):
        kmeans_1d_exact(BATCH, 0)
    small = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        kmeans_1d_exact(small, 3)


def test_mc_distortion_two_means():
    estimate, stderr = mc_distortion_stats(BATCH, [1 / 7, 5 / 7])
    assert abs(estimate - 69 / 3577) < max(4 * stderr, 1e-3)


def test_mc_distortion_stats_needs_two_samples():
    # One sample has no standard error: refuse it instead of returning nan.
    single = np.array([0.3])
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        mc_distortion_stats(single, [0.5])


def test_mc_distortion_single_center():
    assert abs(mc_distortion(BATCH, [4 / 7]) - 288 / 3577) < 2e-3


def test_mc_distortion_needs_a_center():
    with pytest.raises(ValueError, match="need at least one center"):
        mc_distortion(sample(10, threads=1), [])


def test_mc_distortion_center_order_is_irrelevant():
    a = mc_distortion(BATCH, [0.7, 0.1, 0.4])
    b = mc_distortion(BATCH, [0.1, 0.4, 0.7])
    assert a == b


def test_mc_distortion_tracks_exact_error_for_small_n():
    for n in range(1, 9):
        centers = [float(c) for c in optimal_set(n).points()]
        estimate, stderr = mc_distortion_stats(BATCH, centers)
        assert abs(estimate - float(quantization_error(n))) < 4 * stderr


def test_exhaustive_min_one_mean():
    # The 1-frontier is the root alone, whose error is the variance.
    assert exhaustive_min(1) == (measure.VARIANCE, (Region(measure.CLOSED, ()),))


def test_exhaustive_min_two_means():
    best, frontier = exhaustive_min(2)
    assert best == F(69, 3577)
    assert frontier == (closed(1), tail(1))


def test_exhaustive_min_six_means():
    best, _ = exhaustive_min(6)
    assert best == golden.GOLDEN_V[6]


def test_exhaustive_matches_greedy_and_enumeration():
    # n = 60..77 is the first block with many tied optimal sets.
    for n in range(1, 301):
        best, frontier = exhaustive_min(n)
        assert best == quantization_error(n), n
        if n <= 77:
            identities = frozenset((r.kind, r.word) for r in frontier)
            members = {frozenset(q.signature()) for q in enumerate_optimal_sets(n)}
            assert identities in members, n


def test_exhaustive_table_fills_once():
    # best(kind, k) and cut do not depend on n: the rows filled for the
    # largest n serve every smaller one, and nothing is refilled.
    best, frontier = exhaustive_min(150)
    rows = [list(exact_oracle._best[kind]) for kind in ("closed", "tail")]
    assert len(rows[0]) >= 151
    for n in (149, 77, 3, 2):
        assert exhaustive_min(n)[0] == quantization_error(n), n
    assert exhaustive_min(150) == (best, frontier)
    assert [exact_oracle._best[kind] for kind in ("closed", "tail")] == rows


def _all_frontier_values(n):
    # Unpruned enumeration of every split frontier of size n (deduplicated
    # by frontier identity): the oracle's oracle.
    seen = {}

    def expand(frontier: frozenset, splits_left: int):
        if splits_left == 0:
            if frontier not in seen:
                seen[frontier] = sum((node_error(r) for r in frontier), F(0))
            return
        for region in frontier:
            word = (
                region.word + (1,)
                if region.kind == "closed"
                else region.word[:-1] + (region.word[-1] + 1,)
            )
            child = (frontier - {region}) | {
                Region("closed", word),
                Region("tail", word),
            }
            expand(child, splits_left - 1)

    expand(frozenset([closed()]), n - 1)
    return seen


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exhaustive_against_unpruned_enumeration(n):
    best, _ = exhaustive_min(n)
    assert best == min(_all_frontier_values(n).values())


def test_exhaustive_rejects_out_of_range():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            exhaustive_min(n)


def test_child_error_ratios_from_the_measure_formulas():
    # The exhaustive search takes each child's error as a fixed multiple of
    # its parent's, one pair per region kind; check that on random regions.
    rng = random.Random(7)
    expected = {"closed": (F(1, 64), F(43, 192)), "tail": (F(9, 344), F(1, 8))}
    assert exact_oracle._CHILD_RATIOS == expected
    for _ in range(300):
        kind = rng.choice(["closed", "tail"])
        length = rng.randint(1 if kind == "tail" else 0, 8)
        region = Region(kind, tuple(rng.randint(1, 9) for _ in range(length)))
        parent_error = node_error(region)
        ratios = tuple(node_error(child) / parent_error
                       for child in exact_oracle._split_region(region))
        assert ratios == expected[kind], region


def _ifsquant_imports(path):
    """Names of the ifsquant modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ifsquant":
                    names.update(parts[1:])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level or parts[0] == "ifsquant":
                names.update(parts)
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", [oracle, exact_oracle, measure])
def test_oracles_stay_independent_of_the_engine(module):
    # The oracles and the exact measure re-derive everything they check;
    # importing the engine or the CLI would let them share its mistakes.
    assert not _ifsquant_imports(Path(module.__file__)) & {"engine", "cli"}


def test_numpy_is_imported_only_by_the_oracles():
    # The exact core needs only integers and Fraction.
    package = Path(oracle.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "oracle.py":
            continue
        roots = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots.add(node.module.split(".")[0])
        assert "numpy" not in roots, path.name


def _calls_of(name):
    """(module, innermost def) of each call in the package of a callable
    whose name, or last attribute, is ``name``."""
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name:
            found.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_one_comb_call_in_the_package():
    # The size rule builds a binomial only near its limit; nothing else does.
    assert _calls_of("comb") == [("engine", "_binomial_at_most")]


def test_only_the_oracle_reports_call_json_dumps():
    # Every exact JSON form is written from templates by engine.json_list.
    assert _calls_of("dumps") == [("cli", "_report")]


def test_exact_core_loads_without_numpy():
    src = Path(oracle.__file__).resolve().parent.parent
    code = ("import sys, ifsquant.engine, ifsquant.measure, ifsquant.words, "
            "ifsquant.golden, ifsquant.exact_oracle, ifsquant.cli; "
            "ifsquant.cli.build_parser(); print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_cold_start_loads_no_record_machinery():
    # -S keeps site's .pth files out: they may import typing themselves.
    src = Path(oracle.__file__).resolve().parent.parent
    code = ("import sys, ifsquant.cli; ifsquant.cli.main(['count', '--n', '20']); "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "3\n[]\n"), result.stderr


def test_exact_json_form_loads_no_json():
    # Only the oracle reports call json, and import it where they do: an
    # exact JSON form is written from templates.
    src = Path(oracle.__file__).resolve().parent.parent
    code = ("import sys, ifsquant.cli; "
            "code = ifsquant.cli.main(['optimal', '--n', '20', '--format', 'json']); "
            "print(code, 'json' in sys.modules)")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False", result.stdout[-200:]


def test_records_are_immutable_and_slotted():
    _, block, _, _ = next(engine._layers(5, 5))
    # Without __slots__ = () a record gets a dict per instance: each of the
    # 3432 sets of layer 71, say.  A node is a plain tuple, which has none.
    records = [
        (block, "m"),
        (optimal_set(5), "v"),
        (engine.transition_graph(18, 19), "edges"),
        (engine.optimal_layers(18, 18)[0], "choices"),
        (engine.validate_structure(optimal_set(5)), "failures"),
        (Region(measure.CLOSED, ()), "kind"),
        (kmeans_1d_exact(BATCH[:1000], 3), "iterations"),
    ]
    for record, field in records:
        getattr(record, field)  # the field exists, so setting it is refused
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_batch_io_roundtrip(tmp_path):
    path = tmp_path / "batch.bin"
    small = sample(1000, depth=10, seed=7)
    write_batch(small, path)
    raw = path.read_bytes()
    assert raw[:8] == b"IFSQSMP1"
    assert int.from_bytes(raw[8:16], "little") == 1000
    values = read_batch_values(path)
    assert np.array_equal(values, small)


def test_batch_io_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + (1000).to_bytes(8, "little"))
    with pytest.raises(ValueError):
        read_batch_values(path)
    path.write_bytes(b"IFSQSMP1" + (9).to_bytes(8, "little") + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_batch_values(path)
    path.write_bytes(b"IFSQSMP1" + b"\x00" * 7)
    with pytest.raises(ValueError, match="too short"):
        read_batch_values(path)
    # Payloads that are no whole number of doubles fail on the count, too.
    for count, size in ((1, 7), (2, 12)):
        path.write_bytes(b"IFSQSMP1" + count.to_bytes(8, "little") + b"\x00" * size)
        with pytest.raises(ValueError, match=f"batch count {count} does not match payload"):
            read_batch_values(path)

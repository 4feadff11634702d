"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Everything exact is compared with zero tolerance; the
Monte Carlo checks use the stated statistical bands; wall-clock budgets are
asserted where stated.
"""

import functools
import random
import time
from fractions import Fraction as F

from bfs_reference import reference_sets
from exact_reference import make_node, mass
from ifsquant import golden, measure
from ifsquant.engine import (
    GenerationState,
    children,
    count_optimal_sets,
    enumerate_optimal_sets,
    optimal_set,
    quantization_error,
    transition_graph,
    validate_structure,
    vertex_label,
)
from ifsquant.exact_oracle import exhaustive_min
from ifsquant.measure import CLOSED, TAIL, Region, node_error, tail_error_series
from ifsquant.oracle import (
    kmeans_1d_exact,
    lloyd,
    mc_distortion_stats,
    sample,
)
from ifsquant.words import successor


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            started = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"criterion {number}: FAIL - {description}", flush=True)
                raise
            elapsed = time.perf_counter() - started
            print(
                f"criterion {number}: PASS - {description} ({elapsed:.2f}s)",
                flush=True,
            )
        return run
    return wrap


@criterion(1, "exact golden quantization errors")
def test_criterion_1():
    started = time.perf_counter()
    for n in (1, 2, 3, 6, 15, 16, 17, 18):
        assert quantization_error(n) == golden.GOLDEN_V[n], n
    assert time.perf_counter() - started < 1.0


@criterion(2, "exact optimal-set listings")
def test_criterion_2():
    for n, points in golden.GOLDEN_POINTS.items():
        assert list(optimal_set(n).points()) == points, n
    sixteens = enumerate_optimal_sets(16)
    assert {frozenset(q.signature()) for q in sixteens} == {
        golden.as_identity_set(s) for s in golden.LISTINGS_16
    }
    eighteens = enumerate_optimal_sets(18)
    assert len(eighteens) == 1
    assert frozenset(eighteens[0].signature()) == golden.as_identity_set(
        golden.LISTING_18
    )


@criterion(3, "optimal-set multiplicities and counting rule")
def test_criterion_3():
    started = time.perf_counter()
    assert [count_optimal_sets(n) for n in range(15, 22)] == [1, 3, 3, 1, 3, 3, 1]
    # against the breadth-first reference, which assumes no tie structure
    for n in range(1, 41):
        expected = [q.signature() for q in reference_sets(n)]
        assert count_optimal_sets(n) == len(expected), n
        assert [q.signature() for q in enumerate_optimal_sets(n)] == expected, n
    assert time.perf_counter() - started < 30.0


@criterion(4, "transition graph 18..21 edge relations")
def test_criterion_4():
    graph = transition_graph(18, 21, cap=100)
    assert [len(layer.choices) for layer in graph.layers] == [1, 3, 3, 1]
    out = {}
    for src, dst in graph.edges:
        out.setdefault(src, set()).add(dst)
    mid_labels = [vertex_label(19, i) for i in (1, 2, 3)]
    late_labels = {vertex_label(20, i) for i in (1, 2, 3)}
    # one 18-set feeding all three 19-sets
    assert out[vertex_label(18, 1)] == set(mid_labels)
    # each 19-set feeds exactly two 20-sets, pairwise sharing exactly one,
    # jointly covering all three; every 20-set feeds the single 21-set
    targets = [out[label] for label in mid_labels]
    assert all(len(t) == 2 for t in targets)
    assert set.union(*targets) == late_labels
    for i in range(3):
        for j in range(i + 1, 3):
            assert len(targets[i] & targets[j]) == 1
    assert all(out[label] == {vertex_label(21, 1)} for label in late_labels)


@criterion(5, "exhaustive search equals greedy for n = 2..12")
def test_criterion_5():
    started = time.perf_counter()
    for n in range(2, 13):
        best, _ = exhaustive_min(n)
        assert best == quantization_error(n), n
    assert time.perf_counter() - started < 60.0


@criterion(6, "Monte Carlo, Lloyd and exact DP agree with exact values")
def test_criterion_6():
    started = time.perf_counter()
    batch = sample(10**6)
    inits = {
        1: [0.5],
        2: [0.2, 0.8],
        3: [0.1, 0.5, 0.9],
        5: [0.05, 0.2, 0.55, 0.8, 0.95],
    }
    for k, init in inits.items():
        exact = [float(c) for c in optimal_set(k).points()]
        local = lloyd(batch, init)
        assert max(abs(a - b) for a, b in zip(local.centers, exact)) < 3e-3, k
        global_dp = kmeans_1d_exact(batch, k)
        assert max(abs(a - b) for a, b in zip(global_dp.centers, exact)) < 3e-3, k
        assert global_dp.distortion <= local.distortion + 1e-12, k
    for n in range(1, 9):
        centers = [float(c) for c in optimal_set(n).points()]
        estimate, stderr = mc_distortion_stats(batch, centers)
        assert abs(estimate - float(quantization_error(n))) < 4 * stderr, n
    assert time.perf_counter() - started < 30.0


@criterion(7, "exact property suites")
def test_criterion_7():
    started = time.perf_counter()
    rng = random.Random(20240317)

    # equal cylinder masses force equal contraction ratios (10^4 pairs:
    # random permutations plus pooled mass collisions)
    pool = {}
    checked = 0
    while checked < 10**4:
        w = [rng.randint(1, 9) for _ in range(rng.randint(1, 9))]
        tau = w[:]
        rng.shuffle(tau)
        w, tau = tuple(w), tuple(tau)
        if measure.prob_word(w) == measure.prob_word(tau):
            assert measure.scale_word(w) == measure.scale_word(tau)
            checked += 1
        bucket = pool.setdefault(measure.prob_word(w), w)
        assert measure.scale_word(bucket) == measure.scale_word(w)

    # mass and mean bookkeeping on every optimal set up to n = 1000,
    # together with the exact error recurrence and strict monotonicity
    state = GenerationState()
    mass_total = F(1)
    mean_total = measure.MEAN
    previous_v = state.v
    checkpoints = {1, 7, 64, 333, 1000}
    for n in range(2, 1001):
        parent, first, second = state.split()
        mass_total += mass(first) + mass(second) - mass(parent)
        mean_total += (
            mass(first) * first.centroid
            + mass(second) * second.centroid
            - mass(parent) * parent.centroid
        )
        assert mass_total == 1, n
        assert mean_total == measure.MEAN, n
        assert state.v == previous_v - parent.error + first.error + second.error
        assert state.v < previous_v, n
        previous_v = state.v
        if n in checkpoints:
            nodes = state.nodes()
            assert sum(map(mass, nodes), F(0)) == 1
            assert sum((mass(nd) * nd.centroid for nd in nodes), F(0)) == measure.MEAN
            assert sum((nd.error for nd in nodes), F(0)) == state.v

    # child/parent error quotients, exact, on 10^4 random nodes
    for _ in range(10**4):
        kind = rng.choice([CLOSED, TAIL])
        length = rng.randint(1 if kind == TAIL else 0, 8)
        node = make_node(
            Region(kind, tuple(rng.randint(1, 10) for _ in range(length)))
        )
        first, second = children(node)
        if kind == CLOSED:
            assert first.error == node.error * F(1, 64)
            assert second.error == node.error * F(43, 192)
        else:
            assert first.error == node.error * F(9, 344)
            assert second.error == node.error * F(1, 8)

    # split-exchange biconditionals on 10^4 random same-length word pairs
    def err_c(w):
        return node_error(Region(CLOSED, w))

    def err_t(w):
        return node_error(Region(TAIL, w))

    def split_sum_c(w):
        return err_c(w + (1,)) + err_t(w + (1,))

    def split_sum_t(w):
        return err_c(successor(w)) + err_t(successor(w))

    for _ in range(10**4):
        length = rng.randint(1, 6)
        w = tuple(rng.randint(1, 7) for _ in range(length))
        tau = tuple(rng.randint(1, 7) for _ in range(length))
        assert (err_c(w) > err_c(tau)) == (
            split_sum_c(w) + err_c(tau) < err_c(w) + split_sum_c(tau)
        )
        assert (err_c(w) > err_t(tau)) == (
            split_sum_c(w) + err_t(tau) < err_c(w) + split_sum_t(tau)
        )
        assert (err_t(w) > err_c(tau)) == (
            split_sum_t(w) + err_c(tau) < err_t(w) + split_sum_c(tau)
        )
        assert (err_t(w) > err_t(tau)) == (
            split_sum_t(w) + err_t(tau) < err_t(w) + split_sum_t(tau)
        )

    # equal-mass error relations on 10^4 permutation pairs, including the
    # exact factor 3 between tails ending in 1 and tails ending higher
    hits = {"equal": 0, "triple": 0}
    for _ in range(10**4):
        w = [1, rng.randint(2, 8)] + [
            rng.randint(1, 8) for _ in range(rng.randint(0, 5))
        ]
        tau = w[:]
        rng.shuffle(w)
        rng.shuffle(tau)
        w, tau = tuple(w), tuple(tau)
        assert err_c(w) == err_c(tau)
        if (w[-1] == 1) == (tau[-1] == 1):
            assert err_t(w) == err_t(tau)
            hits["equal"] += 1
        elif w[-1] == 1:
            assert err_t(w) == 3 * err_t(tau)
            hits["triple"] += 1
        else:
            assert 3 * err_t(w) == err_t(tau)
            hits["triple"] += 1
    assert min(hits.values()) > 500

    # sibling error series reaches the closed form within 2^-40 relative
    # at 60 terms, on 10^4 random tail words
    for _ in range(10**4):
        w = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        exact = node_error(Region(TAIL, w))
        partial = tail_error_series(w, 60)
        assert partial < exact
        assert exact - partial < exact / (1 << 40)

    assert time.perf_counter() - started < 30.0


@criterion(8, "greedy scales to n = 100000 under exact arithmetic")
def test_criterion_8():
    started = time.perf_counter()
    big = optimal_set(100000)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    assert big.n == 100000
    report = validate_structure(big)
    assert report.ok, report.failures

"""Independent exact checks for the engine, in integers and Fraction only.

The exhaustive search minimises over every split frontier of a given size
by a min-plus table over the two children of each region, with node errors
taken straight from the measure formulas; it does not trust the greedy
selection rule it checks.  This module loads without numpy, so the exact
commands that call it (``verify``, ``oracle-check``) need none; it also
holds the float oracles' sampling defaults, which the command-line parser
reads without loading them.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from operator import add

from . import measure
from .measure import CLOSED, TAIL, Region
from .words import successor

DEFAULT_DEPTH = 40
DEFAULT_SEED = 20240317


def _split_region(region: Region) -> tuple[Region, Region]:
    child = region.word + (1,) if region.kind == CLOSED else successor(region.word)
    return Region(CLOSED, child), Region(TAIL, child)


# Error multiples of the two children of a cylinder and of a tail region.
# Each child's kind is fixed by its place (cylinder first, tail second), and
# the multiples depend only on the parent's kind; the tests check this
# against the measure formulas on random regions.
_CHILD_RATIOS = {
    region.kind: tuple(
        measure.node_error(child) / measure.node_error(region)
        for child in _split_region(region)
    )
    for region in (Region(CLOSED, ()), Region(TAIL, (1,)))
}


# The min-plus tables of exhaustive_min, grown on demand: best(kind, k) and
# cut[kind][k] do not depend on the frontier size asked for, so one fill up
# to the largest size serves every smaller one.  first[kind][k] is the
# cylinder child's multiple times best(CLOSED, k), second[kind][k] the tail
# child's multiple times best(TAIL, k); index 0 is unused.
_best = {CLOSED: [None, Fraction(1)], TAIL: [None, Fraction(1)]}
_cut = {CLOSED: [None, None], TAIL: [None, None]}
_first = {kind: [None, f] for kind, (f, _) in _CHILD_RATIOS.items()}
_second = {kind: [None, s] for kind, (_, s) in _CHILD_RATIOS.items()}
_fill_lock = threading.Lock()  # two threads growing at once would repeat rows


def _fill(n: int) -> None:
    """Grow the tables to k = n, one whole row of k at a time."""
    with _fill_lock:
        for k in range(len(_best[CLOSED]), n + 1):
            best, cut = {}, {}
            for kind in _CHILD_RATIOS:
                totals = list(map(add, _first[kind][1:k], _second[kind][k - 1 : 0 : -1]))
                best[kind] = min(totals)
                cut[kind] = totals.index(best[kind]) + 1
            for kind, (f, s) in _CHILD_RATIOS.items():
                _best[kind].append(best[kind])
                _cut[kind].append(cut[kind])
                _first[kind].append(f * best[CLOSED])
                _second[kind].append(s * best[TAIL])


def exhaustive_min(n: int) -> tuple[Fraction, tuple[Region, ...]]:
    """Exact minimum total error over ALL split frontiers of size n.

    For n = 1 it is the root alone.  A region holding k >= 2 frontier
    regions is split, i of them under its cylinder child and k - i under
    its tail child.  Child errors are fixed multiples of the parent's, one
    pair per region kind, so a region's least k-frontier error over its
    own error, best(kind, k), depends only on its kind and k: it is the
    minimum over i of the cylinder child's multiple times best(CLOSED, i)
    plus the tail child's multiple times best(TAIL, k - i), and
    cut[kind][k] keeps the smallest such i.  The tables fill in O(n^2)
    steps, with no pruning, once for the largest n asked for; a smaller n
    reads them back.  Node errors come straight from the measure formulas,
    independent of the greedy engine.

    Returns (least total error, a frontier attaining it, left to right).
    """
    if n < 1:
        raise ValueError(f"exhaustive search needs n >= 1, got {n}")
    _fill(n)
    # Read the frontier back depth first, cylinder child first: the
    # cylinder child lies left of the tail child, so regions come out left
    # to right.
    root = Region(CLOSED, ())
    frontier = []
    stack = [(root, n)]
    while stack:
        region, k = stack.pop()
        if k == 1:
            frontier.append(region)
            continue
        i = _cut[region.kind][k]
        cylinder, tail_region = _split_region(region)
        stack.append((tail_region, k - i))
        stack.append((cylinder, i))
    return measure.node_error(root) * _best[CLOSED][n], tuple(frontier)

"""Fraction references for the engine's integer audit and serialisation.

The engine audits and serialises a quantizer set on integers over one
power of two.  The functions here do the same work the direct way, on
``Fraction`` values built by the node's properties, so the tests can check
the integer forms against them:

- ``fraction_audit`` is the structural audit with one ``Fraction`` per
  endpoint, centroid, mass and error, and ``Fraction`` sums;
- ``quantizer_set_from_dict`` rebuilds a set from its JSON form and checks
  every exact string against the node's ``Fraction`` values;
- ``branch_decomposition`` re-derives a set's total error recursively,
  branch by branch from the first letter, with the measure's formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ifsquant import measure
from ifsquant.engine import QuantizerSet, StructureReport, make_node
from ifsquant.measure import CLOSED, MEAN, TAIL, VARIANCE, Region
from ifsquant.words import Word, parse, render


def fraction_audit(q: QuantizerSet) -> StructureReport:
    """The structural audit in ``Fraction`` arithmetic: the same eight
    checks, messages and order as ``engine.validate_structure``."""
    failures: list[str] = []
    nodes = q.nodes
    lefts = [node.left for node in nodes]
    rights = [node.right for node in nodes]
    points = [node.centroid for node in nodes]
    masses = [node.mass for node in nodes]
    if q.n != len(nodes) or q.n < 1:
        failures.append("node count mismatch")
    if any(not (lo < next_lo and hi <= next_lo)
           for lo, hi, next_lo in zip(lefts, rights, lefts[1:])):
        failures.append("regions out of order or overlapping")
    if any(not x < y for x, y in zip(points, points[1:])):
        failures.append("centroids not strictly increasing")
    for node, lo, hi, x in zip(nodes, lefts, rights, points):
        if not lo <= x <= hi:
            failures.append(
                f"centroid outside region ({node.kind} {render(node.word)!r})"
            )
            break
    if any(not hi <= (x + y) / 2 <= next_lo
           for hi, next_lo, x, y in zip(rights, lefts[1:], points, points[1:])):
        failures.append("voronoi midpoint outside the region gap")
    if sum(masses, Fraction(0)) != 1:
        failures.append("masses do not sum to 1")
    if sum((mass * x for mass, x in zip(masses, points)), Fraction(0)) != MEAN:
        failures.append("mass-weighted centroid differs from the global mean")
    if sum((node.error for node in nodes), Fraction(0)) != q.v:
        failures.append("total error differs from the node error sum")
    return StructureReport(tuple(failures))


def quantizer_set_from_dict(data: dict) -> QuantizerSet:
    """Rebuild a quantizer set from its JSON form, verifying exact fields."""
    nodes = []
    for entry in data["nodes"]:
        node = make_node(Region(entry["kind"], parse(entry["word"])))
        if "centroid" in entry and Fraction(entry["centroid"]) != node.centroid:
            raise ValueError(f"centroid mismatch for node {entry['word']!r}")
        if "error" in entry and Fraction(entry["error"]) != node.error:
            raise ValueError(f"error mismatch for node {entry['word']!r}")
        nodes.append(node)
    q = QuantizerSet.from_nodes(nodes)
    if "n" in data and data["n"] != q.n:
        raise ValueError("node count does not match 'n'")
    if "V" in data and Fraction(data["V"]) != q.v:
        raise ValueError("total error does not match 'V'")
    return q


@dataclass(frozen=True)
class BranchDecomposition:
    """First-letter decomposition of a quantizer set: counts per cylinder."""

    k: int
    counts: tuple[int, ...]


def _split_by_first_letter(
    sig: tuple[tuple[str, Word], ...]
) -> tuple[int, dict[int, list[tuple[str, Word]]]]:
    depth_one_tails = [w for kind, w in sig if kind == TAIL and len(w) == 1]
    if len(depth_one_tails) != 1:
        raise ValueError(
            "not in branch-decomposition form: expected exactly one depth-1 tail"
        )
    k = depth_one_tails[0][0]
    branches: dict[int, list[tuple[str, Word]]] = {j: [] for j in range(1, k + 1)}
    for kind, w in sig:
        if kind == TAIL and w == (k,):
            continue
        if not w or w[0] > k:
            raise ValueError("not in branch-decomposition form: node outside branches")
        branches[w[0]].append((kind, w[1:]))
    for j, members in branches.items():
        if not members:
            raise ValueError(f"not in branch-decomposition form: empty branch {j}")
    return k, branches


def _frontier_value(sig: tuple[tuple[str, Word], ...]) -> Fraction:
    if len(sig) == 1 and sig[0] == (CLOSED, ()):
        return VARIANCE
    k, branches = _split_by_first_letter(sig)
    total = measure.node_error(Region(TAIL, (k,)))
    for j in range(1, k + 1):
        p = measure.prob_letter(j)
        s = measure.scale_letter(j)
        total += p * s * s * _frontier_value(tuple(branches[j]))
    return total


def branch_decomposition(q: QuantizerSet) -> BranchDecomposition:
    """Split a quantizer set by first letter and re-derive its total error.

    A well-formed frontier has exactly one depth-one tail node, say at k,
    and every other node lives in one of the cylinders J_1 .. J_k; the
    branch counts satisfy n = n_1 + ... + n_k + 1.  The total error is
    recomputed recursively from the per-branch frontiers (each a scaled
    copy of a whole-interval frontier) plus the tail error, and any
    mismatch with the set's total raises: that indicates an engine bug.
    """
    sig = q.signature()
    k, branches = _split_by_first_letter(sig)
    counts = tuple(len(branches[j]) for j in range(1, k + 1))
    if q.n != sum(counts) + 1:
        raise ValueError("branch counts do not add up to n - 1")
    if _frontier_value(sig) != q.v:
        raise ValueError("recursive error evaluation does not match the set total")
    return BranchDecomposition(k, counts)

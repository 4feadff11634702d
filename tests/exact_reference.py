"""Fraction references for the engine's integer audit and serialisation.

The engine audits and serialises a quantizer set on integers over one
power of two.  The functions here do the same work the direct way, on
``Fraction`` values built by the node's properties, so the tests can check
the integer forms against them:

- ``make_node`` builds a region's node from its word alone, and ``right``
  and ``mass`` read a node's right endpoint and mass as ``Fraction``
  values, where the engine builds nodes only by splitting and reads
  neither;
- ``fraction_audit`` is the structural audit with one ``Fraction`` per
  endpoint, centroid, mass and error, and ``Fraction`` sums;
- ``quantizer_set_from_dict`` rebuilds a set from its JSON form and checks
  every exact string against the node's ``Fraction`` values;
- ``branch_decomposition`` re-derives a set's total error recursively,
  branch by branch from the first letter, with the measure's formulas;
- ``block_table_reference`` builds every block of a depth, sorts them all
  and only then drops the ones some deeper node reaches: the first rows of
  ``engine._rows``, which merges its blocks in order with no depth;
- ``countdown_walk`` builds the canonical set in one walk that splits the
  first r tied nodes as it meets them, where the engine walks once and
  splices the tied nodes' children in after;
- ``transition_graph_to_dict`` builds the transition graph's JSON form as
  a dict for ``json.dumps``, where the engine streams it from templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ifsquant import measure
from ifsquant.engine import (
    _DROP, _MASS_BASE, _OFFSETS, Block, Node, QuantizerSet, StructureReport,
    TransitionGraph, children, node_name, root_node, vertex_label,
)
from ifsquant.measure import CLOSED, MEAN, TAIL, VARIANCE, Region
from ifsquant.words import Word, count_non_ones, parse, render


def make_node(region: Region) -> Node:
    """Build a region's node, deriving its integers from the word (O(|word|))."""
    word = region.word
    a = dn = 0
    for j in word:  # S_{w.j}(0) = S_w(1 - 2^(1-j))
        a += j + 1
        dn = ((dn + 1) << (j + 1)) - 4
    m = 3**count_non_ones(word)
    if region.kind == CLOSED:
        m *= 9
    else:
        m *= 129 if word[-1] == 1 else 43
    return Node(region.kind, word, m, a, dn)


def right(node: Node) -> Fraction:
    """Right endpoint of the region interval: S_w(1), or S_w(4) for a tail."""
    return Fraction(node.dn + _OFFSETS[node.kind][2], 1 << node.a)


def mass(node: Node) -> Fraction:
    """P-mass of the region: a tail after letter 1 holds 3 times p_w."""
    return Fraction(node.m // _MASS_BASE[node.kind], 1 << node.a)


def fraction_audit(q: QuantizerSet) -> StructureReport:
    """The structural audit in ``Fraction`` arithmetic: the same seven
    checks, messages and order as ``engine.validate_structure``."""
    failures: list[str] = []
    nodes = q.nodes
    lefts = [node.left for node in nodes]
    rights = [right(node) for node in nodes]
    points = [node.centroid for node in nodes]
    masses = [mass(node) for node in nodes]
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
        s = measure.scale_word((j,))
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


def block_table_reference(depth: int) -> list[tuple[int, int, int, Block]]:
    """The blocks above the error of every node deeper than ``depth``, the
    long way: a block for every (a, c) pair, all of them sorted on their
    key M * 8^(depth - a), and only then the ones with no words or a key
    at or below 129 * 3^(depth//3 + 1) / 8, which a deeper node reaches,
    dropped.  Rows are (splits to the end of the block, error dropped before
    it, error dropped per split, block), the errors in units of
    V / (37152 * 8^depth): the first rows of ``engine._rows`` without their
    ``top``."""
    bound = 129 * 3 ** (depth // 3 + 1) // 8
    width = depth // 3 + 2
    cyl = [[1] + [0] * (width - 1)]
    run = zero = [0] * width
    keyed = []
    for a in range(depth + 1):
        if a >= 3:
            run = [x + y for x, y in zip(run, cyl[a - 3])]
        below = cyl[a - 2] if a >= 2 else zero
        if a:
            cyl.append([below[0]] + [x + y for x, y in zip(below[1:], run)])
        shift = 3 * (depth - a)
        for c in range(width):
            keyed.append((9 * 3**c << shift, Block(CLOSED, 9 * 3**c, a, cyl[a][c])))
            if c:
                keyed.append((43 * 3**c << shift,
                              Block(TAIL, 43 * 3**c, a, below[c - 1] + run[c - 1])))
    rows, end, dropped = [], 0, 0
    for key, block in sorted(keyed, reverse=True):
        if key > bound and block.m:
            step = key * _DROP[block.kind]
            end += block.m
            rows.append((end, dropped, step, block))
            dropped += block.m * step
    return rows


def countdown_walk(block: Block, r: int) -> list[Node]:
    """The canonical frontier of a block with r of its nodes split, in one
    depth-first walk: a node is split when its error is above the block's,
    or equal to it while fewer than r tied nodes have been split."""
    m_t, a_t = block.M, block.a
    nodes = []
    stack = [root_node()]
    while stack:
        node = stack.pop()
        above = (node.m << 3 * a_t) - (m_t << 3 * node.a)
        if above > 0 or (above == 0 and r):
            r -= above == 0
            stack += reversed(children(node))
        else:
            nodes.append(node)
    return nodes


def transition_graph_to_dict(graph: TransitionGraph) -> dict:
    """JSON-ready adjacency form of the graph, from each layer's sets."""
    return {
        "n_lo": graph.n_lo,
        "n_hi": graph.n_lo + len(graph.layers) - 1,
        "vertices": [
            {
                "label": vertex_label(q.n, index),
                "n": q.n,
                "index": index,
                "V": str(q.v),
                "V_float": measure.float_val(q.v),
                "nodes": list(map(node_name, q.nodes)),
            }
            for layer in graph.layers
            for index, q in enumerate(layer.sets(), start=1)
        ],
        "edges": [[src, dst] for src, dst in graph.edges],
    }

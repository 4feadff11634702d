"""Greedy split engine for optimal quantizer sets.

Optimal n-point sets are built by induction: start from the one-point set
(the global mean, i.e. the whole-support cylinder) and repeatedly replace a
node of maximal squared-error contribution by its two children.  A cylinder
w splits into (cylinder w.1, tail of w.1); a tail region splits into the
successor cylinder plus the successor tail.  Child errors are exact fixed
multiples of the parent error, so the induction is well founded and every
error comparison is an exact rational comparison; the only freedom is which
node to split when several tie for the maximum, and enumerating that freedom
yields every optimal set of a given size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, Iterator

from . import measure
from .exceptions import CapExceeded
from .measure import CLOSED, TAIL, MEAN, VARIANCE, Region
from .words import Word, render

# Exact child/parent error quotients implied by the letter masses and
# scales; all are < 1, so children always carry strictly less error.
CLOSED_TO_CHILD = Fraction(1, 64)   # cylinder -> first child cylinder
CLOSED_TO_TAIL = Fraction(43, 192)  # cylinder -> child tail region
TAIL_TO_CHILD = Fraction(9, 344)    # tail -> successor cylinder
TAIL_TO_TAIL = Fraction(1, 8)       # tail -> successor tail

_CLOSED_MEAN = Fraction(1, 7)   # child-cylinder centroid offset, units of s_w
_CLOSED_TMEAN = Fraction(5, 7)  # child-tail centroid offset
_TAIL_MEAN = Fraction(16, 7)    # successor-cylinder centroid offset
_TAIL_TMEAN = Fraction(24, 7)   # successor-tail centroid offset


@dataclass(frozen=True, eq=False)
class Node:
    """A frontier element: a region with its cached exact data.

    ``prob``, ``scale`` and ``shift`` are the word's cylinder mass and the
    affine data of the composed map (S_w(x) = scale*x + shift); children are
    derived from them in O(1) exact operations.  Identity (equality and
    hashing) is by region only: derived fields are a pure function of it.
    """

    region: Region
    prob: Fraction
    scale: Fraction
    shift: Fraction
    error: Fraction
    centroid: Fraction

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.region == other.region

    def __hash__(self) -> int:
        return hash(self.region)

    @property
    def left(self) -> Fraction:
        """Left endpoint of the region interval."""
        if self.region.kind == CLOSED:
            return self.shift
        return self.shift + 2 * self.scale

    @property
    def right(self) -> Fraction:
        """Right endpoint of the region interval."""
        if self.region.kind == CLOSED:
            return self.shift + self.scale
        return self.shift + 4 * self.scale

    @property
    def mass(self) -> Fraction:
        """P-mass of the region."""
        if self.region.kind == CLOSED:
            return self.prob
        return 3 * self.prob if self.region.word[-1] == 1 else self.prob


def root_node() -> Node:
    """The whole-support node: one point at the global mean."""
    return Node(
        Region(CLOSED, ()), Fraction(1), Fraction(1), Fraction(0), VARIANCE, MEAN
    )


def make_node(region: Region) -> Node:
    """Build a node from scratch via the measure formulas (O(|word|))."""
    scale, shift = measure.map_params(region.word)
    return Node(
        region,
        measure.prob_word(region.word),
        scale,
        shift,
        measure.node_error(region),
        measure.centroid(region),
    )


def children(node: Node) -> tuple[Node, Node]:
    """Split a node into its two children, cylinder first."""
    region = node.region
    p, s, d, e = node.prob, node.scale, node.shift, node.error
    if region.kind == CLOSED:
        w = region.word + (1,)
        cp = p / 4
        cs = s / 4
        return (
            Node(Region(CLOSED, w), cp, cs, d, e * CLOSED_TO_CHILD,
                 d + s * _CLOSED_MEAN),
            Node(Region(TAIL, w), cp, cs, d, e * CLOSED_TO_TAIL,
                 d + s * _CLOSED_TMEAN),
        )
    j = region.word[-1]
    w = region.word[:-1] + (j + 1,)
    cp = p * 3 / 2 if j == 1 else p / 2
    cs = s / 2
    cd = d + 2 * s
    return (
        Node(Region(CLOSED, w), cp, cs, cd, e * TAIL_TO_CHILD,
             d + s * _TAIL_MEAN),
        Node(Region(TAIL, w), cp, cs, cd, e * TAIL_TO_TAIL,
             d + s * _TAIL_TMEAN),
    )


def _node_key(node: Node) -> tuple[Fraction, str, Word]:
    return (node.left, node.region.kind, node.region.word)


@dataclass(frozen=True)
class QuantizerSet:
    """A frontier in canonical (left-to-right) order with its exact error."""

    nodes: tuple[Node, ...]
    n: int
    v: Fraction

    @classmethod
    def from_nodes(cls, nodes: Iterable[Node]) -> "QuantizerSet":
        ordered = tuple(sorted(nodes, key=_node_key))
        total = sum((node.error for node in ordered), Fraction(0))
        return cls(ordered, len(ordered), total)

    def points(self) -> tuple[Fraction, ...]:
        """The quantizer points (node centroids) in increasing order."""
        return tuple(node.centroid for node in self.nodes)

    def signature(self) -> tuple[tuple[str, Word], ...]:
        """Node identities in canonical order; defines set equality."""
        return tuple((node.region.kind, node.region.word) for node in self.nodes)


def _lean_children(kind: int, word: Word, m: int, a: int, dn: int, c: int):
    """Integer data of a node's two children: (word, a, dn, c, M_closed, M_tail)."""
    if kind == 0:
        return word + (1,), a + 2, 4 * dn, c, m, 43 * (m // 3)
    j = word[-1]
    return (word[:-1] + (j + 1,), a + 1, 2 * dn + 4, c + 1 if j == 1 else c,
            9 * (m // 43), m)


def _materialize(kind: int, word: Word, m: int, a: int, dn: int, c: int) -> Node:
    """The ``Node`` of a lean entry's fields (everything after the keys)."""
    region = Region(CLOSED if kind == 0 else TAIL, word)
    den = 1 << a
    error = Fraction(m * VARIANCE.numerator, 9 * VARIANCE.denominator << (3 * a))
    offset = 4 if kind == 0 else 20
    return Node(
        region,
        Fraction(3**c, den),
        Fraction(1, den),
        Fraction(dn, den),
        error,
        Fraction(7 * dn + offset, 7 << a),
    )


def _canonical(entry) -> tuple:
    return entry[1], entry[2], entry[3]


class GenerationState:
    """Mutable frontier of the split induction, keyed by exact error.

    Pop order is total and deterministic: largest error first, ties broken
    by smallest region left endpoint, then cylinder before tail, then word.

    Every frontier error is V * M / (9 * 2^(3a)) for integers M, a, and the
    region data is dyadic, so the heap stores exact integer keys (the error
    and left endpoint scaled by a shared power of two) and plain integer
    node data; comparisons stay exact while running at C speed, and rich
    ``Node`` values materialize only on demand.  Heap entry layout:

        (-error_key, left_key, kind, word, M, a, dn, c)

    with prob = 3^c / 2^a, scale = 1 / 2^a, shift = dn / 2^a, and keys
    normalized to the shared exponent A: error_key = M << 3*(A - a),
    left_key = (dn, or dn + 2 for tails) << (A - a).  A starts at
    ``scale_exp`` and at least doubles whenever a node gets deeper than it.
    """

    def __init__(self, scale_exp: int = 64) -> None:
        self._scale_exp = scale_exp
        self._heap = [self._lean_entry(0, (), 9, 0, 0, 0)]
        self._acc = 9 << (3 * self._scale_exp)  # running error sum, in keys
        self.n = 1

    @property
    def v(self) -> Fraction:
        """Exact total error of the current frontier."""
        return Fraction(
            self._acc * VARIANCE.numerator,
            9 * VARIANCE.denominator << (3 * self._scale_exp),
        )

    def _lean_entry(self, kind: int, word: Word, m: int, a: int, dn: int, c: int):
        shift = self._scale_exp - a
        left = dn if kind == 0 else dn + 2
        return (-(m << (3 * shift)), left << shift, kind, word, m, a, dn, c)

    def _rescale(self, a_needed: int) -> None:
        old = self._scale_exp
        self._scale_exp = max(2 * old, a_needed + 16)
        delta = self._scale_exp - old
        self._acc <<= 3 * delta
        # Shifting every key by the same amount preserves the heap order.
        self._heap = [
            (neg << (3 * delta), left << delta, kind, word, m, a, dn, c)
            for neg, left, kind, word, m, a, dn, c in self._heap
        ]

    def _push_children(self, entry):
        """Add the children of ``entry``, already taken off the heap."""
        _, _, kind, word, m, a, dn, c = entry
        child_word, ca, cdn, cc, m_closed, m_tail = _lean_children(
            kind, word, m, a, dn, c
        )
        if ca > self._scale_exp:
            self._rescale(ca)
        first = self._lean_entry(0, child_word, m_closed, ca, cdn, cc)
        second = self._lean_entry(1, child_word, m_tail, ca, cdn, cc)
        heapq.heappush(self._heap, first)
        heapq.heappush(self._heap, second)
        self._acc += -first[0] - second[0] - (m << 3 * (self._scale_exp - a))
        self.n += 1
        return first, second

    def _split_lean(self):
        return self._push_children(heapq.heappop(self._heap))

    def peek(self) -> Node:
        """The node the next split will replace."""
        return _materialize(*self._heap[0][2:])

    def split(self) -> tuple[Node, Node, Node]:
        """Replace the maximal-error node by its children."""
        parent = _materialize(*self._heap[0][2:])
        first, second = self._split_lean()
        return parent, _materialize(*first[2:]), _materialize(*second[2:])

    def nodes(self) -> list[Node]:
        """Current frontier nodes, in no particular order."""
        return [_materialize(*entry[2:]) for entry in self._heap]

    def quantizer(self) -> QuantizerSet:
        ordered = sorted(self._heap, key=_canonical)
        return QuantizerSet(
            tuple(_materialize(*entry[2:]) for entry in ordered), self.n, self.v
        )


def _advance(n: int) -> GenerationState:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    state = GenerationState()
    for _ in range(n - 1):
        state._split_lean()
    return state


def optimal_set(n: int) -> QuantizerSet:
    """One canonical optimal n-point set (ties split at the leftmost region)."""
    return _advance(n).quantizer()


def quantization_error(n: int) -> Fraction:
    """Exact minimal mean squared error over n-point sets."""
    return _advance(n).v


def iter_quantizers(n_max: int) -> Iterator[QuantizerSet]:
    """Yield the canonical optimal set for every n = 1 .. n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    state = GenerationState()
    yield state.quantizer()
    for _ in range(n_max - 1):
        state._split_lean()
        yield state.quantizer()


def _layers(n_lo: int) -> Iterator[tuple]:
    """Threshold-block description of the optimal sets of sizes n_lo, n_lo + 1, ...

    Greedy split errors never increase and children carry less error than
    their parent, so the splits come in blocks of equal error.  Every
    optimal n-set makes the q forced splits, of error above the threshold
    t of its last split, plus any r of the m nodes tied at t: there are
    binomial(m, r) of them.  Yields ``(n, frontier, tied, r, V_n)`` for
    each n, where ``frontier`` holds the lean entries left after the forced
    splits apart from the tied ones, and ``tied`` the tied entries in
    canonical order.
    """
    state = GenerationState()
    n = n_lo
    while True:
        heap = state._heap
        top = heap[0][0]
        tied = []
        while heap and heap[0][0] == top:
            tied.append(heapq.heappop(heap))
        # copying is O(frontier): only blocks that hold layer n need it
        frontier = heap.copy() if n - state.n <= len(tied) else None
        for r in range(len(tied) + 1):
            if r:
                state._push_children(tied[r - 1])
            if state.n == n:
                yield n, frontier, tied, r, state.v
                n += 1


def _layer_sets(n: int, frontier, tied, r: int, v: Fraction) -> list:
    """The optimal sets of one ``_layers`` item as (chosen, set) pairs.

    ``chosen`` holds the indices of the split tied entries.  A node's two
    children cover its own region, closed child first, so a split node's
    children take its place in the canonical order: the integer left keys,
    distinct because the regions are disjoint, are sorted once per layer.
    Pairs come sorted by set signature.
    """
    base = sorted([*frontier, *tied], key=_canonical)
    pieces = [(_materialize(*entry[2:]),) for entry in base]
    lefts = {entry[1] for entry in tied}
    slots = [i for i, entry in enumerate(base) if entry[1] in lefts]
    split = []
    for entry in tied:
        word, a, dn, c, m_closed, m_tail = _lean_children(*entry[2:])
        split.append((_materialize(0, word, m_closed, a, dn, c),
                      _materialize(1, word, m_tail, a, dn, c)))
    pairs = []
    for chosen in combinations(range(len(tied)), r):
        parts = pieces.copy()
        for i in chosen:
            parts[slots[i]] = split[i]
        pairs.append((chosen, QuantizerSet(tuple(chain.from_iterable(parts)), n, v)))
    pairs.sort(key=lambda pair: pair[1].signature())
    return pairs


def enumerate_optimal_sets(n: int, cap: int = 10000) -> list[QuantizerSet]:
    """All optimal n-point sets, sorted by signature.

    Built from the threshold-block description, so the cost follows the
    number of sets in layer n alone.  Raises CapExceeded naming n when
    that number, known before any set is built, exceeds ``cap``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    _, frontier, tied, r, v = next(_layers(n))
    if comb(len(tied), r) > cap:
        raise CapExceeded(f"number of optimal sets exceeds cap {cap} at n={n}")
    return [q for _, q in _layer_sets(n, frontier, tied, r, v)]


def count_optimal_sets(n: int) -> int:
    """Number of distinct optimal n-point sets: binomial(m, r) of its block."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _, _, tied, r, _ = next(_layers(n))
    return comb(len(tied), r)


@dataclass(frozen=True)
class GraphVertex:
    """One optimal set in a transition graph layer."""

    n: int
    index: int  # 1-based, canonical order within the layer
    label: str
    v: Fraction
    signature: tuple[tuple[str, Word], ...]


@dataclass(frozen=True)
class TransitionGraph:
    """Layered DAG of optimal sets: edges are single-split derivations."""

    n_lo: int
    n_hi: int
    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[str, str], ...]

    def layer(self, n: int) -> tuple[GraphVertex, ...]:
        return tuple(v for v in self.vertices if v.n == n)


def transition_graph(n_lo: int, n_hi: int, cap: int = 1000) -> TransitionGraph:
    """Build the optimal-set transition DAG for sizes n_lo .. n_hi.

    An r-set of a block leads to the (r+1)-sets of the same block that
    contain it; the one set that closes a block leads to every set of the
    next.  Raises CapExceeded when a window layer, or the window as a
    whole, holds more than ``cap`` sets; both are known before any set is
    built.
    """
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"need 1 <= n_lo <= n_hi, got {n_lo}, {n_hi}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    width = n_hi - n_lo + 1
    total = 0
    for k, _, tied, r, _ in islice(_layers(n_lo), width):
        size = comb(len(tied), r)
        if size > cap:
            raise CapExceeded(f"transition graph exceeds cap {cap} sets at n={k}")
        total += size
    if total > cap:
        raise CapExceeded(f"transition graph exceeds cap {cap} vertices")

    vertices: list[GraphVertex] = []
    edges: list[tuple[str, str]] = []
    previous_tied, previous = None, {}
    for k, frontier, tied, r, v in islice(_layers(n_lo), width):
        order = {}
        for index, (chosen, q) in enumerate(
            _layer_sets(k, frontier, tied, r, v), start=1
        ):
            order[chosen] = index
            vertices.append(GraphVertex(k, index, f"a_{{{k},{index}}}", v,
                                        q.signature()))
        for chosen, src in previous.items():
            if tied is previous_tied:
                targets = sorted(order[tuple(sorted((*chosen, x)))]
                                 for x in range(len(tied)) if x not in chosen)
            else:  # the closing set of the previous block feeds every set
                targets = range(1, len(order) + 1)
            edges.extend((f"a_{{{k - 1},{src}}}", f"a_{{{k},{dst}}}")
                         for dst in targets)
        previous_tied, previous = tied, order
    return TransitionGraph(n_lo, n_hi, tuple(vertices), tuple(edges))


def transition_graph_dot(graph: TransitionGraph) -> str:
    """Render the graph as DOT, layers flowing left to right."""
    lines = ["digraph optimal_sets {", "  rankdir=LR;", "  node [shape=box];"]
    for n in range(graph.n_lo, graph.n_hi + 1):
        names = " ".join(f'"{v.label}";' for v in graph.layer(n))
        lines.append(f"  {{ rank=same; {names} }}")
    for src, dst in graph.edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def transition_graph_to_dict(graph: TransitionGraph, digits: int = 10) -> dict:
    """JSON-ready adjacency form of the graph."""
    return {
        "n_lo": graph.n_lo,
        "n_hi": graph.n_hi,
        "vertices": [
            {
                "label": v.label,
                "n": v.n,
                "index": v.index,
                "V": measure.frac_str(v.v),
                "V_float": measure.float_val(v.v, digits),
                "nodes": [f"{kind}:{render(word)}" for kind, word in v.signature],
            }
            for v in graph.vertices
        ],
        "edges": [[src, dst] for src, dst in graph.edges],
    }


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the structural audit of a quantizer set."""

    ok: bool
    failures: tuple[str, ...]

    @property
    def first_failure(self) -> str | None:
        return self.failures[0] if self.failures else None


def validate_structure(q: QuantizerSet) -> StructureReport:
    """Exact structural audit of a quantizer set.

    Checks the canonical ordering and disjointness of regions, that every
    node's centroid sits inside its own region, that adjacent centroid
    midpoints (the Voronoi boundaries) fall inside the gaps between
    consecutive regions, and the exact mass / mean / total-error bookkeeping.
    """
    failures: list[str] = []
    nodes = q.nodes
    if q.n != len(nodes) or q.n < 1:
        failures.append("node count mismatch")
    for left_node, right_node in zip(nodes, nodes[1:]):
        if not (left_node.left < right_node.left and left_node.right <= right_node.left):
            failures.append("regions out of order or overlapping")
            break
    for left_node, right_node in zip(nodes, nodes[1:]):
        if not left_node.centroid < right_node.centroid:
            failures.append("centroids not strictly increasing")
            break
    for node in nodes:
        if not node.left <= node.centroid <= node.right:
            failures.append(
                f"centroid outside region ({node.region.kind} {render(node.region.word)!r})"
            )
            break
    for left_node, right_node in zip(nodes, nodes[1:]):
        midpoint = (left_node.centroid + right_node.centroid) / 2
        if not left_node.right <= midpoint <= right_node.left:
            failures.append("voronoi midpoint outside the region gap")
            break
    if sum((node.mass for node in nodes), Fraction(0)) != 1:
        failures.append("masses do not sum to 1")
    if sum((node.mass * node.centroid for node in nodes), Fraction(0)) != MEAN:
        failures.append("mass-weighted centroid differs from the global mean")
    if sum((node.error for node in nodes), Fraction(0)) != q.v:
        failures.append("total error differs from the node error sum")
    return StructureReport(not failures, tuple(failures))


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
    mismatch with the cached total raises: that indicates an engine bug.
    """
    sig = q.signature()
    k, branches = _split_by_first_letter(sig)
    counts = tuple(len(branches[j]) for j in range(1, k + 1))
    if q.n != sum(counts) + 1:
        raise ValueError("branch counts do not add up to n - 1")
    if _frontier_value(sig) != q.v:
        raise ValueError("recursive error evaluation does not match the set total")
    return BranchDecomposition(k, counts)


def quantizer_set_to_dict(q: QuantizerSet, digits: int = 10) -> dict:
    """JSON-ready form of a quantizer set; exact strings plus float hints."""
    return {
        "n": q.n,
        "V": measure.frac_str(q.v),
        "V_float": measure.float_val(q.v, digits),
        "nodes": [
            {
                "word": render(node.region.word),
                "kind": node.region.kind,
                "centroid": measure.frac_str(node.centroid),
                "centroid_float": measure.float_val(node.centroid, digits),
                "error": measure.frac_str(node.error),
            }
            for node in q.nodes
        ],
    }


def quantizer_set_from_dict(data: dict) -> QuantizerSet:
    """Rebuild a quantizer set from its JSON form, verifying exact fields."""
    from .words import parse

    nodes = []
    for entry in data["nodes"]:
        region = Region(entry["kind"], parse(entry["word"]))
        node = make_node(region)
        if "centroid" in entry and measure.parse_frac(entry["centroid"]) != node.centroid:
            raise ValueError(f"centroid mismatch for node {entry['word']!r}")
        if "error" in entry and measure.parse_frac(entry["error"]) != node.error:
            raise ValueError(f"error mismatch for node {entry['word']!r}")
        nodes.append(node)
    q = QuantizerSet.from_nodes(nodes)
    if "n" in data and data["n"] != q.n:
        raise ValueError("node count does not match 'n'")
    if "V" in data and measure.parse_frac(data["V"]) != q.v:
        raise ValueError("total error does not match 'V'")
    return q

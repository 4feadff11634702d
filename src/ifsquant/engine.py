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

A node is one integer record (region, M, a, dn, c), split by one integer
rule (``_lean_children``); its rational data are built from the integers
only where they are read.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, Iterator

from . import measure
from .exceptions import CapExceeded
from .measure import CLOSED, TAIL, MEAN, VARIANCE, Region
from .words import Word, count_non_ones, render


@dataclass(frozen=True, eq=False, slots=True)
class Node:
    """A frontier element: a region and the integers that fix its exact data.

    For a word w with a = sum(w) + len(w), the composed map is
    S_w(x) = (x + dn) / 2^a, the cylinder mass is 3^c / 2^a (c counts the
    letters other than 1) and the region's error is V * M / (9 * 2^(3a)).
    The rationals are built from these integers when they are read;
    ``error`` and ``centroid``, which serialisation and the audit read
    repeatedly, are cached in two slots.  Identity (equality and hashing)
    is by region only: the integers are a pure function of it.
    """

    region: Region
    m: int
    a: int
    dn: int
    c: int
    _error: Fraction | None = field(default=None, init=False, repr=False)
    _centroid: Fraction | None = field(default=None, init=False, repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.region == other.region

    def __hash__(self) -> int:
        return hash(self.region)

    @property
    def prob(self) -> Fraction:
        """Mass of the word's cylinder."""
        return Fraction(3**self.c, 1 << self.a)

    @property
    def scale(self) -> Fraction:
        """Contraction ratio of S_w."""
        return Fraction(1, 1 << self.a)

    @property
    def shift(self) -> Fraction:
        """S_w(0)."""
        return Fraction(self.dn, 1 << self.a)

    @property
    def error(self) -> Fraction:
        """Exact squared-error contribution of the region."""
        if self._error is None:
            object.__setattr__(self, "_error", Fraction(
                self.m * VARIANCE.numerator, 9 * VARIANCE.denominator << (3 * self.a)
            ))
        return self._error

    @property
    def centroid(self) -> Fraction:
        """Mean of the region: S_w(4/7) for a cylinder, S_w(20/7) for a tail."""
        if self._centroid is None:
            offset = 4 if self.region.kind == CLOSED else 20
            object.__setattr__(self, "_centroid",
                               Fraction(7 * self.dn + offset, 7 << self.a))
        return self._centroid

    @property
    def left(self) -> Fraction:
        """Left endpoint of the region interval: S_w(0), or S_w(2) for a tail."""
        offset = 0 if self.region.kind == CLOSED else 2
        return Fraction(self.dn + offset, 1 << self.a)

    @property
    def right(self) -> Fraction:
        """Right endpoint of the region interval: S_w(1), or S_w(4) for a tail."""
        offset = 1 if self.region.kind == CLOSED else 4
        return Fraction(self.dn + offset, 1 << self.a)

    @property
    def mass(self) -> Fraction:
        """P-mass of the region: a tail after letter 1 holds 3 times p_w."""
        region = self.region
        c = self.c + (region.kind == TAIL and region.word[-1] == 1)
        return Fraction(3**c, 1 << self.a)


def root_node() -> Node:
    """The whole-support node: one point at the global mean."""
    return Node(Region(CLOSED, ()), 9, 0, 0, 0)


def make_node(region: Region) -> Node:
    """Build a region's node, deriving its integers from the word (O(|word|))."""
    word = region.word
    a = dn = 0
    for j in word:  # S_{w.j}(0) = S_w(1 - 2^(1-j))
        a += j + 1
        dn = ((dn + 1) << (j + 1)) - 4
    c = count_non_ones(word)
    if region.kind == CLOSED:
        m = 9 * 3**c
    else:
        m = (129 if word[-1] == 1 else 43) * 3**c
    return Node(region, m, a, dn, c)


def _lean_children(kind: str, word: Word, m: int, a: int, dn: int, c: int):
    """The split rule: the children's (word, a, dn, c, M_closed, M_tail).

    The error quotients M'/(M * 2^(3(a'-a))) are 1/64 and 43/192 for a
    cylinder, 9/344 and 1/8 for a tail.
    """
    if kind == CLOSED:
        return word + (1,), a + 2, 4 * dn, c, m, 43 * (m // 3)
    j = word[-1]
    return (word[:-1] + (j + 1,), a + 1, 2 * dn + 4, c + 1 if j == 1 else c,
            9 * (m // 43), m)


def _node(kind: str, word: Word, m: int, a: int, dn: int, c: int) -> Node:
    return Node(Region(kind, word), m, a, dn, c)


def _child_nodes(kind: str, word: Word, m: int, a: int, dn: int, c: int):
    """The two children, as nodes, of the record (kind, word, M, a, dn, c)."""
    word, a, dn, c, m_closed, m_tail = _lean_children(kind, word, m, a, dn, c)
    return _node(CLOSED, word, m_closed, a, dn, c), _node(TAIL, word, m_tail, a, dn, c)


def children(node: Node) -> tuple[Node, Node]:
    """Split a node into its two children, cylinder first."""
    region = node.region
    return _child_nodes(region.kind, region.word, node.m, node.a, node.dn, node.c)


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


def _canonical(entry) -> tuple:
    return entry[1], entry[2], entry[3]


class GenerationState:
    """Mutable frontier of the split induction, keyed by exact error.

    Pop order is total and deterministic: largest error first, ties broken
    by smallest region left endpoint, then cylinder before tail, then word.

    The heap holds each node's integer record behind two exact integer
    keys, the error and the left endpoint scaled by a shared power of two,
    so comparisons stay exact while running at C speed; a ``Node`` is built
    from an entry only when one is asked for.  Heap entry layout:

        (-error_key, left_key, kind, word, M, a, dn, c)

    with the record fields of ``Node`` and keys normalized to the shared
    exponent A: error_key = M << 3*(A - a), left_key = (dn, or dn + 2 for
    tails) << (A - a).  A starts at ``scale_exp`` and at least doubles
    whenever a node gets deeper than it.
    """

    def __init__(self, scale_exp: int = 64) -> None:
        self._scale_exp = scale_exp
        self._heap = [self._lean_entry(CLOSED, (), 9, 0, 0, 0)]
        self._acc = 9 << (3 * self._scale_exp)  # running error sum, in keys
        self.n = 1

    @property
    def v(self) -> Fraction:
        """Exact total error of the current frontier."""
        return Fraction(
            self._acc * VARIANCE.numerator,
            9 * VARIANCE.denominator << (3 * self._scale_exp),
        )

    def _lean_entry(self, kind: str, word: Word, m: int, a: int, dn: int, c: int):
        shift = self._scale_exp - a
        left = dn if kind == CLOSED else dn + 2
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

    def _push_children(self, entry) -> None:
        """Add the children of ``entry``, already taken off the heap."""
        _, _, kind, word, m, a, dn, c = entry
        child_word, ca, cdn, cc, m_closed, m_tail = _lean_children(
            kind, word, m, a, dn, c
        )
        if ca > self._scale_exp:
            self._rescale(ca)
        first = self._lean_entry(CLOSED, child_word, m_closed, ca, cdn, cc)
        second = self._lean_entry(TAIL, child_word, m_tail, ca, cdn, cc)
        heapq.heappush(self._heap, first)
        heapq.heappush(self._heap, second)
        self._acc += -first[0] - second[0] - (m << 3 * (self._scale_exp - a))
        self.n += 1

    def step(self) -> None:
        """Replace the maximal-error node by its children, building no ``Node``."""
        self._push_children(heapq.heappop(self._heap))

    def peek(self) -> Node:
        """The node the next split will replace."""
        return _node(*self._heap[0][2:])

    def split(self) -> tuple[Node, Node, Node]:
        """Replace the maximal-error node by its children; returns all three."""
        parent = _node(*self._heap[0][2:])
        self.step()
        return (parent, *children(parent))

    def nodes(self) -> list[Node]:
        """Current frontier nodes, in no particular order."""
        return [_node(*entry[2:]) for entry in self._heap]

    def quantizer(self) -> QuantizerSet:
        ordered = sorted(self._heap, key=_canonical)
        return QuantizerSet(
            tuple(_node(*entry[2:]) for entry in ordered), self.n, self.v
        )


def _advance(n: int) -> GenerationState:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    state = GenerationState()
    for _ in range(n - 1):
        state.step()
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
        state.step()
        yield state.quantizer()


def _layers(n_lo: int) -> Iterator[tuple]:
    """Threshold-block description of the optimal sets of sizes n_lo, n_lo + 1, ...

    Greedy split errors never increase and children carry less error than
    their parent, so the splits come in blocks of equal error.  Every
    optimal n-set makes the q forced splits, of error above the threshold
    t of its last split, plus any r of the m nodes tied at t: there are
    binomial(m, r) of them.  Yields ``(n, frontier, tied, r, V_n)`` for
    each n, where ``frontier`` holds the heap entries left after the forced
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
    pieces = [(_node(*entry[2:]),) for entry in base]
    lefts = {entry[1] for entry in tied}
    slots = [i for i, entry in enumerate(base) if entry[1] in lefts]
    split = [_child_nodes(*entry[2:]) for entry in tied]
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
                f"centroid outside region ({node.region.kind} {render(node.region.word)!r})"
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

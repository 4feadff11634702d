"""Exact optimal quantizer sets of the fixed measure.

Optimal n-point sets come from an induction: start from the one-point set
(the global mean, i.e. the whole-support cylinder) and repeatedly replace a
node of maximal squared-error contribution by its two children.  A cylinder
w splits into (cylinder w.1, tail of w.1); a tail region splits into the
successor cylinder plus the successor tail.  Child errors are exact fixed
fractions of the parent error, below it, so an optimal n-set splits every
tree node of error above a threshold t and any r of the m nodes tied at t.

Nothing replays the induction.  The tree nodes of one error form a block,
sized by a count of words (``_block_table``); V_n and the binomial(m, r)
optimal sets of each size follow from the blocks (``_layers``), and one
depth-first walk builds a set in canonical order (``_walk``).
``GenerationState`` runs the induction step by step, as the tests'
reference.  A node is one integer record: its region's kind and word and
three integers (M, a, dn), split by one rule (``children``).  Its
endpoints, centroid and mass are integers over 2^a or 7 * 2^a, and its
error is V times an integer over 9 * 8^a, so the structural audit and the
serialisation work on integers over one power of two; a Fraction is built
only where one is read.
"""

from __future__ import annotations

import functools
import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, log, log1p, pi
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from . import measure
from .measure import CLOSED, TAIL, MEAN, VARIANCE, Region
from .words import Word, count_non_ones, render

DEFAULT_CAP = 10000  # most sets enumerate_optimal_sets and transition_graph build
COUNT_DIGITS = 100_000  # most digits of a count that count_optimal_sets builds


class CapExceeded(RuntimeError):
    """An enumeration, a transition graph or a count passed its limit."""


# Where each region kind sits in the unit interval of its map S_w: the
# left endpoint, 7 times the centroid and the right endpoint.  A cylinder is
# S_w([0, 1]) with mean S_w(4/7); a tail region is S_w([2, 4]) with mean
# S_w(20/7).  Node's properties and the audit both read this table.
_OFFSETS = {CLOSED: (0, 4, 1), TAIL: (2, 20, 4)}

# A region of mass 3^c' / 2^a has M = 9 * 3^c' (cylinder) or 43 * 3^c' (tail).
_MASS_BASE = {CLOSED: 9, TAIL: 43}


class Node(NamedTuple):
    """A frontier element: a region's kind and word, and its exact integers.

    For a word w with a = sum(w) + len(w), the composed map is
    S_w(x) = (x + dn) / 2^a, the region's error is V * M / (9 * 2^(3a))
    and its mass (M // 9) / 2^a for a cylinder, (M // 43) / 2^a for a tail.
    The rationals are built from these integers each time they are read;
    the audit and serialisation read the integers instead.  Equal regions
    have equal integers, so equality, hashing and order amount to region
    identity, kind first.  Only ``children`` and ``make_node`` (from a
    validated Region) build one, so nothing re-validates a record.
    """

    kind: str
    word: Word
    m: int
    a: int
    dn: int

    @property
    def error(self) -> Fraction:
        """Exact squared-error contribution of the region."""
        return Fraction(self.m * VARIANCE.numerator,
                        9 * VARIANCE.denominator << (3 * self.a))

    @property
    def centroid(self) -> Fraction:
        """Mean of the region: S_w(4/7) for a cylinder, S_w(20/7) for a tail."""
        return Fraction(7 * self.dn + _OFFSETS[self.kind][1], 7 << self.a)

    @property
    def left(self) -> Fraction:
        """Left endpoint of the region interval: S_w(0), or S_w(2) for a tail."""
        return Fraction(self.dn + _OFFSETS[self.kind][0], 1 << self.a)

    @property
    def right(self) -> Fraction:
        """Right endpoint of the region interval: S_w(1), or S_w(4) for a tail."""
        return Fraction(self.dn + _OFFSETS[self.kind][2], 1 << self.a)

    @property
    def mass(self) -> Fraction:
        """P-mass of the region: a tail after letter 1 holds 3 times p_w."""
        return Fraction(self.m // _MASS_BASE[self.kind], 1 << self.a)


def root_node() -> Node:
    """The whole-support node: one point at the global mean."""
    return Node(CLOSED, (), 9, 0, 0)


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


def children(node: Node) -> tuple[Node, Node]:
    """The split rule: a node's two children, cylinder first.

    The error quotients M'/(M * 2^(3(a'-a))) are 1/64 and 43/192 for a
    cylinder, 9/344 and 1/8 for a tail.
    """
    kind, word, m, a, dn = node
    if kind == CLOSED:
        word += (1,)
        return (Node(CLOSED, word, m, a + 2, 4 * dn),
                Node(TAIL, word, 43 * (m // 3), a + 2, 4 * dn))
    word = word[:-1] + (word[-1] + 1,)
    return (Node(CLOSED, word, 9 * (m // 43), a + 1, 2 * dn + 4),
            Node(TAIL, word, m, a + 1, 2 * dn + 4))


# The walk's own name for the split rule: a tracer that wraps ``children``
# then counts only the tie-block splits of ``_layer_sets``.
_split = children


@dataclass(frozen=True)
class QuantizerSet:
    """A frontier in canonical (left-to-right) order with its exact error."""

    nodes: tuple[Node, ...]
    n: int
    v: Fraction

    @classmethod
    def from_nodes(cls, nodes: Iterable[Node]) -> "QuantizerSet":
        ordered = tuple(sorted(nodes, key=lambda node: (node.left, node)))
        total = sum((node.error for node in ordered), Fraction(0))
        return cls(ordered, len(ordered), total)

    def points(self) -> tuple[Fraction, ...]:
        """The quantizer points (node centroids) in increasing order."""
        return tuple(node.centroid for node in self.nodes)

    def signature(self) -> tuple[tuple[str, Word], ...]:
        """Node identities in canonical order; defines set equality."""
        return tuple((node.kind, node.word) for node in self.nodes)


class GenerationState:
    """The split induction, one exact step at a time.

    A heap of ``(-error, left, node)`` entries keyed by exact
    ``Fraction`` errors: each ``split()`` replaces a node of maximal error,
    the leftmost among ties, by its two ``children()``.  Nothing in the
    program uses it; it is the reference the threshold blocks are tested
    against.
    """

    def __init__(self) -> None:
        root = root_node()
        self._heap = [self._entry(root)]
        self.v = root.error  # exact total error of the frontier
        self.n = 1

    @staticmethod
    def _entry(node: Node) -> tuple:
        return (-node.error, node.left, node)

    def peek(self) -> Node:
        """The node the next split will replace."""
        return self._heap[0][-1]

    def split(self) -> tuple[Node, Node, Node]:
        """Replace the maximal-error node by its children; returns all three."""
        parent = heapq.heappop(self._heap)[-1]
        first, second = children(parent)
        heapq.heappush(self._heap, self._entry(first))
        heapq.heappush(self._heap, self._entry(second))
        self.v += first.error + second.error - parent.error
        self.n += 1
        return parent, first, second

    def nodes(self) -> list[Node]:
        """Current frontier nodes, in no particular order."""
        return [entry[-1] for entry in self._heap]

    def quantizer(self) -> QuantizerSet:
        return QuantizerSet.from_nodes(self.nodes())


class Block(NamedTuple):
    """The m tree nodes of error V * M / (9 * 8^a): all cylinders or all tails."""

    kind: str
    M: int
    a: int
    m: int


# Error taken away by splitting a node of error e, in units of e / 4128:
# 1 - (1/64 + 43/192) = 73/96 for a cylinder, 1 - (9/344 + 1/8) = 73/86 for a tail.
_DROP = {CLOSED: 73 * 43, TAIL: 73 * 48}


@functools.cache
def _block_table(depth: int) -> list[tuple[int, int, int, Block]]:
    """Every block above the error of all nodes deeper than ``depth``.

    Words are counted by a and c: cyl[a][c] = cyl[a-2][c] + the sum of
    cyl[b][c-1] over b <= a-3 (append 1, or a letter j >= 2 of weight
    j + 1).  A cylinder block (a, c) has M = 9 * 3^c.  A tail block (a, c)
    has M = 43 * 3^c and holds the tails whose last letter is 1 with c - 1
    other letters and the other tails with c; 43 is not a power of 3, so
    cylinders never tie tails.  Blocks are sorted on the key
    M * 8^(depth - a), and only keys above 129 * 3^(depth//3 + 1) / 8 are
    kept: no deeper node reaches it.  Rows are (splits to the end of the
    block, error dropped before it, error dropped per split, block), the
    errors in units of V / (37152 * 8^depth).
    """
    bound = 129 * 3 ** (depth // 3 + 1) // 8
    width = depth // 3 + 2
    cyl = [[1] + [0] * (width - 1)]  # the empty word
    run = zero = [0] * width  # the sum of cyl[b] over b <= a - 3
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


def _layers(n_lo: int, n_hi: int) -> Iterator[tuple[int, Block, int, Fraction]]:
    """Threshold-block description of the optimal sets of sizes n_lo .. n_hi.

    Child errors are fixed fractions of their parent's, below it, so the
    greedy splits run through the tree's nodes in descending error order.
    Every optimal n-set splits the nodes of the blocks before its block and
    any r of that block's m nodes: there are binomial(m, r) of them, and
    r = 0 only at n = 1.  Yields ``(n, block, r, V_n)``, with
    V_n = V * (1 - sum of m*e*g over the earlier blocks - r*e*g) for error
    fraction e = M / (9 * 8^a) and g = 73/96 (cylinder) or 73/86 (tail).
    Every exact command iterates it, so it alone checks 1 <= n_lo <= n_hi.
    """
    if n_lo < 1:
        raise ValueError(f"n must be >= 1, got {n_lo}")
    if n_lo > n_hi:
        raise ValueError(f"first size {n_lo} exceeds last size {n_hi}")
    depth = 8
    while (rows := _block_table(depth))[-1][0] < n_hi - 1:
        depth *= 2
    scale = 37152 << 3 * depth  # 9 * 4128 * 8^depth
    i = bisect_left(rows, n_lo - 1, key=itemgetter(0))
    for n in range(n_lo, n_hi + 1):
        if rows[i][0] < n - 1:
            i += 1
        end, dropped, step, block = rows[i]
        r = n - 1 - end + block.m
        yield n, block, r, Fraction(VARIANCE.numerator * (scale - dropped - r * step),
                                    VARIANCE.denominator * scale)


def _walk(block: Block, r: int) -> tuple[list[Node], list[int]]:
    """The frontier that splits every node above ``block`` and its first r.

    A depth-first walk from the root, cylinder child first, so the nodes
    come out in canonical left-to-right order with no sort.  A node is
    split when its error is above the block's, or equal to it while fewer
    than r tied nodes have been split.  Returns the frontier and the
    positions in it of the tied nodes left unsplit.
    """
    m_t, a_t = block.M, block.a
    nodes, tied = [], []
    stack = [root_node()]
    while stack:
        node = stack.pop()
        above = (node.m << 3 * a_t) - (m_t << 3 * node.a)
        if above > 0 or (above == 0 and r):
            r -= above == 0
            stack += reversed(_split(node))  # the cylinder child on top
        else:
            if above == 0:
                tied.append(len(nodes))
            nodes.append(node)
    return nodes, tied


def optimal_set(n: int) -> QuantizerSet:
    """One canonical optimal n-point set (ties split at the leftmost region)."""
    _, block, r, v = next(_layers(n, n))
    return QuantizerSet(tuple(_walk(block, r)[0]), n, v)


def quantization_error(n: int) -> Fraction:
    """Exact minimal mean squared error over n-point sets."""
    return next(_layers(n, n))[3]


def _layer_sets(n: int, block: Block, r: int,
                v: Fraction) -> Iterator[tuple[tuple[int, ...], QuantizerSet]]:
    """The optimal sets of one ``_layers`` item as (chosen, set) pairs.

    ``chosen`` holds the indices, in left-to-right order, of the split tied
    nodes.  A node's two children cover its own region, closed child first,
    so they take its place in the canonical order.  Pairs come in signature
    order with no sort.  Two sets first differ at the first tied node one
    splits and the other keeps.  A kept cylinder w sorts before its first
    child, the cylinder w.1, whose word w prefixes; a kept tail sorts after
    its first child, a cylinder, as "closed" < "tail".  So a tail block's
    sets come in ``combinations`` order, and a cylinder block's in reverse.
    """
    nodes, slots = _walk(block, 0)
    pieces = [(node,) for node in nodes]
    split = [children(nodes[slot]) for slot in slots]
    chosen_sets = combinations(range(len(slots)), r)
    if block.kind == CLOSED:
        chosen_sets = reversed(list(chosen_sets))
    for chosen in chosen_sets:
        parts = pieces.copy()
        for i in chosen:
            parts[slots[i]] = split[i]
        yield chosen, QuantizerSet(tuple(chain.from_iterable(parts)), n, v)


def _exceeds(m: int, r: int, cap: int) -> bool:
    """Whether binomial(m, r) > cap, without building a count above cap.

    binomial(m, i) grows with i up to m/2, so it is multiplied up from
    i = 0 to min(r, m - r) and the first value above cap settles it; that
    takes at most about log2(cap) + 1 steps.
    """
    count = 1
    for i in range(min(r, m - r)):
        count = count * (m - i) // (i + 1)
        if count > cap:
            return True
    return count > cap


def enumerate_optimal_sets(n: int, cap: int = DEFAULT_CAP) -> list[QuantizerSet]:
    """All optimal n-point sets, in signature order.

    Built from the threshold-block description, so the cost follows the
    number of sets in layer n alone.  Raises CapExceeded naming n when
    that number exceeds ``cap``; this is known before any set, or any
    count above ``cap``, is built.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    _, block, r, v = next(_layers(n, n))
    if _exceeds(block.m, r, cap):
        raise CapExceeded(f"number of optimal sets exceeds cap {cap} at n={n}")
    return [q for _, q in _layer_sets(n, block, r, v)]


def count_optimal_sets(n: int) -> int:
    """Number of distinct optimal n-point sets: binomial(m, r) of its block.

    Raises CapExceeded naming n when the count has more than COUNT_DIGITS
    digits, at any n.  With k = min(r, m - r), binomial(m, k) >= 2^k
    settles k >= 4 * COUNT_DIGITS.  Below that, Stirling's series puts
    ln binomial(m, k) within 1/6 of k ln(m/k) + (m - k) ln(m/(m - k))
    + ln(m / (2 pi k (m - k))) / 2, taken with logarithms of integers and
    of 1 - k/m so that no float overflows; that settles it unless the count
    lies within a factor 1.3 of 10^COUNT_DIGITS, and only then is it built
    and compared.
    """
    _, block, r, _ = next(_layers(n, n))
    m, k = block.m, min(r, block.m - r)
    too_many = k >= 4 * COUNT_DIGITS
    if k and not too_many:
        x = k / m  # (m - k) ln(m/(m - k)) is k (1 - x) ln(1/(1 - x)) / x, or k at x = 0
        other = k if x == 0 else -k * (1 - x) * log1p(-x) / x
        log10_count = (k * (log(m) - log(k)) + other
                       - (log(2 * pi * k) + log1p(-x)) / 2) / log(10)
        too_many = log10_count > COUNT_DIGITS + 0.1 or (
            log10_count > COUNT_DIGITS - 0.1 and comb(m, k) >= 10**COUNT_DIGITS)
    if too_many:
        raise CapExceeded(
            f"number of optimal sets has more than {COUNT_DIGITS} digits at n={n}")
    return comb(m, k)


def vertex_label(n: int, i: int) -> str:
    """The name a_{n,i} of the i-th optimal n-set in canonical order."""
    return f"a_{{{n},{i}}}"


@dataclass(frozen=True)
class TransitionGraph:
    """Layered DAG of optimal sets: edges are single-split derivations.

    ``layers[k]`` holds the optimal sets of size n_lo + k in canonical
    order; ``vertex_label(n, i)`` names the i-th set of layer n, and the
    edges are pairs of those names.
    """

    n_lo: int
    layers: tuple[tuple[QuantizerSet, ...], ...]
    edges: tuple[tuple[str, str], ...]


def transition_graph(n_lo: int, n_hi: int, cap: int = DEFAULT_CAP) -> TransitionGraph:
    """Build the optimal-set transition DAG for sizes n_lo .. n_hi.

    An r-set of a block leads to the (r+1)-sets of the same block that
    contain it; the one set that closes a block leads to every set of the
    next.  Raises CapExceeded, naming the first layer that passes it, when
    the window holds more than ``cap`` sets in all.  Each layer is checked
    against what is left of the cap, so this is known before any set, or
    any count above ``cap``, is built.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    items, left = [], cap
    for item in _layers(n_lo, n_hi):
        k, block, r, _ = item
        if _exceeds(block.m, r, left):
            raise CapExceeded(f"transition graph exceeds cap {cap} sets at n={k}")
        left -= comb(block.m, r)
        items.append(item)

    layers: list[tuple[QuantizerSet, ...]] = []
    edges: list[tuple[str, str]] = []
    previous_block, previous = None, {}
    for k, block, r, v in items:
        pairs = list(_layer_sets(k, block, r, v))
        order = {chosen: index for index, (chosen, _) in enumerate(pairs, start=1)}
        layers.append(tuple(q for _, q in pairs))
        for chosen, src in previous.items():
            if block == previous_block:
                targets = sorted(order[tuple(sorted((*chosen, x)))]
                                 for x in range(block.m) if x not in chosen)
            else:  # the closing set of the previous block feeds every set
                targets = range(1, len(order) + 1)
            edges.extend((vertex_label(k - 1, src), vertex_label(k, dst))
                         for dst in targets)
        previous_block, previous = block, order
    return TransitionGraph(n_lo, tuple(layers), tuple(edges))


def transition_graph_dot(graph: TransitionGraph) -> str:
    """Render the graph as DOT, layers flowing left to right."""
    lines = ["digraph optimal_sets {", "  rankdir=LR;", "  node [shape=box];"]
    for n, layer in enumerate(graph.layers, start=graph.n_lo):
        names = " ".join(f'"{vertex_label(n, i)}";' for i in range(1, len(layer) + 1))
        lines.append(f"  {{ rank=same; {names} }}")
    for src, dst in graph.edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def transition_graph_to_dict(graph: TransitionGraph) -> dict:
    """JSON-ready adjacency form of the graph."""
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
                "nodes": [f"{node.kind}:{render(node.word)}" for node in q.nodes],
            }
            for layer in graph.layers
            for index, q in enumerate(layer, start=1)
        ],
        "edges": [[src, dst] for src, dst in graph.edges],
    }


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the structural audit of a quantizer set: the failed
    checks' messages, in the audit's order; it passed when there are none."""

    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_structure(q: QuantizerSet) -> StructureReport:
    """Exact structural audit of a quantizer set.

    Checks the canonical ordering and disjointness of regions, that every
    node's centroid sits inside its own region, that adjacent centroid
    midpoints (the Voronoi boundaries) fall inside the gaps between
    consecutive regions, and the exact mass / mean / total-error bookkeeping.

    All of it runs on integers over one power of two.  With A the largest
    a in the set, endpoints and centroids are integers over 7 * 2^A,
    masses over 2^A, mass-weighted centroids over 7 * 4^A and errors, in
    units of V / 9, over 8^A.  The error total is the one Fraction built.
    """
    failures: list[str] = []
    nodes = q.nodes
    top = max((node.a for node in nodes), default=0)
    lefts, rights, points = [], [], []
    mass_sum = mean_sum = error_sum = 0
    for kind, _, m, a, dn in nodes:
        off_l, off_c, off_r = _OFFSETS[kind]
        shift = top - a
        dn *= 7
        x = (dn + off_c) << shift
        mass = m // _MASS_BASE[kind] << shift
        lefts.append((dn + 7 * off_l) << shift)
        rights.append((dn + 7 * off_r) << shift)
        points.append(x)
        mass_sum += mass
        mean_sum += mass * x
        error_sum += m << 3 * shift
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
    if any(not 2 * hi <= x + y <= 2 * next_lo
           for hi, next_lo, x, y in zip(rights, lefts[1:], points, points[1:])):
        failures.append("voronoi midpoint outside the region gap")
    if mass_sum != 1 << top:
        failures.append("masses do not sum to 1")
    if mean_sum * MEAN.denominator != MEAN.numerator * 7 << 2 * top:
        failures.append("mass-weighted centroid differs from the global mean")
    if Fraction(error_sum * VARIANCE.numerator,
                9 * VARIANCE.denominator << 3 * top) != q.v:
        failures.append("total error differs from the node error sum")
    return StructureReport(tuple(failures))


def _centroid_terms(kind: str, a: int, dn: int) -> tuple[int, int]:
    """The centroid (7 * dn + offset) / (7 * 2^a) in lowest terms.

    The offsets 4 and 20 are not multiples of 7, so only a power of two
    cancels: the numerator's trailing zero bits, at most a of them.
    """
    num = 7 * dn + _OFFSETS[kind][1]
    shift = min(a, (num & -num).bit_length() - 1)
    return num >> shift, 7 << (a - shift)


def centroid_str(node: Node) -> str:
    """The centroid as "num/den", the string ``str(node.centroid)`` gives."""
    return "%d/%d" % _centroid_terms(node.kind, node.a, node.dn)


def _error_str(m: int, a: int) -> str:
    """The error V * M / (9 * 8^a) = 32 * M / (3577 * 8^a) as "num/den".

    M is odd and prime to 3577 = 7^2 * 73, so only 2^min(5, 3a) cancels.
    """
    shift = min(5, 3 * a)
    return f"{32 * m >> shift}/{3577 << (3 * a - shift)}"


def quantizer_set_to_dict(q: QuantizerSet) -> dict:
    """JSON-ready form of a quantizer set; exact strings plus float hints.

    Node strings are formatted from the integers with their common factor
    known in advance, and equal the strings of the reduced Fractions; a
    centroid's float is the same correctly rounded integer division that
    ``float(Fraction)`` performs.
    """
    data = {
        "n": q.n,
        "V": str(q.v),
        "V_float": measure.float_val(q.v),
    }
    spec = measure.FLOAT_SPEC
    nodes = data["nodes"] = []
    for kind, word, m, a, dn in q.nodes:
        num, den = _centroid_terms(kind, a, dn)
        nodes.append({
            "word": render(word),
            "kind": kind,
            "centroid": f"{num}/{den}",
            "centroid_float": float(format(num / den, spec)),
            "error": _error_str(m, a),
        })
    return data

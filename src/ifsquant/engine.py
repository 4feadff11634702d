"""Exact optimal quantizer sets of the fixed measure.

Optimal n-point sets come from an induction: start from the one-point set
(the global mean, i.e. the whole-support cylinder) and repeatedly replace a
node of maximal squared-error contribution by its two children.  A cylinder
w splits into (cylinder w.1, tail of w.1); a tail region splits into the
successor cylinder plus the successor tail.  Child errors are exact fixed
fractions of the parent error, below it, so an optimal n-set splits every
tree node of error above a threshold t and any r of the m nodes tied at t.

Nothing replays the induction.  The tree nodes of one error form a block,
sized by a count of words and streamed in descending error (``_rows``);
V_n and the binomial(m, r) optimal sets of each size follow from the
blocks (``_layers``), V_n as an integer pair in lowest terms: over its
denominator 2^(5 + 3 top) * 3577 * 1161, the numerator's common power of
two is stripped, then one gcd with 3577 * 1161 is taken, and a Fraction
is built only for a library value or a set's V.  One depth-first walk
builds the frontier above a block in canonical order and leaves the
block's tied nodes unsplit (``_walk``), and one tie rule splices the
children of the chosen tied nodes into it (``_splice``).  A ``Layer`` is a
walk and every r-choice of one size, or the canonical set alone, its first
r tied nodes spliced as it is built, made with one walk per block
(``_built``); its sets and their texts are splices of it.
One size rule settles if a binomial is at most a limit, built only near
it (``_binomial_at_most``), for the count and the one cap rule, a budget of
sets for a window of layers (``_within_cap``); one edge rule links the layers
(``transition_graph``): a set leads to each set that splits one more of
its block's tied nodes, and the set before a block's first layer splits
none of them.  ``GenerationState`` runs the induction step by step, as the
tests' reference.  A node is one plain tuple, its region's kind, three
integers (M, a, dn) and its word's text, split by one rule (``children``)
that carries the text down the walk: a cylinder w's children are w.1, a
tail w.j's are w.(j+1).  Its endpoints, centroid and mass are integers
over 2^a or 7 * 2^a, and its error is V times an integer over 9 * 8^a, so
the structural audit and every printed form work on the nodes, over one
power of two.  A set holds the walk's own nodes, and a node's word and
rationals are read by functions of it (``word_of``, ``error_of``,
``centroid_of``, ``left_of``), a Fraction built only where one is read.
"""

from __future__ import annotations

import functools
import heapq
import threading
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, islice, zip_longest
from math import comb, gcd, inf, log, log1p, pi
from operator import itemgetter

from . import measure
from .measure import CLOSED, TAIL, MEAN, VARIANCE
# ``render`` stays bound here, unused: perfbench/tracing.py wraps engine.render.
from .words import Word, render  # noqa: F401

DEFAULT_CAP = 10000  # most sets enumerate_optimal_sets and transition_graph build
COUNT_DIGITS = 100_000  # most digits of a count that count_optimal_sets builds


class CapExceeded(RuntimeError):
    """An enumeration, a transition graph or a count passed its limit."""


# Where each region kind sits in the unit interval of its map S_w: the
# left endpoint, 7 times the centroid and the right endpoint.  A cylinder is
# S_w([0, 1]) with mean S_w(4/7); a tail region is S_w([2, 4]) with mean
# S_w(20/7).  ``left_of``, ``centroid_of`` and the audit read this table.
_OFFSETS = {CLOSED: (0, 4, 1), TAIL: (2, 20, 4)}

# A region of mass 3^c' / 2^a has M = 9 * 3^c' (cylinder) or 43 * 3^c' (tail).
_MASS_BASE = {CLOSED: 9, TAIL: 43}


# A frontier node, the one form the walk, the sets and every reader share:
# (kind, M, a, dn, text).  For a word w with a = sum(w) + len(w), the composed
# map is S_w(x) = (x + dn) / 2^a, the region's error is V * M / (9 * 2^(3a)) and
# its mass (M // 9) / 2^a for a cylinder, (M // 43) / 2^a for a tail; text is w
# as ``render`` writes it.  Equal regions have equal fields, so equality,
# hashing and order amount to region identity, kind first.
Node = tuple[str, int, int, int, str]


def word_of(node: Node) -> Word:
    """A node's word, read back from its text: ``children`` writes it in
    canonical form, so it needs none of ``parse``'s checks."""
    text = node[4]
    return tuple(map(int, text.split("."))) if text else ()


def error_of(node: Node) -> Fraction:
    """A node's exact squared-error contribution."""
    _, m, a, _, _ = node
    return Fraction(*_error_terms(m, a))


def centroid_of(node: Node) -> Fraction:
    """A node's mean: S_w(4/7) for a cylinder, S_w(20/7) for a tail."""
    kind, _, a, dn, _ = node
    return Fraction(*_centroid_terms(kind, a, dn))


def left_of(node: Node) -> Fraction:
    """A node's left endpoint: S_w(0), or S_w(2) for a tail."""
    kind, _, a, dn, _ = node
    return Fraction(dn + _OFFSETS[kind][0], 1 << a)


_ROOT: Node = (CLOSED, 9, 0, 0, "")  # the whole support, the empty word


def root_node() -> Node:
    """The whole-support node: one point at the global mean."""
    return _ROOT


def children(node: Node) -> tuple[Node, Node]:
    """The split rule: a node's two children, cylinder first.

    Both children have one word, which the rule writes from the parent's
    text: a cylinder w splits into cylinder and tail w.1, a tail w.j into
    cylinder and tail w.(j+1).  The error quotients M'/(M * 2^(3(a'-a)))
    are 1/64 and 43/192 for a cylinder, 9/344 and 1/8 for a tail.
    """
    kind, m, a, dn, text = node
    if kind == CLOSED:
        text = f"{text}.1" if text else "1"
        dn *= 4
        return (CLOSED, m, a + 2, dn, text), (TAIL, 43 * (m // 3), a + 2, dn, text)
    head, dot, last = text.rpartition(".")
    text = f"{head}{dot}{int(last) + 1}"
    dn = 2 * dn + 4
    return (CLOSED, 9 * (m // 43), a + 1, dn, text), (TAIL, m, a + 1, dn, text)


# The name ``_walk`` and the canonical layers split through: a tracer that
# wraps ``children`` then counts only the enumeration's tied-node splits.
_split = children


class QuantizerSet(namedtuple("QuantizerSet", "nodes v")):
    """A frontier in canonical (left-to-right) order with its exact error v."""

    __slots__ = ()

    @property
    def n(self) -> int:
        """The set's size, its number of nodes."""
        return len(self.nodes)

    @classmethod
    def from_nodes(cls, nodes: Iterable[Node]) -> "QuantizerSet":
        ordered = tuple(sorted(nodes, key=lambda node: (left_of(node), node)))
        return cls(ordered, sum(map(error_of, ordered), Fraction(0)))

    def points(self) -> tuple[Fraction, ...]:
        """The quantizer points (node centroids) in increasing order."""
        return tuple(map(centroid_of, self.nodes))

    def signature(self) -> tuple[tuple[str, Word], ...]:
        """Node identities in canonical order; defines set equality."""
        return tuple((node[0], word_of(node)) for node in self.nodes)


class GenerationState:
    """The split induction, one exact step at a time.

    A heap of ``(-error, left, node)`` entries keyed by exact
    ``Fraction`` errors: each ``split()`` replaces a node of maximal error,
    the leftmost among ties, by its two ``children()``.  Nothing in the
    program uses it; it is the reference the threshold blocks are tested
    against.
    """

    def __init__(self) -> None:
        self._heap = [self._entry(_ROOT)]
        self.v = error_of(_ROOT)  # exact total error of the frontier
        self.n = 1

    @staticmethod
    def _entry(node: Node) -> tuple:
        return (-error_of(node), left_of(node), node)

    def peek(self) -> Node:
        """The node the next split will replace."""
        return self._heap[0][-1]

    def split(self) -> tuple[Node, Node, Node]:
        """Replace the maximal-error node by its children; returns all three."""
        parent = heapq.heappop(self._heap)[-1]
        first, second = children(parent)
        heapq.heappush(self._heap, self._entry(first))
        heapq.heappush(self._heap, self._entry(second))
        self.v += error_of(first) + error_of(second) - error_of(parent)
        self.n += 1
        return parent, first, second

    def nodes(self) -> list[Node]:
        """Current frontier nodes, in no particular order."""
        return [entry[-1] for entry in self._heap]

    def quantizer(self) -> QuantizerSet:
        return QuantizerSet.from_nodes(self.nodes())


class Block(namedtuple("Block", "kind M a m")):
    """The m tree nodes of error V * M / (9 * 8^a): all cylinders or all tails."""

    __slots__ = ()


# Error taken away by splitting a node of error e, in units of e / 4128:
# 1 - (1/64 + 43/192) = 73/96 for a cylinder, 1 - (9/344 + 1/8) = 73/86 for a tail.
_DROP = {CLOSED: 73 * 43, TAIL: 73 * 48}


def _rows() -> Iterator[tuple[int, int, int, int, Block]]:
    """Every block that holds words, in strictly descending error M / 8^a.

    cyl[a][c] counts the words of weight a with c letters other than 1, row
    by row: cyl[a][c] = cyl[a-2][c] + total[a-3][c-1] (append 1, or a letter
    j >= 2 of weight j + 1), total[a] the sum of cyl[b] over b <= a.  Block
    (a, c) holds the cyl[a][c] cylinders of M = 9 * 3^c, or the
    total[a-2][c-1] tails w.j of M = 43 * 3^c.  A heap merges one stream
    per (kind, c), in increasing a, on the float key a log 8 - log M; stream
    c + 1, 512/3 below, is pushed when stream c's first block is taken.  A
    block is checked exactly against the last: a float near-tie raises.
    Rows are (splits to the block's end, error dropped before it and per
    split, top, block), in units of V / (37152 * 8^top), top the largest a.
    """
    heap = [(-log(9), CLOSED, 0, 0), (2 * log(8) - log(129), TAIL, 1, 2)]
    cyl, total = [[1], [0], [1]], [[1], [1], [2]]
    last, end, dropped, top = None, 0, 0, 0
    while True:
        key, kind, c, a = heap[0]
        heapq.heapreplace(heap, (key + log(8), kind, c, a + 1))
        if a == 3 * c - (kind == TAIL):  # the first block of its stream
            heapq.heappush(heap, (key + log(512 / 3), kind, c + 1, a + 3))
        while len(cyl) <= a:  # the shorter of two rows is padded with zeros
            cyl.append([*map(sum, zip_longest(cyl[-2], [0, *total[-3]], fillvalue=0))])
            total.append([*map(sum, zip_longest(total[-1], cyl[-1], fillvalue=0))])
        if not (m := cyl[a][c] if kind == CLOSED else total[a - 2][c - 1]):
            continue  # a cylinder of letters 1 alone, at odd a
        weight = _MASS_BASE[kind] * 3**c
        if last and weight << 3 * last[1] >= last[0] << 3 * a:
            raise ArithmeticError(f"float keys misorder (M, a) = {last}, {weight, a}")
        last = weight, a
        dropped <<= 3 * max(a - top, 0)  # rescaled when a deeper block raises top
        top = max(top, a)
        step = weight * _DROP[kind] << 3 * (top - a)
        end += m
        yield end, dropped, step, top, Block(kind, weight, a, m)
        dropped += m * step


_STREAM = _rows()
_ROWS: list[tuple[int, int, int, int, Block]] = []  # the rows taken so far
_GROW = threading.Lock()  # two threads may not advance one generator at once


# V's terms, and the odd part of a row's V_n denominator 3577 * 37152 * 8^top,
# as 37152 = 2^5 * 1161.
_V_NUM, _V_DEN = VARIANCE.numerator, VARIANCE.denominator
_V_ODD = _V_DEN * 1161


def _layers(n_lo: int, n_hi: int) -> Iterator[tuple[int, Block, int, tuple[int, int]]]:
    """Threshold-block description of the optimal sets of sizes n_lo .. n_hi.

    Child errors are fixed fractions of their parent's, below it, so the
    greedy splits run through the tree's nodes in descending error order.
    Every optimal n-set splits the nodes of the blocks before its block and
    any r of that block's m nodes: there are binomial(m, r) of them, and
    r = 0 only at n = 1.  Yields ``(n, block, r, (num, den))``, with V_n =
    num / den in lowest terms, where
    V_n = V * (1 - sum of m*e*g over the earlier blocks - r*e*g) for error
    fraction e = M / (9 * 8^a) and g = 73/96 (cylinder) or 73/86 (tail).
    No Fraction is built: over its row's denominator, 2^(5 + 3 top) times
    3577 * 1161, V_n is reduced by the numerator's trailing zero bits, at
    most 5 + 3 top of them, and then by one gcd with 3577 * 1161.  Every
    exact command iterates it, so it alone checks 1 <= n_lo <= n_hi.
    """
    if n_lo < 1:
        raise ValueError(f"n must be >= 1, got {n_lo}")
    if n_lo > n_hi:
        raise ValueError(f"first size {n_lo} exceeds last size {n_hi}")
    _take_rows(n_hi - 1)
    n = n_lo
    for end, dropped, step, top, block in islice(
            _ROWS, bisect_left(_ROWS, n_lo - 1, key=itemgetter(0)), None):
        # The row holds the sizes up to end + 1, at r = n - first, and V_n's
        # numerator 288 * (scale - dropped - r * step) is c - n * s.
        first, last = end + 1 - block.m, min(end + 1, n_hi)
        scale = 37152 << 3 * top  # 9 * 4128 * 8^top
        c, s = _V_NUM * (scale - dropped + first * step), _V_NUM * step
        den, twos_max = _V_DEN * scale, 5 + 3 * top
        for n in range(n, last + 1):
            num = c - n * s  # > 0: V_n > 0
            twos = min((num & -num).bit_length() - 1, twos_max)
            g = gcd(num := num >> twos, _V_ODD)
            yield n, block, n - first, (num // g, (den >> twos) // g)
        if last == n_hi:
            return
        n = last + 1


def _take_rows(end: int) -> None:
    """Take rows from the stream into ``_ROWS`` until one ends at or past
    ``end`` splits."""
    global _STREAM
    with _GROW:
        try:
            while not _ROWS or _ROWS[-1][0] < end:
                _ROWS.append(next(_STREAM))
        except BaseException:  # a generator stopped by an exception cannot resume
            _STREAM = islice(_rows(), len(_ROWS), None)
            raise


def _walk(block: Block) -> tuple[list[Node], list[int]]:
    """The frontier that splits every node above ``block`` and none in it.

    A depth-first walk from the root, cylinder child first, so the nodes
    come out in canonical left-to-right order with no sort.  A node is
    split when its error is above the block's.  Returns the frontier and
    the positions in it of the block's m tied nodes, all left unsplit;
    ``_splice`` then splits the chosen ones.
    """
    m_t, a_t = block.M, block.a
    nodes, tied = [], []
    stack = [_ROOT]
    while stack:
        node = stack.pop()
        above = (node[1] << 3 * a_t) - (m_t << 3 * node[2])
        if above > 0:
            first, second = _split(node)
            stack += second, first  # the cylinder child on top
        else:
            if above == 0:
                tied.append(len(nodes))
            nodes.append(node)
    return nodes, tied


def _splice(nodes: list, tied: list[int], chosen: Iterable[int],
            halves: list[tuple]) -> tuple:
    """The one tie rule: the frontier with tied node i split, for each i in
    ``chosen``.

    ``chosen`` holds indices into ``tied`` in increasing order, and
    ``halves[i]`` is tied node i's pair of children.  A node's two children
    cover its own region, closed child first, so they take its place in
    the canonical order.  The nodes between chosen ones are copied as list
    slices, so a set takes O(r) Python steps, not O(n), of nodes or texts.
    """
    parts, start = [], 0
    for i in chosen:
        slot = tied[i]
        parts += nodes[start:slot]
        parts += halves[i]
        start = slot + 1
    parts += nodes[start:]
    return tuple(parts)


class Layer(namedtuple("Layer", "v nodes tied halves choices")):
    """The optimal n-sets as one walk: V_n's reduced pair, a frontier of
    nodes and the positions of its tied ones, the tied nodes' children
    (``halves``, of each tied node a choice splits at least), and the tied
    indices each set splits, in signature order.  The layers of one block
    that hold every set share its walk; a canonical layer holds its one
    set's frontier, its first r tied nodes already split, and no ties."""

    __slots__ = ()

    @property
    def n(self) -> int:
        """Its sets' size: the frontier's nodes and the tied nodes each splits."""
        return len(self.nodes) + len(self.choices[0])

    def sets(self) -> list[QuantizerSet]:
        """The layer's sets, of the walk's own nodes and halves, all of one
        Fraction V built from the pair."""
        v = Fraction(*self.v)
        return [QuantizerSet(_splice(self.nodes, self.tied, chosen, self.halves), v)
                for chosen in self.choices]

    def spliced(self, form: Callable[[Node], object]) -> Iterator[tuple]:
        """Each set as its nodes' forms, each walked node and half formed once."""
        forms = list(map(form, self.nodes))
        halves = [tuple(map(form, pair)) for pair in self.halves]
        return (_splice(forms, self.tied, chosen, halves) for chosen in self.choices)


def _built(items: Iterable[tuple], every: bool) -> Iterator[Layer]:
    """The one layer builder: a ``Layer`` per ``_layers`` item, one walk per
    block, with every r-choice of its tied nodes or, not ``every``, the
    canonical set alone, spliced from the first r.

    Choices come in signature order with no sort: two sets first differ at
    the first tied node one splits and the other keeps, and a kept cylinder w
    sorts before its first child w.1, whose word w prefixes, a kept tail after
    its first child, a cylinder ("closed" < "tail").  So a tail block's
    choices come in ``combinations`` order, and a cylinder block's in reverse.
    """
    current = None
    for _, block, r, v in items:
        if block is not current:
            current, (nodes, tied), halves = block, _walk(block), []
        wanted = tied[len(halves):len(tied) if every else r]
        halves += map(children if every else _split, (nodes[slot] for slot in wanted))
        if every:
            choices = list(combinations(range(len(tied)), r))
            if block.kind == CLOSED:
                choices.reverse()
            yield Layer(v, nodes, tied, halves, choices)
        else:  # no tied node is left for a form to format and not print
            yield Layer(v, _splice(nodes, tied, range(r), halves), (), (), [()])


def canonical_layers(n_lo: int, n_hi: int) -> Iterator[Layer]:
    """The layers of sizes n_lo .. n_hi with the canonical set alone, which
    splits the first r tied nodes: ties split at the leftmost region."""
    return _built(_layers(n_lo, n_hi), every=False)


def canonical_sets(n_lo: int, n_hi: int) -> Iterator[QuantizerSet]:
    """The canonical optimal sets of sizes n_lo .. n_hi, one walk per block."""
    return (q for layer in canonical_layers(n_lo, n_hi) for q in layer.sets())


def optimal_set(n: int) -> QuantizerSet:
    """One canonical optimal n-point set: ``canonical_sets``' one-size window."""
    return next(canonical_sets(n, n))


def quantization_error(n: int) -> Fraction:
    """Exact minimal mean squared error over n-point sets."""
    return Fraction(*next(_layers(n, n))[3])


def _binomial_at_most(m: int, r: int, log_limit: float,
                      limit: Callable[[], int]) -> int | None:
    """The one size rule: binomial(m, r) if at most the limit, else None,
    from the limit's natural log (or up to 0.1 above it) and its maker.

    With k = min(r, m - r), binomial(m, k) >= 2^k settles every k past log2
    of the limit, in floats safely, as past k = 1 it is >= 1.5 * 2^k.
    Below that, Stirling's series puts ln binomial(m, k) within 1/6 of
    k ln(m/k) + (m - k) ln(m/(m - k)) + ln(m / (2 pi k (m - k))) / 2, with
    no float overflow; only an estimate within 0.23 of the log makes the
    limit to compare, so the count is built once at most and never has more
    than one bit beyond the limit."""
    k = min(r, m - r)
    if k > log_limit / log(2):
        return None
    estimate = 0.0  # ln binomial(m, 0)
    if k:
        x = k / m  # (m - k) ln(m/(m - k)) is k (1 - x) ln(1/(1 - x)) / x, or k at x = 0
        other = k if x == 0 else -k * (1 - x) * log1p(-x) / x
        estimate = k * (log(m) - log(k)) + other - (log(2 * pi * k) + log1p(-x)) / 2
    if estimate > log_limit + 0.23:
        return None
    count = comb(m, k)
    return count if estimate < log_limit - 0.23 or count <= limit() else None


def _within_cap(n_lo: int, n_hi: int,
                cap: int) -> list[tuple[int, Block, int, tuple[int, int]]]:
    """The one cap rule: the ``_layers`` items of sizes n_lo .. n_hi, when
    their optimal sets number at most ``cap`` in all.  The size rule takes
    each layer's binomial(m, r) from what is left of the cap; CapExceeded
    names the first layer past it, and a cap of any length (``Decimal``),
    before any set is built."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    items, left = [], cap
    for item in _layers(n_lo, n_hi):
        n, block, r, _ = item
        if (size := _binomial_at_most(block.m, r, log(left) if left else -inf,
                                      lambda: left)) is None:
            raise CapExceeded(f"optimal sets exceed cap {Decimal(cap)} at n={n}")
        left -= size
        items.append(item)
    return items


def optimal_layers(n_lo: int, n_hi: int, cap: int = DEFAULT_CAP) -> list[Layer]:
    """The layers of sizes n_lo .. n_hi with every optimal set.  Raises
    CapExceeded past ``cap`` sets in all, by the cap rule, before any walk."""
    return list(_built(_within_cap(n_lo, n_hi, cap), every=True))


def enumerate_optimal_sets(n: int, cap: int = DEFAULT_CAP) -> list[QuantizerSet]:
    """All optimal n-point sets, in signature order: the one-layer window of
    ``optimal_layers``, so the cost follows the sets of layer n alone."""
    [layer] = optimal_layers(n, n, cap)
    return layer.sets()


def count_optimal_sets(n: int) -> int:
    """Number of distinct optimal n-point sets: binomial(m, r) of its block.
    The size rule refuses one of more than COUNT_DIGITS digits, at any n,
    making the limit 10^COUNT_DIGITS - 1 only for a count near it."""
    _, block, r, _ = next(_layers(n, n))
    if (count := _binomial_at_most(block.m, r, COUNT_DIGITS * log(10),
                                   lambda: 10**COUNT_DIGITS - 1)) is None:
        raise CapExceeded(
            f"number of optimal sets has more than {COUNT_DIGITS} digits at n={n}")
    return count


def vertex_label(n: int, i: int) -> str:
    """The name a_{n,i} of the i-th optimal n-set in canonical order."""
    return f"a_{{{n},{i}}}"


class TransitionGraph(namedtuple("TransitionGraph", "layers edges")):
    """Layered DAG of optimal sets: edges are single-split derivations.

    ``layers[k]`` is the ``Layer`` of size n_lo + k, its sets in canonical
    order; ``vertex_label(n, i)`` names the i-th set of layer n, and the
    edges are pairs of those names, by ``transition_graph``'s edge rule.
    """

    __slots__ = ()

    @property
    def n_lo(self) -> int:
        """The first layer's size, the size of its sets."""
        return self.layers[0].n


def transition_graph(n_lo: int, n_hi: int, cap: int = DEFAULT_CAP) -> TransitionGraph:
    """Build the optimal-set transition DAG for sizes n_lo .. n_hi.

    The one edge rule: an r-choice of a block's tied nodes leads to the
    (r+1)-choices of the block that contain it, where a layer with r = 1
    takes the one set before it as the empty choice.  Raises CapExceeded
    past ``cap`` sets in all, by the cap rule ``_within_cap``.
    """
    layers = optimal_layers(n_lo, n_hi, cap)
    edges: list[tuple[str, str]] = []
    previous = {}
    for layer in layers:
        n = layer.n
        order = {chosen: index for index, chosen in enumerate(layer.choices, start=1)}
        if len(layer.choices[0]) == 1 and previous:  # the one set before chose none
            previous = {(): 1}
        for chosen, src in previous.items():
            targets = sorted(order[tuple(sorted((*chosen, x)))]
                             for x in range(len(layer.tied)) if x not in chosen)
            edges.extend((vertex_label(n - 1, src), vertex_label(n, dst))
                         for dst in targets)
        previous = order
    return TransitionGraph(tuple(layers), tuple(edges))


def transition_graph_dot(graph: TransitionGraph) -> Iterator[str]:
    """The graph as DOT lines, layers flowing left to right."""
    yield from ("digraph optimal_sets {\n", "  rankdir=LR;\n", "  node [shape=box];\n")
    for layer in graph.layers:
        names = " ".join(f'"{vertex_label(layer.n, i)}";'
                         for i in range(1, len(layer.choices) + 1))
        yield f"  {{ rank=same; {names} }}\n"
    for src, dst in graph.edges:
        yield f'  "{src}" -> "{dst}";\n'
    yield "}\n"


class StructureReport(namedtuple("StructureReport", "failures")):
    """Outcome of the structural audit of a quantizer set: the failed
    checks' messages, in the audit's order; it passed when there are none."""

    __slots__ = ()

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
    top = max((a for _, _, a, _, _ in nodes), default=0)
    lefts, rights, points = [], [], []
    mass_sum = mean_sum = error_sum = 0
    for kind, m, a, dn, _ in nodes:
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
    if any(not (lo < next_lo and hi <= next_lo)
           for lo, hi, next_lo in zip(lefts, rights, lefts[1:])):
        failures.append("regions out of order or overlapping")
    if any(not x < y for x, y in zip(points, points[1:])):
        failures.append("centroids not strictly increasing")
    for (kind, _, _, _, text), lo, hi, x in zip(nodes, lefts, rights, points):
        if not lo <= x <= hi:
            failures.append(f"centroid outside region ({kind} {text!r})")
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
    """The centroid as "num/den", the string ``str(centroid_of(node))`` gives."""
    kind, _, a, dn, _ = node
    return "%d/%d" % _centroid_terms(kind, a, dn)


def _error_terms(m: int, a: int) -> tuple[int, int]:
    """The error V * M / (9 * 8^a) = 32 * M / (3577 * 8^a) in lowest terms.

    M is odd and prime to 3577 = 7^2 * 73, so only 2^min(5, 3a) cancels.
    """
    shift = min(5, 3 * a)
    return 32 * m >> shift, 3577 << (3 * a - shift)


@functools.cache
def _error_text(m: int, a: int) -> str:
    """The error as "num/den", made once per (M, a): a node's (M, a) is its
    block's, so a process keeps one text per block it prints nodes of."""
    return "%d/%d" % _error_terms(m, a)


# A node's JSON object and CSV row are templates over its fields, and a set's and a
# tree vertex's JSON objects over their layer's n and V texts and their nodes' texts,
# exact as a word is digits and dots, a kind "closed" or "tail", a rational "num/den"
# and a label "a_{n,i}": no field holds a character JSON or CSV would escape, and
# a float hint prints as ``measure.float_json``, the repr that both print.  A list
# inside a template, a set's nodes, is joined by json's ", ".
NODE_KEYS = ("word", "kind", "centroid", "centroid_float", "error")
NODE_JSON = ('{"word": "%s", "kind": "%s", "centroid": "%s", '
             '"centroid_float": %s, "error": "%s"}')
NODE_CSV = '"%s","%s","%s",%s,"%s"'
SET_JSON = '{"n": %d, "V": "%s", "V_float": %s, "nodes": [%s]}'
VERTEX_JSON = ('{"label": "%s", "n": %d, "index": %d, "V": "%s", "V_float": %s, '
               '"nodes": [%s]}')


def node_fields(node: Node) -> tuple[str, str, str, str, str]:
    """The one formatting rule for a node: its fields' texts in ``NODE_KEYS``
    order.

    The word's text is the node's own.  The rationals are formatted from the
    integers with their common factor known in advance, and equal the
    strings of the reduced Fractions; the centroid's hint is
    ``measure.float_json`` of the same correctly rounded integer division
    that ``float(Fraction)`` performs: the text that JSON and CSV print of
    ``measure.float_val`` of the centroid.
    """
    kind, m, a, dn, text = node
    num, den = _centroid_terms(kind, a, dn)
    return text, kind, f"{num}/{den}", measure.float_json(num / den), _error_text(m, a)


def node_name(node: Node) -> str:
    """A node's name "kind:word", as the text and tree forms print it."""
    kind, _, _, _, text = node
    return f"{kind}:{text}"


def quantizer_set_to_dict(q: QuantizerSet) -> dict:
    """A quantizer set as a dict of n, V, V's float hint and its nodes' fields;
    no command prints it, and ``quantizer_sets_json`` is tested against it."""
    return {
        "n": q.n,
        "V": str(q.v),
        "V_float": measure.float_val(q.v),
        "nodes": [dict(zip(NODE_KEYS, (text, kind, centroid, float(hint), error)))
                  for text, kind, centroid, hint, error in map(node_fields, q.nodes)],
    }


def json_list(items: Iterable[str]) -> Iterator[str]:
    """The one writer of a streamed JSON list, in ``json.dumps``' form, of
    items that are JSON text: "[", the items with a ", " piece between each
    two, and "]".  No item is copied to join it to a separator."""
    items = iter(items)
    yield "["
    yield from islice(items, 1)
    for item in items:
        yield ", "
        yield item
    yield "]"


def _v_texts(layer: Layer) -> tuple[int, str, str]:
    """A layer's n and V's text and float hint, made once for all its sets from
    the reduced pair: ``str`` of the Fraction, and ``measure.float_json`` of
    the division that ``float`` of the Fraction performs."""
    num, den = layer.v
    return layer.n, f"{num}/{den}", measure.float_json(num / den)


def quantizer_sets_json(layers: Iterable[Layer]) -> Iterator[str]:
    """The one writer of a set's JSON: ``json.dumps`` of each set's
    ``quantizer_set_to_dict``, one text per set, layer by layer, for
    ``json_list`` to frame; each walked node's ``NODE_JSON`` text is made once."""
    return (SET_JSON % (n, v, hint, ", ".join(texts))
            for layer in layers for n, v, hint in [_v_texts(layer)]
            for texts in layer.spliced(lambda node: NODE_JSON % node_fields(node)))


def transition_graph_json(graph: TransitionGraph) -> Iterator[str]:
    """The graph's JSON in pieces: its size range, a ``VERTEX_JSON`` per
    set and a label pair per edge; each walked node's name is quoted once."""
    yield (f'{{"n_lo": {graph.n_lo}, "n_hi": {graph.layers[-1].n}, '
           '"vertices": ')
    yield from json_list(
        VERTEX_JSON % (vertex_label(n, index), n, index, v, hint, ", ".join(names))
        for layer in graph.layers for n, v, hint in [_v_texts(layer)]
        for index, names in enumerate(
            layer.spliced(lambda node: f'"{node_name(node)}"'), start=1))
    yield ', "edges": '
    yield from json_list(f'["{src}", "{dst}"]' for src, dst in graph.edges)
    yield "}"

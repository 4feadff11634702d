import csv
import functools
import io
import json
import math
import random
import re
from bisect import bisect_left
from fractions import Fraction as F
from itertools import accumulate, chain, islice
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from bfs_reference import REFERENCE_N, reference_graph, reference_sets
from exact_reference import (
    block_table_reference,
    branch_decomposition,
    countdown_walk,
    fraction_audit,
    make_node,
    mass,
    quantizer_set_from_dict,
    right,
)
from ifsquant import engine, golden, measure
from ifsquant.engine import (
    DEFAULT_CAP,
    CapExceeded,
    GenerationState,
    QuantizerSet,
    centroid_of,
    children,
    count_optimal_sets,
    enumerate_optimal_sets,
    error_of,
    left_of,
    optimal_set,
    quantization_error,
    quantizer_set_to_dict,
    root_node,
    transition_graph,
    transition_graph_dot,
    validate_structure,
    word_of,
)
from ifsquant.measure import CLOSED, TAIL, Region, closed, node_error, tail


def random_region(rng, max_len=8, max_letter=10):
    kind = rng.choice([CLOSED, TAIL])
    min_len = 1 if kind == TAIL else 0
    length = rng.randint(min_len, max_len)
    return Region(kind, tuple(rng.randint(1, max_letter) for _ in range(length)))


def identity_set(q: QuantizerSet) -> frozenset:
    return frozenset(q.signature())


def _region(node):
    return Region(node[0], word_of(node))


def _fields(node):
    kind, m, a, dn, _ = node
    return (kind, word_of(node), m, a, dn, error_of(node), centroid_of(node))


_FIELDS = ("kind", "m", "a", "dn", "text")  # a node's fields, in order


def _with(node, **fields):
    """The node with the named fields replaced."""
    return tuple(fields.get(name, value) for name, value in zip(_FIELDS, node))


def test_children_of_root():
    first, second = children(root_node())
    assert _region(first) == closed(1)
    assert _region(second) == tail(1)
    assert (centroid_of(first), centroid_of(second)) == (F(1, 7), F(5, 7))


def test_children_of_tail():
    first, second = children(make_node(tail(1)))
    assert (_region(first), _region(second)) == (closed(2), tail(2))
    assert (centroid_of(first), centroid_of(second)) == (F(4, 7), F(6, 7))
    first, second = children(make_node(tail(2, 1)))
    assert (_region(first), _region(second)) == (closed(2, 2), tail(2, 2))


def _assert_matches_measure(node):
    region = _region(node)
    _, _, a, dn, _ = node
    scale = F(1, 1 << a)
    assert scale == measure.scale_word(region.word)
    assert dn * scale == measure.apply_map(region.word, F(0))
    assert error_of(node) == measure.node_error(region)
    assert centroid_of(node) == measure.centroid(region)
    assert (left_of(node), right(node)) == measure.region_interval(region)
    assert mass(node) == measure.region_mass(region)


def test_children_match_measure_formulas():
    # make_node (from the word) and children() build the same integer
    # record, so both are checked against the from-scratch formulas of
    # ``measure``.
    _assert_matches_measure(root_node())
    rng = random.Random(5)
    for _ in range(300):
        node = make_node(random_region(rng))
        _assert_matches_measure(node)
        for child in children(node):
            _assert_matches_measure(child)
            assert error_of(child) < error_of(node)


@pytest.mark.parametrize("n", [1, 2, 77, 1000])
def test_node_identity_is_region_identity(n):
    # A node built from its region alone equals the walk's node, field by
    # field, and hashes alike.
    nodes = optimal_set(n).nodes
    for node in nodes:
        twin = make_node(_region(node))
        assert twin == node and hash(twin) == hash(node)
    assert len(set(nodes)) == n
    assert all(x != y for x, y in zip(nodes, nodes[1:]))


def test_child_error_ratios_exact():
    rng = random.Random(6)
    for _ in range(300):
        node = make_node(random_region(rng))
        first, second = children(node)
        if node[0] == CLOSED:
            assert error_of(first) == error_of(node) * F(1, 64)
            assert error_of(second) == error_of(node) * F(43, 192)
        else:
            assert error_of(first) == error_of(node) * F(9, 344)
            assert error_of(second) == error_of(node) * F(1, 8)


def test_lean_state_matches_rich_children():
    # The generation state keeps its frontier as integer heap entries and
    # split() returns children(parent).  The frontier the split leaves must
    # hold exactly those two children in place of the parent, field by field.
    state = GenerationState()
    for _ in range(150):
        parent, first, second = state.split()
        frontier = {node: node for node in state.nodes()}
        assert parent not in frontier
        for child in (first, second):
            assert _fields(frontier[child]) == _fields(child)


@pytest.mark.parametrize("n", sorted(golden.GOLDEN_V))
def test_quantization_error_goldens(n):
    assert quantization_error(n) == golden.GOLDEN_V[n]


@pytest.mark.parametrize("n", sorted(golden.GOLDEN_POINTS))
def test_optimal_point_sets(n):
    assert list(optimal_set(n).points()) == golden.GOLDEN_POINTS[n]


def test_optimal_set_rejects_bad_n():
    with pytest.raises(ValueError):
        optimal_set(0)
    with pytest.raises(ValueError):
        quantization_error(0)


def test_six_point_listing():
    assert identity_set(optimal_set(6)) == golden.as_identity_set(golden.LISTING_6)


def test_fifteen_point_listing():
    assert identity_set(optimal_set(15)) == golden.as_identity_set(
        golden.LISTING_15
    )


def test_enumerate_small_sets():
    sets = enumerate_optimal_sets(2)
    assert len(sets) == 1
    assert identity_set(sets[0]) == {(CLOSED, (1,)), (TAIL, (1,))}


def test_enumerate_sixteen_matches_listings():
    sets = enumerate_optimal_sets(16)
    assert {identity_set(q) for q in sets} == {
        golden.as_identity_set(s) for s in golden.LISTINGS_16
    }
    assert len({q.v for q in sets}) == 1
    assert sets[0].v == golden.GOLDEN_V[16]


def test_enumerate_eighteen_matches_listing():
    sets = enumerate_optimal_sets(18)
    assert len(sets) == 1
    assert identity_set(sets[0]) == golden.as_identity_set(golden.LISTING_18)


def test_enumerate_cap_reports_layer():
    with pytest.raises(CapExceeded, match="n=16"):
        enumerate_optimal_sets(16, cap=2)
    # Only layer n counts: layers 68 .. 76 hold up to 3432 sets, 77 holds 14.
    with pytest.raises(CapExceeded, match="n=71"):
        enumerate_optimal_sets(71, cap=1000)
    assert len(enumerate_optimal_sets(77, cap=1000)) == 14
    with pytest.raises(ValueError, match="cap must be >= 1, got 0"):
        enumerate_optimal_sets(2, cap=0)


def test_cap_rule_agrees_with_the_binomial(monkeypatch):
    # One fake layer stands for a tie block of m nodes with r of them split.
    # Where 2^k passes the cap, k = min(r, m - r), the rule builds no count,
    # so C(10^400, 10^400 // 3) never is; otherwise it builds at most one
    # binomial, of fewer factors than the cap has bits and at most one bit
    # longer than the cap, so C(10^400, 2000), about 2.6*10^6 bits, is not
    # built to refuse it under the cap 10^1000 either.
    huge = 10**400
    cases = [(m, r) for m in range(40) for r in range(m + 1)]
    cases += [(huge, huge // 3), (huge, 2000), (huge, 10), (huge, 1)]
    built = []
    monkeypatch.setattr(engine, "comb",
                        lambda m, k: built.append((k, math.comb(m, k))) or built[-1][1])
    for m, r in cases:
        item = (7, engine.Block(TAIL, 43, 0, m), r, (0, 1))
        monkeypatch.setattr(engine, "_layers", lambda n_lo, n_hi: iter([item]))
        size = math.comb(m, r) if r < 1000 else None  # None: past every cap
        caps = {1, 2, 7, 100, 10**4, 10**9, 10**1000}
        if size is not None:
            caps |= {size - 1, size, size + 1}
        for cap in caps:
            if cap < 1:
                with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}$"):
                    engine._within_cap(7, 7, cap)
            elif size is None or size > cap:
                with pytest.raises(CapExceeded,
                                   match=f"^optimal sets exceed cap {cap} at n=7$"):
                    engine._within_cap(7, 7, cap)
            else:
                assert engine._within_cap(7, 7, cap) == [item], (m, r, cap)
            assert all(k < cap.bit_length() for k, _ in built), (m, r, cap)
            assert all(count.bit_length() <= cap.bit_length() + 1
                       for _, count in built), (m, r, cap)
            assert len(built) <= 1
            built.clear()


def test_cap_rule_names_the_layer_that_passes_it():
    # Every window inside 1..90, with caps at its total and one either
    # side, and one set short of the total up to its middle layer.
    sizes = [math.comb(block.m, r) for _, block, r, _ in engine._layers(1, 90)]
    for n_lo in range(1, 91):
        for n_hi in range(n_lo, 91):
            window = sizes[n_lo - 1:n_hi]
            total = sum(window)
            middle = sum(window[:len(window) // 2 + 1]) - 1
            for cap in {total - 1, total, total + 1, middle}:
                passing = [n for n, running in enumerate(accumulate(window), start=n_lo)
                           if running > cap]
                if cap < 1:
                    with pytest.raises(ValueError):
                        engine._within_cap(n_lo, n_hi, cap)
                elif passing:
                    with pytest.raises(CapExceeded, match=f" at n={passing[0]}$"):
                        engine._within_cap(n_lo, n_hi, cap)
                else:
                    assert engine._within_cap(n_lo, n_hi, cap) \
                        == list(engine._layers(n_lo, n_hi)), (n_lo, n_hi, cap)


def test_size_rule_refuses_a_deep_layer_unbuilt(monkeypatch):
    # The n = 10^100 block holds about 3.4*10^97 tied tails; its layer with
    # r = 60000 holds some 5.6*10^6 digits of sets.  Both the cap and the
    # count refuse it from the size rule's estimate, with no binomial built:
    # building C(m, 60000) to refuse the cap 10^20000 once took 8.85 s.
    _, block, r, _ = next(engine._layers(10**100, 10**100))
    n = 10**100 - r + 60000
    assert min(60000, block.m - 60000) == 60000

    def no_binomial(m, k):
        raise AssertionError(f"binomial of {k} factors built")

    monkeypatch.setattr(engine, "comb", no_binomial)
    with pytest.raises(CapExceeded, match=f" at n={n}$"):
        engine._within_cap(n, n, 10**20000)
    with pytest.raises(CapExceeded,
                       match=f"^number of optimal sets has more than 100000 digits at n={n}$"):
        count_optimal_sets(n)


def test_cap_rule_names_a_cap_of_any_length():
    # 5001 digits: past the interpreter's default int-to-str limit of 4300.
    with pytest.raises(CapExceeded) as refusal:
        engine._within_cap(10**6, 10**6, 10**5000)
    assert str(refusal.value) == f"optimal sets exceed cap 1{'0' * 5000} at n=1000000"


def test_enumeration_and_graph_share_the_cap_rule(monkeypatch):
    calls = []
    within_cap = engine._within_cap
    monkeypatch.setattr(engine, "_within_cap",
                        lambda *args: calls.append(args) or within_cap(*args))
    assert len(enumerate_optimal_sets(16, cap=3)) == 3
    assert len(transition_graph(18, 21, cap=100).layers) == 4
    assert calls == [(16, 16, 3), (18, 21, 100)]


def test_count_refuses_past_the_digit_limit():
    # C(m, r) has about 2.9*10^5, 1.1*10^7 and 10^10 digits here.
    for n in (10**7, 10**9, 10**12):
        with pytest.raises(CapExceeded, match=f"n={n}"):
            count_optimal_sets(n)


@pytest.mark.parametrize("m, r, digits", [
    (10**200, 10**200 // 3, None),
    (10**400, 10**400 // 3, None),
    (10**400, 300, None),  # Stirling's estimate: about 1.2*10^5 digits
    (10**400, 250, 99_508),
    (10**400, 1, 401),
], ids=["10^200-third", "10^400-third", "10^400-300", "10^400-250", "10^400-1"])
def test_count_digit_check_holds_at_any_block_size(monkeypatch, m, r, digits):
    # 2*pi*k*(m - k) has no float past m = 10^154, nor m itself past 10^308;
    # one fake block stands for a layer that no quick walk reaches.
    monkeypatch.setattr(engine, "_layers", lambda n_lo, n_hi: iter(
        [(n_lo, engine.Block(TAIL, 43, 0, m), r, (0, 1))]))
    if digits is None:
        with pytest.raises(CapExceeded, match="digits at n=7$"):
            count_optimal_sets(7)
    else:
        count = count_optimal_sets(7)
        assert count == math.comb(m, r) and 10**(digits - 1) <= count < 10**digits


@pytest.mark.parametrize("limit", [2, 3, 5, 10, 20, 40])
def test_count_digit_limit_is_exact(monkeypatch, limit):
    # With a small limit, many counts of n <= 3000 lie within a factor 1.26
    # of 10^limit, where Stirling's estimate leaves the decision to the count.
    monkeypatch.setattr(engine, "COUNT_DIGITS", limit)
    near = 0
    for n, block, r, _ in engine._layers(1, 3000):
        size = math.comb(block.m, r)
        near += abs(math.log10(size) - limit) < 0.1
        if len(str(size)) > limit:
            with pytest.raises(CapExceeded, match=f"n={n}"):
                count_optimal_sets(n)
        else:
            assert count_optimal_sets(n) == size, n
    assert near


@pytest.mark.parametrize("limit", [2, 3, 5, 10, 20, 40])
def test_count_builds_its_binomial_once(monkeypatch, limit):
    # Near 10^limit the count is built for the comparison, and the same
    # one is returned: no call builds a binomial twice.
    monkeypatch.setattr(engine, "COUNT_DIGITS", limit)
    built = []
    monkeypatch.setattr(engine, "comb", lambda m, k: built.append(m) or math.comb(m, k))
    for n in range(1, 3001):
        built.clear()
        try:
            count_optimal_sets(n)
        except CapExceeded:
            pass
        assert len(built) <= 1, n


@pytest.mark.parametrize("n, expected", sorted(golden.GOLDEN_COUNTS.items()))
def test_count_goldens(n, expected):
    assert count_optimal_sets(n) == expected


def test_count_matches_enumeration():
    # The breadth-first reference assumes no tie structure, so this checks
    # the binomial count rather than the block description against itself.
    for n in range(1, 31):
        sets = reference_sets(n)
        assert count_optimal_sets(n) == len(sets)
        assert len({q.v for q in sets}) == 1


@pytest.mark.parametrize("n", range(1, REFERENCE_N + 1))
def test_enumeration_matches_breadth_first_reference(n):
    got = enumerate_optimal_sets(n)
    expected = reference_sets(n)
    assert [q.signature() for q in got] == [q.signature() for q in expected]
    for q, ref in zip(got, expected):
        assert (q.n, q.v) == (ref.n, ref.v)
        assert list(map(_fields, q.nodes)) == list(map(_fields, ref.nodes))


def test_layer_sets_come_in_signature_order():
    # The order is fixed by rule, with no sort: checked on every layer
    # n <= 1000 of 2 to 500 sets, far past the reference's n <= 67.  Each
    # walked node's identity is read once per layer and spliced into every
    # set's signature; on the first layer of each block kind the spliced
    # signatures are the sets' own.
    layers = {CLOSED: 0, TAIL: 0}
    for n, block, r, _ in engine._layers(1, 1000):
        if 2 <= math.comb(block.m, r) <= 500:
            [layer] = engine.optimal_layers(n, n)
            signatures = list(layer.spliced(lambda node: (node[0], engine.word_of(node))))
            if not layers[block.kind]:
                assert signatures == [q.signature() for q in layer.sets()], n
            layers[block.kind] += 1
            assert all(x < y for x, y in zip(signatures, signatures[1:])), n
    assert layers == {CLOSED: 97, TAIL: 98}


# Every window of one to five layers inside 1..30, so windows that start on a
# block's first layer, end on a block's closing layer and cross one-node
# blocks, and the tie-heavy block 60..67.
@pytest.mark.parametrize("n_lo, n_hi", [
    *((n_lo, n_hi) for n_lo in range(1, 31) for n_hi in range(n_lo, min(n_lo + 5, 31))),
    (60, 67),
])
def test_transition_graph_matches_breadth_first_reference(n_lo, n_hi):
    graph = transition_graph(n_lo, n_hi)
    assert (tuple(tuple(layer.sets()) for layer in graph.layers), graph.edges) \
        == reference_graph(n_lo, n_hi)


def test_transition_graph_chain():
    graph = transition_graph(2, 3, cap=10)
    assert [len(graph.layers[n - graph.n_lo].choices) for n in (2, 3)] == [1, 1]
    assert graph.edges == (("a_{2,1}", "a_{3,1}"),)


def test_transition_graph_layers_15_18():
    graph = transition_graph(15, 18, cap=100)
    assert [len(graph.layers[n - graph.n_lo].choices)
            for n in range(15, 19)] == [1, 3, 3, 1]


def test_transition_graph_18_21_pattern():
    assert transition_graph(18, 21).edges == golden.EDGES_18_21


def test_transition_graph_cap():
    with pytest.raises(CapExceeded, match="n=16"):
        transition_graph(15, 18, cap=3)
    # 8 sets in all and at most 3 in a layer: the window total passes the
    # cap at n=18.
    with pytest.raises(CapExceeded, match="n=18"):
        transition_graph(15, 18, cap=7)
    with pytest.raises(ValueError, match="cap must be >= 1, got 0"):
        transition_graph(2, 3, cap=0)


def test_transition_graph_dot_layout():
    text = "".join(transition_graph_dot(transition_graph(2, 3, cap=10)))
    assert "rankdir=LR" in text
    assert '"a_{2,1}" -> "a_{3,1}";' in text


def test_validate_structure_passes_for_optimal_sets():
    for n in (1, 2, 3, 10, 100):
        report = validate_structure(optimal_set(n))
        assert report.ok, report.failures


def test_validate_structure_catches_forced_centroid(monkeypatch):
    # The offset table places each region kind in its map's unit interval;
    # moving the cylinder centroid to S_w(8/7) puts the root's outside [0, 1].
    monkeypatch.setitem(engine._OFFSETS, CLOSED, (0, 8, 1))
    node = root_node()
    broken = QuantizerSet((node,), error_of(node))
    report = validate_structure(broken)
    assert not report.ok
    assert any("centroid outside region" in f for f in report.failures)
    assert report == fraction_audit(broken)


def _replaced(q, i, **fields):
    nodes = list(q.nodes)
    nodes[i] = _with(nodes[i], **fields)
    return QuantizerSet(tuple(nodes), q.v)


def _swapped(q, i, j):
    nodes = list(q.nodes)
    nodes[i], nodes[j] = nodes[j], nodes[i]
    return QuantizerSet(tuple(nodes), q.v)


_ORDER = "regions out of order or overlapping"
_INCREASING = "centroids not strictly increasing"
_VORONOI = "voronoi midpoint outside the region gap"
_MASS = "masses do not sum to 1"
_MEAN = "mass-weighted centroid differs from the global mean"
_ERROR = "total error differs from the node error sum"


@pytest.mark.parametrize("n, tamper, expected", [
    # A set's size is its node count, so no size check refuses an empty
    # set: its masses and mean do, as its error 0 is right.
    (1, lambda q: QuantizerSet((), F(0)), (_MASS, _MEAN)),
    (3, lambda q: QuantizerSet(q.nodes[1:], q.v), (_MASS, _MEAN, _ERROR)),
    (3, lambda q: QuantizerSet(q.nodes[::2], q.v), (_MASS, _MEAN, _ERROR)),
    (3, lambda q: _swapped(q, 0, 1), (_ORDER, _INCREASING, _VORONOI)),
    # optimal_set(2) is cylinder 1 and the tail of 1; dn = 1 moves the
    # cylinder onto [1/4, 1/2], so the regions stay in order, but the
    # midpoint of its centroid 11/28 and the tail's 5/7 passes 1/2.
    (2, lambda q: _replaced(q, 0, dn=1), (_VORONOI, _MEAN)),
    # a = 4, dn = 2 shrinks the tail onto [1/4, 3/8] with centroid 17/56:
    # the midpoint with the cylinder's 1/7 falls below the cylinder's 1/4.
    (2, lambda q: _replaced(q, 1, a=4, dn=2), (_VORONOI, _MASS, _MEAN, _ERROR)),
    (3, lambda q: _replaced(q, 1, dn=3), (_MEAN,)),
    # The tail of 2 has M = 43 * 3: M = 43 also reads a third of its mass.
    (3, lambda q: _replaced(q, 2, m=43), (_MASS, _MEAN, _ERROR)),
    (3, lambda q: QuantizerSet(q.nodes, q.v / 2), (_ERROR,)),
], ids=["empty", "dropped", "dropped-n", "swapped", "moved-right", "moved-left", "dn",
        "m", "v"])
def test_validate_structure_catches_each_tampering(n, tamper, expected):
    # optimal_set(3) is cylinder 1, cylinder 2 and the tail of 2.
    broken = tamper(optimal_set(n))
    report = validate_structure(broken)
    assert report.failures == expected
    assert not report.ok
    assert report == fraction_audit(broken)


def test_validate_structure_catches_wrong_total():
    q = optimal_set(3)
    broken = QuantizerSet(q.nodes, q.v + 1)
    report = validate_structure(broken)
    assert not report.ok
    assert any("total error" in f for f in report.failures)


_optimal = functools.cache(optimal_set)


@st.composite
def _audited_sets(draw):
    """An optimal n-set, n <= 2000, as it is or with one tampering."""
    q = _optimal(draw(st.integers(1, 2000)))
    nodes, n, v = list(q.nodes), q.n, q.v
    i = draw(st.integers(0, n - 1))
    tamper = draw(st.sampled_from(["none", "swap", "drop", "node", "v"]))
    if tamper == "swap":
        j = draw(st.integers(0, n - 1))
        nodes[i], nodes[j] = nodes[j], nodes[i]
    elif tamper == "drop":
        del nodes[i]
    elif tamper == "node":
        node = nodes[i]
        kind, m, a, dn, _ = node
        fields = {"m": m + draw(st.integers(-2, 2)),
                  "a": max(0, a + draw(st.integers(-2, 2))),
                  "dn": dn + draw(st.integers(-3, 3))}
        if kind == TAIL and draw(st.booleans()):
            fields["kind"] = CLOSED
        nodes[i] = _with(node, **draw(st.sampled_from(
            [{key: value} for key, value in fields.items()])))
    elif tamper == "v":
        v += F(draw(st.integers(-1, 1)), 3577 << 3 * draw(st.integers(0, 40)))
    return QuantizerSet(tuple(nodes), v)


@settings(max_examples=60, deadline=None)
@given(_audited_sets())
def test_integer_audit_matches_fraction_audit(q):
    assert validate_structure(q) == fraction_audit(q)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2000))
def test_serialisation_matches_fraction_formatting(n):
    # The node strings come from the integers with the common factor known
    # in advance; they must be the reduced Fractions' strings, and the
    # hint the repr of the Fraction's float rounded the same way.  No string
    # field holds a character that JSON or CSV would escape, so the templates
    # are what json and csv write of the fields with the hint as a float;
    # random regions, with letters up to 10, bring words of two-digit letters.
    rng = random.Random(n)
    for node in (*_optimal(n).nodes, *(make_node(random_region(rng)) for _ in range(50))):
        fields = engine.node_fields(node)
        word, kind, centroid, centroid_float, error = fields
        assert centroid == engine.centroid_str(node) == str(centroid_of(node))
        assert centroid_float == repr(measure.float_val(centroid_of(node)))
        assert error == str(error_of(node))
        assert all(re.fullmatch("[0-9a-z./]*", field) for field in (word, kind, centroid, error))
        values = (word, kind, centroid, float(centroid_float), error)
        assert engine.NODE_JSON % fields == json.dumps(dict(zip(engine.NODE_KEYS, values)))
        row = io.StringIO()
        csv.writer(row, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC).writerow(values)
        assert engine.NODE_CSV % fields + "\n" == row.getvalue()


def test_recurrence_and_monotonicity():
    state = GenerationState()
    previous = state.v
    for _ in range(300):
        parent, first, second = state.split()
        expected = previous - error_of(parent) + error_of(first) + error_of(second)
        assert state.v == expected
        assert state.v < previous
        previous = state.v


HEAP_N = 10**4


@pytest.fixture(scope="module")
def heap_run():
    """The step-by-step induction to n = HEAP_N and past the block it ends in.

    Returns V_n for n <= HEAP_N, the error of every split in order, and the
    canonical set at the n that ``heap_sample_n`` picks.
    """
    picks = set(heap_sample_n())
    state = GenerationState()
    values, split_errors, sets = [None, state.v], [], {}
    while True:
        if state.n in picks:
            sets[state.n] = state.quantizer()
        if state.n >= HEAP_N and error_of(state.peek()) != split_errors[-1]:
            return values, split_errors, sets
        split_errors.append(error_of(state.split()[0]))
        values.append(state.v)


def block_ends(upper):
    """The sizes below ``upper`` whose layer closes a block (one set)."""
    return [n for n in range(2, upper) if count_optimal_sets(n) == 1]


def heap_sample_n():
    """Seeded sizes up to HEAP_N, n = 1, 2, 60..77, the ends of some blocks,
    and each block end below 500 with its two neighbours."""
    ends = block_ends(HEAP_N)
    edges = [n for end in ends[::len(ends) // 8] for n in (end, end + 1)]
    near = [n for end in block_ends(500) for n in (end - 1, end, end + 1)]
    rng = random.Random(20241018)
    return sorted({1, 2, *range(60, 78), *edges, *near, HEAP_N,
                   *rng.sample(range(3, HEAP_N), 12)})


def test_layers_match_heap_values(heap_run):
    values = heap_run[0]
    # _layers gives V_n in lowest terms, as the heap's Fractions hold it.
    got = [v for _, _, _, v in engine._layers(1, HEAP_N)]
    assert got == [(v.numerator, v.denominator) for v in values[1:HEAP_N + 1]]


def _rise_before(n):
    """The first size of the last row at or before n's row whose top is
    above the row before it: there the stream rescaled its integers."""
    rows = engine._ROWS
    i = bisect_left(rows, n - 1, key=itemgetter(0))
    while rows[i][3] == rows[i - 1][3]:
        i -= 1
    return rows[i - 1][0] + 2


@pytest.mark.parametrize("exponent", [None, 12, 30, 100])
def test_layers_pair_is_the_reduced_row_value(exponent):
    # Every n of 1..3000, or sizes around a rescale below 10^k and from
    # 10^k on.  Each pair is in lowest terms over a divisor of its row's
    # denominator 3577 * 37152 * 8^top, and equals the row's unreduced V_n.
    if exponent is None:
        windows = [(1, 3000)]
    else:
        quantization_error(10**exponent)  # takes the rows to 10^k
        rise = _rise_before(10**exponent)
        windows = [(rise - 100, rise + 100), (10**exponent, 10**exponent + 100)]
    tops = set()
    for n_lo, n_hi in windows:
        for n, block, r, (num, den) in engine._layers(n_lo, n_hi):
            end, dropped, step, top, row_block = engine._ROWS[
                bisect_left(engine._ROWS, n - 1, key=itemgetter(0))]
            assert row_block is block and r == n - 1 - end + block.m
            scale = 37152 << 3 * top
            assert den > 0 and math.gcd(num, den) == 1, n
            assert 3577 * scale % den == 0, n
            assert F(num, den) == F(288 * (scale - dropped - r * step), 3577 * scale), n
            tops.add(top)
    assert len(tops) > 1  # the windows cross a rescale


def test_library_values_stay_fractions():
    # _layers yields integer pairs; every library value of V is a Fraction.
    assert type(quantization_error(71)) is F
    assert type(optimal_set(71).v) is F
    assert {type(q.v) for q in engine.canonical_sets(1, 80)} == {F}
    assert {type(q.v) for q in enumerate_optimal_sets(71)} == {F}
    assert {type(q.v) for layer in transition_graph(60, 67).layers
            for q in layer.sets()} == {F}


def test_counts_match_heap_runs(heap_run):
    # Split n - 1 is at position r of a maximal run of m equal split
    # errors; any r of those m nodes can be the ones split.
    split_errors = heap_run[1]
    assert count_optimal_sets(1) == 1
    start = 0
    for end in range(1, len(split_errors) + 1):
        if end < len(split_errors) and split_errors[end] == split_errors[start]:
            continue
        m = end - start
        for r in range(1, m + 1):
            n = start + r + 1
            if n <= HEAP_N:
                assert count_optimal_sets(n) == math.comb(m, r), n
        start = end


def test_optimal_sets_match_heap(heap_run):
    sets = heap_run[2]
    assert sorted(sets) == heap_sample_n()
    for n, ref in sets.items():
        q = optimal_set(n)
        assert (q.n, q.v) == (ref.n, ref.v)
        assert list(map(_fields, q.nodes)) == list(map(_fields, ref.nodes)), n


def test_canonical_windows_match_heap(heap_run):
    # A window that starts inside a block walks that block once and splits
    # its first r tied nodes: 60..77, and across each block end below 500.
    sets = heap_run[2]
    windows = [(60, 77), *((end - 1, end + 1) for end in block_ends(500))]
    for n_lo, n_hi in windows:
        got = list(engine.canonical_sets(n_lo, n_hi))
        assert [q.n for q in got] == list(range(n_lo, n_hi + 1))
        for q in got:
            ref = sets[q.n]
            assert q.v == ref.v, q.n
            assert list(map(_fields, q.nodes)) == list(map(_fields, ref.nodes)), q.n


def test_canonical_chain_splits_one_node_at_a_time():
    # The paper's induction: each canonical (n+1)-set is the canonical n-set
    # with one node, a tied node of layer n+1's block, replaced by its
    # children, cylinder child first, and V drops by that split's gain.
    chain = engine.canonical_sets(1, 3000)
    blocks = [block for _, block, _, _ in engine._layers(2, 3000)]
    previous = next(chain)
    for q, block in zip(chain, blocks, strict=True):
        old, new = previous.nodes, q.nodes
        i = next(i for i, (a, b) in enumerate(zip(old, new)) if a != b)
        node = old[i]
        assert new == old[:i] + children(node) + old[i + 1:], q.n
        assert node[:3] == (block.kind, block.M, block.a), q.n
        assert q.v == previous.v - error_of(node) + sum(map(error_of, children(node)))
        previous = q
    assert previous.n == 3000


def test_canonical_sets_walk_once_per_block(monkeypatch):
    # So verify's structure sweep over 1..N walks each block once.
    walks = []
    walk = engine._walk
    monkeypatch.setattr(engine, "_walk",
                        lambda block: walks.append(block) or walk(block))
    sets = list(engine.canonical_sets(1, 400))
    blocks = [block for _, block, _, _ in engine._layers(1, 400)]
    assert walks == list(dict.fromkeys(blocks))
    assert sets[-1] == optimal_set(400)
    with pytest.raises(ValueError):
        next(engine.canonical_sets(5, 4))
    # The layers of a transition graph share their block's walk too.
    walks.clear()
    transition_graph(60, 67)
    blocks = [block for _, block, _, _ in engine._layers(60, 67)]
    assert walks == list(dict.fromkeys(blocks)) and len(walks) < len(blocks)


@pytest.mark.parametrize("layers", [
    lambda: engine.optimal_layers(60, 67),
    lambda: engine.canonical_layers(1, 400),
], ids=["every", "canonical"])
def test_sets_hold_their_walks_own_nodes(layers):
    # A set is a splice of its layer's walk: each of its nodes is one of the
    # walked nodes or the tied nodes' children themselves, not a copy.
    for layer in layers():
        own = {id(node) for node in chain(layer.nodes, *layer.halves)}
        for q in layer.sets():
            assert all(id(node) in own for node in q.nodes), layer.n


@pytest.mark.parametrize("layers, n_hi", [
    (lambda: engine.optimal_layers(1, 90, cap=10**5), 90),
    (lambda: engine.canonical_layers(1, 3000), 3000),
], ids=["every", "canonical"])
def test_layer_size_is_derived(layers, n_hi):
    # A layer stores no size: its frontier's nodes and the tied nodes each
    # set splits are the size of every set it holds.
    got = list(layers())
    assert [layer.n for layer in got] == list(range(1, n_hi + 1))
    assert all({q.n for q in layer.sets()} == {layer.n} for layer in got)


def test_optimal_set_is_the_first_choice_of_its_layer():
    # The canonical set splits the leftmost r tied nodes, so it is the first
    # set of a tail block's layer in signature order and the last of a
    # cylinder block's: layer 62 is a cylinder block of 15 sets, layer 71 a
    # tail block of 3432.
    picked = {}
    for n, block, r, _ in engine._layers(1, 90):
        if math.comb(block.m, r) > DEFAULT_CAP:
            continue
        sets = enumerate_optimal_sets(n)
        index = 0 if block.kind == TAIL else len(sets) - 1
        assert optimal_set(n) == sets[index], n
        picked[n] = (block.kind, index + 1, len(sets))
    assert picked[62] == (CLOSED, 15, 15)
    assert picked[71] == (TAIL, 1, 3432)


def test_walk_leaves_every_tied_node_unsplit():
    big = [next(engine._layers(n, n))[1] for n in (2 * 10**4, 10**5)]
    assert [block.m for block in big] == [1530, 7128]
    blocks = {block for _, block, _, _ in engine._layers(1, 2000)}
    for block in blocks.union(big):
        nodes, tied = engine._walk(block)
        assert len(tied) == block.m, block
        assert tied == [i for i, (_, m, a, _, _) in enumerate(nodes)
                        if (m, a) == (block.M, block.a)], block


def _assert_matches_countdown_walk(n):
    _, block, r, _ = next(engine._layers(n, n))
    assert list(optimal_set(n).nodes) == countdown_walk(block, r), n


@pytest.mark.parametrize("n", [2 * 10**4, 10**5])
def test_optimal_set_matches_countdown_walk(n):
    # Past the heap reference's n <= 10^4: r = 462 at n = 2 * 10^4 and
    # 3247 at n = 10^5.
    _assert_matches_countdown_walk(n)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 5 * 10**4))
def test_optimal_set_matches_countdown_walk_drawn(n):
    _assert_matches_countdown_walk(n)


@pytest.mark.parametrize("depth", [8, 16, 32, 64, 128, 256])
def test_stream_starts_with_the_block_table(depth):
    # The reference sorts every block of a depth and keeps those no deeper
    # node reaches, with errors over 8^depth; the stream's rows count
    # errors over 8^top.  Equal dropped and per-split errors give equal V_n.
    reference = block_table_reference(depth)
    rows = list(islice(engine._rows(), len(reference)))
    assert [(end, block) for end, _, _, _, block in rows] \
        == [(end, block) for end, _, _, block in reference]
    for (_, dropped, step, top, _), (_, dropped_ref, step_ref, _) in zip(rows, reference):
        assert top <= depth
        assert (dropped << 3 * (depth - top), step << 3 * (depth - top)) \
            == (dropped_ref, step_ref)


def _words(a, c):
    """Words of weight a with c letters other than 1, counted directly: k
    letters 1 of weight 2 interleaved with c letters of weight at least 3."""
    if c == 0:
        return int(a % 2 == 0)
    return sum(math.comb(k + c, c) * math.comb(a - 2 * k - 2 * c - 1, c - 1)
               for k in range((a - 2 * c + 1) // 2))


def test_stream_counts_match_an_independent_count():
    # The first 5000 blocks reach a = 134.  A tail block holds the tails
    # ending in 1 (c - 1 other letters) and those ending in j >= 2.
    base = {engine.CLOSED: 9, engine.TAIL: 43}  # M over 3^c
    for _, _, _, _, block in islice(engine._rows(), 5000):
        c = round(math.log(block.M // base[block.kind], 3))
        assert base[block.kind] * 3**c == block.M
        if block.kind == engine.CLOSED:
            count = _words(block.a, c)
        else:
            count = _words(block.a - 2, c - 1) + sum(
                _words(b, c - 1) for b in range(block.a - 2))
        assert block.m == count, block


def test_stream_raises_when_float_keys_misorder_blocks(monkeypatch):
    # Keys rounded to whole logarithms put the tail block M = 1161, a = 8
    # after the tail block M = 129, a = 7, whose error is smaller.
    monkeypatch.setattr(engine, "log", lambda x: round(math.log(x)))
    with pytest.raises(ArithmeticError, match="misorder"):
        for _ in islice(engine._rows(), 1000):
            pass


def test_stream_stopped_by_an_exception_restarts_past_the_kept_rows(monkeypatch):
    # An interrupt inside the shared generator closes it for good; the next
    # call must go on from the rows kept, not raise StopIteration.
    expected = quantization_error(10**12)

    def interrupted():
        yield from islice(engine._rows(), 50)
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "_STREAM", interrupted())
    monkeypatch.setattr(engine, "_ROWS", [])
    with pytest.raises(KeyboardInterrupt):
        quantization_error(10**12)
    assert len(engine._ROWS) == 50
    assert quantization_error(10**12) == expected


def test_state_mass_and_mean_invariants():
    state = GenerationState()
    for _ in range(120):
        state.split()
    nodes = state.nodes()
    assert sum(map(mass, nodes), F(0)) == 1
    assert sum((mass(n) * centroid_of(n) for n in nodes), F(0)) == measure.MEAN


@pytest.mark.parametrize(
    "n, k, counts",
    [(2, 1, (1,)), (3, 2, (1, 1)), (15, 5, (5, 4, 3, 1, 1))],
)
def test_branch_decomposition(n, k, counts):
    decomposition = branch_decomposition(optimal_set(n))
    assert decomposition.k == k
    assert decomposition.counts == counts


def test_branch_decomposition_all_small_n():
    for n in range(2, 60):
        decomposition = branch_decomposition(optimal_set(n))
        assert sum(decomposition.counts) + 1 == n


@pytest.mark.parametrize("sizes", [range(2, 401), (1000, 3000, 10_000)])
def test_induction_formula_ties_v_n_to_smaller_sizes(sizes):
    # The paper's induction: an optimal n-set is one point for the tail
    # region of (k,), the cylinders past J_k, and in each cylinder J_j with
    # j <= k the image of an optimal n_j-set, so
    # V_n = error(tail of (k,)) + sum over j of p_j * s_j^2 * V_{n_j}.
    for n in sizes:
        decomposition = branch_decomposition(optimal_set(n))
        branches = sum(measure.prob_letter(j) * measure.scale_word((j,)) ** 2
                       * quantization_error(n_j)
                       for j, n_j in enumerate(decomposition.counts, start=1))
        assert quantization_error(n) == node_error(tail(decomposition.k)) + branches, n


def test_branch_decomposition_rejects_malformed():
    q = QuantizerSet.from_nodes([make_node(closed(1))])
    with pytest.raises(ValueError):
        branch_decomposition(q)


def test_split_priority_rule_well_defined():
    # Error comparisons must be exact: equal-probability tails with last
    # letter 1 versus >= 2 differ by an exact factor 3.
    e_tail_one = node_error(tail(2, 1))
    e_tail_two = node_error(tail(1, 2))
    assert measure.prob_word((2, 1)) == measure.prob_word((1, 2))
    assert e_tail_one == 3 * e_tail_two


def test_equal_probability_error_relations():
    rng = random.Random(9)
    seen_factor_three = 0
    for _ in range(400):
        w = [rng.randint(1, 6) for _ in range(rng.randint(2, 7))]
        if 1 not in w or all(x == 1 for x in w):
            w[0] = 1
            w[-1] = 2
        tau = w[:]
        rng.shuffle(tau)
        w, tau = tuple(w), tuple(tau)
        assert node_error(Region(CLOSED, w)) == node_error(Region(CLOSED, tau))
        e_w = node_error(Region(TAIL, w))
        e_t = node_error(Region(TAIL, tau))
        if (w[-1] == 1) == (tau[-1] == 1):
            assert e_w == e_t
        elif w[-1] == 1:
            assert e_w == 3 * e_t
            seen_factor_three += 1
        else:
            assert 3 * e_w == e_t
            seen_factor_three += 1
    assert seen_factor_three > 20


def _split_gain(region: Region) -> F:
    first, second = children(make_node(region))
    return error_of(first) + error_of(second) - node_error(region)


def test_maximal_error_split_exchange_inequalities():
    # Swapping which of two nodes is split changes the total by the
    # difference of their errors; splitting the larger-error node always
    # wins.  This is the exchange argument behind the greedy rule, checked
    # exactly on random node pairs of every kind combination.
    rng = random.Random(10)
    for _ in range(400):
        length = rng.randint(1, 6)
        a = Region(rng.choice([CLOSED, TAIL]),
                   tuple(rng.randint(1, 6) for _ in range(length)))
        b = Region(rng.choice([CLOSED, TAIL]),
                   tuple(rng.randint(1, 6) for _ in range(length)))
        e_a, e_b = node_error(a), node_error(b)
        split_a = _split_gain(a) + e_a + e_b
        split_b = _split_gain(b) + e_a + e_b
        if e_a > e_b:
            assert split_a < split_b
        elif e_b > e_a:
            assert split_b < split_a
        else:
            assert split_a == split_b


def test_serialization_roundtrip():
    q = optimal_set(15)
    data = quantizer_set_to_dict(q)
    assert data["n"] == 15
    assert data["V"] == "27/598016"
    assert data["nodes"][0]["word"] == "1.1.1"
    restored = quantizer_set_from_dict(data)
    assert restored.signature() == q.signature()
    assert restored.v == q.v


def test_serialization_rejects_tampered_values():
    data = quantizer_set_to_dict(optimal_set(3))
    data["V"] = "1/2"
    with pytest.raises(ValueError):
        quantizer_set_from_dict(data)
    data = quantizer_set_to_dict(optimal_set(3))
    data["nodes"][0]["centroid"] = "1/2"
    with pytest.raises(ValueError):
        quantizer_set_from_dict(data)

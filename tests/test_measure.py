import random
from fractions import Fraction as F

import pytest

from ifsquant import golden, measure
from ifsquant.measure import (
    CLOSED,
    MEAN,
    VARIANCE,
    Region,
    apply_map,
    centroid,
    centroid_union,
    closed,
    distortion,
    distortion_union,
    node_error,
    prob_letter,
    prob_word,
    region_interval,
    region_mass,
    scale_word,
    tail,
    tail_conditional_mean,
    tail_error_series,
    validate_constants,
)
from ifsquant.words import count_non_ones


def random_word(rng, max_len=10, max_letter=12, min_len=0):
    return tuple(
        rng.randint(1, max_letter)
        for _ in range(rng.randint(min_len, max_len))
    )


def test_constants_validate():
    validate_constants()
    assert VARIANCE == golden.GOLDEN_V[1]
    assert [MEAN] == golden.GOLDEN_POINTS[1]


@pytest.mark.parametrize("label, value, expected", golden.MEASURE_ROWS,
                         ids=[label for label, _, _ in golden.MEASURE_ROWS])
def test_golden_measure_row(label, value, expected):
    assert value() == expected


@pytest.mark.parametrize(
    "j, expected", [(1, F(1, 4)), (2, F(3, 8)), (5, F(3, 64))]
)
def test_prob_letter(j, expected):
    assert prob_letter(j) == expected


def test_prob_letter_rejects_bad_input():
    with pytest.raises(ValueError):
        prob_letter(0)


@pytest.mark.parametrize(
    "w, expected", [((1,), F(1, 4)), ((2, 1), F(3, 32)), ((), F(1))]
)
def test_prob_word(w, expected):
    assert prob_word(w) == expected


@pytest.mark.parametrize(
    "w, expected", [((1,), F(1, 4)), ((2, 1), F(1, 32)), ((), F(1))]
)
def test_scale_word(w, expected):
    # 1 / 2^(sum + length); for (1,) that is 1/2^2.
    assert scale_word(w) == expected


def test_prob_word_closed_form():
    rng = random.Random(7)
    for _ in range(300):
        w = random_word(rng)
        assert prob_word(w) == F(
            3 ** count_non_ones(w), 1 << (sum(w) + len(w))
        )


def test_prob_word_matches_letter_product():
    rng = random.Random(13)
    for _ in range(300):
        w = random_word(rng)
        product = F(1)
        for letter in w:
            product *= prob_letter(letter)
        assert prob_word(w) == product


@pytest.mark.parametrize("w", [(0,), (2, -1), (1, 3, 0)])
def test_prob_word_rejects_bad_letters(w):
    with pytest.raises(ValueError):
        prob_word(w)


def test_region_rejects_letters_below_one():
    with pytest.raises(ValueError, match=r"word letters must be >= 1: \(0,\)"):
        Region(CLOSED, (0,))


def test_equal_prob_implies_equal_scale():
    rng = random.Random(11)
    for _ in range(300):
        w = list(random_word(rng, min_len=1))
        tau = w[:]
        rng.shuffle(tau)
        assert prob_word(tuple(w)) == prob_word(tuple(tau))
        assert scale_word(tuple(w)) == scale_word(tuple(tau))
    # structurally different words with equal mass
    assert prob_word((4, 1)) == prob_word((2, 1, 1))
    assert scale_word((4, 1)) == scale_word((2, 1, 1))


@pytest.mark.parametrize(
    "w, x, expected",
    [
        ((2,), F(0), F(1, 2)),
        ((2,), F(1), F(5, 8)),
        ((1,), F(4, 7), F(1, 7)),
        ((), F(4, 7), F(4, 7)),
    ],
)
def test_apply_map(w, x, expected):
    assert apply_map(w, x) == expected


@pytest.mark.parametrize(
    "region, expected",
    [
        (closed(2), (F(1, 2), F(5, 8))),
        (tail(1), (F(1, 2), F(1))),
        (tail(2, 1), (F(9, 16), F(5, 8))),
        (closed(), (F(0), F(1))),
    ],
)
def test_region_interval(region, expected):
    assert region_interval(region) == expected


def test_tail_region_requires_nonempty_word():
    with pytest.raises(ValueError):
        Region("tail", ())


@pytest.mark.parametrize(
    "region, expected",
    [
        (tail(1), F(3, 4)),
        (tail(2), F(3, 8)),
        (closed(2, 1), F(3, 32)),
        (closed(), F(1)),
    ],
)
def test_region_mass(region, expected):
    assert region_mass(region) == expected


def test_partition_of_unity():
    for k in range(1, 31):
        total = sum(prob_word((j,)) for j in range(1, k + 1))
        assert total + region_mass(tail(k)) == 1


def test_total_expectation():
    parts = [closed(1), tail(1)]
    total = sum(region_mass(r) * centroid(r) for r in parts)
    assert total == MEAN


@pytest.mark.parametrize(
    "k, expected", [(2, F(5, 7)), (3, F(6, 7)), (10, F(895, 896))]
)
def test_tail_conditional_mean(k, expected):
    assert tail_conditional_mean(k) == expected


def test_tail_conditional_mean_matches_tail_centroid():
    for k in range(1, 31):
        assert tail_conditional_mean(k + 1) == centroid(tail(k))
    with pytest.raises(ValueError):
        tail_conditional_mean(1)


def test_centroid_union_rejects_bad_input():
    with pytest.raises(ValueError):
        centroid_union([])
    with pytest.raises(ValueError, match="overlap"):
        centroid_union([closed(2), closed(2, 1)])


def test_node_error():
    assert node_error(closed()) == VARIANCE


def test_node_error_two_point_identity():
    assert node_error(closed(1)) + node_error(tail(1)) == golden.GOLDEN_V[2]


def test_tail_error_series_converges():
    for w in [(2,), (1,), (3,), (2, 1)]:
        exact = node_error(Region("tail", w))
        partial = tail_error_series(w, 60)
        assert partial < exact
        assert exact - partial < F(1, 1 << 50)
    assert tail_error_series((1,), 1) < node_error(tail(1))


def test_tail_error_series_is_the_sibling_sum():
    # Term by term from the definition: each right sibling's own error
    # about its mean plus its mass times its squared offset from the tail
    # centroid.  The series itself runs on scaled integers.
    rng = random.Random(12)
    for _ in range(200):
        w = random_word(rng, max_len=5, max_letter=9, min_len=1)
        terms = rng.randint(1, 70)
        target = centroid(Region("tail", w))
        expected = F(0)
        for i in range(1, terms + 1):
            sibling = w[:-1] + (w[-1] + i,)
            p = prob_word(sibling)
            expected += p * (scale_word(sibling) ** 2 * VARIANCE
                             + (centroid(closed(*sibling)) - target) ** 2)
        assert tail_error_series(w, terms) == expected, (w, terms)


def test_tail_error_series_rejects_bad_input():
    with pytest.raises(ValueError, match="nonempty word"):
        tail_error_series((), 5)
    with pytest.raises(ValueError, match="terms must be >= 1"):
        tail_error_series((2,), 0)


@pytest.mark.parametrize("name, shift, message", [
    ("MEAN", F(1, 10**6), "mean fixed-point"),
    ("SECOND_MOMENT", F(1, 10**6), "second-moment fixed-point"),
    ("VARIANCE", F(1, 10**6), "variance identity"),
    # The series must still tell a factor off by 10^-6 from the true one.
    ("TAIL_FACTOR_OTHER", F(1, 10**6), "tail factor series"),
    ("TAIL_FACTOR_LAST1", F(-1, 10**6), "tail factor series"),
], ids=["mean", "second-moment", "variance", "factor-other", "factor-last1"])
def test_validate_constants_catches_each_wrong_constant(monkeypatch, name, shift,
                                                       message):
    monkeypatch.setattr(measure, name, getattr(measure, name) + shift)
    with pytest.raises(AssertionError, match=message):
        validate_constants()


def test_tail_error_series_monotone():
    w = (2, 1)
    previous = F(0)
    for terms in range(1, 25):
        current = tail_error_series(w, terms)
        assert current > previous
        previous = current


def test_tail_error_series_matches_closed_form_factor():
    lhs = tail_error_series((3,), 60)
    rhs = F(43, 9) * prob_word((3,)) * scale_word((3,)) ** 2 * VARIANCE
    assert rhs - lhs < F(1, 1 << 50)
    assert node_error(tail(3)) == rhs


def test_distortion_minimal_exactly_at_centroid():
    rng = random.Random(3)
    for _ in range(200):
        w = random_word(rng, min_len=1, max_len=6, max_letter=8)
        region = Region(rng.choice(["closed", "tail"]), w)
        c = centroid(region)
        assert distortion(region, c) == node_error(region)
        shift = F(rng.randint(1, 9), rng.randint(10, 99))
        assert distortion(region, c + shift) > node_error(region)
        assert distortion(region, c - shift) > node_error(region)


def test_distortion_union_empty_and_overlap():
    assert distortion_union([]) == 0
    with pytest.raises(ValueError, match="overlap"):
        distortion_union([(closed(2), F(1, 2)), (closed(2, 1), F(1, 2))])


def test_interval_helpers_reject_bad_kind():
    with pytest.raises(ValueError):
        Region("open", (1,))


def test_frac_rendering():
    assert measure.float_str(F(69, 3577)) == "0.01928990774"
    assert measure.float_str(F(1, 2)) == "0.5"

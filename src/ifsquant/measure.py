"""The fixed self-similar measure on [0, 1], in exact rational arithmetic.

P is the unique Borel probability satisfying

    P = (1/4) P o S_1^{-1}  +  sum_{j >= 2} (3 / 2^(j+1)) P o S_j^{-1},
    S_j(x) = x / 2^(j+1) + 1 - 1 / 2^(j-1),

so letter j carries mass p_j (1/4 for j = 1, else 3/2^(j+1)) and contracts
by s_j = 1/2^(j+1).  A word w = (w_1, ..., w_k) names the cylinder
J_w = S_w([0, 1]) of mass p_w = p_{w_1} * ... * p_{w_k}; the *tail region*
of w collects all right siblings J_{w^-(last+i)}, i >= 1.

The measure's functions take and return ``fractions.Fraction`` values, and
no float enters them.  The rendering helpers at the bottom write a
decimal hint, for display beside an exact value, of a Fraction or of an
oracle's float; only ``oracle-check`` formats its own floats, printing its
deviation and standard error to three significant figures.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .words import Word, count_non_ones, last, parent, successor

CLOSED = "closed"
TAIL = "tail"

# Global moments of the measure, the tail-region error factors and the tail
# centroid offset.  Stored as literals; validate_constants() re-derives them
# from the identities they must satisfy and runs at import in debug builds.
MEAN = Fraction(4, 7)
SECOND_MOMENT = Fraction(208, 511)
VARIANCE = Fraction(288, 3577)
TAIL_FACTOR_LAST1 = Fraction(43, 3)
TAIL_FACTOR_OTHER = Fraction(43, 9)
TAIL_OFFSET = Fraction(8, 7)

# Every float printed is a hint beside an exact value, to 10 significant
# figures; past 17 the format would show the binary float, not the value.
FLOAT_SPEC = ".10g"


class Region(namedtuple("Region", "kind word")):
    """A cylinder J_w (kind "closed") or the tail region of w (kind "tail").

    Tail regions need a nonempty word; Region(CLOSED, ()) is the whole
    support [0, 1].  The checks run on construction; namedtuple's
    ``_make`` and ``_replace`` skip them, and no caller uses either.
    """

    __slots__ = ()

    def __new__(cls, kind: str, word: Word) -> Region:
        if kind not in (CLOSED, TAIL):
            raise ValueError(f"unknown region kind {kind!r}")
        if kind == TAIL and not word:
            raise ValueError("tail region requires a nonempty word")
        if word and min(word) < 1:
            raise ValueError(f"word letters must be >= 1: {word!r}")
        return super().__new__(cls, kind, word)


def closed(*letters: int) -> Region:
    """Cylinder region for the given letters."""
    return Region(CLOSED, tuple(letters))


def tail(*letters: int) -> Region:
    """Tail (right-sibling union) region for the given letters."""
    return Region(TAIL, tuple(letters))


def prob_letter(j: int) -> Fraction:
    """Mass of letter j: 1/4 for j = 1, else 3/2^(j+1)."""
    if j < 1:
        raise ValueError(f"letter must be >= 1, got {j}")
    if j == 1:
        return Fraction(1, 4)
    return Fraction(3, 1 << (j + 1))


def prob_word(w: Word) -> Fraction:
    """Mass of the cylinder J_w: the product of letter masses (1 for ()),
    which is 3^(letters other than 1) / 2^(sum(w) + len(w))."""
    if w and min(w) < 1:
        raise ValueError(f"letter must be >= 1, got {min(w)}")
    return Fraction(3 ** count_non_ones(w), 1 << (sum(w) + len(w)))


def scale_word(w: Word) -> Fraction:
    """Contraction ratio of the composed map S_w: 1 / 2^(sum(w) + len(w))."""
    return Fraction(1, 1 << (sum(w) + len(w)))


def apply_map(w: Word, x: Fraction) -> Fraction:
    """Evaluate the composed map S_w at x (identity for the empty word)."""
    x = Fraction(x)
    for j in reversed(w):
        x = x / (1 << (j + 1)) + 1 - Fraction(1, 1 << (j - 1))
    return x


def region_interval(r: Region) -> tuple[Fraction, Fraction]:
    """Exact endpoints of the region's interval hull.

    A cylinder spans S_w([0, 1]).  A tail region spans from the left
    endpoint of its first member cylinder to the right endpoint of the
    parent cylinder (the closure of the sibling union).
    """
    if r.kind == CLOSED:
        return apply_map(r.word, Fraction(0)), apply_map(r.word, Fraction(1))
    return (
        apply_map(successor(r.word), Fraction(0)),
        apply_map(parent(r.word), Fraction(1)),
    )


def region_mass(r: Region) -> Fraction:
    """P-mass of the region.

    A cylinder carries p_w.  A tail region carries the summed mass of all
    right siblings, p_parent * 3/2^(last+1): that is 3*p_w when the last
    letter is 1, and exactly p_w otherwise.
    """
    if r.kind == CLOSED:
        return prob_word(r.word)
    return prob_word(parent(r.word)) * Fraction(3, 1 << (last(r.word) + 1))


def centroid(r: Region) -> Fraction:
    """Conditional mean of the region.

    A cylinder's mean is S_w(global mean).  A tail region's mean is the
    successor cylinder's mean shifted right by 8/7 of the successor scale,
    the exact mass-weighted mean of the whole sibling union.
    """
    if r.kind == CLOSED:
        return apply_map(r.word, MEAN)
    s = successor(r.word)
    return apply_map(s, MEAN) + TAIL_OFFSET * scale_word(s)


def tail_conditional_mean(k: int) -> Fraction:
    """Mean of X given X lies in J_k u J_{k+1} u ...: 1 - (8/7)/2^k, k >= 2.

    Coincides with centroid(tail region of the one-letter word (k-1,)).
    """
    if k < 2:
        raise ValueError(f"tail conditional mean needs k >= 2, got {k}")
    return 1 - TAIL_OFFSET / (1 << k)


def ensure_disjoint(regions: list[Region]) -> None:
    """Raise if any two region hulls overlap; touching endpoints are fine."""
    spans = sorted(region_interval(r) for r in regions)
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        if hi1 > lo2:
            raise ValueError(
                f"regions overlap: [{lo1}, {hi1}] and [{lo2}, {hi2}]"
            )


def centroid_union(regions: list[Region]) -> Fraction:
    """Mass-weighted mean over pairwise-disjoint regions."""
    regions = list(regions)
    if not regions:
        raise ValueError("centroid_union needs at least one region")
    ensure_disjoint(regions)
    total = Fraction(0)
    weighted = Fraction(0)
    for r in regions:
        mass = region_mass(r)
        total += mass
        weighted += mass * centroid(r)
    return weighted / total


def node_error(r: Region) -> Fraction:
    """Exact squared-error contribution of the region about its own mean.

    A cylinder contributes p_w * s_w^2 * V.  A tail region carries the same
    quantity scaled by 43/3 (last letter 1) or 43/9 (otherwise): the mass
    and scale quotients of successive siblings make the sibling series sum
    to these closed forms.
    """
    p = prob_word(r.word)
    s = scale_word(r.word)
    base = p * s * s * VARIANCE
    if r.kind == CLOSED:
        return base
    factor = TAIL_FACTOR_LAST1 if last(r.word) == 1 else TAIL_FACTOR_OTHER
    return factor * base


def tail_error_series(w: Word, terms: int) -> Fraction:
    """Partial sum of the sibling-by-sibling error series of a tail region.

    Term i covers the i-th right sibling cylinder: its own squared error
    about its mean plus its mass times the squared offset of its mean from
    the tail centroid.  Nondecreasing in ``terms`` and converging to
    node_error of the tail region; kept as an independent cross-check of
    the closed-form factors.

    Each sibling halves the mass, the scale and the step of its mean
    towards S_parent(1).  With p and s the first sibling's mass and scale,
    A = S_parent(1) - centroid and B = s_parent * (4 - 4/7) / 2^(last + 2),
    term i is p * ((s^2 V + B^2) / 8^(i-1) + A^2 / 2^(i-1) - 2AB / 4^(i-1)),
    so the partial sum is three finite geometric sums.
    """
    if not w:
        raise ValueError("tail series requires a nonempty word")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    first, base = successor(w), parent(w)
    s = scale_word(first)
    a = apply_map(base, Fraction(1)) - centroid(Region(TAIL, w))
    b = scale_word(base) * Fraction(6, 7 << last(w))

    def geometric(q: int) -> Fraction:  # the sum of q^-(i-1) over i <= terms
        return Fraction(q**terms - 1, (q - 1) * q ** (terms - 1))

    return prob_word(first) * ((s * s * VARIANCE + b * b) * geometric(8)
                               + a * a * geometric(2) - 2 * a * b * geometric(4))


def distortion(r: Region, x0: Fraction) -> Fraction:
    """Exact integral of (x - x0)^2 over the region.

    Decomposes as the region's own error plus its mass times the squared
    distance from its mean to x0; minimal exactly at x0 = centroid(r).
    """
    x0 = Fraction(x0)
    return node_error(r) + region_mass(r) * (centroid(r) - x0) ** 2


def distortion_union(pairs: list[tuple[Region, Fraction]]) -> Fraction:
    """Sum of distortions over pairwise-disjoint (region, point) pairs."""
    pairs = list(pairs)
    ensure_disjoint([r for r, _ in pairs])
    return sum((distortion(r, x0) for r, x0 in pairs), Fraction(0))


def validate_constants() -> None:
    """Re-derive the stored constants from their defining identities."""
    if MEAN != MEAN / 16 + MEAN / 16 + Fraction(1, 2):
        raise AssertionError("mean fixed-point identity failed")
    if SECOND_MOMENT != Fraction(5, 224) * SECOND_MOMENT + Fraction(39, 98):
        raise AssertionError("second-moment fixed-point identity failed")
    if VARIANCE != SECOND_MOMENT - MEAN * MEAN:
        raise AssertionError("variance identity failed")
    # The tail factors must be the limits of the sibling error series.
    for w, factor in (((1,), TAIL_FACTOR_LAST1), ((2,), TAIL_FACTOR_OTHER)):
        target = factor * prob_word(w) * scale_word(w) ** 2 * VARIANCE
        gap = target - tail_error_series(w, 40)
        if not 0 < gap < target / (1 << 30):
            raise AssertionError("tail factor series identity failed")


def float_str(x: Fraction | float) -> str:
    """The round-to-nearest decimal hint of x, to 10 significant figures."""
    return format(float(x), FLOAT_SPEC)


def float_val(x: Fraction | float) -> float:
    """The float of x's hint: the value a JSON or CSV hint field reads back
    as, and the one ``float_json`` prints."""
    return float(float_str(x))


def float_json(x: float) -> str:
    """The hint of x as the JSON and CSV forms print it: ``repr(float_val(x))``,
    the shortest text of the double nearest x's 10-figure rounding.

    For a normal x in (0, 1) that does not round to 1, that is the rounding's
    own text, with no float read back: a decimal of at most 15 figures reads
    back through a normal double to the same digits, and ``repr`` and the
    ``g`` format both write the exponent form below 1e-4 and the fixed form
    from there up.  Any other x (0, a subnormal, a negative, one that rounds
    to 1 or above) takes the round trip, whose text may differ ("0.0", or
    fewer digits for a subnormal).
    """
    text = format(x, FLOAT_SPEC)
    if 2.2250738585072014e-308 <= x < 1 and text != "1":  # the least normal double
        return text
    return repr(float(text))


if __debug__:
    validate_constants()

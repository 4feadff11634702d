"""Golden values: the paper's worked examples, each written once.

``quantizer verify`` and the test suite both check against these tables:
exact errors, point sets and counts; the measure's worked values (centroids,
node errors, distortions, masses), each a row of a label, a thunk that
computes the value and the expected value; optimal-set listings; and the
edges of the transition DAG between sizes 18 and 21.

Node listings use a compact notation: "c:2.1" is the cylinder of word
(2, 1), "t:2.1" its tail region.  Sets are given as whitespace-separated
node lists in any order.
"""

from __future__ import annotations

from fractions import Fraction

from .measure import (CLOSED, TAIL, Region, centroid, centroid_union, closed,
                      distortion, distortion_union, node_error, prob_letter,
                      region_interval, region_mass, tail, tail_conditional_mean)
from .words import Word, parse

GOLDEN_V = {
    1: Fraction(288, 3577),
    2: Fraction(69, 3577),
    3: Fraction(57, 14308),
    4: Fraction(237, 114464),
    5: Fraction(255, 228928),
    6: Fraction(1383, 1831424),
    7: Fraction(135, 261632),
    8: Fraction(507, 1831424),
    15: Fraction(27, 598016),
    16: Fraction(4635, 117211136),
    17: Fraction(1989, 58605568),
    18: Fraction(3321, 117211136),
}

GOLDEN_POINTS = {
    1: [Fraction(4, 7)],
    2: [Fraction(1, 7), Fraction(5, 7)],
    3: [Fraction(1, 7), Fraction(4, 7), Fraction(6, 7)],
    4: [Fraction(1, 7), Fraction(4, 7), Fraction(11, 14), Fraction(13, 14)],
    5: [Fraction(1, 28), Fraction(5, 28), Fraction(4, 7), Fraction(11, 14),
        Fraction(13, 14)],
}

GOLDEN_COUNTS = {15: 1, 16: 3, 17: 3, 18: 1, 19: 3, 20: 3, 21: 1}

# (label, value thunk, expected); the label is the line `verify` prints.
MEASURE_ROWS = (
    ("centroid a(1) = 1/7", lambda: centroid(closed(1)), Fraction(1, 7)),
    ("centroid a(1,inf) = 5/7", lambda: centroid(tail(1)), Fraction(5, 7)),
    ("centroid a(2,inf) = 6/7", lambda: centroid(tail(2)), Fraction(6, 7)),
    ("centroid a(1.1) = 1/28", lambda: centroid(closed(1, 1)), Fraction(1, 28)),
    ("centroid a(1.1,inf) = 5/28", lambda: centroid(tail(1, 1)),
     Fraction(5, 28)),
    ("tail conditional means 5/7, 6/7",
     lambda: (tail_conditional_mean(2), tail_conditional_mean(3)),
     (Fraction(5, 7), Fraction(6, 7))),
    ("union centroid of 2.1 and 2.2 = 11/20",
     lambda: centroid_union([closed(2, 1), closed(2, 2)]), Fraction(11, 20)),
    ("union centroid of 1 and 2.1.1 = 1363/7840",
     lambda: centroid_union([closed(1), closed(2, 1, 1)]),
     Fraction(1363, 7840)),
    ("union centroid of tails of 2.1.1, 2.1, 2 = 5007/6944",
     lambda: centroid_union([tail(2, 1, 1), tail(2, 1), tail(2)]),
     Fraction(5007, 6944)),
    ("node error of cylinder 1 = 9/7154", lambda: node_error(closed(1)),
     Fraction(9, 7154)),
    ("node error of cylinder 2 = 27/57232", lambda: node_error(closed(2)),
     Fraction(27, 57232)),
    ("node error of tail 1 = 129/7154", lambda: node_error(tail(1)),
     Fraction(129, 7154)),
    ("distortion of cylinder 1 about 7/16 = 12015/523264",
     lambda: distortion(closed(1), Fraction(7, 16)), Fraction(12015, 523264)),
    ("distortion of cylinder 2 about 5/8 = 405/261632",
     lambda: distortion(closed(2), Fraction(5, 8)), Fraction(405, 261632)),
    ("split of cylinder 2 about 11/20, 5/8 = 2403/10465280",
     lambda: distortion_union([(closed(2, 1), Fraction(11, 20)),
                               (closed(2, 2), Fraction(11, 20)),
                               (tail(2, 2), Fraction(5, 8))]),
     Fraction(2403, 10465280)),
    ("two-point distortion identity V_2 = 69/3577",
     lambda: distortion_union([(closed(1), Fraction(1, 7)),
                               (tail(1), Fraction(5, 7))]),
     Fraction(69, 3577)),
    ("letter masses 1/4, 3/8 and cylinder interval [1/2, 5/8]",
     lambda: (prob_letter(1), prob_letter(2), region_interval(closed(2))),
     (Fraction(1, 4), Fraction(3, 8), (Fraction(1, 2), Fraction(5, 8)))),
    ("tail masses 3/4, 3/8, cylinder mass 3/32",
     lambda: (region_mass(tail(1)), region_mass(tail(2)),
              region_mass(closed(2, 1))),
     (Fraction(3, 4), Fraction(3, 8), Fraction(3, 32))),
)

LISTING_6 = "c:1.1 t:1.1 c:2.1 t:2.1 c:3 t:3"

LISTING_15 = ("c:1.1.1 t:1.1.1 c:1.2 c:1.3 t:1.3 c:2.1 c:2.2 c:2.3 t:2.3 "
              "c:3.1 c:3.2 t:3.2 c:4 c:5 t:5")

LISTINGS_16 = (
    LISTING_15.replace("c:2.1 ", "c:2.1.1 t:2.1.1 "),
    LISTING_15.replace("c:4 ", "c:4.1 t:4.1 "),
    LISTING_15.replace("c:1.2 ", "c:1.2.1 t:1.2.1 "),
)

LISTING_18 = (LISTING_15
              .replace("c:2.1 ", "c:2.1.1 t:2.1.1 ")
              .replace("c:4 ", "c:4.1 t:4.1 ")
              .replace("c:1.2 ", "c:1.2.1 t:1.2.1 "))

# One 18-set feeds all three 19-sets, each 19-set two of the three 20-sets
# (any two 19-sets share one), and every 20-set the one 21-set.
EDGES_18_21 = (
    ("a_{18,1}", "a_{19,1}"), ("a_{18,1}", "a_{19,2}"), ("a_{18,1}", "a_{19,3}"),
    ("a_{19,1}", "a_{20,1}"), ("a_{19,1}", "a_{20,2}"),
    ("a_{19,2}", "a_{20,1}"), ("a_{19,2}", "a_{20,3}"),
    ("a_{19,3}", "a_{20,2}"), ("a_{19,3}", "a_{20,3}"),
    ("a_{20,1}", "a_{21,1}"), ("a_{20,2}", "a_{21,1}"), ("a_{20,3}", "a_{21,1}"),
)


def as_identity_set(listing: str) -> frozenset[tuple[str, Word]]:
    """Parse a compact listing into a set of (kind, word) identities."""
    out = set()
    for item in listing.split():
        kind, _, word = item.partition(":")
        out.add((CLOSED if kind == "c" else TAIL, parse(word)))
    return frozenset(out)


def as_signature(listing: str) -> tuple[tuple[str, Word], ...]:
    """A compact listing in canonical (left-to-right) order, as a signature."""
    return tuple(sorted(as_identity_set(listing), key=lambda kw: (
        region_interval(Region(*kw))[0], kw[0], kw[1])))

"""Golden values: exact errors, point sets, counts and optimal-set listings.

``quantizer verify`` and the test suite both check against these tables.
Node listings use a compact notation: "c:2.1" is the cylinder of word
(2, 1), "t:2.1" its tail region.  Sets are given as whitespace-separated
node lists in any order.
"""

from __future__ import annotations

from fractions import Fraction

from .measure import CLOSED, TAIL, Region, region_interval
from .words import Word

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


def as_identity_set(listing: str) -> frozenset[tuple[str, Word]]:
    """Parse a compact listing into a set of (kind, word) identities."""
    out = set()
    for item in listing.split():
        kind, _, word = item.partition(":")
        out.add((CLOSED if kind == "c" else TAIL,
                 tuple(int(ch) for ch in word.split("."))))
    return frozenset(out)


def as_signature(listing: str) -> tuple[tuple[str, Word], ...]:
    """A compact listing in canonical (left-to-right) order, as a signature."""
    return tuple(sorted(as_identity_set(listing), key=lambda kw: (
        region_interval(Region(*kw))[0], kw[0], kw[1])))

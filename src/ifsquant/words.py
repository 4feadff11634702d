"""Finite words over the positive integers.

A word indexes a composition of contraction maps: (2, 1, 1) means "apply
map 2, then map 1, then map 1".  Words are plain tuples of ints >= 1; the
empty tuple () is the empty word.  The canonical text form joins letters
with ".", so (2, 1, 1) renders as "2.1.1" and () renders as "".
"""

from __future__ import annotations

Word = tuple[int, ...]


def parent(w: Word) -> Word:
    """The word with its last letter dropped."""
    if not w:
        raise ValueError("no parent of empty word")
    return w[:-1]


def last(w: Word) -> int:
    """Last letter of a nonempty word."""
    if not w:
        raise ValueError("empty word has no last letter")
    return w[-1]


def successor(w: Word) -> Word:
    """Same word with the last letter incremented: the next sibling."""
    if not w:
        raise ValueError("empty word has no successor")
    return w[:-1] + (w[-1] + 1,)


def count_non_ones(w: Word) -> int:
    """Number of letters different from 1."""
    return sum(1 for letter in w if letter != 1)


def render(w: Word) -> str:
    """Canonical text form: letters joined with '.'; the empty word is ''."""
    return ".".join(map(str, w))


def parse(s: str) -> Word:
    """Inverse of :func:`render`; accepts only canonical renderings."""
    if s == "":
        return ()
    letters = []
    for segment in s.split("."):
        if not segment.isdigit() or str(int(segment)) != segment:
            raise ValueError(f"invalid word segment {segment!r} in {s!r}")
        value = int(segment)
        if value < 1:
            raise ValueError(f"word letters must be >= 1, got {segment!r} in {s!r}")
        letters.append(value)
    return tuple(letters)

import pytest
from hypothesis import given, strategies as st

from ifsquant.words import count_non_ones, parent, parse, render, successor

words = st.lists(st.integers(min_value=1, max_value=40), max_size=12).map(tuple)


@pytest.mark.parametrize("w, expected", [((2, 1, 1), (2, 1)), ((5,), ())])
def test_parent(w, expected):
    assert parent(w) == expected


def test_parent_of_empty_word_fails():
    with pytest.raises(ValueError, match="no parent of empty word"):
        parent(())


@pytest.mark.parametrize(
    "w, expected", [((1,), (2,)), ((2, 1), (2, 2)), ((3, 7), (3, 8))]
)
def test_successor(w, expected):
    assert successor(w) == expected


def test_successor_of_empty_word_fails():
    with pytest.raises(ValueError):
        successor(())


@pytest.mark.parametrize(
    "w, expected", [((2, 1, 1), 1), ((), 0), ((2, 3, 2), 3)]
)
def test_count_non_ones(w, expected):
    assert count_non_ones(w) == expected


@pytest.mark.parametrize(
    "w, text", [((2, 1, 1), "2.1.1"), ((12, 1), "12.1"), ((), "")]
)
def test_render(w, text):
    assert render(w) == text
    assert parse(text) == w


@pytest.mark.parametrize("bad", ["0.1", "1..2", ".", "a", "01", "-1", "1.0"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse(bad)


@given(words)
def test_parse_render_roundtrip(w):
    assert parse(render(w)) == w


@given(words.filter(lambda w: len(w) > 0))
def test_parent_concat_identity(w):
    assert parent(w) + (w[-1],) == w


@given(words.filter(lambda w: len(w) > 0))
def test_successor_touches_only_last_letter(w):
    s = successor(w)
    assert s[:-1] == w[:-1]
    assert s[-1] == w[-1] + 1

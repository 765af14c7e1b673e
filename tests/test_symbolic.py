"""Orders and coordinates of two-sided words.

The order oracles in ``symbolic_reference`` are the comparator definitions
themselves, checked exhaustively; ``coordinate_symbols`` is held to them.
"""

import itertools
from functools import cmp_to_key

import pytest

from lozi_pruning.symbolic import MINUS, PLUS, Word
from symbolic_reference import (
    compare_heads,
    compare_tails,
    head_coordinate,
    heads,
    tail_coordinate,
    tails,
)


def _all_blocks(n):
    return list(itertools.product((MINUS, PLUS), repeat=n))


def test_head_order_worked_example():
    # First disagreement at i=2 behind an odd count of +1 symbols flips the base order.
    assert compare_heads((PLUS, MINUS, PLUS), (PLUS, MINUS, MINUS)) == -1
    assert compare_heads((PLUS, MINUS, MINUS), (PLUS, MINUS, PLUS)) == 1


def test_tail_order_worked_example():
    # Tails (-1,+1) vs (+1,+1) differ at i=-2; the window holds no -1, so base order stands.
    assert compare_tails((MINUS, PLUS), (PLUS, PLUS), b_sign=PLUS) == -1
    # Counting +1 symbols instead (b < 0) flips this pair: window (+1,) has one +1.
    assert compare_tails((MINUS, PLUS), (PLUS, PLUS), b_sign=MINUS) == 1


def test_head_order_total_and_antisymmetric_exhaustive():
    blocks = _all_blocks(8)
    for u, v in itertools.product(blocks[:64], blocks[:64]):
        c = compare_heads(u, v)
        assert c == -compare_heads(v, u)
        assert (c == 0) == (u == v)


def test_tail_order_total_and_antisymmetric_exhaustive():
    blocks = _all_blocks(6)
    for b_sign in (PLUS, MINUS):
        for u, v in itertools.product(blocks, blocks):
            c = compare_tails(u, v, b_sign)
            assert c == -compare_tails(v, u, b_sign)
            assert (c == 0) == (u == v)


def test_incomparable_on_proper_prefix():
    with pytest.raises(ValueError):
        compare_heads((PLUS, MINUS), (PLUS, MINUS, MINUS))
    with pytest.raises(ValueError):
        compare_tails((PLUS,), (MINUS, PLUS))


@pytest.mark.parametrize("length", [1, 4, 8, 10])
def test_head_coordinate_is_order_isomorphic(length):
    blocks = _all_blocks(length)
    ranked = sorted(blocks, key=cmp_to_key(compare_heads))
    coords = [head_coordinate(h) for h in ranked]
    assert all(a < b for a, b in zip(coords, coords[1:]))


@pytest.mark.parametrize("length", [1, 4, 8, 10])
@pytest.mark.parametrize("b_sign", [PLUS, MINUS])
def test_tail_coordinate_is_order_isomorphic(length, b_sign):
    blocks = _all_blocks(length)
    ranked = sorted(blocks, key=cmp_to_key(lambda u, v: compare_tails(u, v, b_sign)))
    coords = [tail_coordinate(t, b_sign) for t in ranked]
    assert all(a < b for a, b in zip(coords, coords[1:]))


def test_tail_coordinate_b_sign_flip_is_consistent_permutation():
    # Re-sorting the same tails under the flipped order must be a permutation
    # that matches the flipped coordinates pointwise.
    blocks = _all_blocks(8)
    plus_rank = sorted(blocks, key=lambda t: tail_coordinate(t, PLUS))
    minus_rank = sorted(blocks, key=lambda t: tail_coordinate(t, MINUS))
    assert sorted(plus_rank) == sorted(minus_rank)
    ranked = sorted(blocks, key=cmp_to_key(lambda u, v: compare_tails(u, v, MINUS)))
    assert minus_rank == ranked


def test_enumerators_cover_everything_in_coordinate_order():
    # Row r of coordinate_symbols is the word of rank r: its coordinate is
    # r / 2^n under the reference embedding.
    hs = heads(6)
    assert len(set(hs)) == 64
    assert [head_coordinate(h) for h in hs] == [r / 64 for r in range(64)]
    for b_sign in (PLUS, MINUS):
        ts = tails(6, b_sign)
        assert len(set(ts)) == 64
        assert [tail_coordinate(t, b_sign) for t in ts] == [r / 64 for r in range(64)]


def test_coordinates_land_in_unit_interval():
    for h in _all_blocks(5):
        assert 0.0 <= head_coordinate(h) < 1.0
        assert 0.0 <= tail_coordinate(h) < 1.0


def test_word_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Word((0,), ())
    with pytest.raises(ValueError):
        Word((), (2,))

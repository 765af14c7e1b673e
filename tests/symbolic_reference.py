"""Scalar reference orders and coordinates of one-sided words.

These are the definitions, one word at a time, that
``symbolic.coordinate_symbols`` tabulates for all words of a length at once;
the tests hold the table to them.

Heads are read from index 0 outward and tails from index -1 outward. At the
first disagreement the base order -1 < +1 decides, flipped while an odd
number of counted symbols precede it: +1 for heads, and for tails -1 when
b >= 0 and +1 when b < 0.
"""

from __future__ import annotations

from lozi_pruning.symbolic import MINUS, PLUS, coordinate_symbols


def _counted_in_tails(b_sign: int) -> int:
    return MINUS if b_sign >= 0 else PLUS


def _compare_outward(u, v, counted: int) -> int:
    flips = 0
    for s, t in zip(u, v):
        if s != t:
            base = -1 if s < t else 1
            return -base if flips % 2 else base
        if s == counted:
            flips += 1
    if len(u) != len(v):
        raise ValueError("words agree on their common range but differ in length")
    return 0


def _coordinate_outward(symbols, counted: int) -> float:
    """Dyadic coordinate: bit k is (symbol k is +1) xor the flip parity."""
    x = 0.0
    scale = 0.5
    flips = 0
    for s in symbols:
        bit = 1 if s == PLUS else 0
        if flips % 2:
            bit ^= 1
        x += bit * scale
        scale *= 0.5
        if s == counted:
            flips += 1
    return x


def compare_heads(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """-1, 0 or +1 as head u lies below, at or above head v."""
    return _compare_outward(u, v, PLUS)


def compare_tails(u: tuple[int, ...], v: tuple[int, ...], b_sign: int = PLUS) -> int:
    """-1, 0 or +1 as tail u lies below, at or above tail v; tails are stored
    in index order (eps_{-m}, ..., eps_{-1})."""
    return _compare_outward(u[::-1], v[::-1], _counted_in_tails(b_sign))


def head_coordinate(head: tuple[int, ...]) -> float:
    return _coordinate_outward(head, PLUS)


def tail_coordinate(tail: tuple[int, ...], b_sign: int = PLUS) -> float:
    return _coordinate_outward(reversed(tail), _counted_in_tails(b_sign))


def heads(n: int) -> list[tuple[int, ...]]:
    """All heads of length n in increasing order: the coordinate_symbols rows."""
    return [tuple(row) for row in coordinate_symbols(n, PLUS).tolist()]


def tails(m: int, b_sign: int = PLUS) -> list[tuple[int, ...]]:
    """All tails of length m in increasing order, each in index order."""
    rows = coordinate_symbols(m, _counted_in_tails(b_sign)).tolist()
    return [tuple(reversed(row)) for row in rows]

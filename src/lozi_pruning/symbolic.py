"""Two-sided symbol words, their orders, and dyadic coordinate embeddings.

A bi-infinite itinerary splits at the dot into a tail (symbols at negative
indices, read leftward from the dot) and a head (symbols at non-negative
indices).  Finite words carry a finite block of each side and stand for the
cylinder of all bi-infinite extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import EmptyHead, Incomparable

MINUS = -1
PLUS = 1

_CHAR_TO_SYMBOL = {"+": PLUS, "-": MINUS}
_SYMBOL_TO_CHAR = {PLUS: "+", MINUS: "-"}
# Accept both the ASCII dot and the middle dot on input; emit the ASCII dot.
_DOTS = ".·"


def _check_symbols(symbols: tuple[int, ...], side: str) -> None:
    for s in symbols:
        if s != PLUS and s != MINUS:
            raise ValueError(f"{side} symbol must be +1 or -1, got {s!r}")


@dataclass(frozen=True)
class Word:
    """A finite symbol block with a dot.

    ``tail`` stores (eps_{-m}, ..., eps_{-1}) in increasing index order, so
    ``tail[-j]`` is the symbol at index -j.  ``head`` stores
    (eps_0, ..., eps_{n-1}) and ``head[i]`` is the symbol at index i.
    """

    tail: tuple[int, ...]
    head: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail", tuple(self.tail))
        object.__setattr__(self, "head", tuple(self.head))
        _check_symbols(self.tail, "tail")
        _check_symbols(self.head, "head")

    @property
    def tail_len(self) -> int:
        return len(self.tail)

    @property
    def head_len(self) -> int:
        return len(self.head)

    def to_string(self) -> str:
        tail = "".join(_SYMBOL_TO_CHAR[s] for s in self.tail)
        head = "".join(_SYMBOL_TO_CHAR[s] for s in self.head)
        return f"{tail}.{head}"

    @classmethod
    def from_string(cls, text: str) -> "Word":
        dot_positions = [i for i, ch in enumerate(text) if ch in _DOTS]
        if len(dot_positions) != 1:
            raise ValueError(f"word text needs exactly one dot: {text!r}")
        cut = dot_positions[0]
        try:
            tail = tuple(_CHAR_TO_SYMBOL[ch] for ch in text[:cut])
            head = tuple(_CHAR_TO_SYMBOL[ch] for ch in text[cut + 1 :])
        except KeyError as exc:
            raise ValueError(f"word text may only use '+'/'-': {text!r}") from exc
        return cls(tail, head)

    def __str__(self) -> str:
        return self.to_string()


def shift(w: Word) -> Word:
    """Move the dot one step right: the first head symbol joins the tail."""
    if w.head_len == 0:
        raise EmptyHead("cannot shift a word with an empty head")
    return Word(w.tail + (w.head[0],), w.head[1:])


def redot(w: Word, k: int) -> Word:
    """Re-dot the same symbol block k places to the right (k may be negative).

    Equivalent to applying ``shift`` k times (or its inverse -k times); the
    block of symbols is unchanged.  Raises ValueError when the dot would
    leave the block on either side.
    """
    if k == 0:
        return w
    block = w.tail + w.head
    cut = w.tail_len + k
    if cut < 0 or cut > len(block):
        raise ValueError(f"cannot re-dot by {k}: block has {len(block)} symbols")
    return Word(block[:cut], block[cut:])


def _compare_outward(u, v, counted: int, side: str) -> int:
    """Order of two one-sided words read outward from the dot, flipping the
    base order -1 < +1 after each ``counted`` symbol."""
    flips = 0
    for s, t in zip(u, v):
        if s != t:
            base = -1 if s < t else 1
            return -base if flips % 2 else base
        if s == counted:
            flips += 1
    if len(u) == len(v):
        return 0
    raise Incomparable(f"{side} agree on their common range but differ in length")


def compare_heads(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Order heads: base order -1 < +1 at the first disagreement i, flipped
    when the count of +1 symbols before i is odd.

    Returns -1, 0, or +1.  Words that agree on their common range but have
    different lengths are Incomparable (neither determines the other's
    cylinder order).
    """
    return _compare_outward(u, v, PLUS, "heads")


def compare_tails(u: tuple[int, ...], v: tuple[int, ...], b_sign: int = PLUS) -> int:
    """Order tails by the disagreement closest to the dot.

    Scanning i = -1, -2, ... the first index where the tails differ decides;
    base order -1 < +1 is flipped when the parity window (the symbols strictly
    between i and the dot) holds an odd count of -1 symbols for b_sign >= 0,
    of +1 symbols for b_sign < 0.
    """
    counted = MINUS if b_sign >= 0 else PLUS
    return _compare_outward(u[::-1], v[::-1], counted, "tails")


def _coordinate_outward(symbols, counted: int) -> float:
    """Dyadic coordinate of a one-sided word read outward from the dot."""
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


def head_coordinate(head: tuple[int, ...]) -> float:
    """Order-preserving dyadic embedding of heads into [0, 1].

    Bit i of the binary expansion is (eps_i == +1) xor (odd count of +1 before
    i); folding the flip parity into the bits makes the expansion monotone for
    the head order.  Exact in binary floating point for lengths <= 52.
    """
    return _coordinate_outward(head, PLUS)


def tail_coordinate(tail: tuple[int, ...], b_sign: int = PLUS) -> float:
    """Order-preserving dyadic embedding of tails into [0, 1].

    Read leftward from the dot; bit k folds the parity of the counted symbol
    (-1 for b_sign >= 0, +1 for b_sign < 0) seen so far, mirroring
    ``compare_tails``.
    """
    return _coordinate_outward(reversed(tail), MINUS if b_sign >= 0 else PLUS)


def enumerate_heads(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n heads of length n, in increasing head_coordinate order."""
    for row in coordinate_symbols(n, PLUS).tolist():
        yield tuple(row)


def enumerate_tails(m: int, b_sign: int = PLUS) -> Iterator[tuple[int, ...]]:
    """All 2^m tails of length m, in increasing tail_coordinate order."""
    for row in coordinate_symbols(m, MINUS if b_sign >= 0 else PLUS).tolist():
        yield tuple(reversed(row))


def enumerate_words(m: int, n: int) -> Iterator[Word]:
    """All 2^(m+n) words with tail length m and head length n.

    Ordered by (tail_coordinate, head_coordinate): the raster cell layout.
    """
    for tail in enumerate_tails(m):
        for head in enumerate_heads(n):
            yield Word(tail, head)


def coordinate_symbols(n: int, counted: int) -> np.ndarray:
    """Symbols (int8 +-1) of all 2^n one-sided words of length n.

    Row r inverts coordinate code r: bit k of r (MSB first) is the k-th
    binary digit of the coordinate, flipped while an odd number of
    ``counted`` symbols precede it.  Column k is the k-th symbol read outward
    from the dot.  With counted = +1 the rows are the heads in head_coordinate
    order; with the counted symbol of ``tail_coordinate`` they are the tails
    in tail_coordinate order, column k holding the symbol at index -(k+1).
    """
    codes = np.arange(1 << n, dtype=np.int64)
    sym = np.empty((1 << n, n), dtype=np.int8)
    parity = np.zeros(1 << n, dtype=np.int64)
    counted_bit = 1 if counted == PLUS else 0
    for k in range(n):
        bit = ((codes >> (n - 1 - k)) & 1) ^ parity
        sym[:, k] = 2 * bit - 1
        parity ^= bit == counted_bit
    return sym

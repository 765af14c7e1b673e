"""Two-sided symbol words and the symbol tables of their coordinate orders
and of every block on broadcast axes.

A bi-infinite itinerary splits at the dot into a tail (symbols at negative
indices, read leftward from the dot) and a head (symbols at non-negative
indices).  Finite words carry a finite block of each side and stand for the
cylinder of all bi-infinite extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MINUS = -1
PLUS = 1


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


def coordinate_symbols(n: int, counted: int) -> np.ndarray:
    """Symbols (int8 +-1) of all 2^n one-sided words of length n, in
    increasing order.

    Words are read outward from the dot and ordered at their first
    disagreement by -1 < +1, flipped while an odd number of ``counted``
    symbols precede it: +1 for heads; for tails -1 when b >= 0 and +1 when
    b < 0.  Row r inverts coordinate code r: bit k of r (MSB first) is 1
    exactly when the k-th symbol is +1 with the flip parity folded in, so r
    is the word's rank and r / 2^n its dyadic coordinate in [0, 1).  Column
    k is the k-th symbol read outward from the dot; for tails, the symbol at
    index -(k+1).
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


def symbol_axes(n: int) -> list[np.ndarray]:
    """The symbols of n positions, each on its own numpy axis of length 2:
    entry j holds [+1, -1] with shape (1,)*j + (2,) + (1,)*(n-1-j).  They
    broadcast to all 2^n words of length n, so whatever reads only some
    positions is computed once per distinct value of those, not per word."""
    return [np.array([1.0, -1.0]).reshape((1,) * j + (2,) + (1,) * (n - 1 - j)) for j in range(n)]

"""Symbol tables of one-sided words: their coordinate orders, and every
block on broadcast axes.

A bi-infinite itinerary of symbols +1 and -1 splits at the dot into a tail
(symbols at negative indices) and a head (symbols at non-negative indices).
Both sides are read outward from the dot: position k of a tail holds the
symbol at index -(k+1), and position k of a head the symbol at index k.  A
finite block of each side stands for the cylinder of all bi-infinite
extensions.
"""

from __future__ import annotations

import numpy as np

MINUS = -1
PLUS = 1


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

"""Pruning pair (p, q) with certified truncation bounds, cylinder verdicts,
pruned-region rasters, and admissible-word counting.

One interval engine does every evaluation.  ``_levels`` sweeps the
continued-fraction level map x <- 1/(+-a e + b x); ``_p_series`` and
``_q_series`` sum the tail and head series from those levels.  The same
three functions take float endpoints for one word (the scalar evaluators and
``classify_cylinder``) and float64 arrays for a batch of rows (the raster),
or broadcastable per-axis arrays, one length-2 axis per symbol position (the
block masks, so each level and series is computed once per distinct prefix
or suffix); only min/max over candidate endpoints and the test that a
denominator straddles zero are picked from the endpoint type.

The innermost, unknown continuation of a finite word enters as the a-priori
interval [-1/(a-|b|), 1/(a-|b|)], which the level map keeps invariant
whenever a > 1 + |b|.  By construction the resulting interval contains the
true value for every bi-infinite extension of the word, and refining the
word or deepening the series never widens it.  Endpoints are ordinary
round-to-nearest floats with no directed rounding, so the enclosures are
validated by the depth-doubling tests rather than formally proven; the
checks in ``verify`` and the tests allow the absolute slack ``ULP_SLACK``
(5e-13) for that gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce

import numpy as np

from .errors import BudgetExceeded, InsufficientWord, NotHyperbolic, WrongHead
from .symbolic import MINUS, PLUS, Word, coordinate_symbols, redot


@dataclass(frozen=True)
class Params:
    """Lozi parameter pair (a, b)."""

    a: float
    b: float

    @property
    def hyperbolic(self) -> bool:
        return self.a > 1.0 + abs(self.b)

    def require_hyperbolic(self) -> None:
        if not self.hyperbolic:
            raise NotHyperbolic(f"need a > 1 + |b|, got a={self.a}, b={self.b}")


def _require_series(params: Params, depth: int) -> None:
    """The input rule of every depth-taking entry point: hyperbolic
    parameters and a series depth of at least 0."""
    params.require_hyperbolic()
    if depth < 0:
        raise ValueError("depth must be >= 0")


@dataclass(frozen=True)
class BoundedValue:
    """A float with a certified absolute error bound."""

    value: float
    err: float

    @classmethod
    def from_interval(cls, lo: float, hi: float) -> "BoundedValue":
        return cls(0.5 * (lo + hi), 0.5 * (hi - lo))

    @property
    def lo(self) -> float:
        return self.value - self.err

    @property
    def hi(self) -> float:
        return self.value + self.err


class Verdict(Enum):
    CERTIFIED_PRUNED = "CertifiedPruned"
    CERTIFIED_ADMISSIBLE_WINDOW = "CertifiedAdmissibleWindow"
    UNKNOWN = "Unknown"


def special_head(n: int) -> tuple[int, ...]:
    """The head (+1, -1, -1, ...) maximizing q at (2, 0); closed form known."""
    if n <= 0:
        return ()
    return (PLUS,) + (MINUS,) * (n - 1)


# ---------------------------------------------------------------------------
# interval engine

_ARRAY_EXTREMES = (partial(reduce, np.minimum), partial(reduce, np.maximum))


def _extremes(levels):
    """min and max over a tuple of candidate endpoints: the builtins when the
    levels hold floats, elementwise reductions when they hold arrays."""
    if levels and isinstance(levels[0][0], np.ndarray):
        return _ARRAY_EXTREMES
    return min, max


def _levels(shifts, params: Params) -> list:
    """Enclosures of the continued-fraction levels x <- 1/(shift + b x).

    Each shift is +-a times a symbol.  The sweep starts from the a-priori
    interval [-1/(a-|b|), 1/(a-|b|)], which stands for the unknown
    continuation beyond the first shift, and returns one enclosure per shift
    in sweep order; every one is uniform over all such continuations.
    """
    b = params.b
    rad = 1.0 / (params.a - abs(b))
    lo, hi = -rad, rad
    out = []
    for shift in shifts:
        if b >= 0:
            den_lo, den_hi = shift + b * lo, shift + b * hi
        else:
            den_lo, den_hi = shift + b * hi, shift + b * lo
        if isinstance(den_lo, np.ndarray):
            straddles = not np.all((den_lo > 0.0) | (den_hi < 0.0))
        else:
            straddles = den_lo <= 0.0 <= den_hi
        if straddles:
            raise ArithmeticError("continued-fraction denominator straddles zero")
        lo, hi = 1.0 / den_hi, 1.0 / den_lo
        out.append((lo, hi))
    return out


def _p_series(s_levels, params: Params):
    """Enclosure of p from the levels s_{-2}, s_{-3}, ... of its taken terms.

    Term k is the product of the factors (-b s_{-j}), j = 2..k+1.  Every
    untaken term extends the last partial product by factors of magnitude
    <= |b|/(a-|b|), so the remainder is geometric from that product
    (infinite when the ratio reaches 1).
    """
    lowest, highest = _extremes(s_levels)
    b = params.b
    lo = hi = prod_lo = prod_hi = 1.0
    for s_lo, s_hi in s_levels:
        f_lo, f_hi = (-b * s_lo, -b * s_hi) if b <= 0 else (-b * s_hi, -b * s_lo)
        p = (prod_lo * f_lo, prod_lo * f_hi, prod_hi * f_lo, prod_hi * f_hi)
        prod_lo, prod_hi = lowest(p), highest(p)
        lo += prod_lo
        hi += prod_hi
    ratio = abs(b) / (params.a - abs(b))
    if ratio < 1.0:
        bound = highest((abs(prod_lo), abs(prod_hi))) * (ratio / (1.0 - ratio))
    else:
        bound = math.inf
    return lo - bound, hi + bound


def _q_series(r_levels, params: Params):
    """Enclosure of q from the levels r_0, r_1, ... of its taken terms.

    Term n is (-1)^n r_0 ... r_n.  The term majorant (a-|b|)^-(n+1) always
    sums geometrically in the hyperbolic region, so the remainder after the
    last partial product is at most that product over (a-|b|-1); the
    enclosure is finite even with no terms taken.
    """
    lowest, highest = _extremes(r_levels)
    lo = hi = 0.0
    prod_lo = prod_hi = 1.0
    for n, (r_lo, r_hi) in enumerate(r_levels):
        p = (prod_lo * r_lo, prod_lo * r_hi, prod_hi * r_lo, prod_hi * r_hi)
        prod_lo, prod_hi = lowest(p), highest(p)
        if n % 2 == 0:
            lo += prod_lo
            hi += prod_hi
        else:
            lo -= prod_hi
            hi -= prod_lo
    bound = highest((abs(prod_lo), abs(prod_hi))) / (params.a - abs(params.b) - 1.0)
    return lo - bound, hi + bound


def _p_enclosure(tail_outward, depth: int, params: Params):
    """Enclosure of p over all extensions of a tail, series depth capped by
    the symbols held.  tail_outward[k] is the symbol at index -(k+1): an int
    for one word, or row k of a transposed symbol matrix for a batch."""
    m = len(tail_outward)
    d = max(0, min(depth, m - 1))
    levels = _levels([-params.a * tail_outward[k] for k in range(m - 1, 0, -1)], params)
    return _p_series(levels[::-1][:d], params)


def _q_enclosure(head, depth: int, params: Params):
    """Enclosure of q over all extensions of a head, series depth capped by
    the symbols held.  head[k] is the symbol at index k, as in _p_enclosure."""
    n = len(head)
    d = min(depth, n - 1)
    levels = _levels([params.a * head[k] for k in range(n - 1, -1, -1)], params)
    return _q_series(levels[::-1][: d + 1], params)


def eval_s(w: Word, n: int, depth: int, params: Params) -> BoundedValue:
    """Depth-truncated enclosure of s_n (n <= -2) over all extensions of w."""
    _require_series(params, depth)
    if n > -2:
        raise ValueError(f"s_n is used for indices n <= -2, got {n}")
    j0 = -n
    if w.tail_len < j0 + depth:
        raise InsufficientWord(
            f"tail of length {w.tail_len} cannot supply symbols down to index {n - depth}"
        )
    shifts = [-params.a * w.tail[-j] for j in range(j0 + depth, j0 - 1, -1)]
    return BoundedValue.from_interval(*_levels(shifts, params)[-1])


def eval_r(w: Word, n: int, depth: int, params: Params) -> BoundedValue:
    """Depth-truncated enclosure of r_n (n >= 0) over all extensions of w."""
    _require_series(params, depth)
    if n < 0:
        raise ValueError(f"r_n is defined for indices n >= 0, got {n}")
    if w.head_len < n + depth + 1:
        raise InsufficientWord(
            f"head of length {w.head_len} cannot supply symbols up to index {n + depth}"
        )
    shifts = [params.a * w.head[j] for j in range(n + depth, n - 1, -1)]
    return BoundedValue.from_interval(*_levels(shifts, params)[-1])


def eval_p(w: Word, depth: int, params: Params) -> BoundedValue:
    """Enclosure of the tail pruning value p(w)(a, b).

    Series terms k = 1..depth use s_{-2}..s_{-(depth+1)}; the word must hold
    at least depth+2 tail symbols so even the deepest term sees one refined
    continued-fraction level.
    """
    _require_series(params, depth)
    if w.tail_len < depth + 2:
        raise InsufficientWord(f"tail length {w.tail_len} < depth + 2 = {depth + 2}")
    return BoundedValue.from_interval(*_p_enclosure(w.tail[::-1], depth, params))


def eval_q(w: Word, depth: int, params: Params) -> BoundedValue:
    """Enclosure of the head pruning value q(w)(a, b).

    Series terms n = 0..depth use r_0..r_depth, so the head must hold at
    least depth+1 symbols.
    """
    _require_series(params, depth)
    if w.head_len < depth + 1:
        raise InsufficientWord(f"head length {w.head_len} < depth + 1 = {depth + 1}")
    return BoundedValue.from_interval(*_q_enclosure(w.head, depth, params))


def closed_form_q(params: Params, head: tuple[int, ...] | None = None) -> float:
    """q for the head (+1, -1, -1, ...) in closed form.

    With x = (a - sqrt(a^2 + 4b))/2: q = b / ((a + x)(b + x)), continued at
    b = 0 by its limit 1/(a - 1).  If a head is supplied it must be a prefix
    of the special head.
    """
    params.require_hyperbolic()
    if head is not None and head != special_head(len(head)):
        raise WrongHead("closed form covers only the head (+1, -1, -1, ...)")
    a, b = params.a, params.b
    if b == 0.0:
        return 1.0 / (a - 1.0)
    # Rationalized root: (a - sqrt(a^2+4b))/2 cancels catastrophically as
    # b -> 0, which would poison finite differences of this function.
    x = -2.0 * b / (a + math.sqrt(a * a + 4.0 * b))
    return b / ((a + x) * (b + x))


def eval_pq_cylinder(w: Word, depth: int, params: Params) -> tuple[float, float]:
    """Enclosure of (p - q) over every bi-infinite extension of w.

    Series depths are capped by the symbols the word actually holds; short or
    empty sides simply widen the enclosure, they never raise.
    """
    _require_series(params, depth)
    plo, phi = _p_enclosure(w.tail[::-1], depth, params)
    qlo, qhi = _q_enclosure(w.head, depth, params)
    return (plo - qhi, phi - qlo)


def classify_cylinder(w: Word, depth: int, shift_window: int, params: Params) -> Verdict:
    """Classify the cylinder of w.

    CertifiedPruned: the unshifted enclosure is entirely negative, so every
    extension of w lies in the pruned region.  CertifiedAdmissibleWindow: the
    enclosure is entirely non-negative at the dot and at every re-dotting
    within shift_window that keeps a nonempty head inside the word.  Anything
    else is Unknown.
    """
    _require_series(params, depth)
    lo, hi = eval_pq_cylinder(w, depth, params)
    if hi < 0.0:
        return Verdict.CERTIFIED_PRUNED
    certified = lo >= 0.0
    if certified:
        m, n = w.tail_len, w.head_len
        for k in range(max(-shift_window, 1 - m), min(shift_window, n - 1) + 1):
            if k == 0:
                continue
            slo, _ = eval_pq_cylinder(redot(w, k), depth, params)
            if slo < 0.0:
                certified = False
                break
    return Verdict.CERTIFIED_ADMISSIBLE_WINDOW if certified else Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# rasters and block counts

# PGM gray codes for raster cells.
PGM_PRUNED = 0
PGM_UNKNOWN = 128
PGM_ADMISSIBLE = 255

_VERDICT_CODE = {
    Verdict.CERTIFIED_PRUNED: PGM_PRUNED,
    Verdict.UNKNOWN: PGM_UNKNOWN,
    Verdict.CERTIFIED_ADMISSIBLE_WINDOW: PGM_ADMISSIBLE,
}
_CODE_VERDICT = {v: k for k, v in _VERDICT_CODE.items()}


def verdict_code(v: Verdict) -> int:
    return _VERDICT_CODE[v]


def code_verdict(code: int) -> Verdict:
    return _CODE_VERDICT[code]


_CELL_LIMIT = 1 << 22  # largest raster: 4^11 cells
_BLOCK_LIMIT = 1 << 20  # largest word count: its masks peak at 162 MiB at depth 12


@dataclass(frozen=True)
class Raster:
    """Verdict grid over all (tail, head) cylinders of a fixed word length.

    cells[i, j] is the PGM code of the word whose tail has rank i and head
    rank j in the respective coordinate orders (rank 0 = coordinate 0).
    """

    params: Params
    word_len: int
    depth: int
    cells: np.ndarray

    @property
    def width(self) -> int:
        return int(self.cells.shape[1])

    @property
    def height(self) -> int:
        return int(self.cells.shape[0])

    @property
    def pruned_count(self) -> int:
        return int(np.count_nonzero(self.cells == PGM_PRUNED))

    @property
    def admissible_count(self) -> int:
        return int(np.count_nonzero(self.cells == PGM_ADMISSIBLE))

    @property
    def unknown_count(self) -> int:
        return int(np.count_nonzero(self.cells == PGM_UNKNOWN))


def pruned_region_raster(params: Params, word_len: int, depth: int) -> Raster:
    """Classify all 4^word_len cylinders with word_len symbols per side.

    Cells certify membership of the whole cylinder: entirely negative
    enclosure of (p - q) at the dot -> pruned; entirely non-negative ->
    admissible window; otherwise unknown.
    """
    _require_series(params, depth)
    if word_len < 1:
        raise ValueError("word_len must be >= 1")
    cells_total = 1 << (2 * word_len)
    if cells_total > _CELL_LIMIT:
        raise BudgetExceeded(f"4^{word_len} = {cells_total} cells exceed limit {_CELL_LIMIT}")
    tails = coordinate_symbols(word_len, MINUS if params.b >= 0 else PLUS)
    heads = coordinate_symbols(word_len, PLUS)
    # With depth 0 the p enclosure is one interval shared by every tail.
    plo, phi = (np.broadcast_to(v, len(tails)) for v in _p_enclosure(tails.T, depth, params))
    qlo, qhi = _q_enclosure(heads.T, depth, params)
    cells = np.full((len(tails), len(heads)), PGM_UNKNOWN, dtype=np.uint8)
    cells[phi[:, None] < qlo[None, :]] = PGM_PRUNED
    cells[plo[:, None] >= qhi[None, :]] = PGM_ADMISSIBLE
    return Raster(params=params, word_len=word_len, depth=depth, cells=cells)


def _window_masks(params: Params, n: int, depth: int):
    """Per-block masks over all 2^n symbol blocks of length n.

    pruned_any[w]: some dot placement inside the block has an entirely
    negative enclosure, so the block cannot occur in any admissible sequence.
    cert_all[w]: every placement has an entirely non-negative enclosure.

    The blocks live on n numpy axes of length 2: axis j holds the symbol at
    position j, index 0 for +1 and index 1 for -1, so the flattened masks are
    in plain binary order, w = sum_j [symbol j is -1] 2^(n-1-j).  Every
    enclosure spans only the axes of the positions it reads, and
    broadcasting computes it once per distinct prefix or suffix: at the
    placement with the dot at k the q series runs on the 2^(n-k) suffixes
    and the p series on at most 2^(k-1) prefixes, about 3 * depth * 2^n
    series terms in all, and only the two compares span all 2^n blocks.
    """
    a = params.a
    cols = [np.array([1.0, -1.0]).reshape((1,) * j + (2,) + (1,) * (n - 1 - j)) for j in range(n)]
    # r[j] encloses the ascending continued fraction r_j of the suffix j..n-1.
    r = _levels([a * cols[j] for j in range(n - 1, -1, -1)], params)[::-1]
    # y[t] encloses the descending continued fraction ending at position t,
    # i.e. s_{-(k-t)} for the placement with the dot at k.
    y = _levels([-a * cols[t] for t in range(n)], params)

    pruned_any = np.zeros((2,) * n, dtype=bool)
    cert_all = np.ones((2,) * n, dtype=bool)
    # Each series reads its widest level first (r[k], then y[k - 2]), so the
    # in-place sums in _p_series and _q_series never have to grow a shape.
    for k in range(n):
        # q side: head = positions k..n-1, term t uses r_t = r[k + t].
        qlo, qhi = _q_series(r[k : k + min(depth, n - k - 1) + 1], params)
        # p side: tail = positions 0..k-1, term j uses s_{-(j+1)} = y[k - j - 1].
        dp = max(0, min(depth, k - 1))
        plo, phi = _p_series(y[k - 1 - dp : k - 1][::-1], params)
        pruned_any |= (phi - qlo) < 0.0
        cert_all &= (plo - qhi) >= 0.0
    return pruned_any.ravel(), cert_all.ravel()


def admissible_word_count(params: Params, n: int, depth: int) -> tuple[int, int]:
    """Bracket the number of admissible length-n blocks.

    upper counts blocks with no certified-pruned dot placement; lower counts
    blocks certified non-negative at every placement.  Unknown verdicts stay
    in upper and leave lower, so lower <= true count <= upper holds whenever
    the enclosures do.
    """
    _require_series(params, depth)
    if n < 1:
        raise ValueError("n must be >= 1")
    if (1 << n) > _BLOCK_LIMIT:
        raise BudgetExceeded(f"2^{n} blocks of length {n} exceed the limit {_BLOCK_LIMIT}")
    pruned_any, cert_all = _window_masks(params, n, depth)
    upper = int(np.count_nonzero(~pruned_any))
    lower = int(np.count_nonzero(cert_all & ~pruned_any))
    return lower, upper


ENTROPY_HEADER = ("a", "b", "n", "depth", "count_lower", "count_upper", "h_lower", "h_upper")


def entropy_rows(params: Params, n_max: int, depth: int) -> list[tuple]:
    """Entropy bracket rows per block length n = 1..n_max, laid out as
    ENTROPY_HEADER; the last row is the final estimate.

    Upper counts are submultiplicative so the running min over log(upper)/n
    is a valid upper bound at every n; the lower bound uses only the current
    length and is clamped into [0, h_upper].
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _require_series(params, depth)
    rows = []
    h_upper = math.inf
    for n in range(1, n_max + 1):
        lower, upper = admissible_word_count(params, n, depth)
        h_upper = min(h_upper, math.log(upper) / n if upper > 0 else 0.0)
        h_up = max(h_upper, 0.0)
        h_lo = math.log(lower) / n if lower > 0 else 0.0
        h_lo = min(max(h_lo, 0.0), h_up)
        rows.append((params.a, params.b, n, depth, lower, upper, h_lo, h_up))
    return rows


def entropy_estimate(params: Params, n_max: int, depth: int) -> tuple[float, float]:
    """Entropy bracket (h_lower, h_upper) from admissible block counts up to
    n_max: the last row of entropy_rows."""
    h_lower, h_upper = entropy_rows(params, n_max, depth)[-1][-2:]
    return h_lower, h_upper

"""Pruning pair (p, q) with certified truncation bounds, cylinder verdicts,
pruned-region rasters, and entropy brackets.

One interval engine does every evaluation.  ``_levels`` sweeps the
continued-fraction level map x <- 1/(+-a e + b x); ``_p_series`` and
``_q_series`` sum the tail and head series from those levels.  The same
three functions take float endpoints for one word (the scalar evaluators
and ``classify_cylinder``), float64 arrays for a batch of rows (the raster),
or broadcastable per-axis arrays, one length-2 axis per symbol position (the
block masks, so each level and series is computed once per distinct prefix
or suffix).  A straddling denominator raises, so every level, and every p
factor -b s, has one sign or is 0: a series carries its running product as
(near, far), the products of the smaller- and of the larger-magnitude
endpoints, two multiplications per term.  As rounding to nearest is
monotone and symmetric in sign, min and max of that pair are bit for bit
those of the four endpoint products.  Only that split, min/max and the
straddle test depend on the endpoint type.  Every enclosure is a
``(lo, hi)`` pair, which the scalar evaluators return as it is.  A raster
sums each side's series once per row or column and classifies its cells by
integer rank compares against the sorted q endpoints, one block of rows at
a time, so no cell-sized float or mask array is ever built.  A block's p
enclosure depends only on its prefix and its q enclosure only on its
suffix, never on the block length, so one sweep at the longest length
serves every block length of an entropy run.  All three also take a grid
of float64 arrays a and b: ``_levels`` then orders each denominator's ends
per point, and ``_p_series`` bounds its remainder per point.  The entropy
sweep takes a batch of points on one leading axis, as many per sweep as
keep points x 2^n_max within ``_BLOCK_LIMIT``.

The innermost, unknown continuation of a finite word enters as the a-priori
interval [-1/(a-|b|), 1/(a-|b|)], which the level map keeps invariant
whenever a > 1 + |b|.  By construction the resulting interval contains the
true value for every bi-infinite extension of the word, and refining the
word or deepening the series never widens it.  Endpoints are ordinary
round-to-nearest floats with no directed rounding, so the enclosures are
validated by the depth-doubling tests rather than formally proven; the
checks in ``verify`` and the tests allow the absolute slack ``ULP_SLACK``
for that gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, InsufficientWord, NotHyperbolic
from .symbolic import MINUS, PLUS, Word, coordinate_symbols, redot

# Absolute dust an enclosure may miss by: the rounding gap above.
ULP_SLACK = 5e-13


@dataclass(frozen=True)
class Params:
    """Lozi parameter pair (a, b)."""

    a: float
    b: float

    @property
    def hyperbolic(self) -> bool:
        """a > 1 + |b| with a and b finite: an infinite a describes no map."""
        return math.isfinite(self.a) and math.isfinite(self.b) and self.a > 1.0 + abs(self.b)

    def require_hyperbolic(self) -> None:
        if not self.hyperbolic:
            raise NotHyperbolic(f"need a > 1 + |b|, got a={self.a}, b={self.b}")


def _require_depth(depth: int) -> None:
    """The input rule of a series depth: at least 0."""
    if depth < 0:
        raise ValueError("depth must be >= 0")


def _require_series(params: Params, depth: int) -> None:
    """The input rule of every depth-taking entry point: hyperbolic
    parameters and a valid series depth."""
    params.require_hyperbolic()
    _require_depth(depth)


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

def _array_near_far(level):
    """Per cell, the endpoints of a one-signed enclosure by magnitude."""
    positive = level[0] > 0.0
    return np.where(positive, *level), np.where(positive, *level[::-1])


def _near_far_levels(levels):
    """(near, far) per level, split lazily for arrays, and min and max for the type."""
    if levels and isinstance(levels[0][0], np.ndarray):
        return map(_array_near_far, levels), np.minimum, np.maximum
    return [lv if lv[0] > 0.0 else lv[::-1] for lv in levels], min, max


def _levels(shifts, params: Params) -> list:
    """Enclosures of the continued-fraction levels x <- 1/(shift + b x).

    Each shift is +-a times a symbol.  The sweep starts from the a-priori
    interval [-1/(a-|b|), 1/(a-|b|)], which stands for the unknown
    continuation beyond the first shift, and returns one enclosure per shift
    in sweep order; every one is uniform over all such continuations.
    A grid of b orders each denominator's ends per point, bit for bit as the
    sign of a float b does: rounding is monotone, and the shift is never 0.
    """
    b = params.b
    rad = 1.0 / (params.a - abs(b))
    lo, hi = -rad, rad
    grid = isinstance(b, np.ndarray)
    out = []
    for shift in shifts:
        ends = shift + b * lo, shift + b * hi
        if grid:
            den_lo, den_hi = np.minimum(*ends), np.maximum(*ends)
        else:
            den_lo, den_hi = ends if b >= 0 else ends[::-1]
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

    Term k is the product of the factors (-b s_{-j}), j = 2..k+1, each of
    one sign or 0, so with monotone rounding (near, far) carries it exactly.
    Every untaken term extends it by factors of magnitude <= |b|/(a-|b|),
    so the remainder is geometric from it (infinite when the ratio reaches 1,
    per point for a grid).
    """
    pairs, lowest, highest = _near_far_levels(s_levels)
    b = params.b
    lo = hi = near = far = 1.0
    for s_near, s_far in pairs:
        near *= -b * s_near
        far *= -b * s_far
        lo += lowest(near, far)
        hi += highest(near, far)
    ratio = abs(b) / (params.a - abs(b))
    if isinstance(ratio, np.ndarray):
        converges = ratio < 1.0
        growth = np.divide(ratio, 1.0 - ratio, out=np.zeros_like(ratio), where=converges)
        bound = np.where(converges, abs(far) * growth, math.inf)
    else:
        bound = abs(far) * (ratio / (1.0 - ratio)) if ratio < 1.0 else math.inf
    return lo - bound, hi + bound


def _q_series(r_levels, params: Params):
    """Enclosure of q from the levels r_0, r_1, ... of its taken terms.

    Term n is (-1)^n r_0 ... r_n, each r of one sign, so with monotone
    rounding (near, far) carries the product exactly.  The majorant
    (a-|b|)^-(n+1) sums geometrically when hyperbolic, so the remainder
    is at most the last product over (a-|b|-1), finite with no terms taken.
    """
    pairs, lowest, highest = _near_far_levels(r_levels)
    lo, hi, near, far = 0.0, 0.0, 1.0, 1.0
    for n, (r_near, r_far) in enumerate(pairs):
        near *= r_near
        far *= r_far
        if n % 2 == 0:
            lo += lowest(near, far)
            hi += highest(near, far)
        else:
            lo -= highest(near, far)
            hi -= lowest(near, far)
    bound = abs(far) / (params.a - abs(params.b) - 1.0)
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


def eval_p(w: Word, depth: int, params: Params) -> tuple[float, float]:
    """Enclosure (lo, hi) of the tail pruning value p(w)(a, b).

    Series terms k = 1..depth use s_{-2}..s_{-(depth+1)}; the word must hold
    at least depth+2 tail symbols so even the deepest term sees one refined
    continued-fraction level.
    """
    _require_series(params, depth)
    if w.tail_len < depth + 2:
        raise InsufficientWord(f"tail length {w.tail_len} < depth + 2 = {depth + 2}")
    return _p_enclosure(w.tail[::-1], depth, params)


def eval_q(w: Word, depth: int, params: Params) -> tuple[float, float]:
    """Enclosure (lo, hi) of the head pruning value q(w)(a, b).

    Series terms n = 0..depth use r_0..r_depth, so the head must hold at
    least depth+1 symbols.
    """
    _require_series(params, depth)
    if w.head_len < depth + 1:
        raise InsufficientWord(f"head length {w.head_len} < depth + 1 = {depth + 1}")
    return _q_enclosure(w.head, depth, params)


def closed_form_q(params: Params) -> float:
    """q for the head (+1, -1, -1, ...) in closed form.

    With x = (a - sqrt(a^2 + 4b))/2: q = b / ((a + x)(b + x)), continued at
    b = 0 by its limit 1/(a - 1).
    """
    params.require_hyperbolic()
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

_CELL_LIMIT = 1 << 22  # largest raster: 4^11 cells
_BLOCK_LIMIT = 1 << 20  # largest block count: n_max = 20 traces 88.5 MiB at (1.7, 0.2), depth 12


@dataclass(frozen=True)
class Raster:
    """Verdict grid over all (tail, head) cylinders of a fixed word length.

    cells[i, j] is the PGM code of the word whose tail has rank i and head
    rank j in the respective coordinate orders (rank 0 = coordinate 0).
    """

    cells: np.ndarray

    @property
    def width(self) -> int:
        return int(self.cells.shape[1])

    @property
    def height(self) -> int:
        return int(self.cells.shape[0])

    # Each count scans the cells on its first read only.
    @cached_property
    def pruned_count(self) -> int:
        return int(np.count_nonzero(self.cells == PGM_PRUNED))

    @cached_property
    def admissible_count(self) -> int:
        return int(np.count_nonzero(self.cells == PGM_ADMISSIBLE))

    @cached_property
    def unknown_count(self) -> int:
        return int(np.count_nonzero(self.cells == PGM_UNKNOWN))


def _rank_split(cols, probes):
    """Ranks r of cols in a stable argsort, and for each probe the count k of
    cols <= it, so that probe_i < cols_j exactly when r_j >= k_i.

    The cols <= a probe are the first k in sorted order, ties included, so
    the identity holds for finite and infinite floats, but not for NaN.  Both
    run to one raster side, at most the square root of _CELL_LIMIT.
    """
    rank_type = np.min_scalar_type(math.isqrt(_CELL_LIMIT))
    order = np.argsort(cols, kind="stable")
    ranks = np.empty(len(cols), dtype=rank_type)
    ranks[order] = np.arange(len(cols), dtype=rank_type)
    return ranks, np.searchsorted(cols[order], probes, side="right").astype(rank_type)


_FILL_ROWS = 64  # two 64 x 2,048 boolean blocks stay in cache


def _fill_cells(plo, phi, qlo, qhi):
    """PGM codes of rows with p in [plo, phi] against columns with q in
    [qlo, qhi]: pruned where phi < qlo, admissible where plo >= qhi, both
    as rank compares a block of rows at a time.  The two never hold
    together, since plo <= phi and qlo <= qhi.
    """
    pruned_rank, pruned_from = _rank_split(qlo, phi)  # phi_i < qlo_j
    admissible_rank, admissible_below = _rank_split(qhi, plo)  # plo_i >= qhi_j
    cells = np.empty((len(phi), len(qlo)), dtype=np.uint8)
    for start in range(0, len(phi), _FILL_ROWS):
        rows = slice(start, start + _FILL_ROWS)
        pruned = pruned_rank >= pruned_from[rows, None]
        admissible = admissible_rank < admissible_below[rows, None]
        cells[rows] = (
            PGM_UNKNOWN
            + (PGM_ADMISSIBLE - PGM_UNKNOWN) * admissible.view(np.uint8)
            - (PGM_UNKNOWN - PGM_PRUNED) * pruned.view(np.uint8)
        )
    return cells


def pruned_region_raster(params: Params, word_len: int, depth: int) -> Raster:
    """Classify all 4^word_len cylinders with word_len symbols per side.

    Cells certify membership of the whole cylinder: entirely negative
    enclosure of (p - q) at the dot -> pruned; entirely non-negative ->
    admissible window; otherwise unknown.  p depends only on the tail (the
    row) and q only on the head (the column), so each series is summed once
    per row or column, and each cell compare is a rank compare: the column's
    rank among the sorted q endpoints against the row's count of q endpoints
    at or below its p endpoint.
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
    # The q endpoints are finite and the p endpoints finite, or +-inf where
    # the p remainder diverges (|b| > 1): no NaN reaches the rank compare.
    cells = _fill_cells(plo, phi, qlo, qhi)
    return Raster(cells=cells)


def _require_blocks(n: int) -> None:
    """The input rule of the word counts: a block length n >= 1, and 2^n
    blocks at most _BLOCK_LIMIT."""
    if n < 1:
        raise ValueError("n_max must be >= 1")
    if (1 << n) > _BLOCK_LIMIT:
        raise BudgetExceeded(f"2^{n} blocks of length {n} exceed the limit {_BLOCK_LIMIT}")


def _symbol_axes(n: int) -> list[np.ndarray]:
    """The symbols of n positions, each on its own numpy axis of length 2:
    entry j holds [+1, -1] with shape (1,)*j + (2,) + (1,)*(n-1-j)."""
    return [np.array([1.0, -1.0]).reshape((1,) * j + (2,) + (1,) * (n - 1 - j)) for j in range(n)]


def _enclosure_sweep(params: Params, n_max: int, depth: int):
    """p enclosures of every prefix and q enclosures of every suffix of the
    symbol blocks of length n_max, as (p, q).

    The blocks live on the last n_max numpy axes, of length 2 (_symbol_axes):
    axis j holds the symbol at position j, index 0 for +1 and index 1 for -1.
    p[k] encloses p for the dot at k, which reads the prefix of length k; it
    spans only the first k - 1 axes (s_{-1} takes no series term).  q[L]
    encloses q for the suffix of length L and spans the last L axes.  An
    enclosure depends only on its prefix or suffix word, never on the block
    length, so this one sweep serves every block length n <= n_max
    (_block_masks puts it on n axes).  Broadcasting computes each level and
    series once per distinct prefix or suffix, about 3 * depth * 2^n_max
    series terms in all.  When a and b are 1-D arrays, a batch of points,
    they go on one leading axis, and every enclosure carries it.
    """
    if isinstance(params.a, np.ndarray):
        params = Params(*(v.reshape(v.shape + (1,) * n_max) for v in (params.a, params.b)))
    a = params.a
    cols = _symbol_axes(n_max)
    # Each series reads its widest level first (r[j], then y[k - 2]), so the
    # in-place products and sums of the series never have to grow a shape.
    # r[j] encloses the ascending continued fraction r_0 of the suffix j..;
    # the suffix of length L takes r_t from r[n_max - L + t].
    r = _levels([a * cols[j] for j in range(n_max - 1, -1, -1)], params)[::-1]
    # Longest suffix first, so no finished q is held while the widest
    # series runs.
    q = {
        L: _q_series(r[n_max - L : n_max - L + min(depth, L - 1) + 1], params)
        for L in range(n_max, 0, -1)
    }
    del r  # free the suffix levels before the prefix levels are built
    # y[t] encloses the descending continued fraction ending at position t,
    # i.e. s_{-(k-t)} for the dot at k; term j of p uses y[k - j - 1], so
    # no p reads the last two positions.
    y = _levels([-a * cols[t] for t in range(n_max - 2)], params)
    p = []
    for k in range(n_max):
        dp = max(0, min(depth, k - 1))
        p.append(_p_series(y[k - 1 - dp : k - 1][::-1], params))
    return p, q


def _block_masks(sweep, n: int):
    """Per-block masks over all 2^n symbol blocks of length n, from an
    _enclosure_sweep at any n_max >= n.

    pruned_any[w]: some dot placement inside the block has an entirely
    negative enclosure, so the block cannot occur in any admissible sequence.
    cert_all[w]: every placement has an entirely non-negative enclosure.

    The masks are in plain binary order, w = sum_j [symbol j is -1]
    2^(n-1-j), along the last axis; a batch sweep's point axis leads.  The
    prefix enclosures drop the sweep's trailing axes past n and the suffix
    enclosures its first n_max - n symbol axes, all of length 1, so only the
    two compares span all 2^n blocks.
    """
    p, q = sweep
    points = q[len(p)][0].shape[: -len(p)]
    kept = len(points) + n
    pruned_any = np.zeros(points + (2,) * n, dtype=bool)
    cert_all = np.ones(points + (2,) * n, dtype=bool)
    for k in range(n):
        plo, phi = (np.reshape(v, np.shape(v)[:kept]) for v in p[k])
        qlo, qhi = (v.reshape(points + v.shape[-n:]) for v in q[n - k])
        pruned_any |= phi < qlo
        cert_all &= plo >= qhi
    return pruned_any.reshape(points + (-1,)), cert_all.reshape(points + (-1,))


def _bracket(pruned_any, cert_all) -> tuple[int, int]:
    """(lower, upper) block counts from the masks of _block_masks at one
    point."""
    upper = int(np.count_nonzero(~pruned_any))
    lower = int(np.count_nonzero(cert_all & ~pruned_any))
    return lower, upper


ENTROPY_HEADER = ("a", "b", "n", "depth", "count_lower", "count_upper", "h_lower", "h_upper")


def entropy_rows(params: Params, n_max: int, depth: int) -> list[tuple]:
    """Entropy bracket rows per block length n = 1..n_max, laid out as
    ENTROPY_HEADER; the last row is the final estimate.

    Upper counts are submultiplicative so the running min over log(upper)/n
    is a valid upper bound at every n; the lower bound uses only the current
    length and is clamped into [0, h_upper].  params may hold equal-length
    1-D float64 arrays a and b: the rows are then those of each point in
    turn, with a and b as floats, from one sweep per chunk of at most
    _BLOCK_LIMIT / 2^n_max points.
    """
    _require_blocks(n_max)
    points = list(zip(np.atleast_1d(params.a).tolist(), np.atleast_1d(params.b).tolist()))
    for a, b in points:
        _require_series(Params(a, b), depth)
    chunk = _BLOCK_LIMIT >> n_max
    rows = []
    for start in range(0, len(points), chunk):
        part = params
        if isinstance(params.a, np.ndarray):
            part = Params(params.a[start : start + chunk], params.b[start : start + chunk])
        sweep = _enclosure_sweep(part, n_max, depth)
        counts = []  # per block length, (lower, upper) per point
        for n in range(1, n_max + 1):
            masks = (m.reshape(-1, m.shape[-1]) for m in _block_masks(sweep, n))
            counts.append([_bracket(*point) for point in zip(*masks)])
        for i, (a, b) in enumerate(points[start : start + chunk]):
            h_upper = math.inf
            for n, per_point in enumerate(counts, start=1):
                lower, upper = per_point[i]
                h_upper = min(h_upper, math.log(upper) / n if upper > 0 else 0.0)
                h_up = max(h_upper, 0.0)
                h_lo = math.log(lower) / n if lower > 0 else 0.0
                h_lo = min(max(h_lo, 0.0), h_up)
                rows.append((a, b, n, depth, lower, upper, h_lo, h_up))
    return rows

"""Pruning pair (p, q) with certified truncation bounds, cylinder verdicts,
pruned-region rasters, and entropy brackets.

One interval engine does every evaluation.  ``_levels`` sweeps the
continued-fraction level map x <- 1/(+-a e + b x); ``_p_series`` and
``_q_series`` sum the tail and head series from those levels.  The same three
functions take float endpoints for one word (the scalar evaluators and
``classify_cylinder``), float64 arrays for a batch of rows (the raster), or
broadcastable per-axis arrays, one length-2 axis per symbol position (the
block masks, so each level and series is computed once per distinct prefix
or suffix).  A straddling denominator raises, so every level, and every p
factor -b s, has one sign or is 0: a series carries its running product as
(near, far), the products of the smaller- and of the larger-magnitude
endpoints, two multiplications per term.  As rounding to nearest is monotone
and symmetric in sign, min and max of that pair are bit for bit those of the
four endpoint products.  Each level is split into its (near, far) pair once
(``_near_far``), and each p factor pair (-b near, -b far) formed once
(``_p_factors``), before any series reads it, so the entropy sweep hands the
same pair to every series that reads a level.  On arrays a series updates its
near, far, lo and hi in place, with one scratch buffer for min and max, so
no term after the first allocates an array.  Only the split, min/max and the
straddle test depend on the endpoint type.  Every enclosure is a ``(lo, hi)``
pair, which the scalar evaluators return as it is.  A raster sums each side's
series once per row or column and classifies its cells by integer rank
compares against the sorted q endpoints, one block of rows at a time, so no
cell-sized float or mask array is ever built; the same rank split gives each
row's pruned and admissible counts, so that fill is the only pass over the
cells.  A block's p enclosure depends only on its prefix and its q enclosure
only on its suffix, never on the block length, so one sweep at the longest
length serves every block length of an entropy run.  The block masks compare
a placement with a short suffix in a suffix-major layout, so that numpy's
inner loop runs over many prefixes, not a few suffixes.  All three also take
a grid of float64 arrays a and b: ``_levels`` then orders each denominator's
ends per point, and ``_p_series`` bounds its remainder per point.  The
entropy sweep takes a batch of points on one leading axis, as many per sweep
as keep points x 2^n_max within ``_BLOCK_LIMIT``.

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
from functools import partial

import numpy as np

from .errors import BudgetExceeded, InsufficientWord, NotHyperbolic
from .symbolic import MINUS, PLUS, Word, coordinate_symbols

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
    CERTIFIED_ADMISSIBLE = "CertifiedAdmissible"
    UNKNOWN = "Unknown"


def special_head(n: int) -> tuple[int, ...]:
    """The head (+1, -1, -1, ...) maximizing q at (2, 0); closed form known."""
    if n <= 0:
        return ()
    return (PLUS,) + (MINUS,) * (n - 1)


# ---------------------------------------------------------------------------
# interval engine

def _near_far(levels) -> list:
    """Each one-signed level's endpoints by magnitude, (near, far), per cell
    for arrays."""
    if not (levels and isinstance(levels[0][0], np.ndarray)):
        return [lv if lv[0] > 0.0 else lv[::-1] for lv in levels]
    pairs = []
    for lo, hi in levels:
        positive = lo > 0.0
        pairs.append((np.where(positive, lo, hi), np.where(positive, hi, lo)))
    return pairs


def _p_factors(s_levels, params: Params) -> list:
    """The p factor -b s of each level as its (near, far) pair."""
    minus_b = -params.b
    return [(minus_b * near, minus_b * far) for near, far in _near_far(s_levels)]


def _extremes(pairs):
    """min and max for the endpoint type of a series' (near, far) pairs: the
    builtins for floats, and for arrays np.minimum and np.maximum into one
    scratch buffer shaped like the first, widest pair, which each sum reads
    before the next extreme overwrites it."""
    if pairs and isinstance(pairs[0][0], np.ndarray):
        scratch = np.empty_like(pairs[0][0])
        return partial(np.minimum, out=scratch), partial(np.maximum, out=scratch)
    return min, max


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


def _p_series(factors, params: Params):
    """Enclosure of p from the factor pairs of its taken terms: the
    _p_factors of the levels s_{-2}, s_{-3}, ...

    Term k is the product of the factors (-b s_{-j}), j = 2..k+1, each of
    one sign or 0, so with monotone rounding (near, far) carries it exactly.
    Arrays update near, far, lo and hi in place after the first term, so the
    first factor pair must be the widest.  Every untaken term extends the
    product by factors of magnitude <= |b|/(a-|b|), so the remainder is
    geometric from it (infinite when the ratio reaches 1, per point for a
    grid).
    """
    lowest, highest = _extremes(factors)
    b = params.b
    lo = hi = near = far = 1.0
    for f_near, f_far in factors:
        near *= f_near
        far *= f_far
        lo += lowest(near, far)
        hi += highest(near, far)
    ratio = abs(b) / (params.a - abs(b))
    if isinstance(ratio, np.ndarray):
        converges = ratio < 1.0
        growth = np.divide(ratio, 1.0 - ratio, out=np.zeros_like(ratio), where=converges)
        bound = np.where(converges, abs(far) * growth, math.inf)
    else:
        bound = abs(far) * (ratio / (1.0 - ratio)) if ratio < 1.0 else math.inf
    lo -= bound
    hi += bound
    return lo, hi


def _q_series(r_pairs, params: Params):
    """Enclosure of q from the (near, far) pairs of the levels r_0, r_1, ...
    of its taken terms.

    Term n is (-1)^n r_0 ... r_n, each r of one sign, so with monotone
    rounding (near, far) carries the product exactly; arrays update in place
    as in _p_series.  The majorant (a-|b|)^-(n+1) sums geometrically when
    hyperbolic, so the remainder is at most the last product over
    (a-|b|-1), finite with no terms taken.
    """
    lowest, highest = _extremes(r_pairs)
    lo, hi, near, far = 0.0, 0.0, 1.0, 1.0
    for n, (r_near, r_far) in enumerate(r_pairs):
        near *= r_near
        far *= r_far
        if n % 2 == 0:
            lo += lowest(near, far)
            hi += highest(near, far)
        else:
            lo -= highest(near, far)
            hi -= lowest(near, far)
    bound = abs(far)
    bound /= params.a - abs(params.b) - 1.0
    lo -= bound
    hi += bound
    return lo, hi


def _p_enclosure(tail_outward, depth: int, params: Params):
    """Enclosure of p over all extensions of a tail, series depth capped by
    the symbols held.  tail_outward[k] is the symbol at index -(k+1): an int
    for one word, or row k of a transposed symbol matrix for a batch."""
    m = len(tail_outward)
    d = max(0, min(depth, m - 1))
    levels = _levels([-params.a * tail_outward[k] for k in range(m - 1, 0, -1)], params)
    return _p_series(_p_factors(levels[::-1][:d], params), params)


def _q_enclosure(head, depth: int, params: Params):
    """Enclosure of q over all extensions of a head, series depth capped by
    the symbols held.  head[k] is the symbol at index k, as in _p_enclosure."""
    n = len(head)
    d = min(depth, n - 1)
    levels = _levels([params.a * head[k] for k in range(n - 1, -1, -1)], params)
    return _q_series(_near_far(levels[::-1][: d + 1]), params)


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


def classify_cylinder(w: Word, depth: int, params: Params) -> Verdict:
    """Classify the cylinder of w by the enclosure of (p - q) at its dot.

    CertifiedPruned: the enclosure is entirely negative, so every extension
    of w lies in the pruned region.  CertifiedAdmissible: it is entirely
    non-negative.  Anything else is Unknown.  A raster cell applies the same
    rule to the same word.
    """
    lo, hi = eval_pq_cylinder(w, depth, params)
    if hi < 0.0:
        return Verdict.CERTIFIED_PRUNED
    return Verdict.CERTIFIED_ADMISSIBLE if lo >= 0.0 else Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# rasters and block counts

# PGM gray codes for raster cells.
PGM_PRUNED = 0
PGM_UNKNOWN = 128
PGM_ADMISSIBLE = 255

_CELL_LIMIT = 1 << 22  # largest raster: 4^11 cells
_BLOCK_LIMIT = 1 << 20  # largest block count: n_max = 20 traces 80.0 MiB at (1.7, 0.2), depth 12


def _require_word_len(word_len: int) -> None:
    """The input rule of a raster's word length: at least 1, and at most
    _CELL_LIMIT cells, 4^word_len."""
    if word_len < 1:
        raise ValueError("word_len must be >= 1")
    cells_total = 1 << (2 * word_len)
    if cells_total > _CELL_LIMIT:
        raise BudgetExceeded(f"4^{word_len} = {cells_total} cells exceed limit {_CELL_LIMIT}")


@dataclass(frozen=True)
class Raster:
    """Verdict grid over all (tail, head) cylinders of a fixed word length.

    cells[i, j] is the PGM code of the word whose tail has rank i and head
    rank j in the respective coordinate orders (rank 0 = coordinate 0).  The
    counts come from the rank split of the fill, not from a scan of cells.
    """

    cells: np.ndarray
    pruned_count: int
    admissible_count: int

    @property
    def width(self) -> int:
        return int(self.cells.shape[1])

    @property
    def height(self) -> int:
        return int(self.cells.shape[0])

    @property
    def unknown_count(self) -> int:
        return self.cells.size - self.pruned_count - self.admissible_count


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


def _fill_cells(plo, phi, qlo, qhi) -> Raster:
    """Raster of rows with p in [plo, phi] against columns with q in
    [qlo, qhi]: pruned where phi < qlo, admissible where plo >= qhi, both
    as rank compares a block of rows at a time.  The two never hold
    together, since plo <= phi and qlo <= qhi.

    Each rank array is a permutation of 0..len(qlo) - 1, so row i has
    len(qlo) - pruned_from[i] pruned cells and admissible_below[i]
    admissible ones: the fill is the only pass over the cells.
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
    return Raster(
        cells=cells,
        pruned_count=cells.size - int(pruned_from.sum(dtype=np.int64)),
        admissible_count=int(admissible_below.sum(dtype=np.int64)),
    )


def pruned_region_raster(params: Params, word_len: int, depth: int) -> Raster:
    """Classify all 4^word_len cylinders with word_len symbols per side.

    Cells certify membership of the whole cylinder: entirely negative
    enclosure of (p - q) at the dot -> pruned; entirely non-negative ->
    admissible; otherwise unknown.  p depends only on the tail (the
    row) and q only on the head (the column), so each series is summed once
    per row or column, and each cell compare is a rank compare: the column's
    rank among the sorted q endpoints against the row's count of q endpoints
    at or below its p endpoint.
    """
    _require_series(params, depth)
    _require_word_len(word_len)
    tails = coordinate_symbols(word_len, MINUS if params.b >= 0 else PLUS)
    heads = coordinate_symbols(word_len, PLUS)
    # With depth 0 the p enclosure is one interval shared by every tail.
    plo, phi = (np.broadcast_to(v, len(tails)) for v in _p_enclosure(tails.T, depth, params))
    qlo, qhi = _q_enclosure(heads.T, depth, params)
    # The q endpoints are finite and the p endpoints finite, or +-inf where
    # the p remainder diverges (|b| > 1): no NaN reaches the rank compare.
    return _fill_cells(plo, phi, qlo, qhi)


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
    # Each level is split into (near, far) once, and each p factor formed
    # once, for every series that reads it.  Each series reads its widest
    # level first (r[j], then y[k - 2]), so the in-place products and sums
    # of the series never have to grow a shape.
    # r[j] encloses the ascending continued fraction r_0 of the suffix j..;
    # the suffix of length L takes r_t from r[n_max - L + t].
    r = _near_far(_levels([a * cols[j] for j in range(n_max - 1, -1, -1)], params)[::-1])
    # Longest suffix first, so no finished q is held while the widest
    # series runs.
    q = {
        L: _q_series(r[n_max - L : n_max - L + min(depth, L - 1) + 1], params)
        for L in range(n_max, 0, -1)
    }
    del r  # free the suffix levels before the prefix levels are built
    # y[t] is the factor pair of the descending continued fraction ending at
    # position t, i.e. of s_{-(k-t)} for the dot at k; term j of p uses
    # y[k - j - 1], so no p reads the last two positions.
    y = _p_factors(_levels([-a * cols[t] for t in range(n_max - 2)], params), params)
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
    two compares span all 2^n blocks.  In this layout numpy's innermost loop
    runs over a placement's suffixes, so the placements with fewer than
    h = n // 2 suffix symbols compare in _short_suffix_masks instead, and one
    transposed pass folds those in.
    """
    p, q = sweep
    points = q[len(p)][0].shape[: -len(p)]
    kept = len(points) + n
    h = max(1, n // 2)
    pruned_any = np.zeros(points + (2,) * n, dtype=bool)
    cert_all = np.ones(points + (2,) * n, dtype=bool)
    for k in range(n - h + 1):
        plo, phi = (np.reshape(v, np.shape(v)[:kept]) for v in p[k])
        qlo, qhi = (v.reshape(points + v.shape[-n:]) for v in q[n - k])
        pruned_any |= phi < qlo
        cert_all &= plo >= qhi
    if h > 1:
        short_pruned, short_cert = _short_suffix_masks(sweep, n, h, points)
        rows = points + (1 << (n - h), 1 << h)
        folded = pruned_any.reshape(rows)
        folded |= short_pruned.swapaxes(-1, -2)
        folded = cert_all.reshape(rows)
        folded &= short_cert.swapaxes(-1, -2)
    return pruned_any.reshape(points + (-1,)), cert_all.reshape(points + (-1,))


def _short_suffix_masks(sweep, n: int, h: int, points: tuple):
    """_block_masks' (pruned, cert) over the placements with 1..h-1 suffix
    symbols, suffix-major: row r holds the blocks whose last h symbols are r
    and column c those whose first n - h are c, both in plain binary order.

    numpy's inner loops then run over the 2^(n-h) columns: each compare
    writes into one scratch buffer laid out like the masks, which the
    in-place | and & then read in order.
    """
    p, q = sweep
    cols = 1 << (n - h)
    pruned = np.zeros(points + (1 << h, cols), dtype=bool)
    cert = np.ones(points + (1 << h, cols), dtype=bool)
    scratch = np.empty(points + (1 << (n - 1),), dtype=bool)

    def prefix(v, top):
        # The prefix's first n - h symbols pick the column and its other
        # symbols the top of the row, as (top, 1, 1, column) axes.
        if np.size(v) == math.prod(points):  # no series term, no symbol axis
            return np.reshape(v, points + (1, 1, 1, 1))
        return np.reshape(v, points + (cols, top)).swapaxes(-1, -2)[..., None, None, :]

    for m in range(1, h):
        # Row bits: h - m - 1 prefix symbols (top), then symbol n - m - 1,
        # which no enclosure of the placement reads, then the m suffix ones.
        top = 1 << (h - m - 1)
        grid = points + (top, 2, 1 << m, cols)
        plo, phi = (prefix(v, top) for v in p[n - m])
        qlo, qhi = (v.reshape(points + (1, 1, 1 << m, 1)) for v in q[m])
        compared = scratch.reshape(points + (top, 1, 1 << m, cols))
        np.greater(qlo, phi, out=compared)  # phi < qlo
        acc = pruned.reshape(grid)
        acc |= compared
        np.less_equal(qhi, plo, out=compared)  # plo >= qhi
        acc = cert.reshape(grid)
        acc &= compared
    return pruned, cert


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

"""Pruning-pair evaluators, word verdicts, rasters, and word counting.

Expected values come from independent oracles: fixed points of the level
recursion solved by quadratic formula, geometric series at b = 0, exact
Fraction arithmetic for b = 0 rasters, and high-precision mpmath evaluation
of the series on periodic bi-infinite words.
"""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest
from mpmath import mp

from lozi_pruning import (
    MINUS,
    PLUS,
    BudgetExceeded,
    InsufficientWord,
    NotHyperbolic,
    Params,
    classify_words,
    closed_form_q,
    eval_p,
    eval_q,
    pruned_region_raster,
    special_head,
)
from lozi_pruning import formats, pruning
from lozi_pruning.pruning import (
    ENTROPY_HEADER,
    PGM_ADMISSIBLE,
    PGM_PRUNED,
    PGM_UNKNOWN,
    ULP_SLACK,
    _block_masks,
    _bracket,
    _enclosure_sweep,
    _fill_cells,
    _levels,
    _near_far,
    _p_enclosure,
    _p_factors,
    _p_series,
    _q_enclosure,
    _q_series,
    entropy_rows,
)
from lozi_pruning.symbolic import coordinate_symbols, symbol_axes
from symbolic_reference import head_coordinate, heads, tail_coordinate, tails


def _q_series_mp(eps, a, b, levels=500, terms=200, seed=0.0):
    """High-precision head series on an infinite head eps: index -> symbol."""
    with mp.workdps(60):
        r_next = mp.mpf(seed)
        rs = {}
        for j in range(levels - 1, -1, -1):
            r_next = 1 / (a * eps(j) + b * r_next)
            if j < terms:
                rs[j] = r_next
        q = mp.mpf(0)
        prod = mp.mpf(1)
        for n in range(terms):
            prod *= rs[n]
            q += prod if n % 2 == 0 else -prod
        return q


def _p_series_mp(eps_tail, a, b, levels=500, terms=200, seed=0.0):
    """High-precision tail series; eps_tail(j) is the symbol at index -j."""
    with mp.workdps(60):
        s_next = mp.mpf(seed)
        ss = {}
        for j in range(levels, 1, -1):
            s_next = 1 / (-a * eps_tail(j) + b * s_next)
            if j <= terms + 1:
                ss[j] = s_next
        p = mp.mpf(1)
        prod = mp.mpf(1)
        for k in range(1, terms + 1):
            prod *= -b * ss[k + 1]
            p += prod
        return p


def _contains(enclosure, target) -> bool:
    lo, hi = enclosure
    return bool(np.all((lo - ULP_SLACK <= target) & (target <= hi + ULP_SLACK)))


def _one(symbols) -> np.ndarray:
    """One word's symbols by position, as eval_p, eval_q and classify_words
    take them: a one-column matrix."""
    return np.transpose([symbols])


def _pq_enclosure(tails, heads, depth: int, par: Params):
    """Enclosure of (p - q) per word, as classify_words compares it: words
    by position, series depths capped by the symbols a side holds."""
    plo, phi = _p_enclosure(tails, depth, par)
    qlo, qhi = _q_enclosure(heads, depth, par)
    return plo - qhi, phi - qlo


def _s_level(tail, n: int, depth: int, par: Params) -> tuple[float, float]:
    """Enclosure of the tail level s_n (n <= -2) from the symbols at
    indices n - depth .. n, innermost first; tail[k] is the symbol at index
    -(k+1)."""
    shifts = [-par.a * tail[j - 1] for j in range(depth - n, -n - 1, -1)]
    return _levels(shifts, par)[-1]


def _r_level(head, n: int, depth: int, par: Params) -> tuple[float, float]:
    """Enclosure of the head level r_n (n >= 0) from the symbols at
    indices n + depth .. n, innermost first."""
    shifts = [par.a * head[j] for j in range(n + depth, n - 1, -1)]
    return _levels(shifts, par)[-1]


def _counts(par: Params, n: int, depth: int) -> tuple[int, int]:
    """(count_lower, count_upper) of the length-n blocks: entropy_rows' last
    row at n_max = n."""
    row = dict(zip(ENTROPY_HEADER, entropy_rows(par, n, depth)[-1]))
    return row["count_lower"], row["count_upper"]


def _estimate(par: Params, n_max: int, depth: int) -> tuple[float, float]:
    """(h_lower, h_upper) of entropy_rows' last row."""
    return entropy_rows(par, n_max, depth)[-1][-2:]


def test_hyperbolic_predicate_and_gate():
    Params(2.0, 0.5).require_hyperbolic()
    Params(1.2, -0.1).require_hyperbolic()
    # Params(1.5, 0.5) is on the boundary a = 1 + |b|
    for bad in (Params(1.5, 0.5), Params(1.0, 0.0), Params(2.0, 1.1), Params(1.3, -0.4)):
        with pytest.raises(NotHyperbolic):
            bad.require_hyperbolic()
        with pytest.raises(NotHyperbolic):
            eval_p(_one((PLUS,) * 5), 1, bad)


def test_nonfinite_parameters_are_not_hyperbolic():
    inf, nan = math.inf, math.nan
    for bad in (Params(inf, 0.5), Params(inf, 0.0), Params(inf, -inf), Params(nan, 0.0),
                Params(2.0, nan), Params(inf, inf)):
        with pytest.raises(NotHyperbolic):
            bad.require_hyperbolic()
        with pytest.raises(NotHyperbolic):
            pruned_region_raster(bad, 2, 12)
        with pytest.raises(NotHyperbolic):
            entropy_rows(bad, 3, 12)


def test_not_hyperbolic_names_the_first_failing_point_of_a_grid():
    grid = Params(np.array([1.7, 1.7, 1.2]), np.array([0.2, 0.9, 0.5]))
    with pytest.raises(NotHyperbolic, match=r"got a=1\.7, b=0\.9$"):
        grid.require_hyperbolic()
    with pytest.raises(NotHyperbolic, match=r"got a=1\.7, b=0\.9$"):
        entropy_rows(grid, 3, 12)
    with pytest.raises(NotHyperbolic, match=r"got a=inf, b=0\.0$"):
        Params(np.array([[2.0], [math.inf]]), 0.0).require_hyperbolic()


def test_eval_p_gives_one_enclosure_per_tail_at_every_depth():
    # No series term reads s_{-1}, nor at depth 0 any symbol, yet every
    # tail gets its own ends, so the shape never depends on the depth.
    par = Params(1.7, 0.2)
    tails = _random_batch(random.Random(7), 5, 6)
    for depth in range(5):
        for ends in eval_p(tails, depth, par):
            assert ends.shape == (5,), depth
        for ends in eval_p(symbol_axes(6), depth, par):
            assert ends.shape == (2,) * 6, depth
    lo, hi = eval_p(tails, 0, Params(np.array([[1.7], [1.9]]), 0.2))
    assert lo.shape == hi.shape == (2, 5)


def test_level_values_exact_at_b0():
    # With b = 0 a level is 1/(+-a) exactly and the enclosure collapses.
    par = Params(2.0, 0.0)
    tail, head = (PLUS, MINUS, PLUS), (MINUS, PLUS)
    s = -1.0 / (2.0 * tail[1])
    assert _s_level(tail, -2, 0, par) == (s, s)
    s3 = -1.0 / (2.0 * tail[2])
    assert _s_level(tail, -3, 0, par) == (s3, s3)
    r0 = head[0] / 2.0
    assert _r_level(head, 0, 0, par) == (r0, r0)
    r1 = head[1] / 2.0
    assert _r_level(head, 1, 0, par) == (r1, r1)


def test_s_constant_plus_tail_fixed_point():
    # s = 1/(-a + b s) with a=2, b=0.5 gives s^2 - 4s - 2 = 0, root 2 - sqrt(6)
    # inside the invariant disc.
    target = 2.0 - math.sqrt(6.0)
    lo, hi = _s_level((PLUS,) * 40, -2, 30, Params(2.0, 0.5))
    assert _contains((lo, hi), target)
    assert hi - lo < 2e-10


def test_r_constant_minus_continuation_fixed_point():
    # On the head (+1, -1, -1, ...) the levels from index 1 on satisfy the
    # same fixed-point equation as the constant tail above.
    target = 2.0 - math.sqrt(6.0)
    lo, hi = _r_level(special_head(40), 1, 30, Params(2.0, 0.5))
    assert _contains((lo, hi), target)
    assert hi - lo < 2e-10


def test_q_all_plus_head_is_third_at_2_0():
    # r_n = 1/2 for every n, so q = sum (-1)^n 2^-(n+1) = 1/3.
    lo, hi = eval_q(_one((PLUS,) * 20), 19, Params(2.0, 0.0))
    assert _contains((lo, hi), 1.0 / 3.0)
    assert np.all(hi - lo <= 2.0 ** -19 + 2e-15)


def test_q_special_head_geometric_at_b0():
    # r_0 = 1/a, r_n = -1/a afterwards: every term is a^-(n+1), so q = 1/(a-1).
    for a in (1.5, 1.95, 2.0, 3.0):
        par = Params(a, 0.0)
        assert _contains(eval_q(_one(special_head(40)), 39, par), 1.0 / (a - 1.0))
        assert closed_form_q(par) == pytest.approx(1.0 / (a - 1.0), abs=1e-15)


def test_closed_form_q_matches_series_oracle():
    eps = lambda j: PLUS if j == 0 else MINUS
    for (a, b) in [(2.0, 0.5), (1.8, 0.4), (1.8, -0.4), (2.5, 0.9), (1.6, -0.25)]:
        par = Params(a, b)
        cf = closed_form_q(par)
        oracle = _q_series_mp(eps, a, b, seed=0.0)
        oracle2 = _q_series_mp(eps, a, b, seed=1.0 / (a - abs(b)))
        assert float(abs(oracle - oracle2)) < 1e-30  # truncation-insensitive
        assert cf == pytest.approx(float(oracle), abs=1e-12)
        assert _contains(eval_q(_one(special_head(50)), 49, par), cf)


def test_p_is_exactly_one_at_b0():
    for tail in [(MINUS, PLUS, MINUS, PLUS) * 3, (PLUS,) * 8, (MINUS,) * 8]:
        lo, hi = eval_p(_one(tail), 5, Params(1.7, 0.0))
        assert lo.tolist() == hi.tolist() == [1.0]


def test_p_constant_plus_tail_closed_form():
    # Each series term multiplies by -b*(2 - sqrt(6)), so p is the geometric
    # sum 1/(1 - (sqrt(6)-2)/2) = 0.8 + 0.2*sqrt(6).
    target = 0.8 + 0.2 * math.sqrt(6.0)
    oracle = _p_series_mp(lambda j: PLUS, 2.0, 0.5)
    assert float(oracle) == pytest.approx(target, abs=1e-13)
    lo, hi = eval_p(_one((PLUS,) * 40), 30, Params(2.0, 0.5))
    assert _contains((lo, hi), target)
    assert np.all(hi - lo < 2e-8)


def test_insufficient_word_and_bad_arguments():
    par = Params(2.0, 0.5)
    with pytest.raises(InsufficientWord):
        eval_p(_one((PLUS,) * 5), 4, par)  # needs depth + 2 = 6
    with pytest.raises(InsufficientWord):
        eval_q(_one((PLUS,) * 5), 5, par)  # needs depth + 1 = 6
    with pytest.raises(ValueError):
        eval_p(_one((PLUS,) * 5), -1, par)
    with pytest.raises(ValueError):
        classify_words(_one((PLUS,) * 5), _one((PLUS,) * 5), -1, par)
    with pytest.raises(ValueError):
        entropy_rows(Params(1.7, 0.2), 6, -1)


def _no_levels(shifts, params):
    raise AssertionError("a level was built")


@pytest.mark.parametrize("bad", [0, 2, -2, 0.5])
def test_a_symbol_other_than_plus_or_minus_one_is_refused_before_any_level(monkeypatch, bad):
    # A 0 symbol would reach _levels as the shift 0.
    monkeypatch.setattr(pruning, "_levels", _no_levels)
    par = Params(1.7, 0.2)
    words = np.full((3, 6), PLUS, dtype=np.int8 if bad == int(bad) else float)
    words[1, 4] = bad
    with pytest.raises(ValueError):
        eval_p(words.T, 3, par)
    with pytest.raises(ValueError):
        eval_q(words.T, 3, par)
    with pytest.raises(ValueError):
        eval_p([*symbol_axes(5), np.array([1.0, bad])], 3, par)
    good = np.full((6, 3), MINUS, dtype=np.int8)
    with pytest.raises(ValueError):
        classify_words(words.T, good, 3, par)
    with pytest.raises(ValueError):
        classify_words(good, words.T, 3, par)


def test_classify_words_refuses_unequal_word_counts_before_any_level(monkeypatch):
    monkeypatch.setattr(pruning, "_levels", _no_levels)
    par = Params(1.7, 0.2)
    tails, heads = np.full((6, 4), PLUS), np.full((6, 5), MINUS)
    with pytest.raises(ValueError):
        classify_words(tails, heads, 3, par)
    with pytest.raises(ValueError):
        classify_words(heads, tails, 3, par)
    with pytest.raises(ValueError):
        classify_words(tails[:, 0], heads[:, 0], 3, par)  # one word, not a matrix


def _random_word(rng: random.Random, m: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(tail, head) of m and n random symbols, both read outward from the
    dot; the tail's are drawn outermost first."""
    syms = lambda k: tuple(rng.choice((MINUS, PLUS)) for _ in range(k))
    return syms(m)[::-1], syms(n)


def _random_batch(rng: random.Random, words: int, length: int) -> np.ndarray:
    """words symbol words of one length by position, one per column."""
    return np.array([[rng.choice((MINUS, PLUS)) for _ in range(words)] for _ in range(length)])


def _assert_same_bits(got, want):
    # Equal values, types and shapes, and equal signs of zero.
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def test_evaluators_return_the_kernel_pair():
    # eval_p and eval_q hand on the kernel's (lo, hi) as it is; a midpoint
    # and radius round trip would round both ends to nearest.
    rng = random.Random(2200)
    for _ in range(200):
        b = rng.choice((0.0, rng.uniform(-0.9, 0.9)))
        par = Params(1.0 + abs(b) + rng.uniform(0.01, 2.0), b)
        depth = rng.randint(0, 14)
        tails = _random_batch(rng, 8, depth + 2 + rng.randint(0, 6))
        heads = _random_batch(rng, 8, depth + 1 + rng.randint(0, 6))
        _assert_same_bits(eval_q(heads, depth, par), _q_enclosure(heads, depth, par))
        _assert_same_bits(eval_p(tails, depth, par), _p_enclosure(tails, depth, par))


def test_enclosures_nest_in_depth_and_word_refinement():
    rng = random.Random(20240817)
    for _ in range(200):
        b = rng.uniform(-0.9, 0.9)
        a = 1.0 + abs(b) + rng.uniform(0.1, 2.0)
        par = Params(a, b)
        m, n = rng.randint(0, 10), rng.randint(0, 10)
        tail, head = _random_word(rng, m, n)
        d1 = rng.randint(0, 5)
        d2 = d1 + rng.randint(1, 4)
        lo1, hi1 = _pq_enclosure(_one(tail), _one(head), d1, par)
        lo2, hi2 = _pq_enclosure(_one(tail), _one(head), d2, par)
        assert np.all((lo1 - ULP_SLACK <= lo2) & (hi2 <= hi1 + ULP_SLACK))
        ext_tail = tail + _random_word(rng, rng.randint(1, 4), 0)[0]
        ext_head = head + _random_word(rng, 0, rng.randint(1, 4))[1]
        lo3, hi3 = _pq_enclosure(_one(ext_tail), _one(ext_head), d1, par)
        assert np.all((lo1 - ULP_SLACK <= lo3) & (hi3 <= hi1 + ULP_SLACK))


def test_enclosures_contain_periodic_word_oracle():
    rng = random.Random(5150)
    for _ in range(25):
        b = rng.uniform(-0.75, 0.75)
        a = 1.0 + abs(b) + rng.uniform(0.25, 1.5)
        period = rng.randint(1, 6)
        pat = [rng.choice((MINUS, PLUS)) for _ in range(period)]
        eps_head = lambda j: pat[j % period]
        eps_tail = lambda j: pat[(j - 1) % period]
        m = n = 18
        tail = _one([eps_tail(k + 1) for k in range(m)])
        head = _one([eps_head(j) for j in range(n)])
        p_true = float(_p_series_mp(eps_tail, a, b))
        q_true = float(_q_series_mp(eps_head, a, b))
        par = Params(a, b)
        assert _contains(eval_p(tail, 14, par), p_true)
        assert _contains(eval_q(head, 14, par), q_true)
        assert _contains(_pq_enclosure(tail, head, 14, par), p_true - q_true)


def test_classify_all_admissible_at_2_0():
    # Nothing is pruned for the full horseshoe: q never certifiably exceeds 1.
    # This holds at the dot; test_counting_full_shift_exact covers every
    # placement.
    rng = random.Random(99)
    words = [_random_word(rng, 6, 6) for _ in range(60)]
    tails, heads = (np.transpose(side) for side in zip(*words))
    codes = classify_words(tails, heads, 5, Params(2.0, 0.0))
    assert codes.tolist() == [PGM_ADMISSIBLE] * 60


def test_classify_pruned_special_head_below_a2():
    tails, heads = _one((PLUS, PLUS)), _one(special_head(8))
    assert classify_words(tails, heads, 7, Params(1.95, 0.0)).tolist() == [PGM_PRUNED]
    assert classify_words(tails, heads, 7, Params(2.0, 0.0)).tolist() != [PGM_PRUNED]


def test_classify_unknown_when_enclosure_straddles():
    # A one-symbol head at depth 0 leaves the whole series tail open; an
    # empty tail is one interval for every word.
    codes = classify_words(np.empty((0, 2)), [(PLUS, PLUS)], 0, Params(1.95, 0.0))
    assert codes.tolist() == [PGM_UNKNOWN] * 2


def test_raster_full_shift_all_admissible():
    r = pruned_region_raster(Params(2.0, 0.0), 8, 7)
    assert r.cells.shape == (256, 256)
    assert bool(np.all(r.cells == PGM_ADMISSIBLE))
    assert r.pruned_count == 0 and r.unknown_count == 0
    assert r.admissible_count == r.cells.size


def test_raster_b0_columns_match_exact_fraction_oracle():
    # At b = 0, p = 1 exactly and every row of the raster is the same; the
    # q enclosure is a rational function of the head, checked in Fractions.
    a = 1.95
    depth, length = 7, 8
    par = Params(a, 0.0)
    r = pruned_region_raster(par, length, depth)
    a_frac = Fraction(a)  # exact binary value of the float parameter
    for rank, head in enumerate(heads(length)):
        prod = Fraction(1)
        q = Fraction(0)
        for t in range(min(depth, length - 1) + 1):
            prod *= Fraction(head[t], 1) / a_frac
            q += prod if t % 2 == 0 else -prod
        tail = abs(prod) / (a_frac - 1)
        col = r.cells[:, rank]
        assert bool(np.all(col == col[0]))  # rows identical at b = 0
        margin = 1e-9
        if q - tail > 1 + margin:
            assert col[0] == PGM_PRUNED
        elif q + tail < 1 - margin:
            assert col[0] == PGM_ADMISSIBLE
        elif abs(q - tail - 1) > margin and abs(q + tail - 1) > margin:
            assert col[0] == PGM_UNKNOWN
    assert r.pruned_count > 0 and r.unknown_count > 0 and r.admissible_count > 0


def test_raster_nonempty_pruned_regions_off_b0():
    for (a, b) in [(1.8, 0.4), (1.8, -0.4), (1.7, 0.5)]:
        r = pruned_region_raster(Params(a, b), 10, 9)
        assert r.pruned_count > 0
        assert r.admissible_count > 0
        assert r.pruned_count + r.unknown_count + r.admissible_count == r.cells.size


@pytest.mark.parametrize("word_len", range(1, 9))
def test_raster_counts_match_cell_scan(word_len):
    # The counts come from the rank split, not from the cells: a scan of
    # the cells is the reference.  Full shift, b > 0, b < 0, b = 0, depth 0
    # (one p interval broadcast to every row) and |b| > 1 (p = [-inf, inf]).
    points = [
        (2.0, 0.0, 12), (1.7, 0.5, 12), (1.8, -0.4, 12), (1.95, 0.0, 7),
        (1.7, 0.2, 0), (1.8, -0.4, 0), (3.0, 1.5, 12),
    ]  # fmt: skip
    for a, b, depth in points:
        r = pruned_region_raster(Params(a, b), word_len, depth)
        counts = (r.pruned_count, r.admissible_count, r.unknown_count)
        scanned = tuple(
            np.count_nonzero(r.cells == code)
            for code in (PGM_PRUNED, PGM_ADMISSIBLE, PGM_UNKNOWN)
        )
        assert counts == scanned, (a, b, depth)
        assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("a, b", [(1.7, 0.3), (1.7, 0.0), (1.8, -0.4)])
def test_raster_matches_word_classifier(a, b):
    # One classify_words call over all 4^L (tail, head) pairs, the tails and
    # heads enumerated by the reference in coordinate order.
    par = Params(a, b)
    length, depth = 5, 4
    r = pruned_region_raster(par, length, depth)
    side = 1 << length
    tail_cols = np.transpose([t[::-1] for t in tails(length, PLUS if b >= 0 else MINUS)])
    codes = classify_words(
        np.repeat(tail_cols, side, axis=1), np.tile(np.transpose(heads(length)), side), depth, par
    )
    assert np.array_equal(codes.reshape(side, side), r.cells)
    assert 0 < np.count_nonzero(codes == PGM_PRUNED) < codes.size


def test_raster_vector_rows_match_symbol_enumeration():
    L = 6
    heads_m = coordinate_symbols(L, PLUS)
    for rank, head in enumerate(heads(L)):
        assert tuple(int(x) for x in heads_m[rank]) == head
        assert head_coordinate(head) == rank / (1 << L)
    for b_sign, counted in ((PLUS, MINUS), (MINUS, PLUS)):
        tails_m = coordinate_symbols(L, counted)
        for rank, tail in enumerate(tails(L, b_sign)):
            assert tuple(int(x) for x in tails_m[rank]) == tuple(reversed(tail))
            assert tail_coordinate(tail, b_sign) == rank / (1 << L)


def _ref_extremes(levels):
    if levels and isinstance(levels[0][0], np.ndarray):
        return partial(reduce, np.minimum), partial(reduce, np.maximum)
    return min, max


def _ref_p_factors(s_levels, params):
    """The p factors -b s of (lo, hi) levels as (lo, hi) intervals, ordered
    by the sign of a float b, as the reference for _p_factors."""
    b = params.b
    return [
        (-b * s_lo, -b * s_hi) if b <= 0 else (-b * s_hi, -b * s_lo) for s_lo, s_hi in s_levels
    ]


def _ref_p_series(factors, params):
    """_p_series as it was written with all four endpoint products of every
    term reduced by min and max, as the reference for the (near, far) form.
    Each factor pair is an interval with its ends in either order: (lo, hi)
    from _ref_p_factors or (near, far) from _p_factors."""
    lowest, highest = _ref_extremes(factors)
    b = params.b
    lo = hi = prod_lo = prod_hi = 1.0
    for pair in factors:
        f_lo, f_hi = lowest(pair), highest(pair)
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


def _ref_q_series(r_levels, params):
    """_q_series in the four-product form, as _ref_p_series: each level is an
    interval with its ends in either order, (lo, hi) or (near, far)."""
    lowest, highest = _ref_extremes(r_levels)
    lo = hi = 0.0
    prod_lo = prod_hi = 1.0
    for n, level in enumerate(r_levels):
        r_lo, r_hi = lowest(level), highest(level)
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


def _assert_same_enclosure(got, want):
    # Floats stay floats and arrays arrays, with equal endpoints.
    for g, w in zip(got, want, strict=True):
        if isinstance(w, np.ndarray):
            assert isinstance(g, np.ndarray) and np.array_equal(g, w)
        else:
            assert not isinstance(g, np.ndarray) and g == w


def _kernel_points():
    # b > 0, b < 0 and b = 0 (zero p factors) at seeded points, and two
    # points with |b| > 1 where the p remainder is infinite.
    rng = random.Random(23)
    points = [(2.8, 1.5), (2.3, -1.2), (2.0, 0.0), (rng.uniform(1.05, 2.5), 0.0)]
    for sign in (1.0, -1.0):
        for _ in range(2):
            b = sign * rng.uniform(0.01, 0.9)
            points.append((rng.uniform(1.05 + abs(b), 2.5), b))
    return points


_KERNEL_DEPTHS = (0, 1, 12, 40)


@pytest.mark.parametrize("a, b", _kernel_points())
def test_word_alone_equals_its_row_in_the_batch(a, b):
    # Every word of length 6 per side, alone and as a row of one batch, bit
    # for bit and sign of zero included.
    par = Params(a, b)
    words = coordinate_symbols(6, PLUS)
    for evaluate, depth in ((eval_p, 1), (eval_p, 4), (eval_q, 0), (eval_q, 5)):
        batch = evaluate(words.T, depth, par)
        for rank, word in enumerate(words):
            alone = evaluate(_one(word), depth, par)
            _assert_same_bits(alone, tuple(v[rank : rank + 1] for v in batch))


@pytest.mark.parametrize("a, b", _kernel_points())
def test_series_match_four_product_reference_on_words_and_rows(a, b):
    par = Params(a, b)
    rng = random.Random(f"{a},{b}")
    length = max(_KERNEL_DEPTHS) + 2
    word = _one([rng.choice((PLUS, MINUS)) for _ in range(length)])
    rows = np.array([[rng.choice((PLUS, MINUS)) for _ in range(64)] for _ in range(length)])
    for symbols in (word, rows):
        # The levels r_0.. and s_{-2}.. as _q_enclosure and _p_enclosure
        # build them, symbols[k] at index k of the head and -(k+1) of the tail.
        r = _levels([a * symbols[k] for k in range(length - 1, -1, -1)], par)[::-1]
        s = _levels([-a * symbols[k] for k in range(length - 1, 0, -1)], par)[::-1]
        for depth in _KERNEL_DEPTHS:
            # The engine splits the levels and forms the p factors; the
            # reference takes the levels' (lo, hi) ends as they are.
            r_taken, s_taken = r[: depth + 1], s[:depth]
            got_q = _q_series(_near_far(r_taken), par)
            _assert_same_enclosure(got_q, _ref_q_series(r_taken, par))
            got_p = _p_series(_p_factors(s_taken, par), par)
            _assert_same_enclosure(got_p, _ref_p_series(_ref_p_factors(s_taken, par), par))


@pytest.mark.parametrize("a, b", _kernel_points())
def test_series_match_four_product_reference_on_sweep_axes(monkeypatch, a, b):
    par = Params(a, b)
    for depth in _KERNEL_DEPTHS:
        p, q = _enclosure_sweep(par, 12, depth)
        with monkeypatch.context() as patch:
            patch.setattr(pruning, "_p_series", _ref_p_series)
            patch.setattr(pruning, "_q_series", _ref_q_series)
            ref_p, ref_q = _enclosure_sweep(par, 12, depth)
        assert len(p) == len(ref_p) and q.keys() == ref_q.keys()
        for got, want in zip(p, ref_p):
            _assert_same_enclosure(got, want)
        for L in q:
            _assert_same_enclosure(q[L], ref_q[L])


# b > 0, b < 0 and b = 0, and (2.8, 1.5), whose p remainder bound is infinite.
_BATCH_POINTS = [
    (1.7, 0.2), (1.9, -0.3), (1.7, 0.0), (2.8, 1.5), (2.1, 0.05), (1.21, 0.2), (1.55, -0.45)
]


def _batch(points):
    return Params(np.array([a for a, _ in points]), np.array([b for _, b in points]))


def _lazy_near_far(levels):
    """(near, far) per level, split on each read, with min and max for the
    type: the split as the series made it before the sweep split each level
    once."""
    if levels and isinstance(levels[0][0], np.ndarray):
        split = (
            (np.where(lv[0] > 0.0, *lv), np.where(lv[0] > 0.0, *lv[::-1])) for lv in levels
        )
        return split, np.minimum, np.maximum
    return [lv if lv[0] > 0.0 else lv[::-1] for lv in levels], min, max


def _per_read_sweep(params, n_max, depth):
    """_enclosure_sweep as it was before each level was split once: every
    series splits each level it reads, forms each p factor -b s per term,
    and sums into new arrays."""

    def p_series(s_levels):
        pairs, lowest, highest = _lazy_near_far(s_levels)
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

    def q_series(r_levels):
        pairs, lowest, highest = _lazy_near_far(r_levels)
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

    if isinstance(params.a, np.ndarray):
        params = Params(*(v.reshape(v.shape + (1,) * n_max) for v in (params.a, params.b)))
    a = params.a
    cols = symbol_axes(n_max)
    r = _levels([a * cols[j] for j in range(n_max - 1, -1, -1)], params)[::-1]
    q = {
        L: q_series(r[n_max - L : n_max - L + min(depth, L - 1) + 1])
        for L in range(n_max, 0, -1)
    }
    y = _levels([-a * cols[t] for t in range(n_max - 2)], params)
    p = []
    for k in range(n_max):
        dp = max(0, min(depth, k - 1))
        p.append(p_series(y[k - 1 - dp : k - 1][::-1]))
    return p, q


@pytest.mark.parametrize(
    "params",
    [Params(1.7, 0.2), Params(2.1, 0.0), Params(1.62, -0.31), _batch(_BATCH_POINTS)],
    ids=["b>0", "b=0", "b<0", "batch"],
)
def test_sweep_equals_the_per_read_sweep(params):
    for n_max in range(1, 15):
        for depth in (0, 1, 12):
            p, q = _enclosure_sweep(params, n_max, depth)
            want_p, want_q = _per_read_sweep(params, n_max, depth)
            assert len(p) == len(want_p) and list(q) == list(want_q)
            for got, want in zip(p, want_p):
                _assert_same_bits(got, want)
            for L in q:
                _assert_same_bits(q[L], want_q[L])


def test_sweep_splits_each_level_once(monkeypatch):
    # 16 suffix and 14 prefix levels at n_max = 16; splitting them per read,
    # once for every series that reads a level, made 232 splits.
    split = pruning._near_far
    seen = []

    def spy(levels):
        seen.extend(levels)
        return split(levels)

    monkeypatch.setattr(pruning, "_near_far", spy)
    entropy_rows(Params(1.7, 0.2), 16, 12)
    assert len(seen) == 30
    assert len({id(lv) for lv in seen}) == 30


def test_sweep_hands_each_p_factor_to_every_series_that_reads_it(monkeypatch):
    # The series of the dot at k takes the factors of y[k - 2], y[k - 3], ...;
    # its j-th pair must be the very pair the series at k - j reads first.
    series = pruning._p_series
    calls = []

    def spy(factors, params):
        calls.append(factors)
        return series(factors, params)

    monkeypatch.setattr(pruning, "_p_series", spy)
    entropy_rows(Params(1.7, 0.2), 16, 12)
    assert len(calls) == 16 and sum(map(len, calls)) == 102
    first = {k: calls[k][0] for k in range(2, 16)}
    for k, factors in enumerate(calls):
        for j, pair in enumerate(factors):
            assert pair[0] is first[k - j][0] and pair[1] is first[k - j][1], (k, j)


def _one_layout_masks(sweep, n):
    """_block_masks with every placement compared in the plain block layout,
    as it was before the short suffixes moved to a suffix-major layout."""
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


@pytest.mark.parametrize(
    "params",
    [Params(1.7, 0.2), Params(2.1, 0.0), Params(1.62, -0.31), _batch(_BATCH_POINTS)],
    ids=["b>0", "b=0", "b<0", "batch"],
)
def test_block_masks_equal_the_one_layout_masks(params):
    # Depth 0 leaves every prefix enclosure without a symbol axis.
    for depth in (0, 1, 12):
        sweep = _enclosure_sweep(params, 14, depth)
        for n in range(1, 15):
            got, want = _block_masks(sweep, n), _one_layout_masks(sweep, n)
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape and np.array_equal(g, w), (depth, n)


@pytest.mark.parametrize("a, b", [(2.8, 1.5), (1.7, 0.2)])
def test_block_masks_match_difference_compare(a, b):
    # The masks compare endpoints directly; the sign of their difference
    # gives the same answer, infinite p endpoints included.
    sweep = _enclosure_sweep(Params(a, b), 12, 12)
    p, q = sweep
    for n in range(1, 13):
        pruned_any = np.zeros((2,) * n, dtype=bool)
        cert_all = np.ones((2,) * n, dtype=bool)
        for k in range(n):
            plo, phi = (np.reshape(v, np.shape(v)[:n]) for v in p[k])
            qlo, qhi = (v.reshape(v.shape[12 - n :]) for v in q[n - k])
            pruned_any |= (phi - qlo) < 0.0
            cert_all &= (plo - qhi) >= 0.0
        got_pruned, got_cert = _block_masks(sweep, n)
        assert np.array_equal(got_pruned, pruned_any.ravel()), n
        assert np.array_equal(got_cert, cert_all.ravel()), n


def _grid(bs, per_row, seed):
    """A parameter grid, b down the rows and seeded hyperbolic a along them."""
    rng = random.Random(seed)
    b = np.array(bs)[:, None]
    offsets = [[rng.uniform(0.01, 1.2) for _ in range(per_row)] for _ in bs]
    return Params(1.0 + np.abs(b) + np.array(offsets), b)


@pytest.mark.parametrize("depth", _KERNEL_DEPTHS)
def test_q_enclosure_on_a_parameter_grid_matches_each_point(depth):
    # One kernel call over rows of b < 0, b = 0 and b > 0 equals eval_q at
    # every point, bit for bit.
    grid = _grid([-0.85, -0.3, 0.0, 0.2, 0.9], 7, seed=depth)
    rng = random.Random(f"grid head {depth}")
    head = _one([rng.choice((PLUS, MINUS)) for _ in range(max(_KERNEL_DEPTHS) + 2)])
    lo, hi = eval_q(head, depth, grid)
    want_lo, want_hi = np.empty(lo.shape), np.empty(hi.shape)
    for i, j in np.ndindex(lo.shape):
        point = Params(float(grid.a[i, j]), float(grid.b[i, 0]))
        (want_lo[i, j],), (want_hi[i, j],) = eval_q(head, depth, point)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_levels_on_a_parameter_grid_raise_where_one_point_raises():
    # Points with a > |b| but not always a > 1 + |b|: some straddle a
    # denominator on their own.  A grid raises exactly when one of its
    # points does; (1.0, 0.9) straddles at the first level.
    rng = random.Random(2401)
    head = [rng.choice((PLUS, MINUS)) for _ in range(12)]

    def raises(a, b):
        try:
            _levels([a * s for s in head[::-1]], Params(a, b))
        except ArithmeticError:
            return True
        return False

    points = [(1.0, 0.9)]
    for _ in range(79):
        b = rng.uniform(-0.9, 0.9)
        points.append((abs(b) + rng.uniform(0.05, 1.5), b))
    alone = [raises(a, b) for a, b in points]
    order = list(range(len(points)))
    rng.shuffle(order)
    grids = [order[start : start + 4] for start in range(0, len(points), 4)]
    expected = [any(alone[k] for k in chosen) for chosen in grids]
    assert 0 < sum(expected) < len(grids)
    for chosen, want in zip(grids, expected):
        a = np.array([points[k][0] for k in chosen])
        b = np.array([points[k][1] for k in chosen])
        assert raises(a, b) == want, chosen


def test_raster_budget_gate():
    with pytest.raises(BudgetExceeded):
        pruned_region_raster(Params(2.0, 0.0), 12, 4)


def _raster_enclosures(par, word_len, depth):
    tails = coordinate_symbols(word_len, MINUS if par.b >= 0 else PLUS)
    heads = coordinate_symbols(word_len, PLUS)
    plo, phi = _p_enclosure(tails.T, depth, par)
    qlo, qhi = _q_enclosure(heads.T, depth, par)
    return plo, phi, qlo, qhi


def _broadcast_cells(plo, phi, qlo, qhi):
    # The float outer compare the rank fill replaces, as the reference.
    cells = np.full((len(phi), len(qlo)), PGM_UNKNOWN, dtype=np.uint8)
    cells[phi[:, None] < qlo[None, :]] = PGM_PRUNED
    cells[plo[:, None] >= qhi[None, :]] = PGM_ADMISSIBLE
    return cells


def _seeded_points():
    rng = random.Random(18)
    points = [(2.0, 0.0), (rng.uniform(1.05, 2.0), 0.0)]
    for sign in (1.0, -1.0):
        for _ in range(2):
            b = sign * rng.uniform(0.01, 0.5)
            points.append((rng.uniform(1.05 + abs(b), 2.0), b))
    return points


@pytest.mark.parametrize("word_len", range(1, 12))
def test_raster_rank_fill_matches_broadcast_compare(word_len):
    for a, b in _seeded_points():
        par = Params(a, b)
        for depth in (0, 12):
            cells = pruned_region_raster(par, word_len, depth).cells
            expected = _broadcast_cells(*_raster_enclosures(par, word_len, depth))
            assert np.array_equal(cells, expected), (a, b, depth)


@pytest.mark.parametrize("a, b", [(2.8, 1.5), (2.3, -1.2)])
def test_raster_rank_fill_matches_broadcast_compare_with_infinite_p(a, b):
    # |b| > 1 makes the p remainder diverge: p is [-inf, inf] on every row,
    # so no cell is pruned or admissible.
    par = Params(a, b)
    plo, phi, qlo, qhi = _raster_enclosures(par, 9, 12)
    assert np.all(np.isneginf(plo)) and np.all(np.isposinf(phi))
    cells = pruned_region_raster(par, 9, 12).cells
    assert np.array_equal(cells, _broadcast_cells(plo, phi, qlo, qhi))
    assert np.all(cells == PGM_UNKNOWN)


def test_rank_fill_ties_and_infinities():
    # phi == qlo is not pruned, and plo == qhi is admissible.
    plo, phi = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    qlo, qhi = np.array([1.0, 1.0, 2.0, 0.0]), np.array([1.0, 1.5, 2.0, 0.0])
    raster = _fill_cells(plo, phi, qlo, qhi)
    assert raster.cells.tolist() == [
        [PGM_UNKNOWN, PGM_UNKNOWN, PGM_PRUNED, PGM_ADMISSIBLE],
        [PGM_ADMISSIBLE, PGM_UNKNOWN, PGM_PRUNED, PGM_ADMISSIBLE],
    ]
    assert (raster.pruned_count, raster.admissible_count, raster.unknown_count) == (2, 3, 3)
    # Endpoints drawn from a few values, so most compares are ties, over
    # more rows than one fill block.
    rng = np.random.default_rng(18)
    values = np.array([-np.inf, -1.0, -0.5, 0.0, 0.5, 1.0, np.inf])
    p = np.sort(rng.choice(values, size=(2, 150)), axis=0)
    q = np.sort(rng.choice(values[1:-1], size=(2, 70)), axis=0)
    raster = _fill_cells(*p, *q)
    cells = _broadcast_cells(*p, *q)
    assert np.array_equal(raster.cells, cells)
    assert raster.pruned_count == np.count_nonzero(cells == PGM_PRUNED)
    assert raster.admissible_count == np.count_nonzero(cells == PGM_ADMISSIBLE)


def test_raster_peak_memory():
    # One uint8 cell grid (4 MiB at word_len 11) and row blocks; a float
    # outer compare with cell-sized masks peaks at 8.23 MiB.
    tracemalloc.start()
    try:
        pruned_region_raster(Params(1.7, 0.2), 11, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_counting_full_shift_exact():
    assert _counts(Params(2.0, 0.0), 10, 9) == (1024, 1024)
    assert _counts(Params(2.1, 0.05), 12, 12) == (4096, 4096)


def test_counting_brackets_tighten_with_depth():
    par = Params(1.8, 0.3)
    lo2, up2 = _counts(par, 8, 2)
    lo4, up4 = _counts(par, 8, 4)
    lo8, up8 = _counts(par, 8, 8)
    assert up8 <= up4 <= up2
    assert lo2 <= lo4 <= lo8
    assert lo8 <= up8


def test_counting_upper_submultiplicative():
    par = Params(1.9, 0.2)
    rows = [dict(zip(ENTROPY_HEADER, row)) for row in entropy_rows(par, 12, 12)]
    u = {row["n"]: row["count_upper"] for row in rows}
    assert u[8] <= u[3] * u[5]
    assert u[10] <= u[4] * u[6]
    assert u[12] <= u[6] * u[6]


def test_counting_detects_pruning_at_small_b():
    lower, upper = _counts(Params(2.0, 0.1), 14, 13)
    assert 0 < lower <= upper < 1 << 14


def test_counting_budget_gate():
    with pytest.raises(BudgetExceeded):
        entropy_rows(Params(2.0, 0.0), 24, 4)


def test_counting_gate_admits_20_and_refuses_21(monkeypatch):
    # The gate counts blocks only; the sweep and masks are stubbed, so
    # nothing of size 2^20 is allocated here.
    seen = []

    def sweep_stub(params, n_max, depth):
        seen.append(n_max)
        return None

    monkeypatch.setattr(pruning, "_enclosure_sweep", sweep_stub)
    monkeypatch.setattr(
        pruning, "_block_masks", lambda sweep, n: (np.zeros(3, dtype=bool), np.ones(3, dtype=bool))
    )
    assert _counts(Params(1.7, 0.2), 20, 12) == (3, 3)
    with pytest.raises(BudgetExceeded):
        entropy_rows(Params(1.7, 0.2), 21, 12)
    assert seen == [20]


def _ref_window_masks(params, n, depth):
    """Block masks on the full (2^n, n) symbol matrix, every series run on
    all 2^n blocks at every placement; rows in head coordinate order."""
    a = params.a
    cols = coordinate_symbols(n, PLUS).T
    r = _levels([a * cols[j] for j in range(n - 1, -1, -1)], params)[::-1]
    y = _levels([-a * cols[t] for t in range(n)], params)
    pruned_any = np.zeros(1 << n, dtype=bool)
    cert_all = np.ones(1 << n, dtype=bool)
    for k in range(n):
        qlo, qhi = _q_series(_near_far(r[k : k + min(depth, n - k - 1) + 1]), params)
        dp = max(0, min(depth, k - 1))
        plo, phi = _p_series(_p_factors(y[k - 1 - dp : k - 1][::-1], params), params)
        pruned_any |= (phi - qlo) < 0.0
        cert_all &= (plo - qhi) >= 0.0
    return pruned_any, cert_all


@pytest.mark.parametrize(
    "a, b",
    [(1.7, 0.0), (1.7, 0.2), (2.1, 0.05), (1.9, -0.3), (1.3, 0.1), (1.55, -0.45), (1.21, 0.2)],
)
def test_window_masks_match_full_matrix_reference_per_block(a, b):
    # Block w of the broadcast masks has symbol -1 at position j exactly when
    # bit n-1-j of w is set; the reference's row i holds the block
    # coordinate_symbols(n, PLUS)[i].
    par = Params(a, b)
    for n in (1, 2, 5, 9, 13, 16):
        rows = coordinate_symbols(n, PLUS)
        w = (rows == MINUS).astype(np.int64) @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
        for depth in (0, 3, 12):
            pruned, cert = _block_masks(_enclosure_sweep(par, n, depth), n)
            ref_pruned, ref_cert = _ref_window_masks(par, n, depth)
            assert pruned.shape == cert.shape == (1 << n,)
            np.testing.assert_array_equal(pruned[w], ref_pruned, err_msg=f"n={n} depth={depth}")
            np.testing.assert_array_equal(cert[w], ref_cert, err_msg=f"n={n} depth={depth}")


@pytest.mark.parametrize(
    "a, b, digest",
    [
        (1.7, 0.0, "be03520596f4d8501feb7da3e58299d7c658330c11f7fbbcf4b323474bc61fb1"),
        (2.1, 0.05, "c26d463b0658bbfdef143cf549bbb4590b700e3bc19057a27cc6bfd25ef834e3"),
        (1.62, -0.31, "f694613b29e1be8578d2da3fa9fb1438fa9cf57bf901aad462203c1852647794"),
    ],
    ids=["1.7,0", "2.1,0.05", "1.62,-0.31"],
)
def test_entropy_rows_regression_pin(a, b, digest):
    # Digests of the entropy CSV bytes, n_max 16 and depth 12, taken before
    # the block masks moved to broadcast symbol axes.
    data = formats.csv_bytes(ENTROPY_HEADER, entropy_rows(Params(a, b), 16, 12))
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("a, b", [(1.7, 0.0), (1.9, -0.3), (1.21, 0.2), (2.1, 0.05)])
def test_entropy_rows_count_each_length_as_word_count(a, b):
    # entropy_rows sweeps once at n_max and reads every shorter length off
    # that sweep; the reference sweeps at n itself.
    par = Params(a, b)
    for depth in (0, 1, 3, 12):
        rows = entropy_rows(par, 14, depth)
        for n, row in enumerate(rows, start=1):
            counts = dict(zip(ENTROPY_HEADER, row))
            swept_at_n = _bracket(*_block_masks(_enclosure_sweep(par, n, depth), n))
            assert (counts["count_lower"], counts["count_upper"]) == swept_at_n, (n, depth)


def test_entropy_rows_peak_memory():
    # One sweep at n_max holds each prefix and suffix enclosure once (about
    # 8 MiB traced at n_max = 16); a (2^n, n) symbol matrix or full-width
    # levels would take over 40 MiB.
    tracemalloc.start()
    try:
        entropy_rows(Params(1.7, 0.2), 16, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000


@pytest.mark.parametrize("n_max", [4, 12])
def test_entropy_rows_sweep_levels_once(monkeypatch, n_max):
    # One level sweep for the suffixes and one for the prefixes serve every
    # block length; rebuilding per length would call _levels 2 * n_max times.
    calls = []

    def counting_levels(shifts, params):
        calls.append(len(shifts))
        return _levels(shifts, params)

    monkeypatch.setattr(pruning, "_levels", counting_levels)
    entropy_rows(Params(1.7, 0.2), n_max, 12)
    assert len(calls) == 2


def _assert_same_rows(got, want):
    # Exact equality of every count and float, and the same Python types.
    assert got == want
    assert [tuple(map(type, row)) for row in got] == [tuple(map(type, row)) for row in want]


def test_batched_entropy_rows_equal_the_per_point_rows():
    batch = _batch(_BATCH_POINTS)
    for n_max in range(1, 15):
        for depth in (0, 1, 12):
            want = [
                row for a, b in _BATCH_POINTS for row in entropy_rows(Params(a, b), n_max, depth)
            ]
            _assert_same_rows(entropy_rows(batch, n_max, depth), want)


def test_chunked_entropy_rows_equal_one_sweep(monkeypatch):
    # A sweep holds at most _BLOCK_LIMIT / 2^n_max points; a small limit
    # splits the batch, and the rows do not move.
    batch = _batch(_BATCH_POINTS)
    want = {n_max: entropy_rows(batch, n_max, 12) for n_max in (6, 7, 8)}
    sizes = []
    sweep = pruning._enclosure_sweep

    def spy(params, n_max, depth):
        sizes.append(len(params.a))
        return sweep(params, n_max, depth)

    monkeypatch.setattr(pruning, "_BLOCK_LIMIT", 1 << 8)
    monkeypatch.setattr(pruning, "_enclosure_sweep", spy)
    for n_max, chunks in ((6, [4, 3]), (7, [2, 2, 2, 1]), (8, [1] * 7)):
        sizes.clear()
        _assert_same_rows(entropy_rows(batch, n_max, 12), want[n_max])
        assert sizes == chunks


def test_batched_entropy_rows_refuse_any_non_hyperbolic_point():
    with pytest.raises(NotHyperbolic):
        entropy_rows(_batch([(1.7, 0.2), (1.1, 0.2)]), 4, 12)


def test_entropy_exact_log2_on_full_shift():
    lo, hi = _estimate(Params(2.0, 0.0), 8, 8)
    assert lo == pytest.approx(math.log(2.0), abs=1e-12)
    assert hi == pytest.approx(math.log(2.0), abs=1e-12)
    lo, hi = _estimate(Params(2.1, 0.05), 10, 12)
    assert lo == pytest.approx(math.log(2.0), abs=1e-12)
    assert hi == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_bracket_ordering_random_params():
    rng = random.Random(7371)
    for _ in range(12):
        b = rng.uniform(-0.6, 0.6)
        a = 1.0 + abs(b) + rng.uniform(0.2, 1.4)
        lo, hi = _estimate(Params(a, b), 8, 8)
        assert 0.0 <= lo <= hi <= math.log(2.0) + 1e-12


def test_entropy_upper_improves_with_longer_words():
    par = Params(2.0, 0.1)
    _, hi5 = _estimate(par, 5, 10)
    _, hi10 = _estimate(par, 10, 10)
    assert hi10 <= hi5 + 1e-12


def test_interval_soundness_ten_thousand_triples():
    # Tripling the depth must stay inside the shallower enclosure.  The
    # triples are drawn one by one, then evaluated in one batch per word
    # shape and depth, each word at its own point.
    rng = random.Random(1)
    groups = {}
    for _ in range(10_000):
        b = rng.uniform(-0.9, 0.9)
        a = 1.0 + abs(b) + rng.uniform(0.1, 2.0)
        tail, head = _random_word(rng, rng.randint(0, 8), rng.randint(0, 8))
        d1 = rng.randint(0, 4)
        groups.setdefault((len(tail), len(head), d1), []).append((a, b, tail, head))
    for (m, n, d1), triples in groups.items():
        a, b = (np.array(v) for v in zip(*[(a, b) for a, b, _, _ in triples]))
        par = Params(a, b)
        tails = np.array([t for _, _, t, _ in triples]).reshape(len(triples), m).T
        heads = np.array([h for _, _, _, h in triples]).reshape(len(triples), n).T
        lo1, hi1 = _pq_enclosure(tails, heads, d1, par)
        lo2, hi2 = _pq_enclosure(tails, heads, 3 * d1 if d1 else 1, par)
        assert np.all((lo1 - ULP_SLACK <= lo2) & (hi2 <= hi1 + ULP_SLACK)), (m, n, d1)


def test_closed_form_agreement_on_hyperbolic_grid():
    # 50x50 grid: the special-head series evaluation must agree with the
    # closed form within its own error bound.  One call takes every point.
    points = []
    for i in range(50):
        for j in range(50):
            b = -0.93 + 1.86 * j / 49
            points.append((1.0 + abs(b) + 0.08 + 2.2 * i / 49, b))
    grid = Params(*np.array(points).T)
    lo, hi = eval_q(_one(special_head(40)), 39, grid)
    closed = closed_form_q(grid)
    assert closed[0] == closed_form_q(Params(*points[0]))
    assert _contains((lo, hi), closed)


def test_diff_interval_special_head_on_full_shift():
    # p = 1 and the special head maximizes q at exactly 1, so the cylinder
    # enclosure of (p - q) is [0, 2^(1-len)] in exact dyadic arithmetic.
    par = Params(2.0, 0.0)
    tail = _one((MINUS, PLUS, MINUS))
    for length in (4, 8, 16):
        lo, hi = _pq_enclosure(tail, _one(special_head(length)), length - 1, par)
        assert lo.tolist() == [0.0]
        assert hi.tolist() == [2.0 ** (1 - length)]


def test_diff_positive_for_minus_start_heads_on_full_shift():
    # Heads opening with -1 have q <= 0, so p - q >= 1 on the whole cylinder.
    rng = random.Random(31)
    tails, heads = [], []
    for _ in range(30):
        tails.append(_random_word(rng, 5, 0)[0])
        heads.append((MINUS,) + _random_word(rng, 0, 7)[1])
    lo, _ = _pq_enclosure(np.transpose(tails), np.transpose(heads), 6, Params(2.0, 0.0))
    assert np.all(lo > 0.0)


def test_pruned_verdict_stable_under_word_extension():
    # Extending a certified-pruned word only narrows the enclosure, so the
    # verdict must survive deeper evaluation on the longer word.
    par = Params(1.7, 0.5)
    r = pruned_region_raster(par, 10, 9)
    idx = np.argwhere(r.cells == PGM_PRUNED)
    assert len(idx) > 0
    i, j = (int(v) for v in idx[0])
    tail, head = tails(10, PLUS)[i][::-1], heads(10)[j]
    assert classify_words(_one(tail), _one(head), 9, par).tolist() == [PGM_PRUNED]
    ext = classify_words(_one(tail + (PLUS,) * 4), _one(head + (PLUS,) * 3), 12, par)
    assert ext.tolist() == [PGM_PRUNED]


def _lozi_step(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    return 1.0 - a * abs(x) + b * y, x


def _bounded_itinerary(a: float, b: float, rng: random.Random, want: int) -> list[int]:
    """Itinerary of the longest bounded orbit stretch found, ends trimmed.

    At parameters where the invariant set does not attract, long-surviving
    transients shadow it; the middle of the longest stretch is used.
    """
    best: list[int] = []
    for _ in range(3000):
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        seq: list[int] = []
        while len(seq) < want + 200 and abs(x) <= 5.0:
            seq.append(PLUS if x >= 0.0 else MINUS)
            x, y = _lozi_step(a, b, x, y)
        if len(seq) > len(best):
            best = seq
        if len(best) >= want + 200:
            break
    assert len(best) >= 380, f"no usable bounded orbit at ({a},{b})"
    return best[100:-100]


def test_orbit_itineraries_never_certified_pruned():
    # Itineraries of points on the bounded invariant set stay admissible, so
    # no window of one may be certified pruned.
    for (a, b) in [(1.7, 0.5), (2.0, 0.1)]:
        rng = random.Random(42)
        itin = _bounded_itinerary(a, b, rng, 1200)
        windows = []
        for _ in range(60):
            i = rng.randrange(0, len(itin) - 16)
            windows.append(itin[i : i + 16])
        words = np.transpose(windows)
        codes = classify_words(words[7::-1], words[8:], 7, Params(a, b))
        assert not np.any(codes == PGM_PRUNED)


def test_counting_single_symbol_upper():
    assert _counts(Params(1.9, 0.3), 1, 4)[1] <= 2


def test_entropy_brackets_log2_at_small_b():
    lo, hi = _estimate(Params(2.0, 0.05), 10, 12)
    assert lo - 0.05 <= math.log(2.0) <= hi + 0.05


def test_entropy_upper_monotone_along_a():
    b = 0.05
    uppers = [_estimate(Params(a, b), 10, 12)[1] for a in (1.5, 1.7, 1.9, 2.0)]
    for u1, u2 in zip(uppers, uppers[1:]):
        assert u1 <= u2 + 1e-9


def test_raster_dimensions():
    r = pruned_region_raster(Params(2.0, 0.0), 4, 3)
    assert r.width == 16 and r.height == 16

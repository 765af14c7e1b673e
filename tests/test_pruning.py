"""Pruning-pair evaluators, cylinder verdicts, rasters, and word counting.

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
    Verdict,
    Word,
    classify_cylinder,
    closed_form_q,
    eval_p,
    eval_pq_cylinder,
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
    _p_enclosure,
    _p_series,
    _q_enclosure,
    _q_series,
    entropy_rows,
)
from lozi_pruning.symbolic import coordinate_symbols
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


def _contains(enclosure: tuple[float, float], target: float) -> bool:
    lo, hi = enclosure
    return lo - ULP_SLACK <= target <= hi + ULP_SLACK


def _s_level(w: Word, n: int, depth: int, par: Params) -> tuple[float, float]:
    """Enclosure of the tail level s_n (n <= -2) from the symbols at
    indices n - depth .. n, innermost first."""
    shifts = [-par.a * w.tail[-j] for j in range(depth - n, -n - 1, -1)]
    return _levels(shifts, par)[-1]


def _r_level(w: Word, n: int, depth: int, par: Params) -> tuple[float, float]:
    """Enclosure of the head level r_n (n >= 0) from the symbols at
    indices n + depth .. n, innermost first."""
    shifts = [par.a * w.head[j] for j in range(n + depth, n - 1, -1)]
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
    assert Params(2.0, 0.5).hyperbolic
    assert Params(1.2, -0.1).hyperbolic
    assert not Params(1.5, 0.5).hyperbolic  # boundary a = 1 + |b|
    assert not Params(1.0, 0.0).hyperbolic
    for bad in (Params(1.5, 0.5), Params(1.0, 0.0), Params(2.0, 1.1), Params(1.3, -0.4)):
        with pytest.raises(NotHyperbolic):
            bad.require_hyperbolic()
        with pytest.raises(NotHyperbolic):
            eval_p(Word((PLUS,) * 5, (PLUS,)), 1, bad)


def test_nonfinite_parameters_are_not_hyperbolic():
    inf, nan = math.inf, math.nan
    for bad in (Params(inf, 0.5), Params(inf, 0.0), Params(inf, -inf), Params(nan, 0.0),
                Params(2.0, nan), Params(inf, inf)):
        assert not bad.hyperbolic
        with pytest.raises(NotHyperbolic):
            bad.require_hyperbolic()
        with pytest.raises(NotHyperbolic):
            pruned_region_raster(bad, 2, 12)
        with pytest.raises(NotHyperbolic):
            entropy_rows(bad, 3, 12)


def test_level_values_exact_at_b0():
    # With b = 0 a level is 1/(+-a) exactly and the enclosure collapses.
    par = Params(2.0, 0.0)
    w = Word((PLUS, MINUS, PLUS), (MINUS, PLUS))
    s = -1.0 / (2.0 * w.tail[-2])
    assert _s_level(w, -2, 0, par) == (s, s)
    s3 = -1.0 / (2.0 * w.tail[-3])
    assert _s_level(w, -3, 0, par) == (s3, s3)
    r0 = w.head[0] / 2.0
    assert _r_level(w, 0, 0, par) == (r0, r0)
    r1 = w.head[1] / 2.0
    assert _r_level(w, 1, 0, par) == (r1, r1)


def test_s_constant_plus_tail_fixed_point():
    # s = 1/(-a + b s) with a=2, b=0.5 gives s^2 - 4s - 2 = 0, root 2 - sqrt(6)
    # inside the invariant disc.
    target = 2.0 - math.sqrt(6.0)
    lo, hi = _s_level(Word((PLUS,) * 40, ()), -2, 30, Params(2.0, 0.5))
    assert _contains((lo, hi), target)
    assert hi - lo < 2e-10


def test_r_constant_minus_continuation_fixed_point():
    # On the head (+1, -1, -1, ...) the levels from index 1 on satisfy the
    # same fixed-point equation as the constant tail above.
    target = 2.0 - math.sqrt(6.0)
    lo, hi = _r_level(Word((), special_head(40)), 1, 30, Params(2.0, 0.5))
    assert _contains((lo, hi), target)
    assert hi - lo < 2e-10


def test_q_all_plus_head_is_third_at_2_0():
    # r_n = 1/2 for every n, so q = sum (-1)^n 2^-(n+1) = 1/3.
    lo, hi = eval_q(Word((), (PLUS,) * 20), 19, Params(2.0, 0.0))
    assert _contains((lo, hi), 1.0 / 3.0)
    assert hi - lo <= 2.0 ** -19 + 2e-15


def test_q_special_head_geometric_at_b0():
    # r_0 = 1/a, r_n = -1/a afterwards: every term is a^-(n+1), so q = 1/(a-1).
    for a in (1.5, 1.95, 2.0, 3.0):
        par = Params(a, 0.0)
        assert _contains(eval_q(Word((), special_head(40)), 39, par), 1.0 / (a - 1.0))
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
        assert _contains(eval_q(Word((), special_head(50)), 49, par), cf)


def test_p_is_exactly_one_at_b0():
    for tail in [(MINUS, PLUS, MINUS, PLUS) * 3, (PLUS,) * 8, (MINUS,) * 8]:
        assert eval_p(Word(tuple(tail), ()), 5, Params(1.7, 0.0)) == (1.0, 1.0)


def test_p_constant_plus_tail_closed_form():
    # Each series term multiplies by -b*(2 - sqrt(6)), so p is the geometric
    # sum 1/(1 - (sqrt(6)-2)/2) = 0.8 + 0.2*sqrt(6).
    target = 0.8 + 0.2 * math.sqrt(6.0)
    oracle = _p_series_mp(lambda j: PLUS, 2.0, 0.5)
    assert float(oracle) == pytest.approx(target, abs=1e-13)
    lo, hi = eval_p(Word((PLUS,) * 40, ()), 30, Params(2.0, 0.5))
    assert _contains((lo, hi), target)
    assert hi - lo < 2e-8


def test_insufficient_word_and_bad_arguments():
    par = Params(2.0, 0.5)
    with pytest.raises(InsufficientWord):
        eval_p(Word((PLUS,) * 5, ()), 4, par)  # needs depth + 2 = 6
    with pytest.raises(InsufficientWord):
        eval_q(Word((), (PLUS,) * 5), 5, par)  # needs depth + 1 = 6
    with pytest.raises(ValueError):
        eval_p(Word((PLUS,) * 5, ()), -1, par)
    with pytest.raises(ValueError):
        eval_pq_cylinder(Word((PLUS,) * 5, (PLUS,) * 5), -1, par)
    with pytest.raises(ValueError):
        classify_cylinder(Word((PLUS,) * 5, (PLUS,) * 5), -1, 2, par)
    with pytest.raises(ValueError):
        entropy_rows(Params(1.7, 0.2), 6, -1)


def _random_word(rng: random.Random, m: int, n: int) -> Word:
    syms = lambda k: tuple(rng.choice((MINUS, PLUS)) for _ in range(k))
    return Word(syms(m), syms(n))


def test_scalar_evaluators_return_the_kernel_pair():
    # eval_p and eval_q hand on the kernel's (lo, hi) as it is; a midpoint
    # and radius round trip would round both ends to nearest.
    rng = random.Random(2200)
    for _ in range(2000):
        b = rng.choice((0.0, rng.uniform(-0.9, 0.9)))
        par = Params(1.0 + abs(b) + rng.uniform(0.01, 2.0), b)
        depth = rng.randint(0, 14)
        w = _random_word(rng, depth + 2 + rng.randint(0, 6), depth + 1 + rng.randint(0, 6))
        assert eval_q(w, depth, par) == _q_enclosure(w.head, depth, par)
        assert eval_p(w, depth, par) == _p_enclosure(w.tail[::-1], depth, par)


def test_enclosures_nest_in_depth_and_word_refinement():
    rng = random.Random(20240817)
    for _ in range(200):
        b = rng.uniform(-0.9, 0.9)
        a = 1.0 + abs(b) + rng.uniform(0.1, 2.0)
        par = Params(a, b)
        m, n = rng.randint(0, 10), rng.randint(0, 10)
        w = _random_word(rng, m, n)
        d1 = rng.randint(0, 5)
        d2 = d1 + rng.randint(1, 4)
        lo1, hi1 = eval_pq_cylinder(w, d1, par)
        lo2, hi2 = eval_pq_cylinder(w, d2, par)
        assert lo1 - ULP_SLACK <= lo2 and hi2 <= hi1 + ULP_SLACK
        ext = Word(
            _random_word(rng, rng.randint(1, 4), 0).tail + w.tail,
            w.head + _random_word(rng, 0, rng.randint(1, 4)).head,
        )
        lo3, hi3 = eval_pq_cylinder(ext, d1, par)
        assert lo1 - ULP_SLACK <= lo3 and hi3 <= hi1 + ULP_SLACK


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
        w = Word(
            tuple(eps_tail(m - i) for i in range(m)),
            tuple(eps_head(j) for j in range(n)),
        )
        p_true = float(_p_series_mp(eps_tail, a, b))
        q_true = float(_q_series_mp(eps_head, a, b))
        par = Params(a, b)
        assert _contains(eval_p(w, 14, par), p_true)
        assert _contains(eval_q(w, 14, par), q_true)
        lo, hi = eval_pq_cylinder(w, 14, par)
        assert lo - ULP_SLACK <= p_true - q_true <= hi + ULP_SLACK


def test_classify_all_admissible_at_2_0():
    # Nothing is pruned for the full horseshoe: q never certifiably exceeds 1.
    rng = random.Random(99)
    par = Params(2.0, 0.0)
    for _ in range(60):
        w = _random_word(rng, 6, 6)
        assert classify_cylinder(w, 5, 3, par) is Verdict.CERTIFIED_ADMISSIBLE_WINDOW


def test_classify_pruned_special_head_below_a2():
    w = Word((PLUS, PLUS), special_head(8))
    assert classify_cylinder(w, 7, 0, Params(1.95, 0.0)) is Verdict.CERTIFIED_PRUNED
    assert classify_cylinder(w, 7, 0, Params(2.0, 0.0)) is not Verdict.CERTIFIED_PRUNED


def test_classify_unknown_when_enclosure_straddles():
    # A one-symbol head at depth 0 leaves the whole series tail open.
    w = Word((), (PLUS,))
    assert classify_cylinder(w, 0, 0, Params(1.95, 0.0)) is Verdict.UNKNOWN


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


def test_raster_matches_scalar_classifier():
    par = Params(1.7, 0.3)
    length, depth = 5, 4
    r = pruned_region_raster(par, length, depth)
    code = {
        Verdict.CERTIFIED_PRUNED: PGM_PRUNED,
        Verdict.UNKNOWN: PGM_UNKNOWN,
        Verdict.CERTIFIED_ADMISSIBLE_WINDOW: PGM_ADMISSIBLE,
    }
    for i, tail in enumerate(tails(length, PLUS)):
        for j, head in enumerate(heads(length)):
            v = classify_cylinder(Word(tail, head), depth, 0, par)
            assert r.cells[i, j] == code[v]


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


def test_vectorized_intervals_bitwise_match_scalar():
    # Every rank at L = 8; (2.0, 0.9) and (1.9, -0.8) are parameters where a
    # different rounding order of the geometric remainder shows in the last bit.
    L, d = 8, 6
    for par in (Params(2.0, 0.9), Params(1.7, 0.3), Params(2.0, 0.0),
                Params(1.8, -0.4), Params(1.9, -0.8)):
        b_sign = PLUS if par.b >= 0 else MINUS
        tails_m = coordinate_symbols(L, MINUS if par.b >= 0 else PLUS)
        heads_m = coordinate_symbols(L, PLUS)
        plo, phi = _p_enclosure(tails_m.T, d, par)
        qlo, qhi = _q_enclosure(heads_m.T, d, par)
        for rank, tail in enumerate(tails(L, b_sign)):
            assert _p_enclosure(tail[::-1], d, par) == (plo[rank], phi[rank])
        for rank, head in enumerate(heads(L)):
            assert _q_enclosure(head, d, par) == (qlo[rank], qhi[rank])


def _ref_extremes(levels):
    if levels and isinstance(levels[0][0], np.ndarray):
        return partial(reduce, np.minimum), partial(reduce, np.maximum)
    return min, max


def _ref_p_series(s_levels, params):
    """_p_series as it was written with all four endpoint products of every
    term reduced by min and max, as the reference for the (near, far) form."""
    lowest, highest = _ref_extremes(s_levels)
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


def _ref_q_series(r_levels, params):
    """_q_series in the four-product form, as _ref_p_series."""
    lowest, highest = _ref_extremes(r_levels)
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
def test_series_match_four_product_reference_on_words_and_rows(a, b):
    par = Params(a, b)
    rng = random.Random(f"{a},{b}")
    length = max(_KERNEL_DEPTHS) + 2
    word = [rng.choice((PLUS, MINUS)) for _ in range(length)]
    rows = np.array([[rng.choice((PLUS, MINUS)) for _ in range(64)] for _ in range(length)])
    for symbols in (word, list(rows.astype(float))):
        # The levels r_0.. and s_{-2}.. as _q_enclosure and _p_enclosure
        # build them, symbols[k] at index k of the head and -(k+1) of the tail.
        r = _levels([a * symbols[k] for k in range(length - 1, -1, -1)], par)[::-1]
        s = _levels([-a * symbols[k] for k in range(length - 1, 0, -1)], par)[::-1]
        for depth in _KERNEL_DEPTHS:
            r_taken, s_taken = r[: depth + 1], s[:depth]
            _assert_same_enclosure(_q_series(r_taken, par), _ref_q_series(r_taken, par))
            _assert_same_enclosure(_p_series(s_taken, par), _ref_p_series(s_taken, par))


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
    head = tuple(rng.choice((PLUS, MINUS)) for _ in range(max(_KERNEL_DEPTHS) + 2))
    lo, hi = _q_enclosure(head, depth, grid)
    want_lo, want_hi = np.empty(lo.shape), np.empty(hi.shape)
    for i, j in np.ndindex(lo.shape):
        point = Params(float(grid.a[i, j]), float(grid.b[i, 0]))
        want_lo[i, j], want_hi[i, j] = eval_q(Word((), head), depth, point)
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


@pytest.mark.parametrize("a, b", [(1.7, 0.5), (1.5, -0.3), (2.1, 0.05)])
def test_pruned_verdict_reads_no_shift_window(a, b):
    # CertifiedPruned comes from the unshifted enclosure alone, so a window
    # of 0 counts the same pruned words as a window of 3 (criterion 11).
    par = Params(a, b)
    rng = random.Random(f"window {a},{b}")
    for _ in range(3000):
        w = _random_word(rng, 6, 6)
        pruned = classify_cylinder(w, 5, 0, par) is Verdict.CERTIFIED_PRUNED
        assert pruned == (classify_cylinder(w, 5, 3, par) is Verdict.CERTIFIED_PRUNED), w


def test_raster_budget_gate():
    with pytest.raises(BudgetExceeded):
        pruned_region_raster(Params(2.0, 0.0), 12, 4)


def _raster_enclosures(par, word_len, depth):
    tails = coordinate_symbols(word_len, MINUS if par.b >= 0 else PLUS)
    heads = coordinate_symbols(word_len, PLUS)
    plo, phi = (np.broadcast_to(v, len(tails)) for v in _p_enclosure(tails.T, depth, par))
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
    assert _fill_cells(plo, phi, qlo, qhi).tolist() == [
        [PGM_UNKNOWN, PGM_UNKNOWN, PGM_PRUNED, PGM_ADMISSIBLE],
        [PGM_ADMISSIBLE, PGM_UNKNOWN, PGM_PRUNED, PGM_ADMISSIBLE],
    ]
    # Endpoints drawn from a few values, so most compares are ties, over
    # more rows than one fill block.
    rng = np.random.default_rng(18)
    values = np.array([-np.inf, -1.0, -0.5, 0.0, 0.5, 1.0, np.inf])
    p = np.sort(rng.choice(values, size=(2, 150)), axis=0)
    q = np.sort(rng.choice(values[1:-1], size=(2, 70)), axis=0)
    assert np.array_equal(_fill_cells(*p, *q), _broadcast_cells(*p, *q))


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
        qlo, qhi = _q_series(r[k : k + min(depth, n - k - 1) + 1], params)
        dp = max(0, min(depth, k - 1))
        plo, phi = _p_series(y[k - 1 - dp : k - 1][::-1], params)
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


# b > 0, b < 0 and b = 0, and (2.8, 1.5), whose p remainder bound is infinite.
_BATCH_POINTS = [
    (1.7, 0.2), (1.9, -0.3), (1.7, 0.0), (2.8, 1.5), (2.1, 0.05), (1.21, 0.2), (1.55, -0.45)
]


def _batch(points):
    return Params(np.array([a for a, _ in points]), np.array([b for _, b in points]))


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
    # Tripling the depth must stay inside the shallower enclosure.
    rng = random.Random(1)
    for _ in range(10_000):
        b = rng.uniform(-0.9, 0.9)
        a = 1.0 + abs(b) + rng.uniform(0.1, 2.0)
        par = Params(a, b)
        w = _random_word(rng, rng.randint(0, 8), rng.randint(0, 8))
        d1 = rng.randint(0, 4)
        d2 = 3 * d1 if d1 else 1
        lo1, hi1 = eval_pq_cylinder(w, d1, par)
        lo2, hi2 = eval_pq_cylinder(w, d2, par)
        assert lo1 - ULP_SLACK <= lo2 and hi2 <= hi1 + ULP_SLACK


def test_closed_form_agreement_on_hyperbolic_grid():
    # 50x50 grid: the special-head series evaluation must agree with the
    # closed form within its own certified error.
    w = Word((), special_head(40))
    for i in range(50):
        for j in range(50):
            b = -0.93 + 1.86 * j / 49
            a = 1.0 + abs(b) + 0.08 + 2.2 * i / 49
            par = Params(a, b)
            assert _contains(eval_q(w, 39, par), closed_form_q(par))


def test_diff_interval_special_head_on_full_shift():
    # p = 1 and the special head maximizes q at exactly 1, so the cylinder
    # enclosure of (p - q) is [0, 2^(1-len)] in exact dyadic arithmetic.
    par = Params(2.0, 0.0)
    for length in (4, 8, 16):
        w = Word((MINUS, PLUS, MINUS), special_head(length))
        lo, hi = eval_pq_cylinder(w, length - 1, par)
        assert lo == 0.0
        assert hi == 2.0 ** (1 - length)


def test_diff_positive_for_minus_start_heads_on_full_shift():
    # Heads opening with -1 have q <= 0, so p - q >= 1 on the whole cylinder.
    rng = random.Random(31)
    par = Params(2.0, 0.0)
    for _ in range(30):
        w = Word(
            _random_word(rng, 5, 0).tail,
            (MINUS,) + _random_word(rng, 0, 7).head,
        )
        lo, _ = eval_pq_cylinder(w, 6, par)
        assert lo > 0.0


def test_pruned_verdict_stable_under_word_extension():
    # Extending a certified-pruned word only narrows the enclosure, so the
    # verdict must survive deeper evaluation on the longer word.
    par = Params(1.7, 0.5)
    r = pruned_region_raster(par, 10, 9)
    idx = np.argwhere(r.cells == PGM_PRUNED)
    assert len(idx) > 0
    i, j = (int(v) for v in idx[0])
    w = Word(tails(10, PLUS)[i], heads(10)[j])
    assert classify_cylinder(w, 9, 0, par) is Verdict.CERTIFIED_PRUNED
    ext = Word((PLUS,) * 4 + w.tail, w.head + (PLUS,) * 3)
    assert classify_cylinder(ext, 12, 0, par) is Verdict.CERTIFIED_PRUNED


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
        par = Params(a, b)
        for _ in range(60):
            i = rng.randrange(0, len(itin) - 16)
            w = Word(tuple(itin[i : i + 8]), tuple(itin[i + 8 : i + 16]))
            assert classify_cylinder(w, 7, 2, par) is not Verdict.CERTIFIED_PRUNED


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

"""Closed-form b=0 derivatives, two-sided bound lemmas, cones, and the
finite-difference oracle."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from lozi_pruning import (
    DegenerateBounds,
    InsufficientWord,
    NotHyperbolic,
    Params,
    a_derivative_bounds,
    b_derivative_bounds,
    closed_form_q,
    cone_table,
    dp_db_at_b0,
    dq_db_at_b0,
    eval_q,
    fd_derivative,
    fd_report,
    kneading,
    monotone_cone,
    special_head,
)
from lozi_pruning.derivatives import (
    _CONE_MARGIN,
    CONE_TABLE_HEADER,
    D_A,
    D_B,
    DerivBounds,
    MonotoneCone,
)
from lozi_pruning.pruning import _p_enclosure
from lozi_pruning.symbolic import MINUS, PLUS, Word, coordinate_symbols

SLOPES = (1.3, 1.5, 1.7, 2.0)
H = 1e-6


def _random_tail(rng: random.Random, m: int) -> tuple[int, ...]:
    return tuple(rng.choice((MINUS, PLUS)) for _ in range(m))


# ------------------------------------------------------------ closed forms


def test_dp_db_values():
    w_plus = Word((PLUS, PLUS), ())
    w_minus = Word((MINUS, PLUS), ())  # eps_{-2} is the left symbol
    assert dp_db_at_b0(w_plus, 2.0) == 0.5
    assert dp_db_at_b0(w_minus, 2.0) == -0.5
    assert dp_db_at_b0(w_plus, 1.6) == pytest.approx(1.0 / 1.6)


def test_dp_db_reads_eps_minus2():
    # Only the symbol two left of the dot matters.
    rng = random.Random(7)
    for _ in range(20):
        tail = _random_tail(rng, 9)
        assert dp_db_at_b0(Word(tail, ()), 1.7) == 1.0 / (1.7 * tail[-2])


def test_dp_db_insufficient_tail():
    with pytest.raises(InsufficientWord):
        dp_db_at_b0(Word((PLUS,), ()), 2.0)


def test_dp_db_matches_fd():
    rng = random.Random(21)
    for a in SLOPES:
        for _ in range(8):
            tail = _random_tail(rng, 16)
            w = Word(tail, ())
            fd = fd_derivative("p", w, Params(a, 0.0), (0.0, 1.0), h=H)
            assert fd == pytest.approx(1.0 / (a * tail[-2]), abs=1e-4)


def test_dq_db_values():
    assert dq_db_at_b0(2.0) == 0.0
    assert dq_db_at_b0(1.5) == pytest.approx(-8.0 / 9.0, rel=1e-12)


def test_dq_db_matches_fd_of_closed_form():
    for a in SLOPES:
        h = 1e-6
        fd = (closed_form_q(Params(a, h)) - closed_form_q(Params(a, -h))) / (2 * h)
        assert fd == pytest.approx(dq_db_at_b0(a), abs=1e-4)


def test_dq_db_matches_fd_of_series_on_special_head():
    # The truncated tail carries its own b-derivative, so the head must be
    # long enough to push that systematic error under the tolerance.
    for a in SLOPES:
        w = Word((), special_head(80))
        fd = fd_derivative("q", w, Params(a, 0.0), (0.0, 1.0), h=H)
        assert fd == pytest.approx(dq_db_at_b0(a), abs=1e-4)


def test_dq_db_slope_guard():
    with pytest.raises(ValueError):
        dq_db_at_b0(2.5)
    with pytest.raises(ValueError):
        dq_db_at_b0(1.0)


# ------------------------------------------------------------ bound lemmas


def test_a_bounds_full_slope():
    db = a_derivative_bounds(2.0)
    assert db.lo == pytest.approx(0.75, rel=1e-12)
    assert db.hi == pytest.approx(1.0, rel=1e-12)
    assert db.direction == D_A
    assert db.at == Params(2.0, 0.0)


def test_a_bounds_at_sqrt2():
    db = a_derivative_bounds(math.sqrt(2.0))
    assert db.lo == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, rel=1e-12)


def test_a_bounds_lower_floor_above_sqrt2():
    floor = (math.sqrt(2.0) - 1.0) / 2.0
    for a in np.linspace(math.sqrt(2.0), 2.0, 60):
        assert a_derivative_bounds(float(a)).lo >= floor - 1e-12


def test_b_bounds_full_slope():
    bp = b_derivative_bounds(2.0, +1)
    bm = b_derivative_bounds(2.0, -1)
    assert bp.lo == pytest.approx(0.25) and bp.hi == pytest.approx(0.625)
    assert bp.contains(0.5)
    assert bm.lo == pytest.approx(-0.75) and bm.hi == pytest.approx(-0.375)
    assert bm.contains(-0.5)
    assert bp.eps_minus2 == 1 and bm.eps_minus2 == -1
    assert bp.direction == D_B


def test_bounds_ordered_everywhere():
    for a in np.linspace(1.01, 2.0, 80):
        a = float(a)
        assert a_derivative_bounds(a).lo <= a_derivative_bounds(a).hi
        for e in (-1, 1):
            db = b_derivative_bounds(a, e)
            assert db.lo <= db.hi


def test_bounds_guards():
    with pytest.raises(ValueError):
        a_derivative_bounds(2.3)
    with pytest.raises(ValueError):
        b_derivative_bounds(1.5, 0)
    with pytest.raises(ValueError):
        DerivBounds(lo=1.0, hi=0.0, at=Params(1.5, 0.0), direction=D_A)
    with pytest.raises(ValueError):
        DerivBounds(lo=0.0, hi=1.0, at=Params(1.5, 0.0), direction="d_c")
    with pytest.raises(ValueError):
        DerivBounds(lo=0.0, hi=1.0, at=Params(1.5, 0.0), direction=D_B)


def test_dq_consistent_with_lemma_q_part_at_full_slope():
    # The closed form describes the head (+1,-1,-1,...), which is the
    # kneading sequence only at a=2; there the lemma's q-part bracket
    # [hi-shift, lo-shift] around the head contribution must contain it.
    a = 2.0
    bp = b_derivative_bounds(a, +1)
    q_lo = 1.0 / a - bp.hi
    q_hi = 1.0 / a - bp.lo
    assert q_lo <= dq_db_at_b0(a) <= q_hi


# --------------------------------------------------- FD-in-bounds invariant


@pytest.mark.parametrize("a", SLOPES)
def test_fd_derivatives_within_bounds_all_tails(a):
    # Both lemmas, all 2^14 tails of length 14, head = kneading prefix.
    kap = kneading(a, 14).symbols
    hw = Word((), kap)

    def qv(aa, bb):
        return eval_q(hw, 13, Params(aa, bb)).value

    fd_q_b = (qv(a, H) - qv(a, -H)) / (2 * H)
    fd_a = -(qv(a + H, 0.0) - qv(a - H, 0.0)) / (2 * H)  # tail series is 1 at b=0
    da = a_derivative_bounds(a)
    assert da.contains(fd_a, slack=1e-3)

    sym = coordinate_symbols(14, MINUS)
    plo1, phi1 = _p_enclosure(sym.T, 12, Params(a, H))
    plo2, phi2 = _p_enclosure(sym.T, 12, Params(a, -H))
    fd_b = ((plo1 + phi1) - (plo2 + phi2)) / (4 * H) - fd_q_b
    eps2 = sym[:, 1]
    for e in (1, -1):
        db = b_derivative_bounds(a, e)
        sel = fd_b[eps2 == e]
        assert sel.size == 1 << 13
        assert float(sel.min()) >= db.lo - 1e-3
        assert float(sel.max()) <= db.hi + 1e-3


def test_fd_derivatives_within_bounds_public_oracle():
    # Same invariant through the scalar public FD entry point.
    rng = random.Random(5)
    for a in SLOPES:
        kap = kneading(a, 14).symbols
        for _ in range(6):
            w = Word(_random_tail(rng, 16), kap)
            fa = fd_derivative("pq", w, Params(a, 0.0), (1.0, 0.0), h=H)
            fb = fd_derivative("pq", w, Params(a, 0.0), (0.0, 1.0), h=H)
            assert a_derivative_bounds(a).contains(fa, slack=1e-3)
            assert b_derivative_bounds(a, w.tail[-2]).contains(fb, slack=1e-3)


def test_sign_structure_at_full_slope():
    rng = random.Random(11)
    a = 2.0
    kap = kneading(a, 14).symbols
    for _ in range(40):
        tail = _random_tail(rng, 16)
        w = Word(tail, kap)
        fb = fd_derivative("pq", w, Params(a, 0.0), (0.0, 1.0), h=H)
        if tail[-2] == PLUS:
            assert fb > 0.0
        else:
            assert fb < 0.0


# ------------------------------------------------------------------- cones


def test_cone_full_slope():
    cone = monotone_cone(2.0)
    assert cone.N1 > 0 and cone.N2 > 0
    # lo_a = 0.75, hi_b(+1) = 0.625, lo_b(-1) = -0.75
    assert cone.N1 == pytest.approx((0.625 + 1e-6) / 0.75, rel=1e-9)
    assert cone.N2 == pytest.approx((0.75 + 1e-6) / 0.75, rel=1e-9)


def test_cone_guaranteed_slack_is_margin():
    for a in (1.4, 1.6, 1.8, 2.0):
        m = _CONE_MARGIN
        cone = monotone_cone(a)
        lo_a = a_derivative_bounds(a).lo
        assert cone.N1 * lo_a - b_derivative_bounds(a, +1).hi == pytest.approx(m)
        assert cone.N2 * lo_a + b_derivative_bounds(a, -1).lo == pytest.approx(m)


def test_cone_directional_fd_positive():
    rng = random.Random(3)
    for a in (1.5, 1.7, 2.0):
        cone = monotone_cone(a)
        kap = kneading(a, 14).symbols
        for _ in range(6):
            w = Word(_random_tail(rng, 16), kap)
            for direction in ((cone.N1, -1.0), (cone.N2, 1.0)):
                norm = math.hypot(*direction)
                unit = (direction[0] / norm, direction[1] / norm)
                fd = fd_derivative("pq", w, Params(a, 0.0), unit, h=H)
                assert fd > 0.0


def test_cone_slopes_grow_toward_crossover():
    vals = [monotone_cone(a) for a in (1.36, 1.5, 1.7, 2.0)]
    for c1, c2 in zip(vals, vals[1:]):
        assert c1.N1 > c2.N1
        assert c1.N2 > c2.N2
    assert vals[0].N1 > 40.0


def test_cone_degenerate_below_crossover():
    # Cubic numerator a^3+2a^2-6a+2 crosses zero near a=1.3497.
    for a in (1.25, 1.3, 1.34):
        with pytest.raises(DegenerateBounds):
            monotone_cone(a)
    assert monotone_cone(1.35).N1 > 0


def test_cone_guards():
    with pytest.raises(ValueError):
        MonotoneCone(a=1.5, N1=-1.0, N2=1.0)


def test_cone_table_rows():
    rows = cone_table([1.3, 1.5, 2.0])
    assert len(rows) == 3
    assert all(len(r) == len(CONE_TABLE_HEADER) for r in rows)
    assert math.isnan(rows[0][7]) and math.isnan(rows[0][8])
    assert rows[1][7] > 0 and rows[2][8] > 0
    assert rows[2][1] == pytest.approx(0.75)



def test_cone_table_evaluates_each_bound_once_per_slope(monkeypatch):
    from lozi_pruning import derivatives

    counts = {"a": 0, "b": 0}
    bound_a, bound_b = derivatives.a_derivative_bounds, derivatives.b_derivative_bounds

    def count_a(a):
        counts["a"] += 1
        return bound_a(a)

    def count_b(a, eps):
        counts["b"] += 1
        return bound_b(a, eps)

    monkeypatch.setattr(derivatives, "a_derivative_bounds", count_a)
    monkeypatch.setattr(derivatives, "b_derivative_bounds", count_b)
    slopes = [1.3, 1.5, 2.0]
    rows = cone_table(slopes)
    assert counts == {"a": 3, "b": 6}
    for a, row in zip(slopes[1:], rows[1:]):
        cone = monotone_cone(a)
        assert row[7:] == (cone.N1, cone.N2)


# -------------------------------------------------------------- FD oracle


def test_fd_richardson_consistency():
    # Step halving must agree at second order; Richardson beats both.
    a = 1.7
    w = Word((), special_head(80))
    truth = dq_db_at_b0(a)
    rep = fd_report("q", w, Params(a, 0.0), (0.0, 1.0), h=1e-3)
    assert abs(rep.value - rep.halved) < 1e-5
    assert abs(rep.richardson - truth) <= abs(rep.value - truth) + 1e-12
    assert rep.max_series_err < 1e-12


def test_fd_not_hyperbolic():
    w = Word((PLUS,) * 6, (PLUS,) * 6)
    with pytest.raises(NotHyperbolic):
        fd_derivative("pq", w, Params(1.2, 0.19), (0.0, 1.0), h=0.02)


def test_fd_selector_guard():
    w = Word((PLUS,) * 6, (PLUS,) * 6)
    with pytest.raises(ValueError):
        fd_derivative("r", w, Params(1.7, 0.0), (0.0, 1.0))

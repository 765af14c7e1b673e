"""Closed-form b=0 derivatives, two-sided bound lemmas, cones, and the
finite-difference oracle."""

from __future__ import annotations

import math
import random
from functools import partial

import numpy as np
import pytest

from lozi_pruning import (
    NotHyperbolic,
    Params,
    a_derivative_bounds,
    b_derivative_bounds,
    closed_form_q,
    cone_table,
    dp_db_at_b0,
    dq_db_at_b0,
    eval_p,
    eval_q,
    fd_derivative,
    kneading,
    special_head,
)
from lozi_pruning.derivatives import _CONE_MARGIN, CONE_TABLE_HEADER, DerivBounds
from lozi_pruning.pruning import _p_enclosure, _q_enclosure
from lozi_pruning.symbolic import MINUS, PLUS, coordinate_symbols

SLOPES = (1.3, 1.5, 1.7, 2.0)
H = 1e-6


def _random_tail(rng: random.Random, m: int) -> tuple[int, ...]:
    return tuple(rng.choice((MINUS, PLUS)) for _ in range(m))


def _pq(tails, head):
    """The (p - q) enclosures of tails, one per row read outward from the
    dot, each with the head, at the larger full depth of the two sides, with
    series depths capped by the symbols a side holds."""
    tails = np.asarray(tails)
    depth = max(tails.shape[1] - 2, len(head) - 1)

    def enclosure(params):
        plo, phi = _p_enclosure(tails.T, depth, params)
        qlo, qhi = _q_enclosure(np.transpose([head]), depth, params)
        return plo - qhi, phi - qlo

    return enclosure


def _tails_outward(rng: random.Random, count: int, m: int) -> np.ndarray:
    """count random tails of m symbols, one per row read outward from the
    dot, drawn as _random_tail draws them."""
    return np.array([_random_tail(rng, m)[::-1] for _ in range(count)])


# ------------------------------------------------------------ closed forms


def test_dp_db_values():
    assert dp_db_at_b0(2.0, PLUS) == 0.5
    assert dp_db_at_b0(2.0, MINUS) == -0.5
    assert dp_db_at_b0(1.6, PLUS) == pytest.approx(1.0 / 1.6)


def test_dp_db_reads_eps_minus2():
    # eps_{-2} is a symbol: +-1 give +-1/a, and anything else is refused, as
    # b_derivative_bounds refuses it.
    for a in SLOPES:
        for eps in (PLUS, MINUS):
            assert dp_db_at_b0(a, eps) == eps / a
        for bad in (0, 2, -2, 0.5):
            with pytest.raises(ValueError):
                dp_db_at_b0(a, bad)
            with pytest.raises(ValueError):
                b_derivative_bounds(a, bad)


def test_dp_db_matches_fd():
    rng = random.Random(21)
    for a in SLOPES:
        tails = _tails_outward(rng, 8, 16)
        fd = fd_derivative(partial(eval_p, tails.T, 14), Params(a, 0.0), (0.0, 1.0), H)
        assert fd == pytest.approx(1.0 / (a * tails[:, 1]), abs=1e-4)


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
    head = np.transpose([special_head(80)])
    for a in SLOPES:
        (fd,) = fd_derivative(partial(eval_q, head, 79), Params(a, 0.0), (0.0, 1.0), H)
        assert fd == pytest.approx(dq_db_at_b0(a), abs=1e-4)


def test_dq_db_slope_guard():
    with pytest.raises(ValueError):
        dq_db_at_b0(2.5)
    with pytest.raises(ValueError):
        dq_db_at_b0(1.0)
    # dp_db_at_b0 takes the same rule: at a = 0 it raised ZeroDivisionError,
    # and at a = 3 it gave 1/3 where dq_db_at_b0 refused it.
    for a in (0.0, 1.0, 2.5, 3.0, -1.5, math.nan):
        for eps in (PLUS, MINUS):
            with pytest.raises(ValueError, match="slope"):
                dp_db_at_b0(a, eps)


# ------------------------------------------------------------ bound lemmas


def test_a_bounds_full_slope():
    db = a_derivative_bounds(2.0)
    assert db.lo == pytest.approx(0.75, rel=1e-12)
    assert db.hi == pytest.approx(1.0, rel=1e-12)


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
    assert bp.lo <= 0.5 <= bp.hi
    assert bm.lo == pytest.approx(-0.75) and bm.hi == pytest.approx(-0.375)
    assert bm.lo <= -0.5 <= bm.hi


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
        DerivBounds(lo=1.0, hi=0.0)


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
    q = partial(eval_q, np.transpose([kap]), 13)
    fd_q_b = fd_derivative(q, Params(a, 0.0), (0.0, 1.0), H)
    (fd_a,) = -fd_derivative(q, Params(a, 0.0), (1.0, 0.0), H)  # tail series is 1 at b=0
    da = a_derivative_bounds(a)
    assert da.lo - 1e-3 <= fd_a <= da.hi + 1e-3

    sym = coordinate_symbols(14, MINUS)
    fd_b = fd_derivative(partial(eval_p, sym.T, 12), Params(a, 0.0), (0.0, 1.0), H) - fd_q_b
    eps2 = sym[:, 1]
    for e in (1, -1):
        db = b_derivative_bounds(a, e)
        sel = fd_b[eps2 == e]
        assert sel.size == 1 << 13
        assert float(sel.min()) >= db.lo - 1e-3
        assert float(sel.max()) <= db.hi + 1e-3


def test_fd_derivatives_within_bounds_public_oracle():
    # Same invariant through the public FD entry point, on (p - q) of whole
    # words.
    rng = random.Random(5)
    for a in SLOPES:
        tails = _tails_outward(rng, 6, 16)
        pq = _pq(tails, kneading(a, 14).symbols)
        fa = fd_derivative(pq, Params(a, 0.0), (1.0, 0.0), H)
        fb = fd_derivative(pq, Params(a, 0.0), (0.0, 1.0), H)
        da = a_derivative_bounds(a)
        assert np.all((da.lo - 1e-3 <= fa) & (fa <= da.hi + 1e-3))
        for eps2, f in zip(tails[:, 1].tolist(), fb.tolist()):
            db = b_derivative_bounds(a, eps2)
            assert db.lo - 1e-3 <= f <= db.hi + 1e-3


def test_sign_structure_at_full_slope():
    rng = random.Random(11)
    a = 2.0
    tails = _tails_outward(rng, 40, 16)
    fb = fd_derivative(_pq(tails, kneading(a, 14).symbols), Params(a, 0.0), (0.0, 1.0), H)
    assert np.array_equal(fb > 0.0, tails[:, 1] == PLUS)
    assert np.array_equal(fb < 0.0, tails[:, 1] == MINUS)


# ------------------------------------------------------------------- cones


def _cone_slopes(a_values):
    """(N1, N2) per slope: the cone columns of cone_table."""
    return [row[7:] for row in cone_table(a_values)]


def test_cone_full_slope():
    [(n1, n2)] = _cone_slopes([2.0])
    assert n1 > 0 and n2 > 0
    # lo_a = 0.75, hi_b(+1) = 0.625, lo_b(-1) = -0.75
    assert n1 == pytest.approx((0.625 + 1e-6) / 0.75, rel=1e-9)
    assert n2 == pytest.approx((0.75 + 1e-6) / 0.75, rel=1e-9)


def test_cone_guaranteed_slack_is_margin():
    slopes = (1.4, 1.6, 1.8, 2.0)
    for a, (n1, n2) in zip(slopes, _cone_slopes(slopes)):
        m = _CONE_MARGIN
        lo_a = a_derivative_bounds(a).lo
        assert n1 * lo_a - b_derivative_bounds(a, +1).hi == pytest.approx(m)
        assert n2 * lo_a + b_derivative_bounds(a, -1).lo == pytest.approx(m)


def test_cone_directional_fd_positive():
    rng = random.Random(3)
    slopes = (1.5, 1.7, 2.0)
    for a, (n1, n2) in zip(slopes, _cone_slopes(slopes)):
        pq = _pq(_tails_outward(rng, 6, 16), kneading(a, 14).symbols)
        for direction in ((n1, -1.0), (n2, 1.0)):
            norm = math.hypot(*direction)
            unit = (direction[0] / norm, direction[1] / norm)
            fd = fd_derivative(pq, Params(a, 0.0), unit, H)
            assert np.all(fd > 0.0)


def test_cone_slopes_grow_toward_crossover():
    vals = _cone_slopes([1.36, 1.5, 1.7, 2.0])
    for (n1, n2), (next_n1, next_n2) in zip(vals, vals[1:]):
        assert n1 > next_n1
        assert n2 > next_n2
    assert vals[0][0] > 40.0


def test_cone_degenerate_below_crossover():
    # Cubic numerator a^3+2a^2-6a+2 crosses zero near a=1.3497; there the
    # table holds NaN cone columns.
    for a in (1.25, 1.3, 1.34):
        assert a_derivative_bounds(a).lo <= 0.0
    for n1, n2 in _cone_slopes([1.25, 1.3, 1.34]):
        assert math.isnan(n1) and math.isnan(n2)
    [(n1, _)] = _cone_slopes([1.35])
    assert n1 > 0


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
        lo_a = bound_a(a).lo
        assert row[7:] == (
            (bound_b(a, +1).hi + _CONE_MARGIN) / lo_a,
            (-bound_b(a, -1).lo + _CONE_MARGIN) / lo_a,
        )


# -------------------------------------------------------------- FD oracle


def test_fd_richardson_consistency():
    # Step halving must agree at second order; Richardson beats both.
    a = 1.7
    head = np.transpose([special_head(80)])
    truth = dq_db_at_b0(a)
    q = partial(eval_q, head, 79)
    ((value,), (halved,)) = (fd_derivative(q, Params(a, 0.0), (0.0, 1.0), h) for h in (1e-3, 5e-4))
    richardson = (4.0 * halved - value) / 3.0
    assert abs(value - halved) < 1e-5
    assert abs(richardson - truth) <= abs(value - truth) + 1e-12
    for b in (-1e-3, 1e-3):
        lo, hi = eval_q(head, 79, Params(a, b))
        assert np.all(hi - lo < 2e-12)


def test_fd_not_hyperbolic():
    with pytest.raises(NotHyperbolic):
        fd_derivative(_pq([(PLUS,) * 6], (PLUS,) * 6), Params(1.2, 0.19), (0.0, 1.0), h=0.02)


def test_fd_step_off_a_slope_grid_names_the_one_failing_point():
    # Only the step from a = 1.3 to b = 0.32 leaves a > 1 + |b|.
    q = partial(eval_q, np.transpose([special_head(20)]), 19)
    with pytest.raises(NotHyperbolic, match=r"got a=1\.3, b=0\.32$"):
        fd_derivative(q, Params(np.array(SLOPES), 0.0), (0.0, 1.0), h=0.32)


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0)])
def test_fd_batch_of_tails_matches_scalar_words(direction):
    # One difference over a batch of tails gives, bit for bit, the values of
    # the same difference taken one word at a time.
    sym = coordinate_symbols(14, MINUS)
    rows = random.Random(22).sample(range(len(sym)), 256)
    for a, b in ((1.7, 0.0), (1.9, 0.3), (1.6, -0.4)):
        at = Params(a, b)
        batch = fd_derivative(partial(eval_p, sym.T, 12), at, direction, H)
        for i in rows:
            alone = fd_derivative(partial(eval_p, sym[i : i + 1].T, 12), at, direction, H)
            assert batch[i : i + 1].tobytes() == alone.tobytes()

"""Tent-map kneading, identity residuals, and the lap-count entropy oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lozi_pruning import (
    BudgetExceeded,
    Params,
    check_identity_shifted,
    check_identity_sum,
    eval_q,
    identity_tail_bound,
    kneading,
    require_slope,
    tent_entropy_lap,
    tent_lap_count,
    tent_orbit,
)
from lozi_pruning.symbolic import MINUS, PLUS
from symbolic_reference import heads

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _lap_brute(a: float, n: int, samples: int = 2_000_001) -> int:
    # Sampling oracle: count monotone runs of T^n on a fine grid.
    xs = np.linspace(1.0 - a, 1.0, samples)
    y = xs.copy()
    for _ in range(n):
        y = 1.0 - a * np.abs(y)
    d = np.sign(np.diff(y))
    d = d[d != 0]
    return 1 + int(np.sum(d[1:] != d[:-1]))


# ---------------------------------------------------------------- orbits


def test_orbit_full_slope_critical_value():
    assert tent_orbit(2.0, 1.0, 6) == [1.0, -1.0, -1.0, -1.0, -1.0, -1.0]


def test_orbit_fixed_point():
    # The fixed point repels at rate a, so rounding drift grows as a^n;
    # check one exact step and a short orbit within the amplified noise.
    for a in (1.25, 1.5, 1.9, 2.0):
        x = 1.0 / (1.0 + a)
        assert abs((1.0 - a * abs(x)) - x) < 1e-15
        orb = tent_orbit(a, x, 15)
        assert max(abs(v - x) for v in orb) < 1e-10


def test_orbit_length_and_start():
    orb = tent_orbit(1.7, 0.3, 9)
    assert len(orb) == 9
    assert orb[0] == 0.3
    assert orb[1] == 1.0 - 1.7 * 0.3


# ---------------------------------------------------------------- kneading


def test_kneading_full_slope():
    kn = kneading(2.0, 10)
    assert kn.symbols == (PLUS,) + (MINUS,) * 9
    assert kn.boundary_hits == frozenset()


def test_kneading_leading_symbols_always():
    for a in np.linspace(1.05, 2.0, 37):
        kn = kneading(float(a), 6)
        assert kn.symbols[0] == PLUS
        assert kn.symbols[1] == MINUS


def test_kneading_matches_orbit_signs():
    a = 1.7
    kn = kneading(a, 40)
    orb = tent_orbit(a, 1.0, 40)
    for s, x in zip(kn.symbols, orb):
        assert s == (PLUS if x >= 0 else MINUS)


def test_kneading_range_guard():
    with pytest.raises(ValueError):
        kneading(1.0, 5)
    with pytest.raises(ValueError):
        kneading(2.2, 5)


def test_golden_mean_boundary_hit():
    # a(a-1) = 1, so T^2(1) = 1 - a(a-1) = 0 exactly; the orbit then cycles
    # through 0 -> 1 -> 1-a with further hits every third step.
    kn = kneading(GOLDEN, 9)
    assert kn.boundary_hits == frozenset({2, 5, 8})


def test_golden_mean_branches():
    # The one ambiguous symbol of the first four is the fold hit at index 2.
    kn = kneading(GOLDEN, 4)
    assert kn.symbols[:2] == (PLUS, MINUS)
    assert kn.boundary_hits == frozenset({2})


def test_no_boundary_hits_at_reference_slopes():
    # These four slopes drive the cross-module consistency checks; their
    # critical orbits stay clear of the fold for at least 140 steps.
    for a in (1.3, 1.5, 1.7, 2.0):
        assert kneading(a, 140).boundary_hits == frozenset()


# ---------------------------------------------------------------- identities


def test_identity_sum_single_term():
    for a in (1.3, 1.9):
        assert check_identity_sum(a, kneading(a, 4).symbols, 1) == 1.0


def test_identity_sum_full_slope_exact():
    # At a=2 the partial sums telescope: residual is exactly 2^(1-n).
    kn = kneading(2.0, 40)
    for n in (2, 5, 9, 20):
        assert check_identity_sum(2.0, kn.symbols, n) == pytest.approx(
            2.0 ** (1 - n), rel=1e-12
        )


def test_identity_sum_under_tail_bound():
    for a in (1.3, 1.5, 1.7, 1.95, 2.0, GOLDEN):
        kn = kneading(a, 90)
        for n in (1, 3, 10, 35, 80):
            res = check_identity_sum(a, kn.symbols, n)
            assert res <= identity_tail_bound(a, n) * (1.0 + 1e-9) + 1e-15


def test_identity_sum_residual_decays():
    a = 1.6
    kn = kneading(a, 80)
    res = [check_identity_sum(a, kn.symbols, n) for n in range(5, 70, 8)]
    assert all(r2 < r1 for r1, r2 in zip(res, res[1:]))


def test_identity_sum_prefix_guard():
    with pytest.raises(ValueError):
        check_identity_sum(1.5, (PLUS, MINUS), 5)


def test_identity_shifted_reduces_to_sum_form():
    # i=0: the right side is T^0(1) = 1 and the left side is the q-type
    # series, so the residual equals |partial - 1|.
    a = 1.8
    kn = kneading(a, 60)
    lhs_partial = 0.0
    run = 1.0
    for j, s in enumerate(kn.symbols[:30]):
        run *= s
        lhs_partial += ((-1.0) ** j) * run / a ** (j + 1)
    assert check_identity_shifted(a, kn.symbols, 0, 30) == pytest.approx(
        abs(lhs_partial - 1.0), abs=1e-15
    )


def test_identity_shifted_under_tail_bound():
    for a in (1.3, 1.5, 1.7, 2.0, GOLDEN):
        kn = kneading(a, 100)
        for i in range(6):
            for n in (4, 20, 60):
                res = check_identity_shifted(a, kn.symbols, i, n)
                bnd = a ** (-(i + n)) / (a - 1.0)
                assert res <= bnd * (1.0 + 1e-9) + 1e-15


def test_identity_shifted_full_slope_closed_form():
    # a=2, i=1: both sides equal 1/2; the residual is the exact geometric
    # tail 2^-(n+1), which meets the tail bound with equality.
    kn = kneading(2.0, 50)
    for n in (3, 10, 25):
        res = check_identity_shifted(2.0, kn.symbols, 1, n)
        assert res == pytest.approx(2.0 ** -(n + 1), rel=1e-12)
        assert res == pytest.approx(2.0 ** -(1 + n) / (2.0 - 1.0), rel=1e-12)


def test_identity_shifted_guards():
    kn = kneading(1.5, 10)
    with pytest.raises(ValueError):
        check_identity_shifted(1.5, kn.symbols, -1, 3)
    with pytest.raises(ValueError):
        check_identity_shifted(1.5, kn.symbols, 6, 5)


def test_identities_hold_on_both_golden_branches():
    # At an exact fold hit the symbol is ambiguous; the sum identity must
    # hold for either sign choice.
    kn = kneading(GOLDEN, 20)
    for sign in (PLUS, MINUS):
        branch = kn.symbols[:2] + (sign,) + kn.symbols[3:]
        for n in (6, 14):
            res = check_identity_sum(GOLDEN, branch, n)
            assert res <= identity_tail_bound(GOLDEN, n) * (1.0 + 1e-9) + 1e-13


# ---------------------------------------------------------------- lap counts


def test_lap_single_iterate():
    for a in (1.2, 1.5, 1.7, 2.0):
        assert tent_lap_count(a, 1) == 2


def test_lap_full_slope_powers_of_two():
    for n in (1, 4, 10, 16):
        assert tent_lap_count(2.0, n) == 2**n


def test_lap_matches_sampling_oracle():
    for a, n in ((1.2, 12), (1.5, 9), (1.7, 8), (1.95, 7)):
        assert tent_lap_count(a, n) == _lap_brute(a, n)


def test_lap_submultiplicative():
    for a in (1.3, 1.6, 1.9):
        laps = {k: tent_lap_count(a, k) for k in range(1, 13)}
        for n in range(1, 6):
            for m in range(1, 7):
                assert laps[n + m] <= laps[n] * laps[m]


def test_lap_entropy_full_slope():
    assert abs(tent_entropy_lap(2.0, 16) - math.log(2.0)) < 1e-2


def test_lap_entropy_upper_bound_property():
    # (1/n) log lap is always >= log a and decreases toward it. Larger
    # slopes get shorter horizons to stay inside the point budget.
    for a, n_max in ((1.2, 24), (1.45, 24), (1.7, 20), (1.9, 18)):
        prev = math.inf
        for n in range(6, n_max + 1, 6):
            est = tent_entropy_lap(a, n)
            assert est >= math.log(a) - 1e-12
            assert est <= prev + 1e-12
            prev = est


def test_lap_entropy_small_slope():
    # The raw (1/n) log lap estimate at a=1.2 carries the multiplicative
    # constant of the lap growth: lap(n) ~ 7.7 * 1.2^n, so at n=24 the
    # estimate sits log(7.7)/24 ~ 0.085 above log 1.2 and only drops under
    # 0.05 around n=45. Freeze the exact n=24 count and check the gap at
    # n=60, plus the fast one-step ratio at n=24.
    assert tent_lap_count(1.2, 24) == 613
    assert tent_entropy_lap(1.2, 24) == pytest.approx(math.log(613) / 24, rel=1e-12)
    assert abs(tent_entropy_lap(1.2, 60) - math.log(1.2)) < 0.05
    ratio = math.log(tent_lap_count(1.2, 24) / tent_lap_count(1.2, 23))
    assert abs(ratio - math.log(1.2)) < 0.02


def test_lap_budget_guard():
    with pytest.raises(BudgetExceeded):
        tent_lap_count(2.0, 40)


def test_lap_guards():
    with pytest.raises(ValueError):
        tent_lap_count(2.5, 4)
    with pytest.raises(ValueError):
        tent_lap_count(1.5, 0)


# ------------------------------------------------- kneading vs pruning front


def test_kneading_prefixes_track_pruning_front():
    # At b=0 the surviving boundary of the head order is the tent kneading
    # sequence: every kneading prefix cylinder encloses head-series value 1,
    # with the enclosure midpoint converging to 1 geometrically.
    # One call per length takes each slope's prefix at that slope.
    slopes = np.array([1.3, 1.5, 1.7, 2.0])
    kaps = np.transpose([kneading(a, 12).symbols for a in slopes.tolist()])
    for length in range(2, 13):
        lo, hi = eval_q(kaps[:length], length - 1, Params(slopes, 0.0))
        assert np.all(lo <= 1.0 + 5e-13)
        assert np.all(hi >= 1.0 - 5e-13)
        assert np.all(abs(0.5 * (lo + hi) - 1.0) <= 3.0 * slopes ** (-length) / (slopes - 1.0))


def test_far_heads_resolve_away_from_front():
    far = np.transpose([(PLUS,) * 12, (MINUS,) * 12])
    for a in (1.3, 1.5, 1.7, 2.0):
        lo, hi = eval_q(far, 11, Params(a, 0.0))
        assert np.all((hi < 1.0) | (lo > 1.0))


def test_full_slope_unique_straddling_head():
    # At a=2 the +- digit expansion is rigid, so exactly one length-12 head
    # cylinder straddles 1: the kneading prefix itself.
    a = 2.0
    every = np.array(heads(12))
    lo, hi = eval_q(every.T, 11, Params(a, 0.0))
    (straddling,) = np.flatnonzero((lo <= 1.0) & (1.0 <= hi))
    assert tuple(every[straddling].tolist()) == kneading(a, 12).symbols


def test_slope_range_guard():
    require_slope(1.5)
    require_slope(2.0)
    for a in (0.9, 1.0, 2.01):
        with pytest.raises(ValueError):
            require_slope(a)

"""Parameter derivatives of the pruning pair at b = 0: closed forms, the
two-sided bound lemmas, monotone direction cones, and a finite-difference
verification oracle."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .pruning import Params
from .tent import require_slope


@dataclass(frozen=True)
class DerivBounds:
    """Two-sided bound on a directional parameter derivative of p - q."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("lower bound exceeds upper bound")


def dp_db_at_b0(a: float, eps_minus2: int) -> float:
    """d(tail series)/db at b = 0: exactly 1/(a * eps_{-2})."""
    if eps_minus2 not in (-1, 1):
        raise ValueError("eps_minus2 must be -1 or +1")
    return 1.0 / (a * eps_minus2)


def dq_db_at_b0(a: float) -> float:
    """d(head series)/db at b = 0 for the head (+1, -1, -1, ...)."""
    require_slope(a)
    return (1.0 - 2.0 / a) / (a * (a - 1.0) ** 2)


def a_derivative_bounds(a: float) -> DerivBounds:
    """Two-sided bound on d(p - q)/da at (a, 0) over kneading-headed words."""
    require_slope(a)
    den = 2.0 * a * a * (a - 1.0)
    lo = (a**3 + 2.0 * a * a - 6.0 * a + 2.0) / den
    hi = (a**3 + 2.0 * a * a - 6.0 * a + 4.0) / den
    return DerivBounds(lo=lo, hi=hi)


def b_derivative_bounds(a: float, eps_minus2: int) -> DerivBounds:
    """Two-sided bound on d(p - q)/db at (a, 0), split by eps_{-2}."""
    require_slope(a)
    head_part = dp_db_at_b0(a, eps_minus2)
    den = 2.0 * a**3 * (a - 1.0)
    lo = head_part - (-2.0 * a * a + 7.0 * a - 2.0) / den
    hi = head_part - (-2.0 * a * a + 7.0 * a - 8.0) / den
    return DerivBounds(lo=lo, hi=hi)


# Guaranteed directional derivative at the cone slopes of cone_table.
_CONE_MARGIN = 1e-6


CONE_TABLE_HEADER = (
    "a",
    "lo_a",
    "hi_a",
    "lo_b_plus",
    "hi_b_plus",
    "lo_b_minus",
    "hi_b_minus",
    "N1",
    "N2",
)


def cone_table(a_values: list[float]) -> list[tuple[float, ...]]:
    """Direction-field rows matching CONE_TABLE_HEADER.

    N1 and N2 are the smallest cone slopes making p - q strictly increase
    along (N1, -1) and (N2, +1): there the guaranteed directional derivative
    equals _CONE_MARGIN exactly, and any larger slope gives strictly more
    slack. Both are positive, since b_derivative_bounds puts hi above 1/a
    for eps_-2 = +1 and lo below -1/a for eps_-2 = -1. Slopes below the
    crossover where the a-derivative lower bound reaches 0 get NaN cone
    columns, so a sweep over (1.2, 2] stays a single table.
    """
    rows = []
    for a in a_values:
        da = a_derivative_bounds(a)
        bp = b_derivative_bounds(a, +1)
        bm = b_derivative_bounds(a, -1)
        if da.lo <= 0.0:
            n1 = n2 = math.nan
        else:
            n1, n2 = (bp.hi + _CONE_MARGIN) / da.lo, (-bm.lo + _CONE_MARGIN) / da.lo
        rows.append((a, da.lo, da.hi, bp.lo, bp.hi, bm.lo, bm.hi, n1, n2))
    return rows


def fd_derivative(
    enclosure: Callable[[Params], tuple],
    params: Params,
    direction: tuple[float, float],
    h: float = 1e-6,
):
    """Central finite difference, along a parameter direction, of the
    midpoint of an enclosure: enclosure maps Params to (lo, hi), as floats
    or as arrays, and the difference has the same shape. A step that leaves
    the hyperbolic region raises NotHyperbolic naming the point it reaches."""
    da, db = direction
    plus = Params(params.a + h * da, params.b + h * db)
    minus = Params(params.a - h * da, params.b - h * db)
    for pt in (plus, minus):
        pt.require_hyperbolic()
    lo_p, hi_p = enclosure(plus)
    lo_m, hi_m = enclosure(minus)
    return (0.5 * (lo_p + hi_p) - 0.5 * (lo_m + hi_m)) / (2.0 * h)

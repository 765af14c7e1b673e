"""Parameter derivatives of the pruning pair at b = 0: closed forms, the
two-sided bound lemmas, monotone direction cones, and a finite-difference
verification oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateBounds, InsufficientWord, NotHyperbolic
from .pruning import BoundedValue, Params, eval_p, eval_pq_cylinder, eval_q
from .symbolic import Word

D_A = "d_a"
D_B = "d_b"


@dataclass(frozen=True)
class DerivBounds:
    """Two-sided bound on a directional parameter derivative of p - q.

    For direction d_b the bound depends on the tail symbol two places left
    of the dot; eps_minus2 records which branch the bound is for.
    """

    lo: float
    hi: float
    at: Params
    direction: str
    eps_minus2: int | None = None

    def __post_init__(self) -> None:
        if self.direction not in (D_A, D_B):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.lo > self.hi:
            raise ValueError("lower bound exceeds upper bound")
        if self.direction == D_B and self.eps_minus2 not in (-1, 1):
            raise ValueError("d_b bounds need eps_minus2 in {-1, +1}")

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


@dataclass(frozen=True)
class MonotoneCone:
    """Directions (N1, -1) and (N2, +1) along which p - q strictly grows."""

    a: float
    N1: float
    N2: float

    def __post_init__(self) -> None:
        if not (self.N1 > 0.0 and self.N2 > 0.0):
            raise ValueError("cone slopes must be positive")


def dp_db_at_b0(w: Word, a: float) -> float:
    """d(tail series)/db at b = 0: exactly 1/(a * eps_{-2})."""
    if w.tail_len < 2:
        raise InsufficientWord("tail symbol at index -2 is required")
    return 1.0 / (a * w.tail[-2])


def dq_db_at_b0(a: float) -> float:
    """d(head series)/db at b = 0 for the head (+1, -1, -1, ...)."""
    _require_slope(a)
    return (1.0 - 2.0 / a) / (a * (a - 1.0) ** 2)


def _require_slope(a: float) -> None:
    if not 1.0 < a <= 2.0:
        raise ValueError(f"bounds hold for 1 < a <= 2, got a={a}")


def a_derivative_bounds(a: float) -> DerivBounds:
    """Two-sided bound on d(p - q)/da at (a, 0) over kneading-headed words."""
    _require_slope(a)
    den = 2.0 * a * a * (a - 1.0)
    lo = (a**3 + 2.0 * a * a - 6.0 * a + 2.0) / den
    hi = (a**3 + 2.0 * a * a - 6.0 * a + 4.0) / den
    return DerivBounds(lo=lo, hi=hi, at=Params(a, 0.0), direction=D_A)


def b_derivative_bounds(a: float, eps_minus2: int) -> DerivBounds:
    """Two-sided bound on d(p - q)/db at (a, 0), split by eps_{-2}."""
    _require_slope(a)
    if eps_minus2 not in (-1, 1):
        raise ValueError("eps_minus2 must be -1 or +1")
    den = 2.0 * a**3 * (a - 1.0)
    head_part = 1.0 / (a * eps_minus2)
    lo = head_part - (-2.0 * a * a + 7.0 * a - 2.0) / den
    hi = head_part - (-2.0 * a * a + 7.0 * a - 8.0) / den
    return DerivBounds(
        lo=lo, hi=hi, at=Params(a, 0.0), direction=D_B, eps_minus2=eps_minus2
    )


# Guaranteed directional derivative at the returned cone slopes.
_CONE_MARGIN = 1e-6


def monotone_cone(a: float, margin: float = _CONE_MARGIN) -> MonotoneCone:
    """Smallest cone slopes making p - q strictly increase along (N1, -1)
    and (N2, +1).

    At the returned N values the guaranteed directional derivative equals
    margin exactly; any larger slope gives strictly more slack.
    """
    _require_slope(a)
    return _cone(
        a,
        a_derivative_bounds(a),
        b_derivative_bounds(a, +1),
        b_derivative_bounds(a, -1),
        margin,
    )


def _cone(
    a: float, da: DerivBounds, bp: DerivBounds, bm: DerivBounds, margin: float
) -> MonotoneCone:
    """The cone of monotone_cone from the slope's three bound intervals."""
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    if da.lo <= 0.0:
        raise DegenerateBounds(
            f"a-derivative lower bound {da.lo:.6f} <= 0 at a={a}; no cone certified"
        )
    return MonotoneCone(a=a, N1=(bp.hi + margin) / da.lo, N2=(-bm.lo + margin) / da.lo)


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

    Slopes below the lower-bound crossover get NaN cone columns instead of
    an error so a sweep over (1.2, 2] stays a single table.
    """
    rows = []
    for a in a_values:
        da = a_derivative_bounds(a)
        bp = b_derivative_bounds(a, +1)
        bm = b_derivative_bounds(a, -1)
        try:
            cone = _cone(a, da, bp, bm, _CONE_MARGIN)
            n1, n2 = cone.N1, cone.N2
        except DegenerateBounds:
            n1 = n2 = math.nan
        rows.append((a, da.lo, da.hi, bp.lo, bp.hi, bm.lo, bm.hi, n1, n2))
    return rows


@dataclass(frozen=True)
class FdReport:
    """Central difference at step h plus its step-halving diagnostics."""

    value: float
    halved: float
    richardson: float
    max_series_err: float


def _eval_selected(f: str, w: Word, params: Params, depth: int):
    if f == "p":
        return eval_p(w, depth, params)
    if f == "q":
        return eval_q(w, depth, params)
    if f == "pq":
        lo, hi = eval_pq_cylinder(w, depth, params)
        return BoundedValue.from_interval(lo, hi)
    raise ValueError(f"unknown series selector {f!r}; use 'p', 'q', or 'pq'")


def _max_depth_for(f: str, w: Word) -> int:
    # The difference evaluator caps each side separately, so hand it the
    # larger of the two usable depths.
    if f == "p":
        return max(w.tail_len - 2, 0)
    if f == "q":
        return max(w.head_len - 1, 0)
    return max(w.tail_len - 2, w.head_len - 1, 0)


def _central_difference(
    f: str,
    w: Word,
    params: Params,
    direction: tuple[float, float],
    h: float,
    depth: int | None,
) -> tuple[float, float]:
    """Central difference at step h and the larger truncation radius of its
    two series evaluations."""
    d = _max_depth_for(f, w) if depth is None else depth
    da, db = direction
    plus = Params(params.a + h * da, params.b + h * db)
    minus = Params(params.a - h * da, params.b - h * db)
    for pt in (plus, minus):
        if not pt.hyperbolic:
            raise NotHyperbolic(f"step leaves the hyperbolic region at {pt}")
    hi_v = _eval_selected(f, w, plus, d)
    lo_v = _eval_selected(f, w, minus, d)
    return (hi_v.value - lo_v.value) / (2.0 * h), max(hi_v.err, lo_v.err)


def fd_derivative(
    f: str,
    w: Word,
    params: Params,
    direction: tuple[float, float],
    h: float = 1e-6,
    depth: int | None = None,
) -> float:
    """Central finite difference of a pruning series along a parameter
    direction.

    f selects the series: 'p' (tail), 'q' (head), or 'pq' (difference).
    Uses the full word depth unless an explicit depth is given.
    """
    return _central_difference(f, w, params, direction, h, depth)[0]


def fd_report(
    f: str,
    w: Word,
    params: Params,
    direction: tuple[float, float],
    h: float = 1e-6,
    depth: int | None = None,
) -> FdReport:
    """fd_derivative at h and h/2 with the Richardson-extrapolated value
    and the worst series truncation radius met along the way."""
    value, err = _central_difference(f, w, params, direction, h, depth)
    halved, err_halved = _central_difference(f, w, params, direction, 0.5 * h, depth)
    return FdReport(
        value=value,
        halved=halved,
        richardson=(4.0 * halved - value) / 3.0,
        max_series_err=max(err, err_halved),
    )

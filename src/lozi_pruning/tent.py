"""Tent-map itineraries, kneading sequences, alternating-sum identities, and
a lap-counting entropy oracle for the b = 0 limit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .symbolic import MINUS, PLUS


def require_slope(a: float) -> None:
    """The slope range 1 < a <= 2 of the tent map x -> 1 - a|x|, where its
    kneading theory and the b = 0 derivative bounds hold."""
    if not 1.0 < a <= 2.0:
        raise ValueError(f"need slope 1 < a <= 2, got a={a}")


@dataclass(frozen=True)
class Kneading:
    """Itinerary of the critical value 1.

    symbols[i] is the sign of T^i(1); indices where the orbit lands on the
    fold within tolerance are recorded in boundary_hits, and the symbol there
    is one of the two valid choices (the orbit itself continues through 0
    identically either way).
    """

    a: float
    symbols: tuple[int, ...]
    boundary_hits: frozenset[int]

    def branches(self, limit: int = 64) -> tuple[tuple[int, ...], ...]:
        """All sign choices at boundary hits, up to `limit` variants."""
        hits = sorted(self.boundary_hits)
        if (1 << len(hits)) > limit:
            raise ValueError(f"2^{len(hits)} branches exceed limit {limit}")
        out = [list(self.symbols)]
        for i in hits:
            out = [b[:i] + [s] + b[i + 1 :] for b in out for s in (PLUS, MINUS)]
        return tuple(tuple(b) for b in out)


def tent_orbit(a: float, x0: float, n: int) -> list[float]:
    """The first n points x0, T(x0), ..., T^(n-1)(x0) of the tent orbit."""
    xs = []
    x = x0
    for _ in range(n):
        xs.append(x)
        x = 1.0 - a * abs(x)
    return xs


# An orbit point this close to 0 counts as a fold hit.
_FOLD_TOL = 1e-12


def kneading(a: float, n: int) -> Kneading:
    """Signs of the orbit of 1 with fold hits within _FOLD_TOL flagged."""
    require_slope(a)
    symbols = []
    hits = set()
    for i, x in enumerate(tent_orbit(a, 1.0, n)):
        if abs(x) <= _FOLD_TOL:
            hits.add(i)
        symbols.append(PLUS if x >= 0.0 else MINUS)
    return Kneading(a=a, symbols=tuple(symbols), boundary_hits=frozenset(hits))


def identity_tail_bound(a: float, n: int) -> float:
    """Geometric majorant for the alternating-sum terms from index n on."""
    return a ** (-n) * a / (a - 1.0)


def check_identity_sum(a: float, kneading_prefix: tuple[int, ...], n: int) -> float:
    """|partial sum of sum_i (-1)^i e_0...e_{i-1} / a^i| over i < n.

    On a genuine kneading sequence the full sum vanishes, so the partial sum
    is bounded by identity_tail_bound(a, n).
    """
    if n > len(kneading_prefix) + 1:
        raise ValueError("prefix too short for the requested partial sum")
    total = 0.0
    sign_prod = 1.0
    scale = 1.0
    for i in range(n):
        total += sign_prod * scale
        if i < len(kneading_prefix):
            sign_prod *= -kneading_prefix[i]
        scale /= a
    return abs(total)


def check_identity_shifted(
    a: float, kneading_prefix: tuple[int, ...], i: int, n: int
) -> float:
    """Residual of the index-shifted alternating identity.

    Left side: sum over j < n of (-1)^(i+j) e_0...e_{i+j} / a^(i+j+1).
    Right side: (-1)^i (e_0...e_{i-1} / a^i) T^i(1).  The residual must sit
    under the tail bound a^-(i+n) / (a-1).
    """
    if i < 0:
        raise ValueError("shift index must be >= 0")
    if i + n > len(kneading_prefix):
        raise ValueError("prefix too short for the requested window")
    lhs = 0.0
    prod = 1.0
    for t in range(i):
        prod *= kneading_prefix[t]
    scale = a ** (-(i + 1))
    sign = -1.0 if i % 2 else 1.0
    run = prod
    for j in range(n):
        run *= kneading_prefix[i + j]
        lhs += sign * run * scale
        sign = -sign
        scale /= a
    ti = tent_orbit(a, 1.0, i + 1)[-1]
    rhs = ((-1.0) ** i) * prod / (a**i) * ti
    return abs(lhs - rhs)


_LAP_POINT_LIMIT = 1 << 22  # largest turning-point partition tent_lap_count builds


def tent_lap_count(a: float, n: int) -> int:
    """Lap number of T^n on the invariant interval [1-a, 1].

    Turning points of T^n are the preimages T^-k(0) for k < n, computed per
    branch in closed form: a preimage of y is +-(1-y)/a, the negative branch
    existing in the interval iff y >= 1 - a^2 + a.
    """
    require_slope(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = [np.array([0.0])]
    frontier = pts[0]
    total = 1
    for _ in range(n - 1):
        pos = (1.0 - frontier) / a
        neg_ok = frontier >= 1.0 - a * a + a
        frontier = np.concatenate([pos, -pos[neg_ok]])
        total += frontier.size
        if total > _LAP_POINT_LIMIT:
            raise BudgetExceeded(f"lap-count partition exceeds {_LAP_POINT_LIMIT} points")
        pts.append(frontier)
    allpts = np.sort(np.concatenate(pts))
    # Merge numerically coincident points and drop the interval's endpoints.
    eps = 1e-11
    distinct = allpts[np.concatenate([[True], np.diff(allpts) > eps])]
    interior = distinct[(distinct > 1.0 - a + eps) & (distinct < 1.0 - eps)]
    return int(len(interior)) + 1


def tent_entropy_lap(a: float, n: int) -> float:
    """Entropy estimate log(lap(T^n)) / n; converges to log a from above."""
    return math.log(tent_lap_count(a, n)) / n

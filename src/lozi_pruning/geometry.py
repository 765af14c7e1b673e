"""Plane dynamics of the Lozi family: fixed points and period-2 sinks,
piecewise-affine invariant-manifold polylines, the quartic-step Lyapunov
certificate, homoclinic detection, and the zero-entropy classifier/scan.

Each manifold branch is one row of ``MANIFOLD_BRANCHES``: its saddle, whether
it grows under the inverse map, the sign of its seed eigenvector (lambda, 1),
and its kind. The period-2 orbit n1, n2 is attracting iff b^2 < 1 and
|a^2 s1 s2 + 2b| < 1 + b^2 (s_i the sign of n_i.x): the Jury criterion on
J(n2) J(n1), whose determinant is b^2 and whose trace is a^2 s1 s2 + 2b.

When it attracts, the homoclinic sweep stops a forward branch inside a
trapping ellipse of the sink. On the sign cell of n1, L^2 is the affine map
z -> n1 + M (z - n1) with M = J(n2) J(n1). X solving the Stein equation
M^T X M - X = -I makes |z - n1|_X strictly decrease under L^2, so the X-ball
about n1 whose radius is half the X-distance to the cell's two sign lines
maps into itself and lies in the basin of the sink. W^s(p1) cannot meet that
basin, so a branch whose newest piece lies in such a ball (or the one built
the same way about n2) has no crossing left to find.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExceeded,
    LoziError,
    NoFixedPoint,
    NonInvertible,
    NotInvariant,
    WrongParams,
)
from .pruning import Params


class PlanePoint(NamedTuple):
    """A point of the plane. It is an (x, y) float pair, so the float kernels
    below read and build points with no conversion."""

    x: float
    y: float

    def dist(self, other: "PlanePoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _iterate(a: float, b: float, x: float, y: float, n: int) -> tuple[float, float]:
    """n forward steps (x, y) -> (1 - a|x| + by, x) on floats: the one
    written form of the map, except the copies inlined in _double_step."""
    for _ in range(n):
        x, y = 1.0 - a * abs(x) + b * y, x
    return x, y


def lozi_apply(params: Params, p: PlanePoint) -> PlanePoint:
    """One exact piecewise-affine step (x, y) -> (1 - a|x| + by, x)."""
    return PlanePoint(*_iterate(params.a, params.b, p.x, p.y, 1))


def lozi_apply_inverse(params: Params, p: PlanePoint) -> PlanePoint:
    """One exact inverse step; needs b != 0."""
    if params.b == 0.0:
        raise NonInvertible("the map collapses the plane at b = 0")
    return PlanePoint(p.y, (p.x - 1.0 + params.a * abs(p.y)) / params.b)


def lozi_apply_n(params: Params, p: PlanePoint, n: int) -> PlanePoint:
    """n-fold image; negative n iterates the inverse (b != 0)."""
    if n >= 0:
        return PlanePoint(*_iterate(params.a, params.b, p.x, p.y, n))
    for _ in range(-n):
        p = lozi_apply_inverse(params, p)
    return p


# ------------------------------------------------------------ fixed points


@dataclass(frozen=True)
class FixedData:
    """Saddles p1/p2, the period-2 pair n1/n2 when present, and the
    eigen-slopes of the affine pieces at the saddles: both at p1, and the
    unstable one at p2, the only branch of p2 that grows.

    Slopes are the lambda of eigenvectors (lambda, 1); None when the
    respective fixed point is absent or the eigenvalues are complex.
    """

    p1: PlanePoint | None
    p2: PlanePoint | None
    n1: PlanePoint | None
    n2: PlanePoint | None
    stable_slope_p1: float | None
    unstable_slope_p1: float | None
    unstable_slope_p2: float | None
    period2_attracting: bool | None


def _two_cycle_attracting(a: float, b: float, s1: float, s2: float) -> bool:
    """Jury test on J(n2) J(n1), where J(n) = [[-a sign(n.x), b], [1, 0]]."""
    return b * b < 1.0 and abs(a * a * s1 * s2 + 2.0 * b) < 1.0 + b * b


def _residual(a: float, b: float, x: float, y: float, steps: int) -> float:
    """|L^steps (x, y) - (x, y)| with the float expression of PlanePoint.dist."""
    u, v = _iterate(a, b, x, y, steps)
    return math.hypot(x - u, y - v)


def fixed_data(params: Params) -> FixedData:
    """Fixed and period-2 points with eigen-slopes, by the closed formulas.

    Candidates are validated against the actual map (residual <= 1e-10), so
    sign-pattern breakdowns outside the structure region simply report the
    point as absent rather than returning a formula ghost.
    """
    a, b = params.a, params.b
    disc = a * a + 4.0 * b
    root = math.sqrt(disc) if disc >= 0.0 else None

    # One saddle per fold side s: p1 has s = +1 (x > 0) and p2 has s = -1.
    saddles = []
    for s in (1.0, -1.0):
        point = stable = unstable = None
        den = 1.0 + a * s - b
        if s * den > 0.0:
            x = 1.0 / den
            if _residual(a, b, x, x, 1) <= 1e-10:
                point = PlanePoint(x, x)
                if root is not None:
                    stable = 0.5 * (-a * s + s * root)
                    unstable = 0.5 * (-a * s - s * root)
        saddles.append((point, stable, unstable))
    (p1, s1, u1), (p2, _, u2) = saddles
    if p1 is None and p2 is None:
        raise NoFixedPoint(f"no fixed point at (a, b) = ({a}, {b})")

    n1 = n2 = None
    attracting = None
    den = (b - 1.0) ** 2 + a * a
    if b != 1.0 and den > 0.0:
        x = (1.0 + a - b) / den
        y = (1.0 - a * x) / (1.0 - b)
        genuine = math.hypot(x - y, y - x) > 1e-10  # otherwise it collapses onto p1
        if (
            genuine
            and _residual(a, b, x, y, 2) <= 1e-10
            and _residual(a, b, y, x, 2) <= 1e-10
        ):
            n1, n2 = PlanePoint(x, y), PlanePoint(y, x)
            attracting = _two_cycle_attracting(
                a, b, math.copysign(1.0, x), math.copysign(1.0, y)
            )
    return FixedData(
        p1=p1,
        p2=p2,
        n1=n1,
        n2=n2,
        stable_slope_p1=s1,
        unstable_slope_p1=u1,
        unstable_slope_p2=u2,
        period2_attracting=attracting,
    )


@functools.lru_cache(maxsize=1)
def _fixed_data(params: Params) -> FixedData:
    """fixed_data(params), kept for the last params asked for: one pixel's
    sweep, polygon and Lyapunov samples all read the same FixedData."""
    return fixed_data(params)


# --------------------------------------------------------------- polylines


@dataclass(frozen=True)
class Polyline:
    """Piecewise-linear manifold approximation grown from a saddle.

    truncated marks growth stopped before the branch converged, by the arc
    budget or by the pass cap; otherwise the newest fundamental-domain piece
    became shorter than _FLAT_TOL (the branch converged, e.g. into a sink).
    """

    vertices: tuple[PlanePoint, ...]
    kind: str
    truncated: bool
    arc_length: float


def _xy_array(points, n: int) -> np.ndarray:
    """(n, 2) array of n (x, y) pairs; fromiter over the flat coordinates is
    about 4x faster than np.array over a sequence of NamedTuples."""
    return np.fromiter(itertools.chain.from_iterable(points), float, 2 * n).reshape(-1, 2)


def _double_step(params: Params, pts, inverse: bool) -> list:
    """Image of an (x, y) polyline under two forward or two inverse steps,
    inserting an exact vertex wherever a segment crosses a step's fold
    (x = 0 forward, y = 0 inverse): the vertices, in order, that two calls
    of a one-step map would give, with no list in between. One loop takes
    each vertex through both steps as it is reached; where the segment into
    it crosses the fold, the inner loop takes the fold vertex through both
    steps first. Likewise the second step maps the fold vertex of the
    segment from the last first image before the new one. The steps are
    lozi_apply and lozi_apply_inverse written out on floats, the second
    one twice."""
    a, b = params.a, params.b
    out = []
    # (ux, uy) is the last vertex in and (vx, vy) the last first image; no
    # fold vertex comes before the first of either
    ux = uy = vx = vy = 0.0
    if inverse:
        for wx, wy in pts:
            fold = uy * wy < 0.0
            if fold:
                t = uy / (uy - wy)
                x, y = ux + t * (wx - ux), uy + t * (wy - uy)
            else:
                x, y = wx, wy
            while True:
                x, y = y, (x - 1.0 + a * abs(y)) / b
                if vy * y < 0.0:
                    t = vy / (vy - y)
                    fx, fy = vx + t * (x - vx), vy + t * (y - vy)
                    out.append((fy, (fx - 1.0 + a * abs(fy)) / b))
                out.append((y, (x - 1.0 + a * abs(y)) / b))
                vx, vy = x, y
                if not fold:
                    break
                fold, x, y = False, wx, wy
            ux, uy = wx, wy
    else:
        for wx, wy in pts:
            fold = ux * wx < 0.0
            if fold:
                t = ux / (ux - wx)
                x, y = ux + t * (wx - ux), uy + t * (wy - uy)
            else:
                x, y = wx, wy
            while True:
                x, y = 1.0 - a * abs(x) + b * y, x
                if vx * x < 0.0:
                    t = vx / (vx - x)
                    fx, fy = vx + t * (x - vx), vy + t * (y - vy)
                    out.append((1.0 - a * abs(fx) + b * fy, fx))
                out.append((1.0 - a * abs(x) + b * y, x))
                vx, vy = x, y
                if not fold:
                    break
                fold, x, y = False, wx, wy
            ux, uy = wx, wy
    return out


# A vertex this far off the chord of its neighbours, relative to the chord's
# length, is kept.
_COLLINEAR_TOL = 1e-13


class _Kept:
    """The vertices of a polyline fed to it piece by piece, less each one
    within _COLLINEAR_TOL of the chord from the last kept vertex to the next
    one, or a repeat of the last kept one; both ends are kept. A vertex is
    decided as soon as the vertex after it is fed, so vertices holds every
    vertex decided so far and close() adds the pending last one. The state
    between pieces is the last kept vertex, vertices[-1], and the pending
    one."""

    __slots__ = ("vertices", "_pending")

    def __init__(self):
        self.vertices = []
        self._pending = None

    def feed(self, pts) -> None:
        """Take the next raw vertices of the polyline, in order."""
        kept, v = self.vertices, self._pending
        if v is None:  # pts holds the polyline's first or second vertex
            if not pts:
                return
            if not kept:
                kept.append(pts[0])
                pts = pts[1:]
                if not pts:
                    return
            v, pts = pts[0], pts[1:]
        ux, uy = kept[-1]
        for w in pts:
            vx, vy = v
            dx, dy = vx - ux, vy - uy
            if not (dx == 0.0 and dy == 0.0):  # else a repeat of the last kept vertex
                wx, wy = w
                span = math.hypot(ux - wx, uy - wy)
                span = 1e-30 if span < 1e-30 else span  # max(span, 1e-30) without a call
                if not abs(dx * (wy - uy) - dy * (wx - ux)) <= _COLLINEAR_TOL * span:
                    kept.append(v)
                    ux, uy = vx, vy
            v = w
        self._pending = v

    def close(self) -> list:
        """The kept vertices of the whole polyline."""
        if self._pending is not None:
            self.vertices.append(self._pending)
            self._pending = None
        return self.vertices


def _drop_collinear(pts) -> list:
    """The kept vertices of the whole polyline pts (see _Kept)."""
    kept = _Kept()
    kept.feed(pts)
    return kept.close()


def _arc(pts) -> float:
    """Sum of the segment lengths; math.dist(u, w) is math.hypot(ux - wx,
    uy - wy), the expression of PlanePoint.dist."""
    return float(sum(map(math.dist, pts, pts[1:])))


# A branch converges once its newest piece is shorter than _FLAT_TOL, and is
# cut off as truncated after _MAX_PASSES double steps. Growth past
# _MAX_VERTICES raw vertices raises BudgetExceeded: the budget rule admits any
# finite arc budget, and a huge one would otherwise grow a branch until memory
# runs out. The largest branch of a 100x100 atlas keeps 2,142 vertices.
_FLAT_TOL = 1e-9
_MAX_PASSES = 60
_MAX_VERTICES = 100_000


class _Growth:
    """One branch of MANIFOLD_BRANCHES, grown pass by pass and only as far as
    it is read: settle(n) runs passes until the branch's first n kept
    vertices are decided, and finish() runs it to its end.

    The branch leaves its saddle p along sign * (lam, 1), where lam is the
    eigenvalue of that eigenvector: mu = lam forward, 1/lam inverse.
    Fundamental-domain growth: piece0 = [p + (t0/mu^2) u, p + t0 u] and each
    pass maps only the newest piece by the double step, one _double_step
    call, which is exact because the map is piecewise affine. A branch with
    mu^2 <= 1 does not expand and has no fundamental domain; it is the seed
    segment [p, p + t0 u], not truncated.

    arc_budget is a stopping threshold, not a cap: growth stops after the
    first pass whose running arc reaches it, and that pass's piece is about
    mu^2 times the one before, so the arc can exceed the budget by up to
    about a factor 1 + mu^2.  mu^2 is large on stable branches (28 at
    (1.4, 0.3), where p1_minus ends at arc 945.5 for a budget of 50).

    sinks holds trapping ellipses (_sink_ellipses) of a forward branch: the
    branch stops, converged, once its newest piece lies inside one of them.
    """

    def __init__(
        self, params: Params, seed: str, inverse: bool, arc_budget: float, sinks=()
    ):
        _require_arc_budget(arc_budget)
        if seed not in MANIFOLD_BRANCHES or MANIFOLD_BRANCHES[seed][1] != inverse:
            names = sorted(k for k, row in MANIFOLD_BRANCHES.items() if row[1] == inverse)
            raise ValueError(f"seed must be one of {names}")
        saddle, _, sign, self.kind = MANIFOLD_BRANCHES[seed]
        fd = _fixed_data(params)
        start, lam = {
            ("p1", False): (fd.p1, fd.unstable_slope_p1),
            ("p2", False): (fd.p2, fd.unstable_slope_p2),
            ("p1", True): (fd.p1, fd.stable_slope_p1),
        }[saddle, inverse]
        if start is None or lam is None:
            raise NoFixedPoint(f"{saddle} missing or non-real eigenvalues")
        if inverse and params.b == 0.0:
            raise NonInvertible("stable side needs the inverse map; b = 0")
        self.arc = self.truncated = None  # set when growth ends
        self._kept = _Kept()
        self._pieces = self._passes(params, start, lam, sign, inverse, arc_budget, sinks)

    def settle(self, n: int) -> list:
        """The first n kept vertices, or all of them on a shorter branch."""
        kept = self._kept
        if len(kept.vertices) < n:
            for piece in self._pieces:
                kept.feed(piece)
                if len(kept.vertices) >= n:
                    break
            else:
                kept.close()
        return kept.vertices[:n]

    def finish(self) -> list:
        """Run growth to its end: every kept vertex, as (x, y) pairs. The
        remaining pieces are fed as one list, since nothing reads the kept
        vertices before the end."""
        self._kept.feed(list(itertools.chain.from_iterable(self._pieces)))
        return self._kept.close()

    def _passes(self, params, start, lam, sign, inverse, arc_budget, sinks):
        """The one growth loop. It yields each pass's new raw vertices as one
        list: first the saddle and the seed piece, then each piece
        _double_step maps, without its first vertex, which is the last
        piece's end up to rounding. arc and truncated are final once it
        ends."""
        dx, dy = sign * lam, float(sign)
        norm = math.hypot(dx, dy)
        ux, uy = dx / norm, dy / norm
        # Stay strictly inside the starting affine piece: the eigenline is the
        # exact local manifold there, so the seed is on the manifold.
        coord0, dcoord = (start.y, uy) if inverse else (start.x, ux)
        t_kink = abs(coord0 / dcoord) if dcoord != 0.0 and coord0 != 0.0 else math.inf
        t0 = min(1e-4, 0.5 * t_kink)
        seed = PlanePoint(start.x + t0 * ux, start.y + t0 * uy)
        arc = start.dist(seed)
        lam2 = lam * lam
        if (lam2 >= 1.0) if inverse else (lam2 <= 1.0):
            yield [start, seed]
            self.arc, self.truncated = arc, False
            return
        shrink = lam2 if inverse else 1.0 / lam2  # 1 / mu^2
        piece = [(start.x + t0 * shrink * ux, start.y + t0 * shrink * uy), seed]
        yield [start, *piece]
        count = 3
        truncated = True
        for _ in range(_MAX_PASSES):
            # Double step keeps a branch on its own side when the eigenvalue
            # is negative and the two branches swap under a single step.
            piece = _double_step(params, piece, inverse)
            if len(piece) == 2:
                # Most pieces meet no fold: nothing to drop, and _arc's sum of
                # one hypot is that hypot.
                (ux, uy), (wx, wy) = piece
                step = math.hypot(ux - wx, uy - wy)
            else:
                piece = _drop_collinear(piece)
                step = _arc(piece)
            count += len(piece) - 1
            if count > _MAX_VERTICES:
                raise BudgetExceeded(
                    f"branch passes {_MAX_VERTICES} vertices at arc {arc:.6g} "
                    f"of a budget of {arc_budget:.6g}"
                )
            yield piece[1:]
            arc += step
            if arc >= arc_budget:
                break
            if step < _FLAT_TOL or (sinks and _captured(piece, sinks)):
                truncated = False
                break
        self.arc, self.truncated = arc, truncated


def _grow_branch(growth: _Growth) -> Polyline:
    """Run growth to its end: the branch as a Polyline."""
    return Polyline(
        vertices=tuple(map(PlanePoint._make, growth.finish())),
        kind=growth.kind,
        truncated=growth.truncated,
        arc_length=growth.arc,
    )


def _captured(piece, sinks) -> bool:
    """Every vertex of piece lies inside one ellipse (cx, cy, xx, xy, yy, r2),
    i.e. has (v - c)^T X (v - c) < r2 for X = [[xx, xy], [xy, yy]]. The
    ellipse is convex, so the whole piece then lies in it."""
    for cx, cy, xx, xy, yy, r2 in sinks:
        for x, y in piece:
            dx, dy = x - cx, y - cy
            if dx * (xx * dx + 2.0 * xy * dy) + yy * dy * dy >= r2:
                break
        else:
            return True
    return False


def _det3(rows, cols) -> float:
    (a, b, c), (d, e, f), (g, h, i) = ([row[k] for k in cols] for row in rows)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _trapping_ellipse(params: Params, first: PlanePoint, second: PlanePoint):
    """Trapping ellipse (cx, cy, xx, xy, yy, r2) about the period-2 point
    first, whose image is second (see the module docstring); None when the
    floats give no positive definite X. first's cell is s1 x > 0,
    s2 (1 - a s1 x + b y) > 0 with s_i the signs of the points' x, and the
    X-distance to a line w.z = h is |w.c - h| / sqrt(w^T X^-1 w)."""
    a, b = params.a, params.b
    s1, s2 = math.copysign(1.0, first.x), math.copysign(1.0, second.x)
    m11, m12, m21, m22 = a * a * s1 * s2 + b, -a * b * s2, -a * s1, b
    # M^T X M - X = -I on (xx, xy, yy), as augmented rows; Cramer's rule
    rows = (
        (m11 * m11 - 1.0, 2.0 * m11 * m21, m21 * m21, -1.0),
        (m11 * m12, m11 * m22 + m12 * m21 - 1.0, m21 * m22, 0.0),
        (m12 * m12, 2.0 * m12 * m22, m22 * m22 - 1.0, -1.0),
    )
    den = _det3(rows, (0, 1, 2))
    if den == 0.0:
        return None
    xx, xy, yy = (_det3(rows, cols) / den for cols in ((3, 1, 2), (0, 3, 2), (0, 1, 3)))
    det = xx * yy - xy * xy
    if not (xx > 0.0 and det > 0.0):
        return None
    # squared X-distances to x = 0 and to 1 - a s1 x + b y = 0
    g = 1.0 - a * s1 * first.x + b * first.y
    r2 = min(
        first.x * first.x * det / yy,
        g * g * det / (a * a * yy + 2.0 * a * b * s1 * xy + b * b * xx),
    )
    return (first.x, first.y, xx, xy, yy, 0.25 * r2)  # radius: half the nearer one


def _sink_ellipses(params: Params, fd: FixedData) -> tuple:
    """Trapping ellipses about n1 and n2 when the 2-cycle attracts, else none."""
    if not fd.period2_attracting:
        return ()
    pairs = ((fd.n1, fd.n2), (fd.n2, fd.n1))
    return tuple(e for e in (_trapping_ellipse(params, *pair) for pair in pairs) if e)


# branch -> (saddle, grown with the inverse map, seed eigenvector sign, kind)
MANIFOLD_BRANCHES = {
    "p1_right": ("p1", False, -1, "unstable_right"),
    "p1_left": ("p1", False, +1, "unstable_left_halfline"),
    "p2": ("p2", False, +1, "unstable_right"),
    "p1_plus": ("p1", True, +1, "stable_halfline"),
    "p1_minus": ("p1", True, -1, "stable_right"),
}


def _require_arc_budget(arc_budget: float) -> None:
    """The input rule of every arc budget: finite and > 0. Growth stops only
    once the arc reaches the budget, so under inf or nan every branch runs
    all _MAX_PASSES passes, each piece about mu^2 times the one before; a
    budget <= 0 stops every branch after its first pass."""
    if not (math.isfinite(arc_budget) and arc_budget > 0.0):
        raise ValueError(f"arc budget must be finite and > 0, got {arc_budget}")


def _require_resolution(resolution: int) -> None:
    """The input rule of a scan grid: at least one pixel a side."""
    if resolution < 1:
        raise ValueError("resolution must be positive")


def _manifold(
    params: Params, seed: str, inverse: bool, arc_budget: float, sinks=()
) -> Polyline:
    return _grow_branch(_Growth(params, seed, inverse, arc_budget, sinks))


def unstable_manifold(params: Params, seed: str, arc_budget: float = 50.0) -> Polyline:
    """Unstable branch polyline seeded at a saddle.

    seed is one of p1_right (the branch through the x-axis crossing),
    p1_left (the opposite branch), or p2.  Growth stops after the first pass
    whose arc reaches arc_budget, so the arc returned can exceed the budget
    by up to about a factor 1 + mu^2, mu the unstable eigenvalue.
    """
    return _manifold(params, seed, False, arc_budget)


def stable_manifold(
    params: Params, seed: str = "p1_plus", arc_budget: float = 50.0
) -> Polyline:
    """Stable branch polyline of p1, grown with the inverse map.

    p1_plus follows (stable_slope, 1) into the half-plane x > 0 (straight
    whenever it never meets the fold); p1_minus is the opposite branch.
    Growth stops after the first pass whose arc reaches arc_budget, so the
    arc returned can exceed the budget by up to about a factor 1 + mu^2,
    mu = 1/stable eigenvalue, which is large: p1_minus at (1.4, 0.3) ends at
    arc 945.5 for a budget of 50.
    """
    return _manifold(params, seed, True, arc_budget)


# ------------------------------------------------------------- lyapunov


def lyapunov_delta(params: Params, q: PlanePoint) -> float:
    """V(L^4 q) - V(q) with V the squared distance to the period-2 point n1.
    q's coordinates may be float64 arrays, for one difference per element."""
    fd = _fixed_data(params)
    if fd.n1 is None:
        raise NoFixedPoint("period-2 pair absent; no Lyapunov center")
    cx, cy = fd.n1
    x, y = _iterate(params.a, params.b, q.x, q.y, 4)
    return ((x - cx) ** 2 + (y - cy) ** 2) - ((q.x - cx) ** 2 + (q.y - cy) ** 2)


# --------------------------------------------------------------- polygon


@dataclass(frozen=True)
class PolygonReport:
    corners: tuple[PlanePoint, ...]
    margin: float


# Below this the signed-distance minimum counts as touching contact, not
# escape: the image boundary genuinely runs along polygon edges, so exact
# containment shows up as zero plus rounding dust.
_MARGIN_DUST = 1e-12


def _axis_crossing_of_unstable_line(fd: FixedData) -> PlanePoint:
    # Intersection of the unstable eigenline at p1 with the x-axis.
    lam = fd.unstable_slope_p1
    return PlanePoint(fd.p1.x - lam * fd.p1.y, 0.0)


def _convex_hull(points) -> list[PlanePoint]:
    """Monotone-chain hull, counterclockwise, no duplicates."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return list(map(PlanePoint._make, pts))

    def chain(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                vx, vy = out[-1]
                if (vx - ox) * (p[1] - oy) - (vy - oy) * (p[0] - ox) > 0.0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return list(map(PlanePoint._make, lower[:-1] + upper[:-1]))


def _signed_dist_to_convex(poly, q) -> np.ndarray:
    """Per row of the (n, 2) array q, its distance to the nearest edge line
    of a counterclockwise convex polygon, positive inside: the minimum over
    the edges. Where two edges tie at zero, its sign is either edge's, so a
    reader that keeps a zero keeps it as +0.0. The distances are laid out
    (edges, n), so each array operation runs along the n rows."""
    edges = []
    for (ux, uy), (wx, wy) in zip(poly, [*poly[1:], poly[0]]):
        ex, ey = wx - ux, wy - uy
        edges.append((ux, uy, ex, ey, math.hypot(ex, ey)))
    ux, uy, ex, ey, elen = np.array(edges).T[:, :, None]
    dist = (ex * (q[:, 1] - uy) - ey * (q[:, 0] - ux)) / elen
    return dist.min(axis=0)


def _corner_polygon(params: Params) -> list[PlanePoint]:
    fd = _fixed_data(params)
    if fd.p1 is None or fd.unstable_slope_p1 is None:
        raise NoFixedPoint("polygon anchor needs the p1 saddle")
    z = _axis_crossing_of_unstable_line(fd)
    corners = [z]
    for _ in range(3):
        corners.append(lozi_apply_n(params, corners[-1], 2))
    hull = _convex_hull(corners)
    if len(hull) < 3:
        raise WrongParams("corner orbit is collinear; no polygon to test")
    return hull


def polygon_invariance(params: Params) -> PolygonReport:
    """Check the double-step image of the corner polygon stays inside it.

    P is the convex hull of Z, L^2 Z, L^4 Z, L^6 Z where Z is the x-axis
    crossing of the unstable eigenline at p1. The boundary is mapped with
    its fold splits, and a polyline lies in a convex P precisely when its
    vertices do. The test is not a proof: the corners are float images of
    an irrational point, and every distance is a float with a 1e-12 dust
    allowance (ROADMAP item 7 plans the exact form). Shared corners force
    touching contact, hence the margin of a passing check is typically
    exactly zero. Raises NotInvariant on escape.
    """
    poly = _corner_polygon(params)
    image = _double_step(params, poly + [poly[0]], False)
    boundary = _drop_collinear(image)
    dist = _signed_dist_to_convex(poly, _xy_array(boundary, len(boundary)))
    first = int(np.argmin(dist))  # the first vertex at the minimum
    worst, witness = float(dist[first]), boundary[first]
    if worst < -_MARGIN_DUST:
        raise NotInvariant(
            f"boundary image escapes the polygon by {-worst:.3e}",
            witness=witness,
            margin=worst,
        )
    # max keeps its first argument on a tie: a -0.0 minimum is margin 0.0
    return PolygonReport(corners=tuple(poly), margin=max(0.0, worst))


# -------------------------------------------------------------- homoclinic


def _seg_columns(*lines) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the ends of every segment of the vertex sequences, in
    order: two (2, segments) arrays whose row 0 holds the segment starts and
    row 1 their ends, read from the vertices in one pass."""
    starts = [line[:-1] for line in lines]
    ends = [line[1:] for line in lines]
    m = sum(map(len, ends))
    pairs = _xy_array(itertools.chain(*starts, *ends), 2 * m).reshape(2, m, 2)
    return pairs[..., 0], pairs[..., 1]


def _first_crossing(u, s, p1: PlanePoint) -> PlanePoint | None:
    """The first proper crossing of a u segment with an s segment farther
    than 1e-8 from the saddle p1, in u-segment order and then s-segment
    order; None if there is none. u and s are _seg_columns. A pair crosses
    properly when each segment's ends lie strictly on opposite sides of the
    other's line. Both ends of a segment are tested in one array expression,
    so d1, d2 and d3, d4 each come from a single (2, u chunk, s) array."""
    (ux, uy), (sx, sy) = u, s
    sx1, sy1 = sx[0], sy[0]
    sdx, sdy = sx[1] - sx1, sy[1] - sy1
    chunk = max(1, int(2e6) // max(1, len(sx1)))
    for lo in range(0, ux.shape[1], chunk):
        cx, cy = ux[:, lo : lo + chunk, None], uy[:, lo : lo + chunk, None]
        d1, d2 = sdx * (cy - sy1) - sdy * (cx - sx1)
        straddles = d1 * d2 < 0
        if not straddles.any():  # no u segment meets the line of an s segment
            continue
        (ux1, ux2), (uy1, uy2) = cx, cy
        udx, udy = ux2 - ux1, uy2 - uy1
        d3, d4 = udx * (sy[:, None] - uy1) - udy * (sx[:, None] - ux1)
        for i, j in zip(*np.nonzero(straddles & (d3 * d4 < 0))):
            t = d1[i, j] / (d1[i, j] - d2[i, j])
            x = ux1[i, 0] + t * (ux2[i, 0] - ux1[i, 0])
            y = uy1[i, 0] + t * (uy2[i, 0] - uy1[i, 0])
            if math.hypot(x - p1.x, y - p1.y) > 1e-8:
                return PlanePoint(float(x), float(y))
    return None


# The sweep's first stage tests this many leading segments of p1_right
# against W^s before the rest of W^u is grown.
_STAGE_SEGMENTS = 2


def homoclinic_intersects(params: Params, arc_budget: float = 50.0) -> PlanePoint | None:
    """Sweep for a transversal crossing of W^u(p1) with W^s(p1): the
    witness crossing point, or None when no proper crossing is found.

    The witness is the first proper crossing in W^u's segment order (p1_right
    then p1_left, each from the saddle out), and within a segment in W^s's
    order (p1_plus then p1_minus); contacts within 1e-8 of p1 are the saddle
    itself and do not count. Every branch is a _Growth read as the (x, y)
    pairs it keeps, with no Polyline built; W^s is the vertices that
    stable_manifold returns. The sweep runs in two stages, and W^u grows
    only as far as the verdict needs. Stage 1 grows both branches of W^s to
    the arc budget (finite and > 0), and p1_right only until its first
    _STAGE_SEGMENTS segments are settled, and tests those. Only when they do
    not cross does stage 2 finish p1_right, grow p1_left, and test every
    other segment of W^u. The witness is the one a sweep over all of W^u
    would give.

    When the period-2 orbit attracts, an unstable branch stops once its
    newest piece lies in a trapping ellipse of the sink, whose basin W^s(p1)
    cannot meet.
    """
    if params.b == 0.0:
        raise NonInvertible("stable manifold needs the inverse map; b = 0")
    fd = _fixed_data(params)
    if fd.p1 is None:
        raise NoFixedPoint("homoclinic sweep anchored at p1")
    sinks = _sink_ellipses(params, fd)
    s_cols = _seg_columns(
        *(_Growth(params, s, True, arc_budget).finish() for s in ("p1_plus", "p1_minus"))
    )
    right = _Growth(params, "p1_right", False, arc_budget, sinks)
    head = right.settle(_STAGE_SEGMENTS + 1)
    witness = _first_crossing(_seg_columns(head), s_cols, fd.p1)
    if witness is not None:
        return witness
    # Stage 2: every segment of W^u that stage 1 did not test, in order.
    rest = right.finish()[_STAGE_SEGMENTS:]
    left = _Growth(params, "p1_left", False, arc_budget, sinks).finish()
    return _first_crossing(_seg_columns(rest, left), s_cols, fd.p1)


# ----------------------------------------------------------- zero entropy


# PGM gray level per verdict, keyed by kind or kind_case: the one table of
# the valid (kind, case) pairs.
ZERO_ENTROPY_CODES = {
    "analytic_zero_i": 230,
    "analytic_zero_ii": 255,
    "analytic_zero_iii": 205,
    "numeric_zero": 180,
    "homoclinic": 0,
    "unknown": 128,
}


@dataclass(frozen=True)
class ZeroEntropyVerdict:
    kind: str  # analytic_zero | numeric_zero | homoclinic | unknown
    case: str | None = None  # i | ii | iii for analytic_zero
    witness: PlanePoint | None = None

    @property
    def label(self) -> str:
        """Key of this verdict in ZERO_ENTROPY_CODES."""
        return self.kind if self.case is None else f"{self.kind}_{self.case}"

    def __post_init__(self) -> None:
        if self.label not in ZERO_ENTROPY_CODES:
            valid = ", ".join(ZERO_ENTROPY_CODES)
            raise ValueError(f"no zero-entropy verdict {self.label!r} (valid: {valid})")


# Polygon samples are (x, y) pairs drawn in blocks from one generator, reset
# to the seed-1815 state for each pixel, so no pixel sees another's draws.
# Resetting costs a few microseconds, where building a generator costs 17-37
# (2-CPU machine). Blocks double from _SAMPLE_BLOCK pairs up to
# _SAMPLE_BLOCK_CAP, and the draws are the same stream as one rng.uniform
# call per coordinate. The sink certificate tests the first _SAMPLE_COUNT
# samples of that stream, and fails when they are not all found within
# _MAX_DRAWS pairs: at (1.0, 0.001) the polygon fills 1e-6 of its bounding
# box. (1.0, 0.004), the slowest pixel near (1, 0) measured, draws 3.6
# million, and no pixel of a 100x100 atlas draws more than 0.3 million.
_SAMPLE_BLOCK = 256
_SAMPLE_BLOCK_CAP = 4096
_SAMPLE_COUNT = 64
_MAX_DRAWS = 1 << 23


@functools.cache
def _sampler() -> tuple[np.random.Generator, dict]:
    """The sampler's generator and its seed-1815 state. It is built on first
    use: importing numpy.random takes about 12 ms and 6 MB (2-CPU machine),
    which a process that samples no polygon does not pay."""
    rng = np.random.default_rng(1815)
    return rng, rng.bit_generator.state


def _numeric_zero_check(params: Params) -> bool:
    fd = _fixed_data(params)
    if fd.n1 is None or not fd.period2_attracting:
        return False
    try:
        report = polygon_invariance(params)
    except (NotInvariant, WrongParams, NoFixedPoint):
        return False
    a, b = params.a, params.b
    (n1x, n1y), (n2x, n2y) = fd.n1, fd.n2
    z = _axis_crossing_of_unstable_line(fd)
    for x, y in (z, lozi_apply(params, z)):
        for _ in range(10_000):
            x, y = _iterate(a, b, x, y, 4)
            if math.hypot(x - n1x, y - n1y) < 1e-8 or math.hypot(x - n2x, y - n2y) < 1e-8:
                break
        else:
            return False
    # Contraction of the squared distance to the sink on the first
    # _SAMPLE_COUNT polygon samples, drawn from the corners' bounding box and
    # tested in one array call.  "No increase" rather than "all decrease" is
    # the verdict of a sample-by-sample early exit.
    rng, seed_state = _sampler()
    rng.bit_generator.state = seed_state
    box = np.array(report.corners)
    lo, hi = box.min(axis=0), box.max(axis=0)
    samples: list[tuple[float, float]] = []
    drawn, block = 0, _SAMPLE_BLOCK
    while len(samples) < _SAMPLE_COUNT:
        if drawn + block > _MAX_DRAWS:
            return False
        q = rng.uniform(lo, hi, size=(block, 2))
        drawn += block
        block = min(2 * block, _SAMPLE_BLOCK_CAP)
        inside = _signed_dist_to_convex(report.corners, q) > 1e-9
        for x, y in q[inside].tolist():
            if math.hypot(x - n1x, y - n1y) < 1e-9 or math.hypot(x - n2x, y - n2y) < 1e-9:
                continue
            samples.append((x, y))
            if len(samples) == _SAMPLE_COUNT:
                break
    xs, ys = np.array(samples).T
    return not np.any(lyapunov_delta(params, PlanePoint(xs, ys)) >= 0.0)


def classify_zero_entropy(params: Params, arc_budget: float = 50.0) -> ZeroEntropyVerdict:
    """Zero-entropy verdict: exact analytic regions first, then the numeric
    sink certificate, then the homoclinic sweep's crossings. Only the
    analytic regions are proven. The sink certificate is sampled, and a
    homoclinic crossing rests on float sign tests along float-grown
    polylines; both are unproven float tests (ROADMAP items 7 and 12).

    The certificate goes first because a pixel it settles then skips the
    sweep, which finds nothing there. While both tests are right the order
    cannot change a verdict: a transversal homoclinic point means positive
    entropy, so the certificate cannot pass at such a pixel. No crossing
    within the arc budget is unknown. At b = 0 the 2-cycle never attracts,
    so the certificate fails and the sweep raises NonInvertible.
    """
    _require_arc_budget(arc_budget)
    a, b = params.a, params.b
    if abs(b) > 1.0:
        raise ValueError("classifier covers |b| <= 1 only")
    if -1.0 <= b < 0.0 and a <= b - 1.0:
        return ZeroEntropyVerdict(kind="analytic_zero", case="i")
    if 0.0 < b <= 1.0 and a < 1.0 - b:
        return ZeroEntropyVerdict(kind="analytic_zero", case="ii")
    if 0.0 < b <= 1.0 and a == 1.0 - b:
        return ZeroEntropyVerdict(kind="analytic_zero", case="iii")
    try:
        if _numeric_zero_check(params):
            return ZeroEntropyVerdict(kind="numeric_zero")
    except NoFixedPoint:
        pass
    try:
        witness = homoclinic_intersects(params, arc_budget=arc_budget)
    except NoFixedPoint:
        return ZeroEntropyVerdict(kind="unknown")
    if witness is not None:
        return ZeroEntropyVerdict(kind="homoclinic", witness=witness)
    return ZeroEntropyVerdict(kind="unknown")


@dataclass(frozen=True)
class ZeroEntropyScan:
    """The pixels of a scan, each the (a, b) it was classified at and its
    verdict, row by row over b and then over a; every reader (the PGM, the
    CSV listing, criterion 10) formats these records. codes is the PGM
    grid, built once from the verdicts' labels: [i, j] is the gray level of
    pixel j of row i."""

    pixels: list[tuple[float, float, ZeroEntropyVerdict]]
    codes: np.ndarray


def _cell_centre(span: tuple[float, float], k: int, resolution: int) -> float:
    lo, hi = span
    return lo + (k + 0.5) * (hi - lo) / resolution


def scan_zero_entropy(
    a_range: tuple[float, float],
    b_range: tuple[float, float],
    resolution: int,
    arc_budget: float = 20.0,
) -> ZeroEntropyScan:
    """Classify the cell centres of a parameter grid, one pixel after
    another in this process. Each pixel is its (a, b) cell centre and its
    verdict, and its code in the PGM grid is the verdict's entry in
    ZERO_ENTROPY_CODES; a pixel whose classification raises a LoziError
    gets the unknown verdict, and any other error propagates. A grid end
    that is not finite, or an arc budget that is not finite and > 0, raises
    ValueError before any pixel runs.
    """
    _require_arc_budget(arc_budget)
    if not all(map(math.isfinite, (*a_range, *b_range))):
        raise ValueError(f"grid ends must be finite, got a {a_range}, b {b_range}")
    if not (-1.0 <= b_range[0] <= 1.0 and -1.0 <= b_range[1] <= 1.0):
        raise ValueError("b grid must stay within |b| <= 1")
    _require_resolution(resolution)
    pixels = []
    for i in range(resolution):
        b = _cell_centre(b_range, i, resolution)
        for j in range(resolution):
            a = _cell_centre(a_range, j, resolution)
            try:
                verdict = classify_zero_entropy(Params(a, b), arc_budget)
            except LoziError:
                verdict = ZeroEntropyVerdict(kind="unknown")
            pixels.append((a, b, verdict))
    codes = [ZERO_ENTROPY_CODES[verdict.label] for _, _, verdict in pixels]
    return ZeroEntropyScan(pixels, np.array(codes, np.uint8).reshape(resolution, resolution))


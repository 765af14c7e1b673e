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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LoziError, NoFixedPoint, NonInvertible, NotInvariant, WrongParams
from .pruning import Params


class PlanePoint(NamedTuple):
    """A point of the plane. It is an (x, y) float pair, so the float kernels
    below read and build points with no conversion."""

    x: float
    y: float

    def dist(self, other: "PlanePoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def lozi_apply(params: Params, p: PlanePoint) -> PlanePoint:
    """One exact piecewise-affine step (x, y) -> (1 - a|x| + by, x)."""
    return PlanePoint(1.0 - params.a * abs(p.x) + params.b * p.y, p.x)


def lozi_apply_inverse(params: Params, p: PlanePoint) -> PlanePoint:
    """One exact inverse step; needs b != 0."""
    if params.b == 0.0:
        raise NonInvertible("the map collapses the plane at b = 0")
    return PlanePoint(p.y, (p.x - 1.0 + params.a * abs(p.y)) / params.b)


def lozi_apply_n(params: Params, p: PlanePoint, n: int) -> PlanePoint:
    """n-fold image; negative n iterates the inverse (b != 0)."""
    step = lozi_apply if n >= 0 else lozi_apply_inverse
    for _ in range(abs(n)):
        p = step(params, p)
    return p


# ------------------------------------------------------------ fixed points


@dataclass(frozen=True)
class FixedData:
    """Saddles p1/p2, the period-2 pair n1/n2 when present, and the
    eigen-slopes of the affine pieces at each saddle.

    Slopes are the lambda of eigenvectors (lambda, 1); None when the
    respective fixed point is absent or the eigenvalues are complex.
    """

    p1: PlanePoint | None
    p2: PlanePoint | None
    n1: PlanePoint | None
    n2: PlanePoint | None
    stable_slope_p1: float | None
    unstable_slope_p1: float | None
    stable_slope_p2: float | None
    unstable_slope_p2: float | None
    period2_attracting: bool | None


def _two_cycle_attracting(a: float, b: float, s1: float, s2: float) -> bool:
    """Jury test on J(n2) J(n1), where J(n) = [[-a sign(n.x), b], [1, 0]]."""
    return b * b < 1.0 and abs(a * a * s1 * s2 + 2.0 * b) < 1.0 + b * b


def _residual(a: float, b: float, x: float, y: float, steps: int) -> float:
    """|L^steps (x, y) - (x, y)| with the float expressions of lozi_apply and
    PlanePoint.dist, in the same order."""
    u, v = x, y
    for _ in range(steps):
        u, v = 1.0 - a * abs(u) + b * v, u
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
    (p1, s1, u1), (p2, s2, u2) = saddles
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
        stable_slope_p2=s2,
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

    def segments(self) -> np.ndarray:
        pts = _xy_array(self.vertices, len(self.vertices))
        return np.stack([pts[:-1], pts[1:]], axis=1)

    def point_distance(self, q: PlanePoint) -> float:
        """Distance from q to the polyline (exact over segments)."""
        if len(self.vertices) == 1:
            return self.vertices[0].dist(q)
        return float(_segment_distances(np.array([q]), self.segments())[0])


def _xy_array(points, n: int) -> np.ndarray:
    """(n, 2) array of n (x, y) pairs; fromiter over the flat coordinates is
    about 4x faster than np.array over a sequence of NamedTuples."""
    return np.fromiter(itertools.chain.from_iterable(points), float, 2 * n).reshape(-1, 2)


def _segment_distances(points: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest segment (exact projection)."""
    a0 = segs[:, 0, :]
    d = segs[:, 1, :] - a0
    denom = np.einsum("ij,ij->i", d, d)
    out = np.empty(len(points))
    for lo in range(0, len(points), 4096):
        p = points[lo : lo + 4096]
        rel = p[:, None, :] - a0[None, :, :]
        t = np.clip(
            np.divide(
                np.einsum("pij,ij->pi", rel, d),
                denom[None, :],
                out=np.zeros((len(p), len(a0))),
                where=denom[None, :] > 0,
            ),
            0.0,
            1.0,
        )
        near = a0[None, :, :] + t[:, :, None] * d[None, :, :]
        dist = np.hypot(near[:, :, 0] - p[:, None, 0], near[:, :, 1] - p[:, None, 1])
        out[lo : lo + 4096] = dist.min(axis=1)
    return out


def _map_polyline(params: Params, pts, inverse: bool):
    """Image of an (x, y) polyline under one forward or inverse step,
    inserting an exact vertex wherever a segment crosses the step's fold
    (x = 0 forward, y = 0 inverse). The steps are lozi_apply and
    lozi_apply_inverse written out on floats."""
    k = 1 if inverse else 0
    split = []
    for u, w in zip(pts, pts[1:]):
        split.append(u)
        cu, cw = u[k], w[k]
        if cu * cw < 0.0:
            t = cu / (cu - cw)
            split.append((u[0] + t * (w[0] - u[0]), u[1] + t * (w[1] - u[1])))
    split.append(pts[-1])
    a, b = params.a, params.b
    if inverse:
        return [(y, (x - 1.0 + a * abs(y)) / b) for x, y in split]
    return [(1.0 - a * abs(x) + b * y, x) for x, y in split]


# A vertex this far off the chord of its neighbours, relative to the chord's
# length, is kept.
_COLLINEAR_TOL = 1e-13


def _drop_collinear(pts):
    if len(pts) <= 2:
        return pts
    kept = [pts[0]]
    ux, uy = pts[0]
    for v, (wx, wy) in zip(pts[1:-1], pts[2:]):
        vx, vy = v
        if math.hypot(vx - ux, vy - uy) == 0.0:
            continue
        cross = (vx - ux) * (wy - uy) - (vy - uy) * (wx - ux)
        span = max(math.hypot(ux - wx, uy - wy), 1e-30)
        if abs(cross) <= _COLLINEAR_TOL * span:
            continue
        kept.append(v)
        ux, uy = vx, vy
    kept.append(pts[-1])
    return kept


def _arc(pts) -> float:
    return float(
        sum(math.hypot(ux - wx, uy - wy) for (ux, uy), (wx, wy) in zip(pts, pts[1:]))
    )


# A branch converges once its newest piece is shorter than _FLAT_TOL, and is
# cut off as truncated after _MAX_PASSES double steps.
_FLAT_TOL = 1e-9
_MAX_PASSES = 60


def _grow_branch(
    params: Params,
    start: PlanePoint,
    lam: float,
    sign: int,
    inverse: bool,
    kind: str,
    arc_budget: float,
    sinks=(),
) -> Polyline:
    """Grow the branch of the saddle start along sign * (lam, 1), where lam
    is the eigenvalue of that eigenvector: mu = lam forward, 1/lam inverse.

    Fundamental-domain growth: piece0 = [p + (t0/mu^2) u, p + t0 u] and each
    pass maps only the newest piece by the double step, which is exact
    because the map is piecewise affine. A branch with mu^2 <= 1 does not
    expand and has no fundamental domain; it returns the seed segment
    [p, p + t0 u], not truncated.

    arc_budget is a stopping threshold, not a cap: growth stops after the
    first pass whose running arc reaches it, and that pass's piece is about
    mu^2 times the one before, so the arc returned can exceed the budget by
    up to about a factor 1 + mu^2.  mu^2 is large on stable branches (28 at
    (1.4, 0.3), where p1_minus ends at arc 945.5 for a budget of 50).

    sinks holds trapping ellipses (_sink_ellipses) of a forward branch: the
    branch stops, converged, once its newest piece lies inside one of them.
    """
    if inverse and params.b == 0.0:
        raise NonInvertible("stable side needs the inverse map; b = 0")
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
        return Polyline((start, seed), kind, False, arc)
    shrink = lam2 if inverse else 1.0 / lam2  # 1 / mu^2
    piece = [(start.x + t0 * shrink * ux, start.y + t0 * shrink * uy), seed]
    pts = [start, *piece]

    truncated = True
    for _ in range(_MAX_PASSES):
        # Double step keeps a branch on its own side when the eigenvalue
        # is negative and the two branches swap under a single step.
        piece = _map_polyline(params, _map_polyline(params, piece, inverse), inverse)
        piece = _drop_collinear(piece)
        # The piece starts at the image of the last one's start, which is
        # that piece's end up to rounding.
        pts += piece[1:]
        step = _arc(piece)
        arc += step
        if arc >= arc_budget:
            break
        if step < _FLAT_TOL or _captured(piece, sinks):
            truncated = False
            break
    return Polyline(
        vertices=tuple(map(PlanePoint._make, _drop_collinear(pts))),
        kind=kind,
        truncated=truncated,
        arc_length=arc,
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


def _manifold(
    params: Params, seed: str, inverse: bool, arc_budget: float, sinks=()
) -> Polyline:
    if seed not in MANIFOLD_BRANCHES or MANIFOLD_BRANCHES[seed][1] != inverse:
        names = sorted(k for k, row in MANIFOLD_BRANCHES.items() if row[1] == inverse)
        raise ValueError(f"seed must be one of {names}")
    saddle, _, sign, kind = MANIFOLD_BRANCHES[seed]
    fd = _fixed_data(params)
    start = getattr(fd, saddle)
    lam = getattr(fd, f"{'stable' if inverse else 'unstable'}_slope_{saddle}")
    if start is None or lam is None:
        raise NoFixedPoint(f"{saddle} missing or non-real eigenvalues")
    return _grow_branch(params, start, lam, sign, inverse, kind, arc_budget, sinks)


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
    """V(L^4 q) - V(q) with V the squared distance to the period-2 point n1."""
    fd = _fixed_data(params)
    if fd.n1 is None:
        raise NoFixedPoint("period-2 pair absent; no Lyapunov center")
    a, b = params.a, params.b
    cx, cy = fd.n1
    x, y = q
    for _ in range(4):
        x, y = 1.0 - a * abs(x) + b * y, x
    return ((x - cx) ** 2 + (y - cy) ** 2) - ((q.x - cx) ** 2 + (q.y - cy) ** 2)


# --------------------------------------------------------------- polygon


@dataclass(frozen=True)
class PolygonReport:
    corners: tuple[PlanePoint, ...]
    margin: float
    image_vertices: int


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


def _signed_dist_to_convex(poly, q) -> float:
    """Positive inside a counterclockwise convex polygon; distance to the
    nearest edge line."""
    best = math.inf
    n = len(poly)
    qx, qy = q
    for i in range(n):
        (ux, uy), (wx, wy) = poly[i], poly[(i + 1) % n]
        ex, ey = wx - ux, wy - uy
        elen = math.hypot(ex, ey)
        cross = ex * (qy - uy) - ey * (qx - ux)
        best = min(best, cross / elen)
    return best


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
    crossing of the unstable eigenline at p1. The boundary maps exactly
    (fold-splitting polyline passes), and a polyline lies in a convex P
    precisely when its vertices do, so the verdict is rigorous. Shared
    corners force touching contact, hence the margin of a passing check
    is typically exactly zero. Raises NotInvariant on genuine escape.
    """
    poly = _corner_polygon(params)
    boundary = _drop_collinear(
        _map_polyline(params, _map_polyline(params, poly + [poly[0]], False), False)
    )

    worst = math.inf
    witness = None
    for q in boundary:
        d = _signed_dist_to_convex(poly, q)
        if d < worst:
            worst, witness = d, q
    if worst < -_MARGIN_DUST:
        raise NotInvariant(
            f"boundary image escapes the polygon by {-worst:.3e}",
            witness=witness,
            margin=worst,
        )
    return PolygonReport(
        corners=tuple(poly),
        margin=max(worst, 0.0),
        image_vertices=len(boundary),
    )


# -------------------------------------------------------------- homoclinic


@dataclass(frozen=True)
class HomoclinicResult:
    found: bool
    witness: PlanePoint | None
    tangency: bool

    @property
    def outcome(self) -> str:
        return "yes" if self.found else "no_within_budget"


def _seg_array(*polylines) -> np.ndarray:
    segs = [pl.segments() for pl in polylines if len(pl.vertices) >= 2]
    return np.concatenate(segs, axis=0) if segs else np.empty((0, 2, 2))


# A manifold vertex within this distance of the other manifold touches it.
_TOUCH_TOL = 1e-10


def homoclinic_intersects(params: Params, arc_budget: float = 50.0) -> HomoclinicResult:
    """Sweep for a transversal crossing of W^u(p1) with W^s(p1).

    Both branches of each manifold are grown to the arc budget; contacts
    within 1e-8 of p1 are the saddle itself and do not count. A vertex of
    one manifold landing on the other without a proper crossing anywhere
    is reported as tangency. When the period-2 orbit attracts, an unstable
    branch stops once its newest piece lies in a trapping ellipse of the
    sink, whose basin W^s(p1) cannot meet.
    """
    if params.b == 0.0:
        raise NonInvertible("stable manifold needs the inverse map; b = 0")
    fd = _fixed_data(params)
    if fd.p1 is None:
        raise NoFixedPoint("homoclinic sweep anchored at p1")
    sinks = _sink_ellipses(params, fd)
    un = [_manifold(params, s, False, arc_budget, sinks) for s in ("p1_right", "p1_left")]
    st = [
        stable_manifold(params, s, arc_budget=arc_budget)
        for s in ("p1_plus", "p1_minus")
    ]
    useg = _seg_array(*un)
    sseg = _seg_array(*st)
    if useg.size == 0 or sseg.size == 0:
        return HomoclinicResult(False, None, False)

    p1 = np.array(fd.p1)

    u1 = useg[:, 0, :]
    u2 = useg[:, 1, :]
    s1 = sseg[:, 0, :]
    s2 = sseg[:, 1, :]
    sd = s2 - s1
    chunk = max(1, int(4e6) // max(1, sseg.shape[0]))
    for lo in range(0, u1.shape[0], chunk):
        a1 = u1[lo : lo + chunk][:, None, :]
        a2 = u2[lo : lo + chunk][:, None, :]
        ud = a2 - a1
        r1 = a1 - s1[None, :, :]
        r2 = a2 - s1[None, :, :]
        d1 = sd[None, :, 0] * r1[:, :, 1] - sd[None, :, 1] * r1[:, :, 0]
        d2 = sd[None, :, 0] * r2[:, :, 1] - sd[None, :, 1] * r2[:, :, 0]
        q1 = s1[None, :, :] - a1
        q2 = s2[None, :, :] - a1
        d3 = ud[:, :, 0] * q1[:, :, 1] - ud[:, :, 1] * q1[:, :, 0]
        d4 = ud[:, :, 0] * q2[:, :, 1] - ud[:, :, 1] * q2[:, :, 0]
        proper = (d1 * d2 < 0) & (d3 * d4 < 0)
        if proper.any():
            for i, j in zip(*np.nonzero(proper)):
                t = d1[i, j] / (d1[i, j] - d2[i, j])
                pt = a1[i, 0, :] + t * (a2[i, 0, :] - a1[i, 0, :])
                if np.hypot(*(pt - p1)) > 1e-8:
                    witness = PlanePoint(float(pt[0]), float(pt[1]))
                    return HomoclinicResult(True, witness, False)

    # No proper crossing: flag grazing contact away from the saddle.
    def grazes(lines, other: np.ndarray) -> bool:
        verts = _contact_vertices(lines, p1)
        return bool((_segment_distances(verts, other) <= _TOUCH_TOL).any())

    return HomoclinicResult(False, None, grazes(un, sseg) or grazes(st, useg))


def _contact_vertices(polylines, p1: np.ndarray) -> np.ndarray:
    """Every vertex of the polylines, without repeats, farther than 1e-8
    from the saddle p1: the points the tangency test measures."""
    n = sum(len(pl.vertices) for pl in polylines)
    verts = np.unique(
        _xy_array(itertools.chain.from_iterable(pl.vertices for pl in polylines), n), axis=0
    )
    return verts[np.hypot(*(verts - p1).T) > 1e-8]


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


# Polygon samples are drawn this many (x, y) pairs at a time; the draws are
# the same stream as one rng.uniform call per coordinate.
_SAMPLE_BLOCK = 256


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
            for _ in range(4):
                x, y = 1.0 - a * abs(x) + b * y, x
            if math.hypot(x - n1x, y - n1y) < 1e-8 or math.hypot(x - n2x, y - n2y) < 1e-8:
                break
        else:
            return False
    # Contraction of the squared distance to the sink on polygon samples,
    # drawn a block at a time from the corners' bounding box. The interior
    # test is _signed_dist_to_convex over the whole block.
    rng = np.random.default_rng(1815)
    box = np.array(report.corners)
    ux, uy = box.T
    ex, ey = np.roll(ux, -1) - ux, np.roll(uy, -1) - uy
    elen = np.array([math.hypot(dx, dy) for dx, dy in zip(ex.tolist(), ey.tolist())])
    checked = 0
    while True:
        q = rng.uniform(box.min(axis=0), box.max(axis=0), size=(_SAMPLE_BLOCK, 2))
        inside = ((ex * (q[:, 1:] - uy) - ey * (q[:, :1] - ux)) / elen).min(axis=1) > 1e-9
        for x, y in q[inside].tolist():
            if math.hypot(x - n1x, y - n1y) < 1e-9 or math.hypot(x - n2x, y - n2y) < 1e-9:
                continue
            if lyapunov_delta(params, PlanePoint(x, y)) >= 0.0:
                return False
            checked += 1
            if checked == 64:
                return True


def classify_zero_entropy(params: Params, arc_budget: float = 50.0) -> ZeroEntropyVerdict:
    """Zero-entropy verdict: exact analytic regions first, then the numeric
    sink certificate, then certified homoclinic crossings.

    The certificate goes first because a pixel it settles then skips the
    sweep, which finds nothing there. While both tests are right the order
    cannot change a verdict: a transversal homoclinic point means positive
    entropy, so the certificate cannot pass at such a pixel. A tangency,
    or no crossing within the arc budget, is unknown. At b = 0 the 2-cycle
    never attracts, so the certificate fails and the sweep raises
    NonInvertible.
    """
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
        hom = homoclinic_intersects(params, arc_budget=arc_budget)
    except NoFixedPoint:
        return ZeroEntropyVerdict(kind="unknown")
    if hom.found:
        return ZeroEntropyVerdict(kind="homoclinic", witness=hom.witness)
    return ZeroEntropyVerdict(kind="unknown")


@dataclass(frozen=True)
class ZeroEntropyScan:
    a_range: tuple[float, float]
    b_range: tuple[float, float]
    resolution: int
    codes: np.ndarray  # [i, j] = row i over b rank, column j over a rank
    arc_budget: float
    # [i, j] = crossing point for homoclinic pixels, NaN elsewhere
    witnesses: np.ndarray

    def a_of(self, j: int) -> float:
        return _cell_centre(self.a_range, j, self.resolution)

    def b_of(self, i: int) -> float:
        return _cell_centre(self.b_range, i, self.resolution)


def _cell_centre(span: tuple[float, float], k: int, resolution: int) -> float:
    lo, hi = span
    return lo + (k + 0.5) * (hi - lo) / resolution


def _scan_pixel(args) -> tuple[int, float, float]:
    a, b, arc_budget = args
    try:
        verdict = classify_zero_entropy(Params(a, b), arc_budget)
    except LoziError:
        return ZERO_ENTROPY_CODES["unknown"], math.nan, math.nan
    if verdict.witness is None:
        return ZERO_ENTROPY_CODES[verdict.label], math.nan, math.nan
    return (ZERO_ENTROPY_CODES[verdict.label], *verdict.witness)


def scan_zero_entropy(
    a_range: tuple[float, float],
    b_range: tuple[float, float],
    resolution: int,
    arc_budget: float = 20.0,
) -> ZeroEntropyScan:
    """Classify a parameter grid; pixels whose classification raises a
    LoziError score as unknown, and any other error propagates.

    Evaluates cell centers. Set LOZI_THREADS > 1 to fan pixels out over
    processes; results are deterministic either way.
    """
    if not (-1.0 <= b_range[0] <= 1.0 and -1.0 <= b_range[1] <= 1.0):
        raise ValueError("b grid must stay within |b| <= 1")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    jobs = []
    for i in range(resolution):
        b = _cell_centre(b_range, i, resolution)
        for j in range(resolution):
            jobs.append((_cell_centre(a_range, j, resolution), b, arc_budget))
    workers = int(os.environ.get("LOZI_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_scan_pixel, jobs, chunksize=16))
    else:
        flat = [_scan_pixel(j) for j in jobs]
    codes = np.array([f[0] for f in flat], dtype=np.uint8)
    witnesses = np.array([f[1:] for f in flat], dtype=np.float64)
    return ZeroEntropyScan(
        a_range=(float(a_range[0]), float(a_range[1])),
        b_range=(float(b_range[0]), float(b_range[1])),
        resolution=resolution,
        codes=codes.reshape(resolution, resolution),
        arc_budget=arc_budget,
        witnesses=witnesses.reshape(resolution, resolution, 2),
    )


# ------------------------------------------------------------- period four


@dataclass(frozen=True)
class Period4Segment:
    """The line y = -x + (1-b^2)/(a(1+b^2)) of period-4 points at a = 1+b,
    valid inside the sign-pattern constraint region."""

    a: float
    b: float
    intercept: float

    def on_line(self, x: float) -> PlanePoint:
        return PlanePoint(x, -x + self.intercept)

    def satisfies(self, q: PlanePoint) -> bool:
        a, b = self.a, self.b
        first = 1.0 + a * q.x + b * q.y
        second = 1.0 - a * first + b * q.x
        return first >= 0.0 and second <= 0.0 and q.x <= 0.0

    def sample(self, n: int = 32) -> list[PlanePoint]:
        """Feasible points on the line, by a fine sweep over x <= 0."""
        if n < 1:
            raise ValueError(f"sample needs n >= 1, got {n}")
        xs = np.linspace(-4.0, 0.0, 4096)
        pts = [self.on_line(float(x)) for x in xs]
        ok = [p for p in pts if self.satisfies(p)]
        if not ok:
            return []
        stride = max(1, len(ok) // n)
        return ok[::stride][:n]


def period4_segment(b: float) -> Period4Segment:
    """Closed-form period-4 line at the boundary a = 1 + b (b > 0)."""
    if b <= 0.0:
        raise WrongParams("period-4 line needs b > 0")
    a = 1.0 + b
    intercept = (1.0 - b * b) / (a * (1.0 + b * b))
    return Period4Segment(a=a, b=b, intercept=intercept)

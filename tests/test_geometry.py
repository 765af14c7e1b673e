"""Plane-dynamics tests: fixed points, manifold polylines, the Lyapunov
certificate, polygon invariance, homoclinic detection, zero-entropy
classification, and the period-four line."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import struct

import numpy as np
import pytest

from lozi_pruning import geometry
from lozi_pruning.errors import (
    BudgetExceeded,
    NoFixedPoint,
    NonInvertible,
    NotInvariant,
    WrongParams,
)
from lozi_pruning.geometry import (
    ZERO_ENTROPY_CODES,
    PlanePoint,
    ZeroEntropyVerdict,
    classify_zero_entropy,
    fixed_data,
    homoclinic_intersects,
    lozi_apply,
    lyapunov_delta,
    manifold,
    polygon_invariance,
    scan_zero_entropy,
)
from lozi_pruning.geometry import (
    MANIFOLD_BRANCHES,
    _axis_crossing_of_unstable_line,
    _numeric_zero_check,
    _signed_dist_to_convex,
    _two_cycle_attracting,
)
from lozi_pruning.pruning import Params

CENTER = Params(1.0, 0.5)
CHAOTIC = Params(1.7, 0.5)


def _rand_points(n, lo=-3.0, hi=3.0, seed=0):
    rng = random.Random(seed)
    return [PlanePoint(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


def _ref_segment_distances(points: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest segment, exact projection,
    with the segments as an (n, 2, 2) array of their two ends."""
    a0 = segs[:, 0, :]
    d = segs[:, 1, :] - a0
    denom = np.einsum("ij,ij->i", d, d)
    rel = points[:, None, :] - a0[None, :, :]
    t = np.clip(
        np.divide(
            np.einsum("pij,ij->pi", rel, d),
            denom[None, :],
            out=np.zeros((len(points), len(a0))),
            where=denom[None, :] > 0,
        ),
        0.0,
        1.0,
    )
    near = a0[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.hypot(near[:, :, 0] - points[:, None, 0], near[:, :, 1] - points[:, None, 1])
    return dist.min(axis=1)


def _segment_array(vertices) -> np.ndarray:
    pts = np.array(vertices, dtype=float).reshape(-1, 2)
    return np.stack([pts[:-1], pts[1:]], axis=1)


def _distance(polyline, q: PlanePoint) -> float:
    """Distance from q to a polyline of at least two vertices, exact over
    its segments."""
    return float(_ref_segment_distances(np.array([q]), _segment_array(polyline.vertices))[0])


# ---------------------------------------------------------------- the point


def test_plane_point_is_an_xy_pair():
    p = PlanePoint(0.25, -1.5)
    assert isinstance(p, tuple) and len(p) == 2
    assert tuple(p) == (0.25, -1.5) and p == (0.25, -1.5)
    assert hash(p) == hash((0.25, -1.5))
    assert {p, (0.25, -1.5)} == {p}
    assert (p.x, p.y) == (0.25, -1.5)
    assert repr(p) == "PlanePoint(x=0.25, y=-1.5)"
    assert p.dist(PlanePoint(3.25, 2.5)) == 5.0
    assert sorted([PlanePoint(1.0, 0.0), PlanePoint(0.0, 2.0), PlanePoint(0.0, 1.0)]) == [
        (0.0, 1.0),
        (0.0, 2.0),
        (1.0, 0.0),
    ]


def test_polyline_vertices_are_an_n_by_2_array():
    for branch in ("p1_right", "p1_minus"):
        pl = manifold(CHAOTIC, branch, arc_budget=20.0)
        pts = np.array(pl.vertices)
        assert pts.shape == (len(pl.vertices), 2) and pts.dtype == np.float64
        assert all(type(v) is PlanePoint for v in pl.vertices)
        assert [c.shape for c in geometry._seg_columns(pl.vertices)] == [
            (2, len(pl.vertices) - 1)
        ] * 2


# ---------------------------------------------------------------- map steps


def test_apply_fixed_point_exact():
    p = PlanePoint(2.0 / 3.0, 2.0 / 3.0)
    img = lozi_apply(CENTER, p)
    assert img.dist(p) <= 1e-15


def test_apply_matches_defining_formula():
    params = Params(1.4, -0.3)
    for p in _rand_points(50, seed=1):
        img = lozi_apply(params, p)
        assert img.x == 1.0 - params.a * abs(p.x) + params.b * p.y
        assert img.y == p.x


def test_apply_inverse_roundtrip():
    params = Params(1.3, 0.4)
    for p in _rand_points(50, seed=2):
        there = lozi_apply(params, p)
        back = lozi_apply(params, there, -1)
        assert back.dist(p) <= 1e-12
        assert lozi_apply(params, lozi_apply(params, p, -1)).dist(p) <= 1e-12


def test_apply_inverse_needs_nonzero_b():
    for n in (-1, -3):
        with pytest.raises(NonInvertible):
            lozi_apply(Params(1.5, 0.0), PlanePoint(0.1, 0.2), n)
    # forward steps, and no step at all, need no inverse
    assert lozi_apply(Params(1.5, 0.0), PlanePoint(0.1, 0.2), 0) == (0.1, 0.2)


def test_apply_n_composes_and_inverts():
    params = Params(1.2, 0.3)
    p = PlanePoint(0.35, -0.2)
    q = p
    for _ in range(5):
        q = lozi_apply(params, q)
    assert lozi_apply(params, p, 5).dist(q) <= 1e-14
    assert lozi_apply(params, p, 0) == p
    assert lozi_apply(params, q, -5).dist(p) <= 1e-11


def test_orientation_flips_sign_with_b():
    # det of each affine piece is -b: reversing for b > 0, preserving b < 0.
    def area(u, v, w):
        return (v.x - u.x) * (w.y - u.y) - (v.y - u.y) * (w.x - u.x)

    tri_pos = (PlanePoint(0.3, 0.2), PlanePoint(0.4, 0.2), PlanePoint(0.3, 0.35))
    tri_neg = (PlanePoint(-0.3, 0.2), PlanePoint(-0.2, 0.2), PlanePoint(-0.3, 0.35))
    for b in (0.5, 0.25, -0.25, -0.5):
        params = Params(1.3, b)
        for tri in (tri_pos, tri_neg):
            imgs = tuple(lozi_apply(params, v) for v in tri)
            before = area(*tri)
            after = area(*imgs)
            if b > 0:
                assert before * after < 0
            else:
                assert before * after > 0
            assert math.isclose(abs(after / before), abs(b), rel_tol=1e-12)


# -------------------------------------------------------------- fixed data


def test_fixed_points_at_certified_params():
    fd = fixed_data(CENTER)
    assert fd.p1.dist(PlanePoint(2.0 / 3.0, 2.0 / 3.0)) <= 1e-12
    assert fd.p2.dist(PlanePoint(-2.0, -2.0)) <= 1e-12
    assert fd.p1.dist(lozi_apply(CENTER, fd.p1)) <= 1e-12
    assert fd.p2.dist(lozi_apply(CENTER, fd.p2)) <= 1e-12


def test_period_two_pair_at_certified_params():
    fd = fixed_data(CENTER)
    assert fd.n1.dist(PlanePoint(6.0 / 5.0, -2.0 / 5.0)) <= 1e-12
    assert fd.n2.dist(PlanePoint(-2.0 / 5.0, 6.0 / 5.0)) <= 1e-12
    assert fd.n1.dist(lozi_apply(CENTER, fd.n1, 2)) <= 1e-12
    assert fd.n2.dist(lozi_apply(CENTER, fd.n2, 2)) <= 1e-12
    assert lozi_apply(CENTER, fd.n1).dist(fd.n2) <= 1e-12
    assert fd.period2_attracting is True


def test_fixed_point_formula_and_residual_grid():
    for a in (0.8, 1.0, 1.2, 1.5):
        for b in (0.3, 0.5, 0.7):
            fd = fixed_data(Params(a, b))
            assert fd.p1 is not None
            x = 1.0 / (1.0 + a - b)
            assert abs(fd.p1.x - x) <= 1e-14
            assert abs(fd.p1.y - x) <= 1e-14
            assert fd.p1.dist(lozi_apply(Params(a, b), fd.p1)) <= 1e-12


def test_unique_saddle_region_has_no_companions():
    fd = fixed_data(Params(0.3, 0.5))
    assert fd.p1.dist(PlanePoint(1.25, 1.25)) <= 1e-12
    assert fd.p2 is None
    assert fd.n1 is None and fd.n2 is None


def test_no_fixed_point_raises():
    with pytest.raises(NoFixedPoint):
        fixed_data(Params(-2.5, -0.6))


@pytest.mark.parametrize("ab", [(1e300, 0.5), (1.4, 1e300), (1.4, -1e300), (1e200, 1e300)])
def test_fixed_data_past_float_overflow(ab):
    # An overflowing formula gives no slope or no 2-cycle, as complex
    # eigenvalues do: (b - 1) ** 2 raised OverflowError past |b - 1| =
    # 1.34e154, and a * a + 4b = inf gave the slopes +-inf.
    params = Params(*ab)
    fd = fixed_data(params)
    assert fd.n1 is None and fd.period2_attracting is None
    slopes = (fd.stable_slope_p1, fd.unstable_slope_p1, fd.unstable_slope_p2)
    assert all(s is None or math.isfinite(s) for s in slopes)
    for test in (
        polygon_invariance,
        lambda p: homoclinic_intersects(p, 50.0),
        lambda p: lyapunov_delta(p, PlanePoint(0.1, 0.2)),
    ):
        with pytest.raises(NoFixedPoint):
            test(params)


def test_eigen_slopes_satisfy_characteristic_equations():
    for params in (CENTER, CHAOTIC, Params(1.2, 0.3)):
        a, b = params.a, params.b
        fd = fixed_data(params)
        root = math.sqrt(a * a + 4.0 * b)
        assert abs(fd.stable_slope_p1 - 0.5 * (-a + root)) <= 1e-14
        assert abs(fd.unstable_slope_p1 - 0.5 * (-a - root)) <= 1e-14
        # (lambda, 1) is an eigenvector of the x > 0 piece [[-a, b], [1, 0]]
        for lam in (fd.stable_slope_p1, fd.unstable_slope_p1):
            assert abs(-a * lam + b - lam * lam) <= 1e-12
        if fd.p2 is not None:
            assert abs(fd.unstable_slope_p2 - 0.5 * (a + root)) <= 1e-14
            lam = fd.unstable_slope_p2
            assert abs(a * lam + b - lam * lam) <= 1e-12


def test_two_cycle_jury_test_matches_eigenvalues():
    # Reference: the multipliers of J(n2) J(n1), J(n) = [[-a s, b], [1, 0]].
    # Grid points where the spectral radius is within rounding of 1 are
    # left out: there the float eigenvalues cannot decide either way.
    decided = 0
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            for a in np.linspace(0.0, 2.5, 126)[1:]:
                for b in np.linspace(-1.0, 1.0, 101):
                    jac1 = np.array([[-a * s1, b], [1.0, 0.0]])
                    jac2 = np.array([[-a * s2, b], [1.0, 0.0]])
                    radius = np.max(np.abs(np.linalg.eigvals(jac2 @ jac1)))
                    if abs(radius - 1.0) <= 1e-9:
                        continue
                    assert _two_cycle_attracting(a, b, s1, s2) == (radius < 1.0), (
                        a, b, s1, s2,
                    )
                    decided += 1
    assert decided >= 45_000


def test_period_two_closed_form_at_center():
    a, b = 1.0, 0.5
    big_n = (1.0 + a - b) / ((b - 1.0) ** 2 + a * a)
    assert abs(big_n - 6.0 / 5.0) <= 1e-15
    assert abs((1.0 - a * big_n) / (1.0 - b) - (-2.0 / 5.0)) <= 1e-15


def _ref_fixed_data(params):
    """fixed_data on PlanePoint, validating candidates with lozi_apply and
    PlanePoint.dist."""
    a, b = params.a, params.b
    disc = a * a + 4.0 * b
    root = math.sqrt(disc) if disc >= 0.0 else None
    p1 = p2 = None
    s1 = u1 = u2 = None
    if 1.0 + a - b > 0.0:
        x = 1.0 / (1.0 + a - b)
        cand = PlanePoint(x, x)
        if cand.dist(lozi_apply(params, cand)) <= 1e-10:
            p1 = cand
            if root is not None:
                s1, u1 = 0.5 * (-a + root), 0.5 * (-a - root)
    if 1.0 - a - b < 0.0:
        x = 1.0 / (1.0 - a - b)
        cand = PlanePoint(x, x)
        if cand.dist(lozi_apply(params, cand)) <= 1e-10:
            p2 = cand
            if root is not None:
                u2 = 0.5 * (a + root)
    if p1 is None and p2 is None:
        raise NoFixedPoint("no fixed point")
    n1 = n2 = attracting = None
    den = (b - 1.0) ** 2 + a * a
    if b != 1.0 and den > 0.0:
        big_n = (1.0 + a - b) / den
        cand1 = PlanePoint(big_n, (1.0 - a * big_n) / (1.0 - b))
        cand2 = PlanePoint(cand1.y, cand1.x)
        if cand1.dist(cand2) > 1e-10 and all(
            c.dist(lozi_apply(params, c, 2)) <= 1e-10 for c in (cand1, cand2)
        ):
            n1, n2 = cand1, cand2
            attracting = _two_cycle_attracting(
                a, b, math.copysign(1.0, n1.x), math.copysign(1.0, n2.x)
            )
    return geometry.FixedData(p1, p2, n1, n2, s1, u1, u2, attracting)


def test_fixed_data_matches_planepoint_reference():
    # repr tells every float bit apart, signed zeros included.
    rng = random.Random(7)
    grid = [(1.0, 0.5), (1.0, 1.0), (0.5, 0.5), (0.0, 0.0), (2.0, 0.0), (-0.5, 0.5)]
    grid += [(rng.uniform(-0.5, 3.0), rng.uniform(-1.2, 1.2)) for _ in range(50_000)]
    # Near a = 1 - b the 2-cycle candidate sits within 1e-8 of the fold, so
    # its residual lands around the 1e-10 acceptance threshold.
    for _ in range(2000):
        b = rng.uniform(-1.2, 0.99)
        grid.append((1.0 - b + rng.choice((-1, 1)) * 10 ** rng.uniform(-13, -8), b))
    raised = 0
    for ab in grid:
        params = Params(*ab)
        try:
            want = repr(_ref_fixed_data(params))
        except Exception as exc:  # the library must raise the same type
            with pytest.raises(type(exc)):
                fixed_data(params)
            raised += 1
            continue
        assert repr(fixed_data(params)) == want, ab
    assert raised > 1000


# ---------------------------------------------------------------- manifolds


def test_unstable_right_passes_through_axis_crossing():
    pl = manifold(CENTER, "p1_right", arc_budget=10.0)
    z = PlanePoint((3.0 + math.sqrt(3.0)) / 3.0, 0.0)
    assert _distance(pl, z) <= 1e-12
    assert pl.kind == "unstable_right"
    assert pl.vertices[0].dist(PlanePoint(2.0 / 3.0, 2.0 / 3.0)) <= 1e-12


@pytest.mark.parametrize("params", [CENTER, CHAOTIC], ids=["sink", "chaotic"])
def test_unstable_vertices_map_into_extended_polyline(params):
    # One step maps each branch into the union of both branches (the
    # unstable eigenvalue at p1 is negative, so single steps swap sides).
    short = [manifold(params, s, arc_budget=8.0) for s in ("p1_right", "p1_left")]
    long = [manifold(params, s, arc_budget=40.0) for s in ("p1_right", "p1_left")]
    worst = 0.0
    for pl in short:
        for v in pl.vertices:
            img = lozi_apply(params, v)
            worst = max(worst, min(_distance(ext, img) for ext in long))
    assert worst <= 1e-9


def test_unstable_converges_into_sink_at_certified_params():
    fd = fixed_data(CENTER)
    for seed in ("p1_right", "p1_left"):
        pl = manifold(CENTER, seed, arc_budget=50.0)
        assert not pl.truncated
        end = pl.vertices[-1]
        assert min(end.dist(fd.n1), end.dist(fd.n2)) <= 1e-8
    right = manifold(CENTER, "p1_right", arc_budget=50.0)
    # straight stretch p1 -> Z (length 1.128) plus the spiral into the sink
    assert 2.0 < right.arc_length < 2.5


def test_unstable_budget_truncation_in_chaotic_regime():
    pl = manifold(CHAOTIC, "p1_right", arc_budget=50.0)
    assert pl.truncated
    assert pl.arc_length >= 50.0
    xs = [v.x for v in pl.vertices]
    ys = [v.y for v in pl.vertices]
    # stays in the attractor's bounding box
    assert -2.0 < min(xs) and max(xs) < 2.0
    assert -2.0 < min(ys) and max(ys) < 2.0


def test_p2_branch_is_self_invariant():
    # p2's unstable eigenvalue is positive: no side swap under single steps.
    short = manifold(CENTER, "p2", arc_budget=5.0)
    long = manifold(CENTER, "p2", arc_budget=25.0)
    worst = max(_distance(long, lozi_apply(CENTER, v)) for v in short.vertices)
    assert worst <= 1e-9
    assert short.kind == "unstable_right"


def test_stable_halfline_is_straight_and_invariant():
    pl = manifold(CENTER, "p1_plus", arc_budget=10.0)
    assert pl.kind == "stable_halfline"
    assert len(pl.vertices) == 2  # never meets the fold: an exact half-line
    fd = fixed_data(CENTER)
    direction = (pl.vertices[-1].x - fd.p1.x, pl.vertices[-1].y - fd.p1.y)
    lam = fd.stable_slope_p1
    norm = math.hypot(*direction)
    assert abs(direction[0] / norm - lam / math.hypot(lam, 1.0)) <= 1e-12
    # forward image of the far endpoint stays on the half-line
    assert _distance(pl, lozi_apply(CENTER, pl.vertices[-1])) <= 1e-12


def test_stable_other_branch_bends():
    pl = manifold(CENTER, "p1_minus", arc_budget=8.0)
    assert pl.kind == "stable_right"
    assert len(pl.vertices) > 2


@pytest.mark.parametrize("ab", [(0.5, 0.5), (0.3, 0.5)], ids=["unit", "contracting"])
def test_non_expanding_branch_returns_seed_segment(ab):
    # At a = 1 - b the unstable eigenvalue at p1 is exactly -1, and below it
    # |lambda| < 1: no fundamental domain, so the seed segment comes back.
    params = Params(*ab)
    fd = fixed_data(params)
    pl = manifold(params, "p1_right", arc_budget=20.0)
    assert len(pl.vertices) == 2 and pl.vertices[0] == fd.p1
    assert not pl.truncated
    assert abs(pl.arc_length - 1e-4) <= 1e-15
    lam = fd.unstable_slope_p1
    d = (pl.vertices[1].x - fd.p1.x, pl.vertices[1].y - fd.p1.y)
    assert abs(d[0] * 1.0 - d[1] * lam) <= 1e-15  # along (lam, 1)


def test_manifold_seed_and_invertibility_guards():
    for branch in ("p3", "nope", "p1", ""):
        with pytest.raises(ValueError) as info:
            manifold(CENTER, branch, 50.0)
        assert str(info.value) == (
            "branch must be one of p1_right, p1_left, p2, p1_plus, p1_minus"
        )
    for branch in ("p1_plus", "p1_minus"):
        with pytest.raises(NonInvertible):
            manifold(Params(1.5, 0.0), branch, 50.0)


# Scalar references for manifold growth, written on PlanePoint with
# lozi_apply's forward and inverse steps and PlanePoint.dist. _ref_manifold
# is the whole-polyline scheme (every pass re-maps every vertex and re-pins
# the saddle), kept as a geometric oracle; _ref_piece_manifold is the
# library's fundamental-domain scheme, which the float growth must match bit
# for bit.


def _ref_map_polyline(params, pts, inverse):
    n = -1 if inverse else 1
    out = []
    for u, w in zip(pts, pts[1:]):
        out.append(lozi_apply(params, u, n))
        cu, cw = (u.y, w.y) if inverse else (u.x, w.x)
        if cu * cw < 0.0:
            t = cu / (cu - cw)
            fold = PlanePoint(u.x + t * (w.x - u.x), u.y + t * (w.y - u.y))
            out.append(lozi_apply(params, fold, n))
    out.append(lozi_apply(params, pts[-1], n))
    return out


def _ref_drop_collinear(pts, tol=1e-13):
    if len(pts) <= 2:
        return pts
    kept = [pts[0]]
    for i in range(1, len(pts) - 1):
        u, v, w = kept[-1], pts[i], pts[i + 1]
        if v.dist(u) == 0.0:
            continue
        cross = (v.x - u.x) * (w.y - u.y) - (v.y - u.y) * (w.x - u.x)
        if abs(cross) <= tol * max(u.dist(w), 1e-30):
            continue
        kept.append(v)
    kept.append(pts[-1])
    return kept


def _ref_arc(pts):
    return float(sum(pts[i].dist(pts[i + 1]) for i in range(len(pts) - 1)))


def _ref_seed(params, seed):
    """Saddle, eigenvalue, unit direction and seed length t0 of a branch."""
    saddle, inverse, sign, _ = MANIFOLD_BRANCHES[seed]
    fd = fixed_data(params)
    start = getattr(fd, saddle)
    lam = getattr(fd, f"{'stable' if inverse else 'unstable'}_slope_{saddle}")
    norm = math.hypot(sign * lam, float(sign))
    ux, uy = sign * lam / norm, sign / norm
    coord0, dcoord = (start.y, uy) if inverse else (start.x, ux)
    t_kink = abs(coord0 / dcoord) if dcoord != 0.0 and coord0 != 0.0 else math.inf
    return start, lam, ux, uy, min(1e-4, 0.5 * t_kink)


def _ref_manifold(params, seed, arc_budget, flat_tol=1e-9):
    """Whole-polyline growth; returns the vertices, the arc and the stop
    reason: budget, flat (the arc stagnated) or cap (60 passes)."""
    inverse = MANIFOLD_BRANCHES[seed][1]
    start, _, ux, uy, t0 = _ref_seed(params, seed)
    pts = [start, PlanePoint(start.x + t0 * ux, start.y + t0 * uy)]
    prev_arc = 0.0
    for _ in range(60):
        pts = _ref_map_polyline(params, _ref_map_polyline(params, pts, inverse), inverse)
        pts[0] = start
        pts = _ref_drop_collinear(pts)
        arc = _ref_arc(pts)
        if arc >= arc_budget:
            return pts, arc, "budget"
        if abs(arc - prev_arc) < flat_tol:
            return pts, arc, "flat"
        prev_arc = arc
    return pts, arc, "cap"


def _ref_piece_manifold(params, seed, arc_budget, flat_tol=1e-9):
    """Fundamental-domain growth; returns the vertices, the arc and the
    truncated flag."""
    inverse = MANIFOLD_BRANCHES[seed][1]
    start, lam, ux, uy, t0 = _ref_seed(params, seed)
    end = PlanePoint(start.x + t0 * ux, start.y + t0 * uy)
    arc = _ref_arc([start, end])
    shrink = lam * lam if inverse else 1.0 / (lam * lam)
    piece = [PlanePoint(start.x + t0 * shrink * ux, start.y + t0 * shrink * uy), end]
    pts = [start] + piece
    truncated = True
    for _ in range(60):
        piece = _ref_map_polyline(params, _ref_map_polyline(params, piece, inverse), inverse)
        piece = _ref_drop_collinear(piece)
        pts += piece[1:]
        step = _ref_arc(piece)
        arc += step
        if arc >= arc_budget:
            break
        if step < flat_tol:
            truncated = False
            break
    return _ref_drop_collinear(pts), arc, truncated


GROWTH_POINTS = [
    (1.0, 0.5),
    (1.4, 0.3),
    (1.7, 0.5),
    (1.9, -0.3),
    (1.8, -0.5),
    (1.2, 0.1),
    (1.5, -0.2),
    (1.95, 0.45),
]


@pytest.mark.parametrize("ab", GROWTH_POINTS)
@pytest.mark.parametrize("seed", sorted(MANIFOLD_BRANCHES))
def test_float_growth_matches_planepoint_reference(ab, seed):
    params = Params(*ab)
    pl = manifold(params, seed, 30.0)
    pts, arc, truncated = _ref_piece_manifold(params, seed, 30.0)
    assert [(v.x, v.y) for v in pl.vertices] == [(v.x, v.y) for v in pts]
    assert pl.arc_length == arc
    assert pl.truncated == truncated


def _bits(pts):
    return [(x.hex(), y.hex()) for x, y in pts]


def _fold_polylines(rng):
    """Seeded polylines about both folds for _double_step: single segments,
    whose vertex counts tell which step met a fold, and longer walks; now
    and then a coordinate is exactly 0.0, a vertex on a fold."""
    for _ in range(300):
        pts = []
        for _ in range(rng.choice((2, 2, 3, 6))):
            x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            if rng.random() < 0.1:
                x = 0.0
            if rng.random() < 0.1:
                y = 0.0
            pts.append(PlanePoint(x, y))
        yield pts
    # (1, 0) lies on the inverse fold and maps onto a fold in both
    # directions at a = 1, and (0, y) lies on the forward fold
    yield [PlanePoint(0.5, -0.25), PlanePoint(1.0, 0.0), PlanePoint(1.5, 0.5)]
    yield [PlanePoint(-0.5, 0.3), PlanePoint(0.0, 0.2), PlanePoint(0.7, -0.1)]


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_double_step_is_two_single_steps_bit_for_bit(inverse):
    # Each vertex goes through both steps in one loop, and each step's fold
    # vertex lands where two calls of the single step put it. A single
    # segment splits in the first step only, in the second only, in both or
    # in neither.
    rng = random.Random(36)
    split = set()
    for params in (Params(*ab) for ab in GROWTH_POINTS):
        for pts in _fold_polylines(rng):
            mid = _ref_map_polyline(params, pts, inverse)
            want = _ref_map_polyline(params, mid, inverse)
            assert _bits(geometry._double_step(params, pts, inverse)) == _bits(want), pts
            if len(pts) == 2:
                split.add((len(mid) > 2, len(want) > len(mid)))
    assert split == {(False, False), (True, False), (False, True), (True, True)}


def test_drop_collinear_yields_each_vertex_once_its_successor_is_known():
    # Random walks with slopes -1, 0 and 1 have collinear runs to drop, fed
    # to the drop in pieces of 0 to 4 vertices. The vertex at x = i is
    # decided once the vertex after it is fed, whichever piece holds it; the
    # first at once and the last at close().
    rng = random.Random(17)
    for _ in range(100):
        ys = [0.0]
        for _ in range(rng.randint(0, 11)):
            ys.append(ys[-1] + rng.choice((-1.0, 0.0, 1.0)))
        pts = [PlanePoint(float(i), y) for i, y in enumerate(ys)]
        want = _ref_drop_collinear(pts)
        kept = geometry._Kept()
        fed = 0
        while fed < len(pts):
            size = rng.randint(0, 4)
            kept.feed(pts[fed : fed + size])
            fed = min(fed + size, len(pts))
            assert kept.vertices == [v for v in want if fed >= (1 if v.x == 0.0 else v.x + 2)]
        assert kept.close() == want
        assert geometry._drop_collinear(pts) == want


def _far_side(points, line):
    """Largest distance from the points to the polyline."""
    pts = np.array([(v.x, v.y) for v in points])
    segs = _segment_array(line)
    return max(
        float(_ref_segment_distances(pts[lo : lo + 256], segs).max())
        for lo in range(0, len(pts), 256)
    )


@pytest.mark.parametrize("ab", GROWTH_POINTS)
@pytest.mark.parametrize("seed", sorted(MANIFOLD_BRANCHES))
def test_piece_growth_matches_whole_polyline_oracle(ab, seed):
    params = Params(*ab)
    for budget in (20.0, 30.0, 50.0):
        pl = manifold(params, seed, budget)
        pts, arc, stop = _ref_manifold(params, seed, budget)
        assert _far_side(pl.vertices, pts) <= 1e-12, budget
        assert _far_side(pts, pl.vertices) <= 1e-12, budget
        assert abs(pl.arc_length - arc) <= 1e-9 * arc, budget
        assert (pl.arc_length >= budget) == (stop == "budget"), budget
        assert pl.truncated == (stop != "flat"), budget


def test_branch_growth_regression_pin():
    # vertices, arc_length and truncated of all five branches at 20 seeded
    # points, and of the forward branches again with the sink's trapping
    # ellipses, as the homoclinic sweep grows them (10 of those converge).
    # A LoziError enters the digest by name. Taken before two-vertex pieces
    # skipped _drop_collinear and _arc.
    rng = random.Random(2015)
    points = []
    while len(points) < 20:
        a, b = rng.uniform(0.6, 2.2), rng.uniform(-0.6, 0.9)
        if abs(b) >= 0.1:
            points.append(Params(a, b))
    digest = hashlib.sha256()
    captured = 0
    for params in points:
        try:
            fd = fixed_data(params)
        except (NoFixedPoint, NonInvertible) as exc:
            digest.update(type(exc).__name__.encode())
            continue
        sinks = geometry._sink_ellipses(params, fd)
        runs = [(branch, ()) for branch in MANIFOLD_BRANCHES]
        runs += [(branch, sinks) for branch in ("p1_right", "p1_left", "p2") if sinks]
        for branch, ellipses in runs:
            try:
                growth = geometry._Growth(params, branch, 50.0, ellipses)
                vertices = growth.finish()
            except (NoFixedPoint, NonInvertible) as exc:
                digest.update(type(exc).__name__.encode())
                continue
            digest.update(np.array(vertices, float).tobytes())
            digest.update(struct.pack("<d?", growth.arc, growth.truncated))
            captured += bool(ellipses) and not growth.truncated
    assert captured == 10
    assert digest.hexdigest() == (
        "82267006cd62ce23b0372b59d4d4ba597049a6449c23a235d80c2f894c5f83bf"
    )


def test_branch_growth_is_capped_in_vertices(monkeypatch):
    # A finite but huge budget would grow one branch until memory runs out
    # (budget 1e12 here did; 1e6 kept 730,198 vertices). With the cap
    # patched low, a modest budget shows the refusal at once.
    monkeypatch.setattr(geometry, "_MAX_VERTICES", 1000)
    params = Params(1.875, 0.25)
    assert len(manifold(params, "p1_right", 50.0).vertices) < 1000
    with pytest.raises(BudgetExceeded, match="1000 vertices"):
        manifold(params, "p1_right", 1e6)


def test_pass_cap_marks_branch_truncated():
    # Near (1, 0) the branch crawls: 60 passes leave it far below the budget
    # and still growing, which is a truncation, not convergence.
    pl = manifold(Params(1.03125, 0.0125), "p1_right", arc_budget=20.0)
    assert pl.truncated
    assert pl.arc_length < 20.0


@pytest.mark.parametrize(
    "ab", [(1.03125, 0.0125), (1.0, 0.5)], ids=["crawl", "spiral"]
)
def test_growth_maps_each_vertex_once(monkeypatch, ab):
    # Only the newest piece is mapped, so the vertices mapped per branch grow
    # linearly in the passes. At the spiral into the sink, re-mapping the
    # whole polyline would map about 25 vertices per pass. A pass maps its
    # piece's vertices and then their first images, which are no more than
    # the vertices it returns.
    mapped = []
    step = geometry._double_step

    def spy(params, pts, inverse):
        out = step(params, pts, inverse)
        mapped.append(len(pts) + len(out))
        return out

    monkeypatch.setattr(geometry, "_double_step", spy)
    for seed in sorted(MANIFOLD_BRANCHES):
        mapped.clear()
        manifold(Params(*ab), seed, 20.0)
        passes = len(mapped)
        assert passes > 0, seed
        assert sum(mapped) <= 8 * passes, (seed, passes, sum(mapped))


def test_polyline_point_distance_basics():
    pl = manifold(CENTER, "p1_right", arc_budget=10.0)
    v = pl.vertices[len(pl.vertices) // 2]
    assert _distance(pl, v) <= 1e-15
    assert _distance(pl, PlanePoint(10.0, 10.0)) > 8.0


# ----------------------------------------------------------------- lyapunov


def test_lyapunov_identity_inside_polygon():
    report = polygon_invariance(CENTER)
    poly = list(report.corners)
    xs = [c.x for c in poly]
    ys = [c.y for c in poly]
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        q = PlanePoint(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
        if _signed_dist_to_convex(poly, np.array([q]))[0] <= 0.0:
            continue
        v = (q.x - 6.0 / 5.0) ** 2 + (q.y + 2.0 / 5.0) ** 2
        assert abs(lyapunov_delta(CENTER, q) + (15.0 / 16.0) * v) <= 1e-12
        checked += 1


def test_lyapunov_identity_on_alternating_sign_pattern():
    # The quartic step is affine wherever the four-step itinerary keeps the
    # period-2 sign pattern, and there the identity is exact.
    def pattern(q):
        out = []
        for _ in range(4):
            out.append(q.x >= 0.0)
            q = lozi_apply(CENTER, q)
        return tuple(out)

    hits = 0
    for q in _rand_points(4000, seed=5):
        if pattern(q) != (True, False, True, False):
            continue
        v = (q.x - 6.0 / 5.0) ** 2 + (q.y + 2.0 / 5.0) ** 2
        assert abs(lyapunov_delta(CENTER, q) + (15.0 / 16.0) * v) <= 1e-12
        hits += 1
    assert hits > 400  # the pattern region is a fat chunk of the sample box


def test_lyapunov_spot_values():
    fd = fixed_data(CENTER)
    z = PlanePoint((3.0 + math.sqrt(3.0)) / 3.0, 0.0)
    assert lyapunov_delta(CENTER, z) < -0.28
    assert abs(lyapunov_delta(CENTER, fd.n1)) <= 1e-15
    assert abs(lyapunov_delta(CENTER, fd.p1)) <= 1e-12  # p1 is L^4-fixed too


def test_lyapunov_needs_period_two_center():
    with pytest.raises(NoFixedPoint):
        lyapunov_delta(Params(0.3, 0.5), PlanePoint(0.0, 0.0))


@pytest.mark.parametrize("ab", [(1.0, 0.5), (1.2, 0.3), (1.05, 0.6)])
def test_lyapunov_delta_matches_planepoint_reference(ab):
    params = Params(*ab)
    n1 = fixed_data(params).n1
    for q in _rand_points(1000, seed=11):
        img = lozi_apply(params, q, 4)
        want = ((img.x - n1.x) ** 2 + (img.y - n1.y) ** 2) - (
            (q.x - n1.x) ** 2 + (q.y - n1.y) ** 2
        )
        assert repr(lyapunov_delta(params, q)) == repr(want), q


# ------------------------------------------------------------------ polygon


def test_polygon_invariance_at_certified_params():
    report = polygon_invariance(CENTER)
    assert report.margin == 0.0
    assert len(report.corners) == 4
    expected = {
        (1.5774, 0.0),
        (1.2113, -0.5774),
        (1.1057, -0.5),
        (1.1972, -0.3557),
    }
    got = {(round(c.x, 4), round(c.y, 4)) for c in report.corners}
    assert got == expected


def test_polygon_contains_eighth_image_of_axis_crossing():
    z = PlanePoint((3.0 + math.sqrt(3.0)) / 3.0, 0.0)
    img = lozi_apply(CENTER, z, 8)
    assert abs(img.x - 1.223) <= 1e-3
    assert abs(img.y + 0.375) <= 1e-3
    poly = list(polygon_invariance(CENTER).corners)
    assert _signed_dist_to_convex(poly, np.array([img]))[0] > 0.0


def test_polygon_invariance_holds_under_perturbation():
    for ab in ((1.02, 0.5), (0.98, 0.5), (1.0, 0.52), (1.05, 0.45)):
        report = polygon_invariance(Params(*ab))
        assert report.margin >= 0.0


def test_polygon_margin_of_touching_contact_is_plus_zero():
    # Two edges give this boundary vertex distance 0.0 and -0.0; the minimum
    # over the edges may keep either, and the margin reads 0.0 all the same.
    report = polygon_invariance(Params(1.3337447998677807, -0.3277567086581661))
    assert math.copysign(1.0, report.margin) == 1.0


def test_polygon_invariance_fails_in_chaotic_regime():
    with pytest.raises(NotInvariant) as info:
        polygon_invariance(CHAOTIC)
    assert info.value.margin < -1.0
    assert len(info.value.witness) == 2


# --------------------------------------------------------------- homoclinic


def test_homoclinic_absent_at_certified_params():
    assert homoclinic_intersects(CENTER, arc_budget=30.0) is None


def test_homoclinic_present_in_chaotic_regime():
    w = homoclinic_intersects(CHAOTIC, arc_budget=30.0)
    assert w is not None
    # the witness lies on both manifolds
    wu = min(
        _distance(manifold(CHAOTIC, s, arc_budget=30.0), w)
        for s in ("p1_right", "p1_left")
    )
    ws = min(
        _distance(manifold(CHAOTIC, s, arc_budget=30.0), w)
        for s in ("p1_plus", "p1_minus")
    )
    assert wu <= 1e-9 and ws <= 1e-9
    # and away from the saddle itself
    fd = fixed_data(CHAOTIC)
    assert w.dist(fd.p1) > 1e-3


def test_homoclinic_found_quickly_at_high_slope():
    assert homoclinic_intersects(Params(2.0, 0.05), arc_budget=20.0) is not None


def test_homoclinic_needs_invertible_map():
    with pytest.raises(NonInvertible):
        homoclinic_intersects(Params(1.7, 0.0), 50.0)


def test_homoclinic_no_false_positive_near_certified_params():
    for ab in ((1.0, 0.46), (1.04, 0.54), (0.96, 0.5)):
        assert homoclinic_intersects(Params(*ab), arc_budget=20.0) is None


def _spy_growth(monkeypatch):
    """Spy on the one growth loop; returns one [kind, last raw vertex drawn,
    raw vertices drawn, passes] entry per branch whose growth started, in
    the order they started. The loop yields each pass's new raw vertices as
    one piece, and its passes are the _double_step calls made while it
    ran."""
    grown = []
    calls = [0]
    passes = geometry._Growth._passes
    step = geometry._double_step

    def count(params, pts, inverse):
        calls[0] += 1
        return step(params, pts, inverse)

    def spy(self, *args):
        entry = [self.kind, None, 0, 0]
        grown.append(entry)
        pieces = passes(self, *args)
        while True:
            before = calls[0]
            piece = next(pieces, None)
            entry[3] += calls[0] - before
            if piece is None:
                return
            entry[1:3] = piece[-1], entry[2] + len(piece)
            yield piece

    monkeypatch.setattr(geometry, "_double_step", count)
    monkeypatch.setattr(geometry._Growth, "_passes", spy)
    return grown


SWEEP_ORDER = [
    MANIFOLD_BRANCHES[s][3] for s in ("p1_plus", "p1_minus", "p1_right", "p1_left")
]


def test_stage_one_hit_never_grows_p1_left(monkeypatch):
    # The crossing lies on one of p1_right's first two segments, so the sweep
    # grows W^s and p1_right only until those are settled. The witness bits
    # are the ones the sweep over all of W^u gave.
    grown = _spy_growth(monkeypatch)
    w = homoclinic_intersects(CHAOTIC, arc_budget=20.0)
    assert w is not None
    assert (w.x.hex(), w.y.hex()) == (
        "0x1.1e8e7c6ad18dbp+0",
        "0x1.d568f0858a7f0p-4",
    )
    assert [kind for kind, *_ in grown] == SWEEP_ORDER[:3]
    full = manifold(CHAOTIC, "p1_right", arc_budget=20.0)
    # 13 raw vertices against 21 kept, from 8 passes: the counts of the
    # vertex-by-vertex growth this replaced
    assert grown[2][2:] == [13, 8]
    assert len(full.vertices) == 21


@pytest.mark.parametrize(
    "ab, witness",
    [
        ((1.2, 0.2), None),
        ((0.9625, 0.975), ("0x1.abd772055e4c8p-1", "-0x1.2dd0fd7f65266p+1")),
    ],
    ids=["no_crossing", "stage_two_hit"],
)
def test_sweep_grows_each_branch_once(monkeypatch, ab, witness):
    # Past stage 1 the sweep resumes p1_right where it stopped instead of
    # growing it again. At (0.9625, 0.975) the crossing lies on p1_right's
    # third segment.
    grown = _spy_growth(monkeypatch)
    w = homoclinic_intersects(Params(*ab), arc_budget=20.0)
    assert [kind for kind, *_ in grown] == SWEEP_ORDER
    if witness is None:
        assert w is None
    else:
        assert (w.x.hex(), w.y.hex()) == witness
        # p1_right's passes over both stages, as the vertex-by-vertex growth
        # made them
        assert grown[2][3] == 18


def _ellipse_form(ellipse):
    cx, cy, xx, xy, yy, r2 = ellipse
    return np.array([cx, cy]), np.array([[xx, xy], [xy, yy]]), r2


def _ellipse_boundary(ellipse, n=256):
    # centre + rho * X^(-1/2) (cos t, sin t) has X-norm exactly rho
    c, x, r2 = _ellipse_form(ellipse)
    w, v = np.linalg.eigh(x)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    unit = np.stack([np.cos(t), np.sin(t)], axis=1)
    return c + math.sqrt(r2) * (unit / np.sqrt(w)) @ v.T


def test_trapping_ellipse_at_certified_params():
    fd = fixed_data(CENTER)
    ellipses = geometry._sink_ellipses(CENTER, fd)
    assert len(ellipses) == 2
    a, b = CENTER.a, CENTER.b
    for ellipse, (first, second) in zip(ellipses, ((fd.n1, fd.n2), (fd.n2, fd.n1))):
        c, x, r2 = _ellipse_form(ellipse)
        assert (c == first).all() and r2 > 0.0
        s1, s2 = math.copysign(1.0, first.x), math.copysign(1.0, second.x)
        j1 = np.array([[-a * s1, b], [1.0, 0.0]])
        j2 = np.array([[-a * s2, b], [1.0, 0.0]])
        m = j2 @ j1
        assert np.abs(m.T @ x @ m - x + np.eye(2)).max() <= 1e-12
        for px, py in _ellipse_boundary(ellipse):
            # in first's L^2 sign cell, where L^2 is z -> first + M (z - first)
            assert s1 * px > 0.0
            assert s2 * (1.0 - a * s1 * px + b * py) > 0.0
            q = lozi_apply(CENTER, PlanePoint(px, py), 2)
            d = np.array(q) - c
            assert d @ x @ d < r2


def test_sink_ellipses_only_for_attracting_two_cycle():
    fd = fixed_data(CHAOTIC)
    assert not fd.period2_attracting
    assert geometry._sink_ellipses(CHAOTIC, fd) == ()


def test_numeric_zero_pixels_have_no_crossing():
    # The zero certificate runs before the homoclinic sweep; that order can
    # only matter at a pixel where both pass, which would be a defect.
    passed = 0
    for i in range(16):
        b = 0.05 + (i + 0.5) * 0.9 / 16
        for j in range(16):
            params = Params(0.6 + (j + 0.5) / 16, b)
            if not _numeric_zero_check(params):
                continue
            passed += 1
            assert homoclinic_intersects(params, arc_budget=20.0) is None, params
    assert passed >= 20


def test_sweep_stops_unstable_branches_in_the_sink(monkeypatch):
    # Without the stop the sweep made 105 passes here: the unstable branches
    # spiral into the 2-cycle for the whole budget.
    calls = []
    step = geometry._double_step

    def spy(params, pts, inverse):
        calls.append(inverse)
        return step(params, pts, inverse)

    monkeypatch.setattr(geometry, "_double_step", spy)
    assert homoclinic_intersects(CENTER, arc_budget=20.0) is None
    assert len(calls) <= 52
    swept_forward = calls.count(False)
    # the public branches still run until they converge
    calls.clear()
    for seed in ("p1_right", "p1_left", "p1_plus", "p1_minus"):
        manifold(CENTER, seed, 20.0)
    assert len(calls) == 105
    assert calls.count(False) > 2 * swept_forward


@pytest.mark.parametrize("ab", [(1.0, 0.5), (1.7, 0.5), (1.2, 0.3)])
def test_classify_computes_fixed_data_once(monkeypatch, ab):
    # The sweep's branches, the polygon and the 64 Lyapunov samples share
    # one FixedData.
    calls = []
    compute = geometry.fixed_data

    def spy(params):
        calls.append(params)
        return compute(params)

    monkeypatch.setattr(geometry, "fixed_data", spy)
    geometry._fixed_data.cache_clear()
    classify_zero_entropy(Params(*ab), arc_budget=20.0)
    assert calls == [Params(*ab)]


# ----------------------------------------------------------- zero entropy


def test_classify_certified_params_numeric_zero():
    v = classify_zero_entropy(CENTER, arc_budget=30.0)
    assert v.kind == "numeric_zero"
    assert v.case is None


def _ref_sink_samples(params, corners, fd):
    """The sink certificate's accepted polygon samples on PlanePoint, one
    rng.uniform call per coordinate and _signed_dist_to_convex per sample."""
    rng = np.random.default_rng(1815)
    poly = list(corners)
    xs = [c.x for c in poly]
    ys = [c.y for c in poly]
    while True:
        q = PlanePoint(
            float(rng.uniform(min(xs), max(xs))), float(rng.uniform(min(ys), max(ys)))
        )
        if _signed_dist_to_convex(poly, np.array([q]))[0] <= 1e-9:
            continue
        if q.dist(fd.n1) < 1e-9 or q.dist(fd.n2) < 1e-9:
            continue
        yield q


def _ref_numeric_zero_check(params, accepted=None):
    """The sink certificate, one Lyapunov test per sample with an early
    exit; the first 64 accepted samples go to accepted when given."""
    fd = fixed_data(params)
    if fd.n1 is None or not fd.period2_attracting:
        return False
    try:
        report = polygon_invariance(params)
    except (NotInvariant, WrongParams, NoFixedPoint):
        return False
    z = _axis_crossing_of_unstable_line(fd)
    for q in (z, lozi_apply(params, z)):
        for _ in range(10_000):
            q = lozi_apply(params, q, 4)
            if min(q.dist(fd.n1), q.dist(fd.n2)) < 1e-8:
                break
        else:
            return False
    samples = list(itertools.islice(_ref_sink_samples(params, report.corners, fd), 64))
    if accepted is not None:
        accepted.extend((q.x, q.y) for q in samples)
    for q in samples:
        if geometry.lyapunov_delta(params, q) >= 0.0:
            return False
    return True


def test_numeric_zero_check_matches_scalar_sampler(monkeypatch):
    calls = []
    delta = geometry.lyapunov_delta

    def spy(params, q):
        calls.append(list(zip(np.atleast_1d(q.x).tolist(), np.atleast_1d(q.y).tolist())))
        return delta(params, q)

    monkeypatch.setattr(geometry, "lyapunov_delta", spy)
    outcomes = []
    for b in (0.35, 0.5, 0.65):
        for k in range(6):
            params = Params(0.9 + 0.1 * k, b)
            calls.clear()
            got = _numeric_zero_check(params)
            library_calls = list(calls)
            calls.clear()
            accepted = []
            want = _ref_numeric_zero_check(params, accepted)
            assert got == want, params
            if not accepted:  # refused before sampling: no Lyapunov test
                assert library_calls == calls == [], params
                outcomes.append((got, 0))
                continue
            # one array call on exactly the first 64 accepted samples; the
            # reference tests a prefix of them, one sample per call
            assert library_calls == [accepted], params
            evaluated = [point for (point,) in calls]
            assert evaluated == accepted[: len(evaluated)], params
            outcomes.append((got, len(evaluated)))
    assert (True, 64) in outcomes
    # some pixels fail on a sampled Lyapunov increase, before the 64th sample
    assert any(not ok and 0 < n < 64 for ok, n in outcomes)


def test_block_uniform_draws_match_scalar_stream():
    # The sampler's schedule: blocks double from _SAMPLE_BLOCK pairs up to
    # _SAMPLE_BLOCK_CAP, drawn from the module's generator reset to its seed
    # state, and together they are the scalar stream of default_rng(1815).
    assert (geometry._SAMPLE_BLOCK, geometry._SAMPLE_BLOCK_CAP) == (256, 4096)
    lo, hi = np.array([-0.7, -1.3]), np.array([1.9, 0.4])
    rng, seed_state = geometry._sampler()
    rng.bit_generator.state = seed_state
    scalar = np.random.default_rng(1815)
    for size in (256, 512, 1024, 2048, 4096, 4096):
        pairs = rng.uniform(lo, hi, size=(size, 2))
        for x, y in pairs.tolist():
            assert x == float(scalar.uniform(lo[0], hi[0]))
            assert y == float(scalar.uniform(lo[1], hi[1]))


def test_sink_sampler_starts_each_pixel_from_the_seed(monkeypatch):
    # The sampler shares one generator between pixels and resets it per
    # pixel, so P after Q draws what P drew first: the same verdict and the
    # same Lyapunov array call.
    calls = []
    delta = geometry.lyapunov_delta

    def spy(params, q):
        calls.append((params, q.x.copy(), q.y.copy()))
        return delta(params, q)

    monkeypatch.setattr(geometry, "lyapunov_delta", spy)
    p, q = CENTER, Params(1.1, 0.65)
    verdicts = [_numeric_zero_check(params) for params in (p, q, p)]
    assert verdicts[0] == verdicts[2]
    assert [params for params, _, _ in calls] == [p, q, p]
    (_, x0, y0), (_, xq, _), (_, x2, y2) = calls
    assert len(x0) == 64 and not np.array_equal(x0, xq)
    assert np.array_equal(x0, x2) and np.array_equal(y0, y2)


def test_sink_sampler_draws_are_bounded(monkeypatch):
    # Where the polygon fills almost none of its bounding box the sampler
    # would draw for ever: at (1.0, 0.001) it fills 1e-6 of it, and none of
    # 200,000 draws lands inside. A spy that rejects every draw shows the
    # certificate failing within _MAX_DRAWS pairs, in the doubling blocks; it
    # raises after 5,000 blocks, so an unbounded sampler fails here at once.
    report = polygon_invariance(CENTER)
    monkeypatch.setattr(geometry, "polygon_invariance", lambda params: report)
    blocks = []

    def reject(poly, q):
        blocks.append(len(q))
        if len(blocks) > 5_000:
            raise AssertionError("the sampler drew past its bound")
        return np.full(len(q), -1.0)

    monkeypatch.setattr(geometry, "_signed_dist_to_convex", reject)
    assert not _numeric_zero_check(CENTER)
    assert blocks[:6] == [256, 512, 1024, 2048, 4096, 4096]
    assert set(blocks[5:]) == {4096}
    assert sum(blocks) <= geometry._MAX_DRAWS < sum(blocks) + 4096


@pytest.mark.parametrize(
    "ab, kind", [((1.0, 0.004), "numeric_zero"), ((1.0, 0.001), "unknown")]
)
def test_sink_sampler_bound_near_one_zero(monkeypatch, ab, kind):
    # (1.0, 0.004) is the slowest atlas pixel measured: it needs 3.6 million
    # draws, below the bound, and keeps its verdict. At (1.0, 0.001) the
    # certificate fails at the bound and the pixel is unknown. The spy passes
    # every call through and raises past twice the bound, so an unbounded
    # sampler fails here instead of hanging.
    drawn = [0]
    dist = geometry._signed_dist_to_convex

    def count(poly, q):
        drawn[0] += len(q)
        if drawn[0] > 1 << 24:
            raise AssertionError("the sampler drew past its bound")
        return dist(poly, q)

    monkeypatch.setattr(geometry, "_signed_dist_to_convex", count)
    assert classify_zero_entropy(Params(*ab), arc_budget=20.0).kind == kind
    assert 3_000_000 < drawn[0] <= geometry._MAX_DRAWS


def test_classify_analytic_strip():
    v = classify_zero_entropy(Params(0.2, 0.5), 50.0)
    assert v.kind == "analytic_zero" and v.case == "ii"


def test_classify_chaotic_homoclinic():
    v = classify_zero_entropy(CHAOTIC, arc_budget=30.0)
    assert v.kind == "homoclinic"
    assert v.witness is not None


def test_classify_analytic_cases_partition():
    assert classify_zero_entropy(Params(-2.5, -0.5), 50.0).case == "i"
    assert classify_zero_entropy(Params(0.3, 0.3), 50.0).case == "ii"
    assert classify_zero_entropy(Params(0.5, 0.5), 50.0).case == "iii"  # a = 1 - b
    # boundary of (i): a = b - 1 included
    assert classify_zero_entropy(Params(-1.5, -0.5), 50.0).case == "i"


@pytest.mark.parametrize(
    "a, b",
    [(-math.inf, 0.5), (-math.inf, -0.5), (math.inf, 0.2), (math.nan, 0.2), (1.7, math.nan)],
)
def test_classify_refuses_a_non_finite_parameter_before_any_test(monkeypatch, a, b):
    # -inf once fell in analytic strips (ii) and (i) and got a proven verdict.
    def no_test(*args, **kwargs):
        raise AssertionError("a zero-entropy test ran")

    monkeypatch.setattr(geometry, "_numeric_zero_check", no_test)
    monkeypatch.setattr(geometry, "homoclinic_intersects", no_test)
    with pytest.raises(ValueError, match="must be finite"):
        classify_zero_entropy(Params(a, b), 50.0)


def test_classify_rejects_large_b():
    with pytest.raises(ValueError):
        classify_zero_entropy(Params(1.0, 1.2), 50.0)


def test_verdict_type_guards():
    # A (kind, case) pair is a verdict exactly when its label keys
    # ZERO_ENTROPY_CODES, so every code has a verdict and nothing else does.
    for kind, case in (("numeric_zero", "ii"), ("unknown", "i"), ("homoclinic", "iii")):
        with pytest.raises(ValueError):
            ZeroEntropyVerdict(kind=kind, case=case)
    built = set()
    kinds = ("analytic_zero", "numeric_zero", "homoclinic", "unknown", "certain")
    for kind, case in itertools.product(kinds, (None, "i", "ii", "iii", "iv")):
        label = kind if case is None else f"{kind}_{case}"
        if label in ZERO_ENTROPY_CODES:
            assert ZeroEntropyVerdict(kind=kind, case=case).label == label
            built.add(label)
        else:
            with pytest.raises(ValueError):
                ZeroEntropyVerdict(kind=kind, case=case)
    assert built == set(ZERO_ENTROPY_CODES)


def test_analytic_pixels_are_never_homoclinic():
    # In the open strip (ii) the saddle has no homoclinic crossing; the two
    # verdicts must not overlap.
    for ab in ((0.2, 0.5), (0.3, 0.6), (0.1, 0.8)):
        assert classify_zero_entropy(Params(*ab), 50.0).kind == "analytic_zero"
        assert homoclinic_intersects(Params(*ab), arc_budget=10.0) is None


def test_scan_certified_block_uniform_numeric_zero():
    scan = scan_zero_entropy((0.95, 1.05), (0.45, 0.55), 4, arc_budget=20.0)
    assert (scan.codes == ZERO_ENTROPY_CODES["numeric_zero"]).all()


def test_scan_high_slope_block_uniform_homoclinic():
    scan = scan_zero_entropy((2.0, 2.2), (0.01, 0.09), 3, arc_budget=20.0)
    assert (scan.codes == ZERO_ENTROPY_CODES["homoclinic"]).all()


def test_scan_analytic_strip_uniform():
    scan = scan_zero_entropy((0.05, 0.25), (0.5, 0.7), 3, arc_budget=10.0)
    assert (scan.codes == ZERO_ENTROPY_CODES["analytic_zero_ii"]).all()


def test_scan_atlas_regression_pin():
    # Every pixel of the 40x40 atlas, not only criterion 10's three zones.
    scan = scan_zero_entropy((0.0, 2.5), (0.0, 1.0), 40, arc_budget=20.0)
    counts = {code: int((scan.codes == code).sum()) for code in np.unique(scan.codes)}
    assert counts == {
        ZERO_ENTROPY_CODES["analytic_zero_ii"]: 320,
        ZERO_ENTROPY_CODES["homoclinic"]: 662,
        ZERO_ENTROPY_CODES["unknown"]: 447,
        ZERO_ENTROPY_CODES["numeric_zero"]: 171,
    }
    assert hashlib.sha256(scan.codes.tobytes()).hexdigest() == (
        "873d1e6d60d86048ccca80f802f5f20662c4ae42f707a12739ae2577527b7921"
    )
    # the crossing points too, taken before the zero certificate ran first
    # and before the sweep stopped branches inside the sink
    witnesses = np.full((40, 40, 2), math.nan)
    for k, (_, _, verdict) in enumerate(scan.pixels):
        if verdict.witness is not None:
            witnesses[divmod(k, 40)] = verdict.witness
    assert hashlib.sha256(witnesses.tobytes()).hexdigest() == (
        "efe49e9546c3da9fe8cf6dbaef90e2d39038cac9bc7b5e6b0e74799e2eed6ba5"
    )


def test_homoclinic_sweep_regression_pin():
    # Crossing or none, and the witness, of the sweep at arc budget 20 over four 10x10 grids
    # of (0, 2.5] x (0, 1], each shifted in a by a seeded sub-pixel phase as
    # the benchmark's atlas grids are, and 20 seeded points with b in
    # (0.975, 1), where crossings lie beyond p1_right's first two segments.
    # Digest taken before the sweep ran in stages.
    rng = random.Random(1717)
    points = []
    for _ in range(4):
        shift = (rng.random() - 0.5) * 0.25
        for i in range(10):
            b = geometry._cell_centre((0.0, 1.0), i, 10)
            points += [
                Params(geometry._cell_centre((shift, 2.5 + shift), j, 10), b)
                for j in range(10)
            ]
    points += [Params(rng.uniform(0.5, 1.5), rng.uniform(0.975, 1.0)) for _ in range(20)]
    assert sum(p.a >= 2.0 for p in points) == 80
    assert sum(p.a < 1.0 - p.b for p in points) == 80
    digest = hashlib.sha256()
    found = 0
    for params in points:
        w = homoclinic_intersects(params, 20.0)
        found += w is not None
        digest.update(struct.pack("<?", w is not None))
        if w is not None:
            digest.update(struct.pack("<dd", *w))
    assert found == 186
    assert digest.hexdigest() == (
        "ee80b7ba02ef8e879bd934e964302226cd5057da96aa973038a226d6fd3b29d6"
    )


def test_scan_b_zero_pixel_scores_unknown():
    # resolution 1 centers the single row exactly on b = 0 where the
    # inverse map (hence the sweep) is unavailable
    scan = scan_zero_entropy((1.2, 1.4), (-0.1, 0.1), 1, arc_budget=10.0)
    assert scan.codes[0, 0] == ZERO_ENTROPY_CODES["unknown"]
    ((_, b, verdict),) = scan.pixels
    assert b == 0.0 and verdict == ZeroEntropyVerdict(kind="unknown")


def test_scan_grid_axes_and_guards():
    scan = scan_zero_entropy((1.0, 2.0), (0.0, 0.5), 4, arc_budget=5.0)
    # row by row over b, then over a: pixel 4 i + j is (a_j, b_i)
    assert len(scan.pixels) == 16
    assert abs(scan.pixels[0][0] - 1.125) <= 1e-15
    assert abs(scan.pixels[12][1] - 0.4375) <= 1e-15
    assert [a for a, _, _ in scan.pixels[4:8]] == [a for a, _, _ in scan.pixels[:4]]
    assert {b for _, b, _ in scan.pixels[4:8]} == {scan.pixels[4][1]}
    assert scan.codes.shape == (4, 4)
    assert scan.codes.ravel().tolist() == [ZERO_ENTROPY_CODES[v.label] for *_, v in scan.pixels]
    with pytest.raises(ValueError):
        scan_zero_entropy((1.0, 2.0), (0.5, 1.5), 2, 20.0)
    with pytest.raises(ValueError):
        scan_zero_entropy((1.0, 2.0), (0.0, 0.5), 0, 20.0)


def test_scan_other_errors_propagate(monkeypatch):
    # Only the library's own LoziError types score as unknown (the b = 0
    # pixel above raises NonInvertible); anything else is a defect.
    def broken(params, arc_budget):
        raise RuntimeError("defect")

    monkeypatch.setattr(geometry, "classify_zero_entropy", broken)
    with pytest.raises(RuntimeError):
        scan_zero_entropy((1.2, 1.4), (0.4, 0.5), 1, arc_budget=5.0)


@pytest.fixture
def no_growth(monkeypatch):
    # Growing a branch fails the test at once: under inf or nan growth never
    # stops short of the pass cap, so the input rule must refuse first. The
    # one growth loop is patched, so every way in to growth is guarded.
    def grow(*args):
        raise AssertionError("grew a branch")

    monkeypatch.setattr(geometry._Growth, "_passes", grow)


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1.0])
def test_arc_budget_must_be_finite_and_positive(no_growth, budget):
    # A budget <= 0 would stop every branch after one pass.
    for branch in MANIFOLD_BRANCHES:
        with pytest.raises(ValueError, match="arc budget"):
            manifold(CHAOTIC, branch, budget)
    with pytest.raises(ValueError, match="arc budget"):
        homoclinic_intersects(CHAOTIC, budget)
    for params in (CHAOTIC, Params(0.2, 0.5)):
        with pytest.raises(ValueError, match="arc budget"):
            classify_zero_entropy(params, budget)
    with pytest.raises(ValueError, match="arc budget"):
        scan_zero_entropy((0.0, 2.5), (0.0, 1.0), 4, budget)


@pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
def test_scan_grid_ends_must_be_finite(no_growth, end):
    for a_range, b_range in (
        ((end, 2.5), (0.0, 1.0)),
        ((0.0, end), (0.0, 1.0)),
        ((0.0, 2.5), (end, 1.0)),
        ((0.0, 2.5), (0.0, end)),
    ):
        with pytest.raises(ValueError):
            scan_zero_entropy(a_range, b_range, 4, 20.0)


def test_zero_codes_distinct_and_complete():
    assert len(set(ZERO_ENTROPY_CODES.values())) == len(ZERO_ENTROPY_CODES)
    assert set(ZERO_ENTROPY_CODES) == {
        "analytic_zero_i",
        "analytic_zero_ii",
        "analytic_zero_iii",
        "numeric_zero",
        "homoclinic",
        "unknown",
    }


# -------------------------------------------------------------- period four
#
# At a = 1 + b (b > 0) the line y = -x + (1 - b^2)/(a (1 + b^2)) holds a
# segment of period-4 points: those with x <= 0, L(q).x >= 0 and
# L^2(q).x <= 0, the sign pattern of the orbit's first three points.


def _period4_intercept(b: float) -> float:
    return (1.0 - b * b) / ((1.0 + b) * (1.0 + b * b))


def _period4_points(b: float, n: int) -> list[PlanePoint]:
    """Up to n points of the period-4 segment, by a sweep over x <= 0."""
    params = Params(1.0 + b, b)
    xs = np.linspace(-4.0, 0.0, 4096).tolist()
    line = [PlanePoint(x, -x + _period4_intercept(b)) for x in xs]
    feasible = [
        q for q in line if lozi_apply(params, q).x >= 0.0 and lozi_apply(params, q, 2).x <= 0.0
    ]
    return feasible[:: max(1, len(feasible) // n)][:n]


def test_period4_sampled_points_close_orbits():
    params = Params(1.5, 0.5)
    pts = _period4_points(0.5, 24)
    assert len(pts) == 24
    for q in pts:
        assert abs(q.y - (-q.x + 0.4)) <= 1e-15
        assert lozi_apply(params, q, 4).dist(q) <= 1e-10
        # genuinely period four, not fixed
        assert lozi_apply(params, q).dist(q) > 1e-3
        # the image segment consists of period-4 points as well
        img = lozi_apply(params, q)
        assert lozi_apply(params, img, 4).dist(img) <= 1e-10


def test_period4_constraint_violators_move():
    params = Params(1.5, 0.5)
    bad = PlanePoint(0.5, -0.5 + _period4_intercept(0.5))  # on the line but x > 0
    assert lozi_apply(params, bad, 4).dist(bad) > 1e-3


def test_period4_other_depths():
    for b in (0.25, 0.75):
        params = Params(1.0 + b, b)
        pts = _period4_points(b, 8)
        assert pts, "feasible stretch must be nonempty"
        for q in pts:
            assert lozi_apply(params, q, 4).dist(q) <= 1e-10

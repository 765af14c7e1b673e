"""Acceptance checks behind the verify subcommand.

Each check states one verifiable claim about the library, runs it at full
scale by default, and reports a single pass/fail line with the measured
quantity. A check takes only the run config and returns ``(passed,
detail)``. Its report name is its function name without ``check_``,
hyphenated: ``check_closed_form_series`` reports as ``closed-form-series``.
``CHECKS`` is the one list that numbers the checks, and ``run_checks`` is
the only place that builds a ``CheckResult``; the test suite goes through
it too, so the CLI report and the tests cannot drift apart. A check that
writes artifacts into the output directory declares their names with
``_writes``, so the CLI can refuse an existing one before any check runs,
and the scale inputs it reads, so ``run_checks`` refuses an invalid one
before any check runs.
Everything is deterministic given the config (seeded generators only).
"""

from __future__ import annotations

import filecmp
import math
import os
import random
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import formats
from .derivatives import (
    a_derivative_bounds,
    b_derivative_bounds,
    dq_db_at_b0,
    fd_derivative,
)
from .errors import NotInvariant
from .formats import or_default
from .geometry import (
    PlanePoint,
    classify_zero_entropy,
    fixed_data,
    lozi_apply,
    lyapunov_delta,
    polygon_invariance,
    scan_zero_entropy,
)
from .geometry import _axis_crossing_of_unstable_line, _signed_dist_to_convex
from .geometry import _require_arc_budget, _require_resolution
from .pruning import (
    ENTROPY_HEADER,
    PGM_PRUNED,
    ULP_SLACK,
    Params,
    classify_words,
    closed_form_q,
    entropy_rows,
    eval_p,
    eval_q,
    pruned_region_raster,
    special_head,
)
from .pruning import _require_blocks, _require_depth, _require_word_len
from .symbolic import symbol_axes
from .tent import (
    check_identity_shifted,
    check_identity_sum,
    identity_tail_bound,
    kneading,
    tent_entropy_lap,
)

_FD_H = 1e-6
_BOUND_SLOPES = (1.3, 1.5, 1.7, 2.0)


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str


# The library's own rule for each input a check may read.
_INPUT_RULES = {
    "depth": _require_depth,
    "word_len": _require_word_len,
    "n_max": _require_blocks,
    "grid": _require_resolution,
    "arc_budget": _require_arc_budget,
}


def _writes(*names: str, reads: tuple[str, ...] = ()):
    """Declare the files the decorated check writes into the output
    directory, as its artifacts attribute, and the keys of _INPUT_RULES it
    reads from the config, as its inputs (functools.wraps copies both)."""

    def declare(check):
        check.artifacts, check.inputs = names, reads
        return check

    return declare


def _artifacts(out: str, check) -> list[str]:
    """The paths in out of the files check declares with _writes."""
    return [os.path.join(out, name) for name in getattr(check, "artifacts", ())]


def check_closed_form_series(config) -> tuple[bool, str]:
    """The closed form lies inside the series enclosure."""
    b = -0.9 + np.arange(50)[:, None] * (1.8 / 49)
    a = 1.0 + np.abs(b) + 0.02 + np.arange(50) * (1.3 / 49)
    lo, hi = eval_q(np.transpose([special_head(60)]), 40, Params(a, b))
    closed = closed_form_q(Params(a, b))
    worst = float(max(np.max(lo - closed), np.max(closed - hi)))
    return (
        worst <= ULP_SLACK,
        f"worst closed-form excess outside the series enclosure = {worst:.3e} over 2500 params",
    )


def check_head_maximum(config) -> tuple[bool, str]:
    """At full slope the alternating head attains 1; others stay below."""
    params = Params(2.0, 0.0)
    sp = special_head(60)
    (max_lo,), (max_hi,) = eval_q(np.transpose([sp]), 59, params)
    at_max = 0.5 * (max_lo + max_hi)
    rng = random.Random(config.seed + 7)
    heads = []
    while len(heads) < 500:
        head = (1,) + tuple(rng.choice((1, -1)) for _ in range(39))
        if head != sp[:40]:
            heads.append(head)
    worst_other = float(np.max(eval_q(np.array(heads).T, 39, params)[1]))
    passed = abs(at_max - 1.0) <= 1e-10 and worst_other < 1.0
    return (
        passed,
        f"|q(max head) - 1| = {abs(at_max - 1.0):.3e}, "
        f"largest of 500 other heads = {worst_other!r}",
    )


@_writes("full_slope_raster.pgm", "full_slope_raster.pgm.txt", reads=("depth", "word_len"))
def check_full_slope_raster(config) -> tuple[bool, str]:
    """Nothing is pruned at full slope: the region degenerates to nothing."""
    word_len = or_default(config.word_len, 10)
    raster = pruned_region_raster(Params(2.0, 0.0), word_len, config.depth)
    if config.out:
        pgm, sidecar = _artifacts(config.out, check_full_slope_raster)
        formats.write_pgm(pgm, raster.cells, force=config.force)
        formats.write_sidecar(
            sidecar,
            {"a": 2.0, "b": 0.0, "word_len": word_len, "depth": config.depth},
            force=config.force,
        )
    total = raster.width * raster.height
    return (
        raster.pruned_count == 0,
        f"{raster.pruned_count} pruned of {total} cells at word_len {word_len}",
    )


def check_derivative_anchors(config) -> tuple[bool, str]:
    """Finite differences land on the closed-form derivative values."""
    eps = np.array([1, -1])
    # Two tails read outward from the dot, one per column, eps at index -2.
    tails = np.array([(1, e, 1) + (-1, 1) * 6 for e in eps.tolist()]).T
    fd = fd_derivative(partial(eval_p, tails, 13), Params(2.0, 0.0), (0.0, 1.0), _FD_H)
    q_enclosure = partial(eval_q, np.transpose([special_head(40)]), 39)
    fd_q = fd_derivative(q_enclosure, Params(2.0, 0.0), (0.0, 1.0), _FD_H)
    worst = float(np.max(np.abs(np.append(fd - 0.5 * eps, fd_q))))
    closed_gap = abs(dq_db_at_b0(1.5) - (-8.0 / 9.0))
    passed = worst <= 1e-4 and closed_gap <= 1e-10
    return passed, f"worst fd gap {worst:.3e}, closed-form gap at 1.5 = {closed_gap:.3e}"


def check_bound_lemmas(config) -> tuple[bool, str]:
    """Every depth-14 tail obeys the two-sided derivative bounds."""
    worst_excess = -math.inf
    full = a_derivative_bounds(2.0)
    if not (full.lo == 0.75 and full.hi == 1.0):
        return False, "full-slope interval moved"
    # the kneading head of each slope, one per column, at its own slope; the
    # tail series is identically 1 at b = 0, so the slope derivative of the
    # difference is the same number for every tail
    heads = np.transpose([kneading(a, 14).symbols for a in _BOUND_SLOPES])
    slopes = Params(np.array(_BOUND_SLOPES), 0.0)
    q_enclosure = partial(eval_q, heads, 13)
    fd_a = -fd_derivative(q_enclosure, slopes, (1.0, 0.0), _FD_H)
    fd_q_b = fd_derivative(q_enclosure, slopes, (0.0, 1.0), _FD_H)
    # the tails on 14 symbol axes, axis k the symbol at index -(k+1): p is
    # summed once per distinct tail, and axis 1 holds eps2
    p_enclosure = partial(eval_p, symbol_axes(14), 12)
    for i, a in enumerate(_BOUND_SLOPES):
        da = a_derivative_bounds(a)
        worst_excess = max(worst_excess, da.lo - fd_a[i], fd_a[i] - da.hi)
        fd_b = fd_derivative(p_enclosure, Params(a, 0.0), (0.0, 1.0), _FD_H) - fd_q_b[i]
        for e in (1, -1):
            db = b_derivative_bounds(a, e)
            sel = fd_b[:, 0 if e == 1 else 1]
            worst_excess = max(
                worst_excess, db.lo - float(sel.min()), float(sel.max()) - db.hi
            )
    return (
        worst_excess <= 1e-3,
        f"worst bound excess {worst_excess:.3e} over 4 slopes x 16384 tails",
    )


def check_kneading_identities(config) -> tuple[bool, str]:
    """Alternating-sum and shifted identities hold under their tail bounds."""
    n = 40
    worst_ratio = -math.inf
    for k in range(12):
        a = 1.05 + k * (0.95 / 11)
        kn = kneading(a, n + 6)
        if kn.boundary_hits:
            return False, f"fold hit in prefix at a={a!r}"
        r = check_identity_sum(a, kn.symbols, n) / identity_tail_bound(a, n)
        worst_ratio = max(worst_ratio, r)
        for i in range(6):
            bound = a ** (-(i + n)) / (a - 1.0)
            worst_ratio = max(
                worst_ratio, check_identity_shifted(a, kn.symbols, i, n) / bound
            )
    return (
        worst_ratio <= 1.0,
        f"worst residual/bound = {worst_ratio:.6f} over 12 slopes, shifts <= 5",
    )


@_writes("entropy.csv", reads=("n_max", "depth"))
def check_entropy_brackets(config) -> tuple[bool, str]:
    """Count brackets trap the known entropy values; lap oracle concurs."""
    n_max = or_default(config.n_max, 16)
    details = []
    passed = True
    all_rows = []
    for a, b, target in ((2.1, 0.05, math.log(2.0)), (1.7, 0.0, math.log(1.7))):
        rows = entropy_rows(Params(a, b), n_max, config.depth)
        all_rows.extend(rows)
        h_lo, h_hi = rows[-1][-2], rows[-1][-1]
        ok = h_lo - 0.05 <= target <= h_hi + 0.05
        passed &= ok
        details.append(f"({a},{b}): [{h_lo:.4f},{h_hi:.4f}] target {target:.4f}")
    lap = tent_entropy_lap(1.7, n_max)
    lap_ok = abs(lap - math.log(1.7)) <= 0.05
    passed &= lap_ok
    details.append(f"lap oracle {lap:.4f}")
    if config.out:
        (path,) = _artifacts(config.out, check_entropy_brackets)
        formats.write_csv(path, ENTROPY_HEADER, all_rows, force=config.force)
    return passed, "; ".join(details)


@_writes("entropy_sweep.csv", reads=("n_max", "depth"))
def check_upper_bound_monotone(config) -> tuple[bool, str]:
    """The upper entropy bound grows with the slope along a fold-free line."""
    n_max = or_default(config.n_max, 12)
    slopes = 1.4 + 0.05 * np.arange(13)
    rows = entropy_rows(Params(slopes, np.full(13, 0.02)), n_max, config.depth)[n_max - 1 :: n_max]
    uppers = [row[-1] for row in rows]
    worst_drop = max(
        (prev - cur for prev, cur in zip(uppers, uppers[1:])), default=0.0
    )
    if config.out:
        (path,) = _artifacts(config.out, check_upper_bound_monotone)
        formats.write_csv(path, ENTROPY_HEADER, rows, force=config.force)
    return worst_drop <= 0.02, f"worst h_upper drop {worst_drop:.4f} along 13 slopes at b=0.02"


def _identity_residual(params: Params, corners, seed: int) -> float:
    """Largest |Delta V + (15/16) V| over the first 1000 points inside the
    corners' polygon of the stream rng.uniform(x_lo, x_hi), rng.uniform(y_lo,
    y_hi), ... over their bounding box, drawn 1024 pairs at a time."""
    lo, hi = np.min(corners, axis=0), np.max(corners, axis=0)
    rng = random.Random(seed)
    inside = []
    while sum(map(len, inside)) < 1000:
        q = lo + (hi - lo) * np.array([rng.random() for _ in range(2048)]).reshape(-1, 2)
        inside.append(q[_signed_dist_to_convex(corners, q) >= 0.0])
    x, y = np.concatenate(inside)[:1000].T
    v = (x - 1.2) ** 2 + (y + 0.4) ** 2
    return float(np.max(np.abs(lyapunov_delta(params, PlanePoint(x, y)) + (15.0 / 16.0) * v)))


def check_plane_anchors(config) -> tuple[bool, str]:
    """Fixed points, the quadratic certificate, and the returning corner."""
    params = Params(1.0, 0.5)
    fd = fixed_data(params)
    residual = max(
        fd.p1.dist(lozi_apply(params, fd.p1)),
        fd.p2.dist(lozi_apply(params, fd.p2)),
        fd.n1.dist(lozi_apply(params, fd.n1, 2)),
        fd.n2.dist(lozi_apply(params, fd.n2, 2)),
        fd.n1.dist(PlanePoint(1.2, -0.4)),
    )
    try:
        report = polygon_invariance(params)
    except NotInvariant as escape:
        return False, f"orbit residual {residual:.2e}, polygon escape margin {escape.margin!r}"
    worst_identity = _identity_residual(params, report.corners, config.seed + 99)

    z = _axis_crossing_of_unstable_line(fd)
    corner_gap = lozi_apply(params, z, 8).dist(PlanePoint(1.223, -0.375))
    passed = (
        residual <= 1e-12
        and worst_identity <= 1e-12
        and corner_gap <= 1e-3
        and report.margin >= 0.0
    )
    return (
        passed,
        f"orbit residual {residual:.2e}, identity residual {worst_identity:.2e}, "
        f"corner gap {corner_gap:.2e}, polygon margin {report.margin!r}",
    )


@_writes("zero_scan.pgm", reads=("grid", "arc_budget"))
def check_zero_entropy_atlas(config) -> tuple[bool, str]:
    """Classifier anchors plus the parameter-plane scan's three zones."""
    arc_budget = or_default(config.arc_budget, 20.0)
    anchors = (
        classify_zero_entropy(Params(1.0, 0.5), arc_budget).kind == "numeric_zero",
        classify_zero_entropy(Params(0.2, 0.5), arc_budget).case == "ii",
        classify_zero_entropy(Params(1.7, 0.5), arc_budget).kind == "homoclinic",
    )
    resolution = or_default(config.grid, 100)
    scan = scan_zero_entropy((0.0, 2.5), (0.0, 1.0), resolution, arc_budget)
    zone_bad = 0
    zone_hits = [0, 0, 0]
    for a, b, verdict in scan.pixels:
        if a < 1.0 - b:
            zone_hits[0] += 1
            zone_bad += verdict.label != "analytic_zero_ii"
        if abs(a - 1.0) <= 0.05 and abs(b - 0.5) <= 0.025:
            zone_hits[1] += 1
            zone_bad += verdict.label != "numeric_zero"
        if a >= 2.0:
            zone_hits[2] += 1
            zone_bad += verdict.label != "homoclinic"
    if config.out:
        (path,) = _artifacts(config.out, check_zero_entropy_atlas)
        formats.write_pgm(path, scan.codes, force=config.force)
    passed = all(anchors) and zone_bad == 0
    return (
        passed,
        f"anchors {tuple(int(x) for x in anchors)}, {zone_bad} zone violations "
        f"(strip/block/crossing pixels {zone_hits}) at {resolution}x{resolution}",
    )


def check_orbit_window_consistency(config) -> tuple[bool, str]:
    """Symbol windows cut from a real bounded orbit are never pruned."""
    params = Params(1.7, 0.5)
    pt = PlanePoint(0.1, 0.1)
    for _ in range(200):
        pt = lozi_apply(params, pt)
    symbols = []
    for _ in range(1500):
        symbols.append(1 if pt.x >= 0.0 else -1)
        pt = lozi_apply(params, pt)
        if abs(pt.x) > 5.0 or abs(pt.y) > 5.0:
            return False, "orbit left the trapping box"
    rng = random.Random(config.seed + 13)
    half = 6
    windows = Counter()
    for _ in range(1000):
        t = rng.randrange(half, len(symbols) - half)
        windows[tuple(symbols[t - half : t + half])] += 1
    # About 400 of the 1000 windows are distinct; one call classifies each
    # once, one window per column, its tail read outward from the dot.
    blocks = np.array(list(windows), dtype=np.int8).T
    codes = classify_words(blocks[half - 1 :: -1], blocks[half:], 5, params)
    pruned = sum(count for count, code in zip(windows.values(), codes) if code == PGM_PRUNED)
    return pruned == 0, f"{pruned} of 1000 orbit windows certified pruned"


def check_artifact_determinism(config) -> tuple[bool, str]:
    """The verify command itself is reproducible byte for byte."""
    import contextlib
    import io

    from .cli import main

    with tempfile.TemporaryDirectory() as scratch:
        dirs = [os.path.join(scratch, d) for d in ("first", "second")]
        for d in dirs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(
                    [
                        "verify",
                        "--criteria",
                        "3,4,6,9",
                        "--word-len",
                        "6",
                        "--seed",
                        str(config.seed),
                        "--out",
                        d,
                        "--force",
                    ]
                )
            if code != 0:
                return False, f"inner run exited {code}"
        names = sorted(os.listdir(dirs[0]))
        if names != sorted(os.listdir(dirs[1])):
            return False, "runs produced different files"
        _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        passed = not mismatch and not errors
        return passed, f"{len(names)} artifacts compared, {len(mismatch)} mismatched"


CHECKS = {
    1: check_closed_form_series,
    2: check_head_maximum,
    3: check_full_slope_raster,
    4: check_derivative_anchors,
    5: check_bound_lemmas,
    6: check_kneading_identities,
    7: check_entropy_brackets,
    8: check_upper_bound_monotone,
    9: check_plane_anchors,
    10: check_zero_entropy_atlas,
    11: check_orbit_window_consistency,
    12: check_artifact_determinism,
}


def parse_criteria(text: str) -> list[int]:
    if text.strip().lower() == "all":
        return sorted(CHECKS)
    indices = set()
    for part in filter(None, map(str.strip, text.split(","))):
        index = int(part) if part.isdecimal() else None
        if index not in CHECKS:
            raise ValueError(
                f"criterion {part!r} does not exist (valid: {min(CHECKS)}..{max(CHECKS)} or all)"
            )
        indices.add(index)
    if not indices:
        raise ValueError("no criterion selected")
    return sorted(indices)


def output_paths(config) -> list[str]:
    """Every file the selected checks write into config.out."""
    checks = [CHECKS[index] for index in parse_criteria(config.criteria)]
    return [path for check in checks for path in _artifacts(config.out, check)]


def run_checks(config) -> list[CheckResult]:
    checks = {index: CHECKS[index] for index in parse_criteria(config.criteria)}
    # A set scale input meets its rule before any check runs, or writes; the
    # defaults always do.
    for check in checks.values():
        for field in getattr(check, "inputs", ()):
            if getattr(config, field) is not None:
                _INPUT_RULES[field](getattr(config, field))
    if config.out:
        os.makedirs(config.out, exist_ok=True)
    results = []
    for index, check in checks.items():
        passed, detail = check(config)
        name = check.__name__.removeprefix("check_").replace("_", "-")
        results.append(CheckResult(index, name, bool(passed), detail))
    return results

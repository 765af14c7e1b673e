"""The four workloads: seeded inputs, the CLI calls they make, and the
checks on what those calls write.

A workload body is a fixed list of ``lozi`` invocations (``Op``) made from
the seed alone; the library sees only the generated arguments. Checks use
invariants that any correct version of the library keeps, never digests of
a raster or an atlas, so that later changes to the kernels stay measurable.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import random
import re
from collections import Counter
from dataclasses import dataclass

# atlas: ATLAS_SCANS scans of ATLAS_GRID x ATLAS_GRID pixels per body
ATLAS_GRID = 10
ATLAS_SCANS = 16
ATLAS_ARC_BUDGET = 20.0
A_MAX, B_MAX = 2.5, 1.0

RASTER_POINTS = 6  # including the full-slope point (2, 0)
RASTER_WORD_LEN = 11
RASTER_DEPTH = 12

ENTROPY_POINTS = 3
ENTROPY_N_MAX = 16
ENTROPY_DEPTH = 12

VERIFY_GRID = 8  # criterion 10's atlas, kept a minor share of the run

LOG2_SLACK = 1e-9
_PASS_LINE = re.compile(r"^(PASS|FAIL) criterion (\d+)\b")


@dataclass(frozen=True)
class Op:
    """One ``lozi`` invocation and what its checks need to know."""

    argv: tuple[str, ...]
    out: str | None  # primary artifact path
    units: int  # work it completes: pixels, cells, brackets or criteria
    params: tuple[float, float] | None = None


def hyperbolic_points(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """Seeded (a, b) with a > 1 + |b|, clear of the boundary by 0.05."""
    points = []
    for _ in range(count):
        b = rng.uniform(-0.5, 0.5)
        points.append((rng.uniform(1.05 + abs(b), 2.0), b))
    return points


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class Atlas:
    """Zero-entropy atlas: ``lozi zero-scan`` over (0, 2.5] x (0, 1].

    The seed draws one phase; scan k shifts the a grid by (k + phase)/K - 1/2
    of a pixel, so the K scans sample the sub-pixel offsets evenly. Only a is
    shifted: the b range may not pass 1, and moving the bottom row towards
    b = 0 makes a single pixel near (1, 0) cost tens of seconds, which would
    make the run time depend on the seed more than on the code.
    """

    name = "atlas"
    probe = "interpreter"  # speed.py: the scan is Python-level geometry
    unit = "pixels"

    def ops(self, seed: int, work: str) -> list[Op]:
        phase = random.Random(seed).random()
        width = A_MAX / ATLAS_GRID
        ops = []
        for k in range(ATLAS_SCANS):
            shift = ((k + phase) / ATLAS_SCANS - 0.5) * width
            out = os.path.join(work, f"atlas-{k}.pgm")
            argv = self._argv(ATLAS_GRID, shift, A_MAX + shift, out)
            ops.append(Op(argv, out, ATLAS_GRID * ATLAS_GRID))
        return ops

    def warmup(self, work: str) -> Op:
        out = os.path.join(work, "warmup-atlas.pgm")
        return Op(self._argv(2, 1.5, A_MAX, out), out, 4)

    @staticmethod
    def _argv(grid, a_min, a_max, out):
        return (
            "zero-scan", "--grid", str(grid), "--arc-budget", _fmt(ATLAS_ARC_BUDGET),
            "--a-min", _fmt(a_min), "--a-max", _fmt(a_max),
            "--b-min", _fmt(0.0), "--b-max", _fmt(B_MAX),
            "--out", out, "--force",
        )  # fmt: skip

    def check(self, lib, op: Op, stdout: str) -> list[str]:
        problems = []
        rows = _csv_rows(op.out + ".csv")
        codes = lib.formats.read_pgm(op.out)
        if len(rows) != codes.size:
            problems.append(f"{len(rows)} listing rows for {codes.size} pixels")
        for row in rows:
            a, b, verdict = float(row["a"]), float(row["b"]), row["verdict"]
            if a < 1.0 - b and verdict != "analytic_zero_ii":
                problems.append(f"({a}, {b}) in the strip a < 1 - b is {verdict}")
            if a >= 2.0 and verdict != "homoclinic":
                problems.append(f"({a}, {b}) with a >= 2 is {verdict}")
        listed = Counter(lib.geometry.ZERO_ENTROPY_CODES[row["verdict"]] for row in rows)
        if listed != Counter(int(c) for c in codes.ravel()):
            problems.append("PGM codes disagree with the CSV listing")
        return problems


class Raster:
    """Pruned-region rasters at word_len 11 over seeded hyperbolic points."""

    name = "raster"
    probe = "numpy"  # speed.py: the kernel is whole-array numpy
    unit = "cells"

    def __init__(self):
        self._expected = {}  # (a, b, word_len) -> cells, computed once per run

    def ops(self, seed: int, work: str) -> list[Op]:
        points = [(2.0, 0.0)] + hyperbolic_points(random.Random(seed), RASTER_POINTS - 1)
        ops = []
        for k, (a, b) in enumerate(points):
            out = os.path.join(work, f"raster-{k}.pgm")
            ops.append(Op(self._argv(a, b, RASTER_WORD_LEN, out), out, 4**RASTER_WORD_LEN, (a, b)))
        return ops

    def warmup(self, work: str) -> Op:
        out = os.path.join(work, "warmup-raster.pgm")
        return Op(self._argv(1.8, 0.1, 4, out), out, 4**4, (1.8, 0.1))

    @staticmethod
    def _argv(a, b, word_len, out):
        return (
            "pruned-region", "--a", _fmt(a), "--b", _fmt(b),
            "--word-len", str(word_len), "--depth", str(RASTER_DEPTH),
            "--out", out, "--force",
        )  # fmt: skip

    def check(self, lib, op: Op, stdout: str) -> list[str]:
        cells = lib.formats.read_pgm(op.out)
        word_len = int(op.argv[op.argv.index("--word-len") + 1])
        key = (*op.params, word_len)
        if key not in self._expected:
            raster = lib.pruning.pruned_region_raster(
                lib.pruning.Params(*op.params), word_len, RASTER_DEPTH
            )
            self._expected[key] = raster.cells
        expected = self._expected[key]
        problems = []
        if cells.shape != expected.shape or not (cells == expected).all():
            problems.append("re-read PGM differs from pruned_region_raster's cells")
        pruned = int((cells == lib.pruning.PGM_PRUNED).sum())
        if op.params == (2.0, 0.0) and pruned:
            problems.append(f"{pruned} pruned cells at full slope (2, 0)")
        sidecar = lib.formats.read_config(op.out + ".txt")
        if int(sidecar.get("pruned", -1)) != pruned:
            problems.append("sidecar pruned count disagrees with the PGM")
        return problems


class Entropy:
    """Entropy brackets to block length 16 at seeded hyperbolic points."""

    name = "entropy"
    probe = "numpy"  # speed.py: the block masks are whole-array numpy
    unit = "brackets"

    def ops(self, seed: int, work: str) -> list[Op]:
        # a different stream from the raster points, so the two are unrelated
        rng = random.Random(f"entropy-{seed}")
        ops = []
        for k, (a, b) in enumerate(hyperbolic_points(rng, ENTROPY_POINTS)):
            out = os.path.join(work, f"entropy-{k}.csv")
            ops.append(Op(self._argv(a, b, ENTROPY_N_MAX, out), out, 1, (a, b)))
        return ops

    def warmup(self, work: str) -> Op:
        out = os.path.join(work, "warmup-entropy.csv")
        return Op(self._argv(1.8, 0.1, 4, out), out, 1, (1.8, 0.1))

    @staticmethod
    def _argv(a, b, n_max, out):
        return (
            "entropy", "--a", _fmt(a), "--b", _fmt(b),
            "--n-max", str(n_max), "--depth", str(ENTROPY_DEPTH),
            "--out", out, "--force",
        )  # fmt: skip

    def check(self, lib, op: Op, stdout: str) -> list[str]:
        rows = _csv_rows(op.out)
        if not rows:
            return ["no entropy rows"]
        problems = []
        upper = {}
        for row in rows:
            n, lo, hi = int(row["n"]), float(row["h_lower"]), float(row["h_upper"])
            if not 0.0 <= lo <= hi <= math.log(2.0) + LOG2_SLACK:
                problems.append(f"row n={n}: bracket [{lo}, {hi}] outside [0, log 2]")
            # the brackets are clamped, so check the counts they come from too
            count_lower, count_upper = int(row["count_lower"]), int(row["count_upper"])
            if not 0 <= count_lower <= count_upper <= 2**n:
                problems.append(f"row n={n}: counts {count_lower} <= {count_upper} <= 2^{n} fails")
            upper[n] = count_upper
        # a block of length m + n splits into blocks of lengths m and n
        for m, n in itertools.combinations_with_replacement(sorted(upper), 2):
            if m + n in upper and upper[m + n] > upper[m] * upper[n]:
                problems.append(
                    f"count_upper not submultiplicative: {upper[m + n]} at n={m + n}"
                    f" > {upper[m]} * {upper[n]} at n={m}, {n}"
                )
        return problems


class Verify:
    """All twelve acceptance criteria, seeded, with a small atlas grid."""

    name = "verify"
    probe = "numpy"  # speed.py: criteria 7 and 8, the block masks, dominate
    unit = "criteria"

    def ops(self, seed: int, work: str) -> list[Op]:
        out = os.path.join(work, "verify")
        argv = (
            "verify", "--criteria", "all", "--grid", str(VERIFY_GRID),
            "--seed", str(seed), "--out", out, "--force",
        )  # fmt: skip
        return [Op(argv, out, 12)]

    def warmup(self, work: str) -> Op:
        out = os.path.join(work, "warmup-verify")
        return Op(("verify", "--criteria", "4", "--out", out, "--force"), out, 1)

    def check(self, lib, op: Op, stdout: str) -> list[str]:
        verdicts = {}
        for line in stdout.splitlines():
            match = _PASS_LINE.match(line)
            if match:
                verdicts[int(match.group(2))] = match.group(1)
        asked = op.argv[op.argv.index("--criteria") + 1]
        wanted = set(range(1, 13)) if asked == "all" else {int(c) for c in asked.split(",")}
        problems = [f"criterion {n} missing" for n in sorted(wanted - set(verdicts))]
        problems += [f"criterion {n} failed" for n, v in sorted(verdicts.items()) if v != "PASS"]
        return problems


WORKLOADS = {cls.name: cls for cls in (Atlas, Raster, Entropy, Verify)}

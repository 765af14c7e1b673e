"""Command line front end.

Each subcommand maps onto one library call and writes PGM or CSV artifacts.
A run is described by a flat RunConfig; values resolve in the order
built-in defaults, then a key=value config file, then explicit flags. A
command takes as flags only the fields it reads (``_READS``), typed by
RunConfig's hints, so a flag it would ignore is a usage error; a config
file may set any field once, and the fields the command does not read are
named on stderr.
Every command is deterministic given its config: sampling is always seeded,
artifact writers are timestamp-free, and files land atomically (temp file
plus rename). Existing outputs are only replaced under --force, and every
command checks every output path it will write before any work, so a
refused run writes nothing.

Exit codes: 0 success, 1 verification failure, 2 domain or usage error, or an
operating system error on a path (--out, --config).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import typing
from collections import Counter
from dataclasses import dataclass

from . import formats
from .derivatives import CONE_TABLE_HEADER, cone_table, dp_db_at_b0, dq_db_at_b0
from .errors import LoziError
from .formats import or_default
from .geometry import (
    MANIFOLD_BRANCHES,
    ZERO_ENTROPY_CODES,
    scan_zero_entropy,
    stable_manifold,
    unstable_manifold,
)
from .pruning import ENTROPY_HEADER, Params, entropy_rows, pruned_region_raster

DERIVATIVES_HEADER = (
    "a",
    "dq_db_b0",
    "dp_db_b0_plus",
    "dp_db_b0_minus",
    "a_lo",
    "a_hi",
    "b_plus_lo",
    "b_plus_hi",
    "b_minus_lo",
    "b_minus_hi",
)
ZERO_SCAN_HEADER = ("a", "b", "verdict", "witness_x", "witness_y")
MANIFOLD_HEADER = ("x", "y")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one CLI run; a config file sets its fields as
    key=value lines."""

    command: str
    a: float = 1.7
    b: float = 0.5
    depth: int = 12
    # scale knobs left as None pick up per-command defaults at dispatch
    word_len: int | None = None
    n_max: int | None = None
    arc_budget: float | None = None
    grid: int | None = None
    a_min: float | None = None
    a_max: float | None = None
    b_min: float | None = None
    b_max: float | None = None
    branch: str = "p1_right"
    criteria: str = "all"
    seed: int = 0
    out: str | None = None
    force: bool = False


# Value type of each field, for its flag and its config-file key; an
# optional field "float | None" reads as float.
_FIELD_TYPES = {
    name: (typing.get_args(hint) or (hint,))[0]
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def config_from_sources(
    command: str,
    file_settings: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> RunConfig:
    """Resolve defaults < config file < explicit overrides."""
    values: dict[str, object] = {"command": command}
    for key, raw in (file_settings or {}).items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        if key == "command":
            continue
        values[key] = formats.parse_value(raw, _FIELD_TYPES[key])
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return RunConfig(**values)


def _check_out(config: RunConfig, *suffixes: str) -> str | None:
    """The --out path, if any. Before any work it refuses a path whose
    directory does not exist and, without --force, a path that exists with
    or without any of the suffixes."""
    if config.out:
        if not os.path.isdir(os.path.dirname(config.out) or "."):
            raise FileNotFoundError(f"the directory of --out {config.out} does not exist")
        formats.refuse_overwrite([config.out + s for s in ("", *suffixes)], config.force)
    return config.out


def _require_out(config: RunConfig, *suffixes: str) -> str:
    """_check_out for a command that cannot run without --out."""
    if not config.out:
        raise ValueError(f"{config.command} requires --out")
    return _check_out(config, *suffixes)


def _a_sweep(config: RunConfig, lo: float, hi: float, grid: int) -> list[float]:
    """grid points over the half-open interval (lo, hi], right endpoint kept."""
    if grid < 1:
        raise ValueError("grid must be positive")
    a_lo = or_default(config.a_min, lo)
    a_hi = or_default(config.a_max, hi)
    step = (a_hi - a_lo) / grid
    return [a_lo + (k + 1) * step for k in range(grid)]


def cmd_pruned_region(config: RunConfig) -> int:
    """Classify every two-sided cylinder and write the verdict raster."""
    out = _require_out(config, ".txt")
    word_len = or_default(config.word_len, 8)
    raster = pruned_region_raster(Params(config.a, config.b), word_len, config.depth)
    formats.write_pgm(out, raster.cells, force=config.force)
    formats.write_sidecar(
        out + ".txt",
        {
            "a": config.a,
            "b": config.b,
            "word_len": word_len,
            "depth": config.depth,
            "width": raster.width,
            "height": raster.height,
            "pruned": raster.pruned_count,
            "admissible": raster.admissible_count,
            "unknown": raster.unknown_count,
        },
        force=config.force,
    )
    print(
        f"pruned-region: {raster.width}x{raster.height} cells, "
        f"{raster.pruned_count} pruned, {raster.admissible_count} admissible -> {out}"
    )
    return 0


def _emit_csv(config: RunConfig, header, rows) -> None:
    if config.out:
        formats.write_csv(config.out, header, rows, force=config.force)
        print(f"{config.command}: {len(rows)} rows -> {config.out}")
    else:
        sys.stdout.write(formats.csv_bytes(header, rows).decode("utf-8"))


def cmd_entropy(config: RunConfig) -> int:
    _check_out(config)
    rows = entropy_rows(Params(config.a, config.b), or_default(config.n_max, 12), config.depth)
    _emit_csv(config, ENTROPY_HEADER, rows)
    return 0


def cmd_derivatives(config: RunConfig) -> int:
    """Closed-form derivative anchors and two-sided bound intervals per slope."""
    _check_out(config)
    rows = [
        (
            a,
            dq_db_at_b0(a),
            dp_db_at_b0(a, +1),
            dp_db_at_b0(a, -1),
            *bounds,  # lo/hi of d_a, d_b at eps_-2 = +1, d_b at eps_-2 = -1
        )
        for a, *bounds, _n1, _n2 in cone_table(
            _a_sweep(config, 1.2, 2.0, or_default(config.grid, 32))
        )
    ]
    _emit_csv(config, DERIVATIVES_HEADER, rows)
    return 0


def cmd_cones(config: RunConfig) -> int:
    _check_out(config)
    rows = cone_table(_a_sweep(config, 1.2, 2.0, or_default(config.grid, 32)))
    _emit_csv(config, CONE_TABLE_HEADER, rows)
    return 0


def cmd_zero_scan(config: RunConfig) -> int:
    """Verdict-coded raster over a parameter rectangle plus a CSV listing."""
    out = _require_out(config, ".txt", ".csv")
    a_range = (or_default(config.a_min, 0.0), or_default(config.a_max, 2.5))
    b_range = (or_default(config.b_min, 0.0), or_default(config.b_max, 1.0))
    resolution = or_default(config.grid, 64)
    arc_budget = or_default(config.arc_budget, 20.0)
    scan = scan_zero_entropy(a_range, b_range, resolution, arc_budget)
    formats.write_pgm(out, scan.codes, force=config.force)
    formats.write_sidecar(
        out + ".txt",
        {
            "a_min": a_range[0],
            "a_max": a_range[1],
            "b_min": b_range[0],
            "b_max": b_range[1],
            "resolution": resolution,
            "arc_budget": arc_budget,
            "row0_is_b_min": True,
        },
        force=config.force,
    )
    rows = [(a, b, v.label, *(v.witness or (None, None))) for a, b, v in scan.pixels]
    formats.write_csv(out + ".csv", ZERO_SCAN_HEADER, rows, force=config.force)
    labels = Counter(v.label for _, _, v in scan.pixels)
    counts = {name: labels[name] for name in ZERO_ENTROPY_CODES if name in labels}
    print(f"zero-scan: {resolution}x{resolution} pixels {counts} -> {out}")
    return 0


def cmd_manifolds(config: RunConfig) -> int:
    """Dump one manifold branch as a vertex CSV for external plotting."""
    out = _require_out(config, ".txt")
    params = Params(config.a, config.b)
    arc_budget = or_default(config.arc_budget, 50.0)
    if config.branch not in MANIFOLD_BRANCHES:
        raise ValueError(f"branch must be one of {', '.join(MANIFOLD_BRANCHES)}")
    _, inverse, _, _ = MANIFOLD_BRANCHES[config.branch]
    grow = stable_manifold if inverse else unstable_manifold
    line = grow(params, seed=config.branch, arc_budget=arc_budget)
    formats.write_csv(out, MANIFOLD_HEADER, line.vertices, force=config.force)
    formats.write_sidecar(
        out + ".txt",
        {
            "a": config.a,
            "b": config.b,
            "branch": config.branch,
            "kind": line.kind,
            "truncated": line.truncated,
            "arc_length": line.arc_length,
            "arc_budget": arc_budget,
            "vertices": len(line.vertices),
        },
        force=config.force,
    )
    print(
        f"manifolds: {config.branch} ({line.kind}), {len(line.vertices)} vertices, "
        f"arc {line.arc_length:.6g}{' (truncated)' if line.truncated else ''} -> {out}"
    )
    return 0


def cmd_verify(config: RunConfig) -> int:
    """Run the acceptance checks; nonzero exit when any fail."""
    from . import verify

    report_path = os.path.join(config.out, "report.txt") if config.out else None
    if report_path:
        formats.refuse_overwrite([*verify.output_paths(config), report_path], config.force)
    results = verify.run_checks(config)
    report = "".join(
        f"{'PASS' if r.passed else 'FAIL'} criterion {r.index} ({r.name}): {r.detail}\n"
        for r in results
    )
    sys.stdout.write(report)
    if report_path:
        formats.atomic_write_text(report_path, report, force=config.force)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "pruned-region": cmd_pruned_region,
    "entropy": cmd_entropy,
    "derivatives": cmd_derivatives,
    "cones": cmd_cones,
    "zero-scan": cmd_zero_scan,
    "manifolds": cmd_manifolds,
    "verify": cmd_verify,
}


# The RunConfig fields each command reads, and so takes as flags, besides
# --config, --out and --force; a config file may set any field.
_READS = {
    "pruned-region": ("a", "b", "word_len", "depth"),
    "entropy": ("a", "b", "n_max", "depth"),
    "derivatives": ("grid", "a_min", "a_max"),
    "cones": ("grid", "a_min", "a_max"),
    "zero-scan": ("grid", "a_min", "a_max", "b_min", "b_max", "arc_budget"),
    "manifolds": ("a", "b", "branch", "arc_budget"),
    "verify": ("criteria", "seed", "depth", "word_len", "n_max", "grid", "arc_budget"),
}

# The help line of each flag that takes a value.
_HELP = {
    "a": "slope parameter",
    "b": "fold parameter",
    "word_len": "symbols per side",
    "depth": "series truncation depth",
    "n_max": "largest block length",
    "arc_budget": "manifold arc threshold: growth stops after the first pass that reaches"
    " it, so the arc can exceed it by a factor of up to about 1 + mu^2",
    "grid": "sweep points / scan resolution",
    "a_min": "sweep lower a",
    "a_max": "sweep upper a",
    "b_min": "sweep lower b",
    "b_max": "sweep upper b",
    "branch": "manifold branch seed",
    "criteria": "comma list of criteria numbers, or 'all'",
    "seed": "seed for any sampling",
    "out": "output path (directory for verify)",
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which reports arguments it does not take itself,
    under its own usage line, where argparse would hand them back to the
    root parser. It reads every argument that starts with "-" and a digit,
    or "-." and a digit, as a value: argparse's own pattern takes -0.5 but
    not -1e-05 for a number, and would refuse "--a-min -1e-05", the float
    repr of a small negative a, as a flag without its value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


# Built once per process: parsing reads the parser and never changes it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lozi",
        description="Pruning-front and plane-geometry toolkit for the piecewise"
        " affine horseshoe family.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name in _COMMANDS:
        # No prefix matching: verify would read --a as --arc-budget.
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="flat key=value settings file")
        for field in (*_READS[name], "out"):
            flag = "--" + field.replace("_", "-")
            sp.add_argument(flag, type=_FIELD_TYPES[field], help=_HELP[field])
        sp.add_argument("--force", action="store_true", default=None, help="overwrite outputs")
    return parser


def _report_unread(path: str, command: str, file_settings: dict[str, str]) -> None:
    """One stderr line naming the keys of the config file that the command
    does not read. They are not an error, so one file can serve several
    commands."""
    read = ("command", *_READS[command], "out", "force")
    unread = [key for key in file_settings if key not in read]
    if unread:
        print(f"warning: {path}: {command} does not read {', '.join(unread)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config")
    }
    try:
        file_settings = {}
        if args.config:
            file_settings = formats.read_config(args.config, _FIELD_TYPES)
            _report_unread(args.config, args.command, file_settings)
        config = config_from_sources(args.command, file_settings, overrides)
        return _COMMANDS[args.command](config)
    except LoziError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

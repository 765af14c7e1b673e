"""Deterministic artifact writers: binary PGM rasters, CSV tables, flat
key=value config files.

Identical inputs must produce byte-identical files, so nothing here records
timestamps, hostnames, or versions, line endings are pinned to "\\n", and
floats are rendered with repr (the shortest string that parses back to the
same double).
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from collections.abc import Iterable, Mapping, Sequence

import numpy as np


def format_value(x: object) -> str:
    """Canonical text for one cell: round-trip floats, plain ints, str as-is.

    None becomes the empty string and NaN becomes "nan" so optional columns
    stay greppable.
    """
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    if math.isnan(f):
        return "nan"
    return repr(f)


def parse_value(text: str, kind: type) -> object:
    """Inverse of format_value for the scalar kinds config files carry."""
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError(f"expected true/false, got {text!r}")
        return text == "true"
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    return text


def or_default(value, default):
    """value, or default when value is None: how an unset config knob
    resolves to a command's own default."""
    return default if value is None else value


def refuse_overwrite(paths: Iterable[str], force: bool) -> None:
    """Raise FileExistsError for the first path that is a directory, or that
    exists while force is not set: the one rule for replacing an artifact."""
    for path in map(os.fspath, paths):
        if os.path.isdir(path):
            raise FileExistsError(f"{path} is a directory; no artifact can replace it")
        if os.path.exists(path) and not force:
            raise FileExistsError(f"{path} exists; pass force to overwrite")


def atomic_write_bytes(path: str, data: bytes, force: bool = False) -> None:
    """Write via a temp file in the target directory plus rename.

    Readers never observe a half-written file, and an existing file is only
    replaced when force is set.
    """
    path = os.fspath(path)
    refuse_overwrite([path], force)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.chmod(tmp, 0o644)  # mkstemp creates 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str, force: bool = False) -> None:
    atomic_write_bytes(path, text.encode("utf-8"), force=force)


def pgm_bytes(cells: np.ndarray) -> bytes:
    """Binary (P5) PGM for a uint8 grid; row 0 is the top scanline."""
    grid = np.asarray(cells)
    if grid.ndim != 2:
        raise ValueError("PGM needs a 2d grid")
    if grid.dtype != np.uint8:
        if grid.min() < 0 or grid.max() > 255:
            raise ValueError("cell values outside 0..255")
        grid = grid.astype(np.uint8)
    height, width = grid.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    # The one copy of the grid is the join itself.
    return b"".join((header, np.ascontiguousarray(grid)))


def write_pgm(path: str, cells: np.ndarray, force: bool = False) -> None:
    atomic_write_bytes(path, pgm_bytes(cells), force=force)


def read_pgm(path: str) -> np.ndarray:
    """Parse a P5 file written by write_pgm back into a uint8 grid."""
    with open(path, "rb") as handle:
        data = handle.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError("not a maxval-255 P5 file")
    width, height = int(fields[1]), int(fields[2])
    raster = data[pos + 1 :]
    if len(raster) != width * height:
        raise ValueError("raster size does not match header")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def sidecar_text(entries: Mapping[str, object]) -> str:
    """key=value block recording how an artifact was generated."""
    lines = [f"{key}={format_value(value)}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def write_sidecar(path: str, entries: Mapping[str, object], force: bool = False) -> None:
    atomic_write_text(path, sidecar_text(entries), force=force)


def csv_bytes(header: Sequence[str], rows: Iterable[Sequence[object]]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([format_value(cell) for cell in row])
    return buffer.getvalue().encode("utf-8")


def write_csv(
    path: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    force: bool = False,
) -> None:
    atomic_write_bytes(path, csv_bytes(header, rows), force=force)


def read_config(path: str) -> dict[str, str]:
    """Flat key=value file: one setting per line, # starts a comment."""
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings

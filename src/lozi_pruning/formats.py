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
import stat
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
    exists while force is not set: the one rule for replacing an artifact.
    Any other error of looking a path up, such as a name too long, raises
    as it is, so a path no artifact can take is refused before any work."""
    for path in map(os.fspath, paths):
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            continue
        if stat.S_ISDIR(mode):
            raise FileExistsError(f"{path} is a directory; no artifact can replace it")
        if not force:
            raise FileExistsError(f"{path} exists; pass force to overwrite")


def _write_all(handle, chunk) -> None:
    """Write one C-contiguous bytes-like chunk to a raw file, which may take
    only a part of it per call."""
    with memoryview(chunk) as view:
        done = handle.write(view)
        while done < view.nbytes:
            done += handle.write(view.cast("B")[done:])


def atomic_write_bytes(path: str, chunks: Iterable, force: bool = False) -> None:
    """Write the bytes-like chunks, in order, via a temp file in the target
    directory plus rename.

    Readers never observe a half-written file, and an existing file is only
    replaced when force is set.  The file is unbuffered, so each chunk goes
    from its own buffer to the file without a copy.
    """
    path = os.fspath(path)
    refuse_overwrite([path], force)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with open(fd, "wb", buffering=0) as handle:
            for chunk in chunks:
                _write_all(handle, chunk)
        os.chmod(tmp, 0o644)  # mkstemp creates 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str, force: bool = False) -> None:
    atomic_write_bytes(path, (text.encode("utf-8"),), force=force)


def write_pgm(path: str, cells: np.ndarray, force: bool = False) -> None:
    """Binary (P5) PGM for a uint8 grid; row 0 is the top scanline.  A
    C-contiguous uint8 grid is written from its own buffer."""
    grid = np.asarray(cells)
    if grid.ndim != 2:
        raise ValueError("PGM needs a 2d grid")
    if grid.dtype != np.uint8:
        if grid.min() < 0 or grid.max() > 255:
            raise ValueError("cell values outside 0..255")
        grid = grid.astype(np.uint8)
    height, width = grid.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    atomic_write_bytes(path, (header, np.ascontiguousarray(grid)), force=force)


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
    # A view of the file's bytes past the header: no second copy.
    if len(data) - (pos + 1) != width * height:
        raise ValueError("raster size does not match header")
    return np.frombuffer(data, dtype=np.uint8, offset=pos + 1).reshape(height, width)


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
    atomic_write_bytes(path, (csv_bytes(header, rows),), force=force)


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

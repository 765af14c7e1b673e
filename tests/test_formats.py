"""Artifact writer tests: byte determinism, round-trip exactness, overwrite
protection."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from lozi_pruning import formats


# ------------------------------------------------------------- value text


def test_format_value_floats_round_trip():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 0.0, -0.0, 3.0):
        assert float(formats.format_value(x)) == x


def test_format_value_scalar_kinds():
    assert formats.format_value(None) == ""
    assert formats.format_value("verdict") == "verdict"
    assert formats.format_value(True) == "true"
    assert formats.format_value(False) == "false"
    assert formats.format_value(42) == "42"
    assert formats.format_value(np.int64(7)) == "7"
    assert formats.format_value(math.nan) == "nan"


def test_parse_value_inverts_format():
    assert formats.parse_value("true", bool) is True
    assert formats.parse_value("false", bool) is False
    with pytest.raises(ValueError):
        formats.parse_value("yes", bool)
    assert formats.parse_value("17", int) == 17
    assert formats.parse_value(formats.format_value(1.0 / 3.0), float) == 1.0 / 3.0
    assert formats.parse_value("plain", str) == "plain"


# ------------------------------------------------------------ atomic write


def test_atomic_write_refuses_overwrite(tmp_path):
    target = tmp_path / "out.bin"
    formats.atomic_write_bytes(str(target), (b"first",))
    with pytest.raises(FileExistsError):
        formats.atomic_write_bytes(str(target), (b"second",))
    assert target.read_bytes() == b"first"
    formats.atomic_write_bytes(str(target), (b"sec", b"ond"), force=True)
    assert target.read_bytes() == b"second"


def test_atomic_write_finishes_short_raw_writes(tmp_path, monkeypatch):
    # A raw write may take only part of a chunk; the rest is written after.
    class Trickle:
        def __init__(self, handle):
            self.handle = handle

        def write(self, data):
            with memoryview(data) as view:
                return self.handle.write(view.cast("B")[:5])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

    monkeypatch.setattr(formats, "open", lambda *a, **k: Trickle(open(*a, **k)), raising=False)
    grid = np.arange(24, dtype=np.uint8).reshape(4, 6)
    formats.atomic_write_bytes(str(tmp_path / "t.bin"), (b"head:", b"", grid))
    assert (tmp_path / "t.bin").read_bytes() == b"head:" + grid.tobytes()


def test_refuse_overwrite_refuses_a_directory_even_with_force(tmp_path):
    formats.refuse_overwrite([tmp_path / "absent"], force=False)
    with pytest.raises(FileExistsError, match="is a directory"):
        formats.refuse_overwrite([tmp_path], force=True)
    with pytest.raises(FileExistsError, match="is a directory"):
        formats.atomic_write_bytes(str(tmp_path), (b"x",), force=True)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_no_temp_files(tmp_path):
    formats.atomic_write_text(str(tmp_path / "a.txt"), "hello\n")
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
    assert leftovers == []


# -------------------------------------------------------------------- pgm


def test_pgm_round_trip(tmp_path):
    grid = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = str(tmp_path / "g.pgm")
    formats.write_pgm(path, grid)
    back = formats.read_pgm(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, grid)


def _pgm_file(tmp_path, cells) -> bytes:
    path = tmp_path / "g.pgm"
    formats.write_pgm(str(path), cells, force=True)
    return path.read_bytes()


def test_pgm_header_layout(tmp_path):
    data = _pgm_file(tmp_path, np.zeros((2, 5), dtype=np.uint8))
    assert data.startswith(b"P5\n5 2\n255\n")
    assert len(data) == len(b"P5\n5 2\n255\n") + 10


def test_pgm_rejects_bad_grids(tmp_path):
    with pytest.raises(ValueError):
        formats.write_pgm(str(tmp_path / "a.pgm"), np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        formats.write_pgm(str(tmp_path / "b.pgm"), np.array([[300, 0]]))
    assert list(tmp_path.iterdir()) == []
    # An in-range grid of another dtype is written as its uint8 values.
    assert _pgm_file(tmp_path, np.array([[255, 0]])) == b"P5\n2 1\n255\n\xff\x00"


def test_pgm_bytes_deterministic(tmp_path):
    grid = np.array([[0, 128], [255, 1]], dtype=np.uint8)
    assert _pgm_file(tmp_path, grid) == _pgm_file(tmp_path, grid.copy())


def test_pgm_bytes_of_strided_views(tmp_path):
    grid = np.arange(35, dtype=np.uint8).reshape(5, 7)
    for view in (grid.T, grid[:, ::-1], grid[::2, 1::3]):
        assert _pgm_file(tmp_path, view) == _pgm_file(tmp_path, view.copy())


def _traced_peak(fn, *args, **kwargs):
    """fn's result and the tracemalloc peak of the call, in bytes above
    what was traced when it started."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def test_write_pgm_copies_no_grid(tmp_path):
    # The grid goes from its own buffer to the file, so the peak does not
    # grow with the grid: joining the header to it in one bytes object
    # would add the 4 MiB grid.  The fixed part, about 1 KiB, is mostly the
    # temp file's name handling and grows with the directory's name.
    grid = np.full((2048, 2048), 128, dtype=np.uint8)
    header = b"P5\n2048 2048\n255\n"
    path = str(tmp_path / "g.pgm")
    formats.write_pgm(path, grid[:1])  # first-call setup of the temp names
    _, one_row = _traced_peak(formats.write_pgm, path, grid[:1], force=True)
    _, peak = _traced_peak(formats.write_pgm, path, grid, force=True)
    with open(path, "rb") as handle:
        assert handle.read(len(header)) == header
    assert os.path.getsize(path) == len(header) + grid.nbytes
    assert peak <= one_row + len(header) + 1024
    assert peak <= len(header) + 2048


def test_read_pgm_copies_the_grid_once(tmp_path):
    # The grid is a view of the file's bytes; slicing the raster out of
    # them would hold a second 4 MiB copy.
    grid = np.full((2048, 2048), 128, dtype=np.uint8)
    path = str(tmp_path / "g.pgm")
    formats.write_pgm(path, grid)
    back, peak = _traced_peak(formats.read_pgm, path)
    assert np.array_equal(back, grid)
    assert peak <= grid.nbytes + 64 * 1024


# -------------------------------------------------------------------- csv


def test_csv_round_trip_exact(tmp_path):
    rows = [(1.0 / 3.0, -1, "yes"), (2.5e-17, 7, "no")]
    path = str(tmp_path / "t.csv")
    formats.write_csv(path, ("x", "k", "tag"), rows)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "x,k,tag"
    for line, (x, k, tag) in zip(lines[1:], rows):
        fx, fk, ftag = line.split(",")
        assert float(fx) == x and int(fk) == k and ftag == tag


def test_csv_none_becomes_empty():
    data = formats.csv_bytes(("a", "w"), [(1.5, None)])
    assert data == b"a,w\n1.5,\n"


# ------------------------------------------------------------ config file


def test_read_config_parses_and_strips(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# settings\n"
        "a = 1.7\n"
        "word_len=8   # trailing comment\n"
        "\n"
        "out=/tmp/x.pgm\n"
    )
    assert formats.read_config(str(path)) == {
        "a": "1.7",
        "word_len": "8",
        "out": "/tmp/x.pgm",
    }


def test_read_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ValueError):
        formats.read_config(str(path))


def test_sidecar_preserves_order_and_values():
    text = formats.sidecar_text({"a": 1.7, "flag": True, "n": 12})
    assert text == "a=1.7\nflag=true\nn=12\n"

"""Command line tests: config resolution, artifact content, determinism,
error exit codes. Commands run in process through main()."""

import dataclasses
import functools
import hashlib
import importlib.util
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lozi_pruning
from lozi_pruning import cli, formats, geometry, pruning, verify
from lozi_pruning.cli import (
    ENTROPY_HEADER,
    RunConfig,
    config_from_sources,
    entropy_rows,
    main,
)
from lozi_pruning.derivatives import CONE_TABLE_HEADER, dq_db_at_b0
from lozi_pruning.errors import BudgetExceeded, NotInvariant
from lozi_pruning.geometry import MANIFOLD_BRANCHES, ZERO_ENTROPY_CODES, fixed_data
from lozi_pruning.derivatives import fd_derivative
from lozi_pruning.pruning import (
    PGM_ADMISSIBLE,
    PGM_PRUNED,
    PGM_UNKNOWN,
    Params,
    closed_form_q,
    eval_p,
    eval_q,
    pruned_region_raster,
    special_head,
)
from lozi_pruning.symbolic import MINUS, coordinate_symbols, symbol_axes


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------- config layer


def test_config_precedence_defaults_file_flags():
    cfg = config_from_sources(
        "entropy",
        file_settings={"a": "2.0", "n_max": "9"},
        overrides={"a": 2.1, "out": None},
    )
    assert cfg.a == 2.1          # flag beats file
    assert cfg.n_max == 9        # file beats default
    assert cfg.b == 0.5          # untouched default
    assert cfg.out is None


def test_main_calls_share_no_flags(monkeypatch):
    # The parser is built once per process; each call still resolves its
    # own RunConfig from its own arguments.
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "entropy", lambda config: seen.append(config) or 0)
    assert main(["entropy", "--a", "1.9", "--force", "--n-max", "3"]) == 0
    assert main(["entropy"]) == 0
    assert seen == [RunConfig("entropy", a=1.9, n_max=3, force=True), RunConfig("entropy")]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["pruned-region", "--help"]])
def test_help_repeats_unchanged(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        texts.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(argv)  # a parser of its own
    assert texts[0] == texts[1] == capsys.readouterr().out != ""


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        config_from_sources("entropy", file_settings={"alpha": "1"})


def test_config_serializes_round_trip(tmp_path):
    cfg = RunConfig(command="zero-scan", grid=6, out="/tmp/z.pgm", force=True)
    path = tmp_path / "run.cfg"
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    path.write_text(formats.sidecar_text({k: v for k, v in fields.items() if v is not None}))
    parsed = formats.read_config(str(path))
    rebuilt = config_from_sources(parsed.pop("command"), parsed)
    assert rebuilt == cfg


@pytest.mark.parametrize(
    "argv",
    [
        ["zero-scan", "--a", "1.7", "--b", "0.5"],
        ["entropy", "--word-len", "9"],
        ["verify", "--a", "1.9"],
        ["manifolds", "--grid", "5"],
    ],
    ids=["zero-scan", "entropy", "verify", "manifolds"],
)
def test_a_flag_the_command_does_not_read_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, argv
):
    # verify --a is not taken as a prefix of --arc-budget either. The
    # command's own parser reports the flag, under its own usage line.
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda config: pytest.fail("the command ran"))
    with pytest.raises(SystemExit) as done:
        main(argv + ["--out", str(tmp_path / "out"), "--force"])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lozi {argv[0]} ")
    assert f"lozi {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err
    assert list(tmp_path.iterdir()) == []


# Each command's flags besides --config, --out and --force: the fields its
# code reads.
COMMAND_FLAGS = {
    "pruned-region": {"--a", "--b", "--word-len", "--depth"},
    "entropy": {"--a", "--b", "--n-max", "--depth"},
    "derivatives": {"--grid", "--a-min", "--a-max"},
    "cones": {"--grid", "--a-min", "--a-max"},
    "zero-scan": {"--grid", "--a-min", "--a-max", "--b-min", "--b-max", "--arc-budget"},
    "manifolds": {"--a", "--b", "--branch", "--arc-budget"},
    "verify": {"--criteria", "--seed", "--depth", "--word-len", "--n-max", "--grid",
               "--arc-budget"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_the_command_reads(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == COMMAND_FLAGS[command] | {"--config", "--out", "--force", "--help"}


@functools.cache
def _bench_workloads():
    """bench/workloads.py, loaded from its path under a name of its own."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 14])
def test_every_benchmark_argv_sets_only_flags_its_command_takes(tmp_path, seed):
    workloads = _bench_workloads()
    for workload in workloads.WORKLOADS.values():
        job = workload()
        for op in [*job.ops(seed, str(tmp_path)), job.warmup(str(tmp_path))]:
            args = vars(cli._build_parser().parse_args(op.argv))
            given = {key for key, value in args.items() if value is not None}
            assert given <= {"command", *cli._READS[args["command"]], "out", "force"}, op.argv


# sha256 of the PGM and CSV bytes of the benchmark's atlas body, scan after
# scan, taken before each growth pass mapped its piece through both steps in
# one loop. At seed 2944 the eighth scan's --a-min is -2.4185394305589827e-05,
# which the command parser once refused; its digest was taken with the flags
# written --flag=value.
ATLAS_BODY_DIGESTS = {
    1: "f438a8eb9d83873df90614afcadbb27427a794a547ea5aba8d37f5db3f22327e",
    2944: "1b58a4c6944570b5b758c7f0bbb81abf0c72719acf9674d9e0584c531d8b0aca",
}


@pytest.mark.parametrize("seed", sorted(ATLAS_BODY_DIGESTS))
def test_atlas_body_exits_0_passes_its_check_and_keeps_its_bytes(tmp_path, capsys, seed):
    # A benchmark run fails when any call of its body exits nonzero or fails
    # the check that follows it; the body is 16 zero-scans of 10x10 pixels.
    atlas = _bench_workloads().Atlas()
    digest = hashlib.sha256()
    for op in atlas.ops(seed, str(tmp_path)):
        assert main(list(op.argv)) == 0, op.argv
        assert atlas.check(lozi_pruning, op, capsys.readouterr().out) == [], op.argv
        digest.update(Path(op.out).read_bytes())
        digest.update(Path(op.out + ".csv").read_bytes())
    assert digest.hexdigest() == ATLAS_BODY_DIGESTS[seed]


def test_a_negative_value_in_exponent_form_is_a_value():
    # float repr writes a small negative a as -1e-05, which argparse's own
    # pattern does not read as a number
    for text in ("-1e-05", "-2.5E+00", "-.5", "-3"):
        args = cli._build_parser().parse_args(["zero-scan", "--a-min", text])
        assert args.a_min == float(text)


def test_config_file_feeds_command(tmp_path):
    out = tmp_path / "r.pgm"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"a=2.0\nb=0.0\nword_len=5\ndepth=6\nout={out}\n")
    assert main(["pruned-region", "--config", str(cfg_file)]) == 0
    grid = formats.read_pgm(str(out))
    assert grid.shape == (32, 32)


def test_config_keys_the_command_does_not_read_are_named_once(tmp_path, capsys):
    # One file can serve several commands: the run is the one without the
    # unread keys, with one stderr line naming them.
    runs = {}
    for name, text in (("plain", "grid=2\n"), ("extra", "a=1.7\ngrid=2\nb=0.5\n")):
        work = tmp_path / name
        work.mkdir()
        cfg_file = work / "zs.cfg"
        cfg_file.write_text(text)
        assert main(["zero-scan", "--config", str(cfg_file), "--out", str(work / "z.pgm")]) == 0
        out, err = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.name != "zs.cfg"}
        runs[name] = (out.replace(str(work), ""), files, err)
    assert runs["extra"][:2] == runs["plain"][:2]
    assert runs["plain"][2] == ""
    assert runs["extra"][2] == (
        f"warning: {tmp_path / 'extra' / 'zs.cfg'}: zero-scan does not read a, b\n"
    )


def test_config_key_set_twice_exits_2_naming_both_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "zero-scan", lambda config: pytest.fail("the command ran"))
    cfg_file = tmp_path / "zs.cfg"
    cfg_file.write_text("grid=2\n# the same key again\ngrid=3\n")
    assert main(["zero-scan", "--config", str(cfg_file), "--out", str(tmp_path / "z")]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg_file}:3: grid is set twice, on lines 1 and 3\n"
    )


@pytest.mark.parametrize(
    "line, reason",
    [
        ("grid=", "invalid literal for int() with base 10: ''"),
        ("arc_budget = twenty", "could not convert string to float: 'twenty'"),
        ("force=yes", "expected true/false, got 'yes'"),
    ],
    ids=["empty", "unparsable", "bool"],
)
def test_config_value_that_does_not_parse_names_file_line_and_key(
    tmp_path, capsys, monkeypatch, line, reason
):
    monkeypatch.setitem(cli._COMMANDS, "zero-scan", lambda config: pytest.fail("the command ran"))
    cfg_file = tmp_path / "zs.cfg"
    cfg_file.write_text(f"a_min=0.5\n{line}\n")
    key = line.split("=")[0].strip()
    assert main(["zero-scan", "--config", str(cfg_file), "--out", str(tmp_path / "z")]) == 2
    assert capsys.readouterr().err == f"error: {cfg_file}:2: {key}: {reason}\n"


# --------------------------------------------------------- pruned region


def test_pruned_region_blank_at_full_slope(tmp_path):
    out = tmp_path / "blank.pgm"
    code = main(
        ["pruned-region", "--a", "2", "--b", "0", "--word-len", "6",
         "--depth", "8", "--out", str(out)]
    )
    assert code == 0
    grid = formats.read_pgm(str(out))
    assert np.all(grid == PGM_ADMISSIBLE)
    sidecar = formats.read_config(str(out) + ".txt")
    assert sidecar["pruned"] == "0"


def test_pruned_region_nonempty_inside_front(tmp_path):
    out = tmp_path / "front.pgm"
    assert main(
        ["pruned-region", "--a", "1.7", "--b", "0.5", "--word-len", "6",
         "--depth", "8", "--out", str(out)]
    ) == 0
    grid = formats.read_pgm(str(out))
    assert np.count_nonzero(grid == PGM_PRUNED) > 0


def test_pruned_region_sidecar_counts_every_cell(tmp_path):
    out = tmp_path / "front.pgm"
    assert main(
        ["pruned-region", "--a", "1.7", "--b", "0.5", "--word-len", "6",
         "--depth", "8", "--out", str(out)]
    ) == 0
    side = formats.read_config(str(out) + ".txt")
    grid = formats.read_pgm(str(out))
    assert int(side["unknown"]) == np.count_nonzero(grid == PGM_UNKNOWN) > 0
    counted = sum(int(side[k]) for k in ("pruned", "admissible", "unknown"))
    assert counted == int(side["width"]) * int(side["height"]) == grid.size


def test_pruned_region_identical_config_identical_bytes(tmp_path):
    args = ["pruned-region", "--a", "1.7", "--b", "0.5", "--word-len", "5",
            "--depth", "6", "--force"]
    outs = []
    for name in ("one.pgm", "two.pgm"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# sha256 of the PGM, the sidecar and stdout at word_len 11, depth 12, out
# r.pgm; taken when the counts still came from scans of the cells.
PRUNED_REGION_DIGESTS = {
    ("2", "0"): (
        "2fecf5e4c0d35b643dec0dda4cc99c7fbb359f6912ad3c293a58b1cf025c3fb1",
        "64a98c247e9987b5b36e253d263c93d853bf928ff8b5901394ad1a6c480af2e2",
        "f93ae86a03a51ea0c5f2a0bef096618d28d573da9d15c76f8be773a5b80c3bf7",
    ),
    ("1.7", "0.5"): (
        "a3edb7e5c84c5e1d1fc0b81ad58cf403c079d46629dd4a4b896698c22611ef31",
        "2f3a39a0e1be7422a77ddf51f79fc6d1d419528a0791f8350d68ae93737b1b3b",
        "e027ad2d1a90aa1fb38f0036e9fde32e526c2eb0b4836335455e11e37e00d95c",
    ),
    ("1.8", "-0.4"): (
        "03b75830a17a39fa43f01bcbf5e7c39ff6a758962e8f74a488c132da9609c9cc",
        "c58ade884316c0f089e71dd6723bfe9bb5b4230caaf277a41742e04e46e27445",
        "dbf47834c13ebb9a3d5064209006cca6f8a456e267a6d38e27fbccaa5e92fec0",
    ),
}


@pytest.mark.parametrize("a, b", sorted(PRUNED_REGION_DIGESTS))
def test_pruned_region_artifacts_are_pinned(tmp_path, monkeypatch, capsys, a, b):
    monkeypatch.chdir(tmp_path)
    argv = ["pruned-region", "--a", a, "--b", b, "--word-len", "11", "--depth", "12"]
    assert main([*argv, "--out", "r.pgm"]) == 0
    got = (
        hashlib.sha256((tmp_path / "r.pgm").read_bytes()).hexdigest(),
        hashlib.sha256((tmp_path / "r.pgm.txt").read_bytes()).hexdigest(),
        hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    )
    assert got == PRUNED_REGION_DIGESTS[a, b]


def test_pruned_region_requires_force_to_overwrite(tmp_path, capsys):
    out = tmp_path / "r.pgm"
    args = ["pruned-region", "--a", "1.7", "--b", "0.5", "--word-len", "4",
            "--depth", "5", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 2
    assert "force" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


# Each file-writing command: its arguments, its --out name, one path it
# writes, and the cli name of the call that does its work.
_WRITERS = pytest.mark.parametrize(
    "argv, out, present, work",
    [
        (["pruned-region", "--a", "1.7", "--b", "0.5", "--word-len", "3"],
         "front.pgm", "front.pgm.txt", "pruned_region_raster"),
        (["zero-scan", "--grid", "2"], "atlas.pgm", "atlas.pgm.csv", "scan_zero_entropy"),
        (["manifolds", "--a", "1.4", "--b", "0.3"], "w.csv", "w.csv.txt", "unstable_manifold"),
        (["entropy", "--a", "1.7", "--b", "0.2", "--n-max", "6"], "e.csv", "e.csv",
         "entropy_rows"),
        (["derivatives", "--grid", "2"], "d.csv", "d.csv", "cone_table"),
        (["cones", "--grid", "2"], "c.csv", "c.csv", "cone_table"),
    ],
    ids=["pruned-region", "zero-scan", "manifolds", "entropy", "derivatives", "cones"],
)


def _refuse_work(monkeypatch, work):
    def refused(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output check")

    monkeypatch.setattr(cli, work, refused)


@_WRITERS
def test_refused_output_set_is_left_as_it_was(tmp_path, capsys, monkeypatch, argv, out,
                                              present, work):
    # Every path a command writes is checked before any work: with one of
    # them present and no --force, it exits 2 without computing or writing.
    (tmp_path / present).write_text("stale\n")
    _refuse_work(monkeypatch, work)
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    assert "force" in capsys.readouterr().err
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {present: "stale\n"}


@_WRITERS
def test_output_in_a_missing_directory_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv, out, present, work
):
    # The error names the --out path, not the temp file of a late write, and
    # nothing is created, --force or not.
    _refuse_work(monkeypatch, work)
    for force in ([], ["--force"]):
        assert main(argv + ["--out", str(tmp_path / "missing" / out)] + force) == 2
        err = capsys.readouterr().err
        assert out in err and "does not exist" in err and ".tmp-artifact" not in err
    assert list(tmp_path.iterdir()) == []


@_WRITERS
def test_output_naming_a_directory_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv, out, present, work
):
    # No artifact can replace a directory, so even --force exits 2 before
    # any work, names the directory, and leaves nothing behind.
    adir = tmp_path / "adir"
    adir.mkdir()
    _refuse_work(monkeypatch, work)
    assert main(argv + ["--out", str(adir), "--force"]) == 2
    err = capsys.readouterr().err
    assert str(adir) in err and "directory" in err and ".tmp-artifact" not in err
    assert list(tmp_path.iterdir()) == [adir] and list(adir.iterdir()) == []


def test_an_out_name_too_long_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # The lookup of a 300-byte name fails before the rows are computed: one
    # error line and exit 2, not a traceback from the final rename.
    monkeypatch.chdir(tmp_path)
    _refuse_work(monkeypatch, "entropy_rows")
    argv = ["entropy", "--a", "1.7", "--b", "0.2", "--n-max", "3", "--out", "x" * 300 + ".csv"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_config_path_naming_a_directory_exits_2(tmp_path, capsys):
    assert main(["entropy", "--config", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_pruned_region_rejects_nonhyperbolic(capsys):
    code = main(["pruned-region", "--a", "1.2", "--b", "0.5",
                 "--out", "/tmp/never-written.pgm"])
    assert code == 2
    assert "NotHyperbolic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["pruned-region", "--a", "inf", "--b", "0.5", "--word-len", "2"],
        ["entropy", "--a", "inf", "--b", "0", "--n-max", "3"],
    ],
    ids=["pruned-region", "entropy"],
)
def test_nonfinite_parameters_exit_2_and_write_nothing(tmp_path, capsys, argv):
    # An infinite a passes a > 1 + |b| but describes no map.
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "NotHyperbolic" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_pruned_region_budget_error_propagates(capsys):
    code = main(["pruned-region", "--a", "1.7", "--b", "0.5",
                 "--word-len", "12", "--out", "/tmp/never-written.pgm"])
    assert code == 2
    assert "BudgetExceeded" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["-1", "-3"])
def test_pruned_region_rejects_negative_depth(tmp_path, capsys, depth):
    out = tmp_path / "r.pgm"
    assert main(["pruned-region", "--a", "1.7", "--b", "0.5", "--word-len", "2",
                 "--depth", depth, "--out", str(out)]) == 2
    assert "depth" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError):
        pruned_region_raster(Params(1.7, 0.5), 2, -1)


def test_pruned_region_accepts_depth_zero(tmp_path):
    out = tmp_path / "r.pgm"
    assert main(["pruned-region", "--a", "1.7", "--b", "0.5", "--word-len", "2",
                 "--depth", "0", "--out", str(out)]) == 0


def test_pruned_region_requires_out(capsys):
    assert main(["pruned-region", "--a", "1.7", "--b", "0.5"]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("a, b", [(1.83, -0.31), (1.62, 0.27)])
def test_pruned_region_sidecar_counts_match_pgm(tmp_path, capsys, a, b):
    # The benchmark's raster check: the sidecar counts are the codes read
    # back from the PGM, at the benchmark's word length and depth.
    out = tmp_path / "r.pgm"
    assert main(["pruned-region", "--a", repr(a), "--b", repr(b), "--word-len", "11",
                 "--depth", "12", "--out", str(out)]) == 0
    grid = formats.read_pgm(str(out))
    side = formats.read_config(str(out) + ".txt")
    counts = {
        name: int(np.count_nonzero(grid == code))
        for name, code in (("pruned", PGM_PRUNED), ("admissible", PGM_ADMISSIBLE),
                           ("unknown", PGM_UNKNOWN))
    }
    assert {name: int(side[name]) for name in counts} == counts
    assert min(counts.values()) > 0
    assert f"{counts['pruned']} pruned, {counts['admissible']} admissible" in (
        capsys.readouterr().out
    )


# ---------------------------------------------------------------- entropy


def test_entropy_stdout_matches_library(capsys):
    assert main(["entropy", "--a", "2.0", "--b", "0.05", "--n-max", "8",
                 "--depth", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(ENTROPY_HEADER)
    assert len(lines) == 9
    last = lines[-1].split(",")
    h_lo, h_hi = entropy_rows(Params(2.0, 0.05), 8, 10)[-1][-2:]
    assert float(last[-2]) == h_lo and float(last[-1]) == h_hi
    assert h_lo <= math.log(2.0) <= h_hi


def test_entropy_rows_reproduce_estimate_at_each_length():
    params = Params(1.8, 0.1)
    rows = entropy_rows(params, 6, 8)
    for n in range(1, 7):
        assert rows[n - 1][-2:] == entropy_rows(params, n, 8)[-1][-2:]


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_entropy_rejects_nonpositive_n_max(tmp_path, capsys, n_max):
    out = tmp_path / "e.csv"
    assert main(["entropy", "--a", "1.7", "--b", "0", "--n-max", n_max,
                 "--out", str(out)]) == 2
    assert "n_max" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError):
        entropy_rows(Params(1.7, 0.0), 0, 8)


@pytest.mark.parametrize("depth", ["-1", "-3"])
def test_entropy_rejects_negative_depth(tmp_path, capsys, depth):
    out = tmp_path / "e.csv"
    assert main(["entropy", "--a", "1.7", "--b", "0", "--n-max", "3",
                 "--depth", depth, "--out", str(out)]) == 2
    assert "depth" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError):
        entropy_rows(Params(1.7, 0.0), 3, -1)


def test_entropy_refuses_n_max_past_block_limit_before_any_sweep(tmp_path, capsys, monkeypatch):
    # n_max 21 exceeds the block budget; the refusal must come before the
    # first continued-fraction level is swept, not after the rows up to 20.
    def no_levels(*args):
        raise AssertionError("_levels called before the block budget check")

    monkeypatch.setattr(pruning, "_levels", no_levels)
    with pytest.raises(BudgetExceeded):
        entropy_rows(Params(1.7, 0.2), 21, 12)
    out = tmp_path / "e.csv"
    assert main(["entropy", "--a", "1.7", "--b", "0.2", "--n-max", "21",
                 "--depth", "12", "--out", str(out)]) == 2
    assert "BudgetExceeded" in capsys.readouterr().err
    assert not out.exists()


def test_entropy_accepts_depth_zero(capsys):
    assert main(["entropy", "--a", "1.7", "--b", "0", "--n-max", "3",
                 "--depth", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0", "0", "0"]


# ---------------------------------------------------- derivatives / cones


def test_cones_table_header_and_endpoint(tmp_path):
    out = tmp_path / "cones.csv"
    assert main(["cones", "--grid", "8", "--out", str(out)]) == 0
    header, rows = read_csv_rows(out)
    assert header == list(CONE_TABLE_HEADER)
    assert len(rows) == 8
    assert float(rows[-1][0]) == 2.0  # sweep keeps the right endpoint
    assert float(rows[0][0]) > 1.2    # and drops the open left end


def test_derivatives_closed_forms_in_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["derivatives", "--grid", "4", "--out", str(out)]) == 0
    header, rows = read_csv_rows(out)
    for row in rows:
        a = float(row[header.index("a")])
        assert float(row[header.index("dq_db_b0")]) == dq_db_at_b0(a)
        assert float(row[header.index("dp_db_b0_plus")]) == 1.0 / a
        assert float(row[header.index("dp_db_b0_minus")]) == -1.0 / a


@pytest.mark.parametrize("command", ["cones", "derivatives"])
@pytest.mark.parametrize("grid", ["0", "-2"])
def test_sweeps_reject_nonpositive_grid(tmp_path, capsys, command, grid):
    out = tmp_path / "sweep.csv"
    assert main([command, "--grid", grid, "--out", str(out)]) == 2
    assert "grid" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------- zero scan


def test_zero_scan_csv_matches_pgm(tmp_path):
    out = tmp_path / "scan.pgm"
    assert main(
        ["zero-scan", "--grid", "4", "--a-min", "1.5", "--a-max", "2.2",
         "--b-min", "0.3", "--b-max", "0.7", "--arc-budget", "10",
         "--out", str(out)]
    ) == 0
    grid = formats.read_pgm(str(out))
    header, rows = read_csv_rows(tmp_path / "scan.pgm.csv")
    assert header == ["a", "b", "verdict", "witness_x", "witness_y"]
    assert len(rows) == 16
    for k, row in enumerate(rows):
        code = int(grid[k // 4, k % 4])
        assert ZERO_ENTROPY_CODES[row[2]] == code
        if row[2] == "homoclinic":
            # witness must be a concrete crossing point
            float(row[3]), float(row[4])
        else:
            assert row[3] == "" and row[4] == ""
    assert any(row[2] == "homoclinic" for row in rows)


def test_zero_scan_deterministic_bytes(tmp_path):
    args = ["zero-scan", "--grid", "3", "--a-min", "0.5", "--a-max", "2.0",
            "--b-min", "0.2", "--b-max", "0.8", "--arc-budget", "8", "--force"]
    blobs = []
    for name in ("s1.pgm", "s2.pgm"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes() + (tmp_path / (name + ".csv")).read_bytes())
    assert blobs[0] == blobs[1]


def test_zero_scan_outputs_pin(tmp_path, capsys):
    # PGM, CSV, sidecar and stdout of a grid whose middle row lies on b = 0,
    # where every pixel raises NonInvertible and so is unknown without a
    # witness. Digest taken before the scan returned its pixels as
    # (a, b, verdict) records.
    out = tmp_path / "scan.pgm"
    assert main(["zero-scan", "--grid", "7", "--a-min", "-1.0", "--a-max", "2.5",
                 "--b-min", "-0.5", "--b-max", "0.5", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    assert stdout == (
        "zero-scan: 7x7 pixels {'analytic_zero_ii': 10, 'numeric_zero': 2,"
        " 'homoclinic': 12, 'unknown': 25} -> OUT\n"
    )
    _, rows = read_csv_rows(tmp_path / "scan.pgm.csv")
    assert [row[1:] for row in rows[21:28]] == [["0.0", "unknown", "", ""]] * 7
    digest = hashlib.sha256()
    for path in (out, tmp_path / "scan.pgm.csv", tmp_path / "scan.pgm.txt"):
        digest.update(path.read_bytes())
    digest.update(stdout.encode())
    assert digest.hexdigest() == (
        "be7e630052fd8bf55615b7958ca947db2d2b718fe81f0f57e0500fe6662a317b"
    )


def _refuse_growth(monkeypatch):
    # Without the input rule these runs grow branches for minutes or until
    # memory runs out; here they fail at once instead.
    def no_growth(*args):
        raise AssertionError("grew a branch")

    monkeypatch.setattr(geometry, "_grow_branch", no_growth)


@pytest.mark.parametrize(
    "flags",
    [
        ["--arc-budget", "inf"],
        ["--arc-budget", "nan"],
        ["--arc-budget", "0"],
        ["--arc-budget", "-1"],
        ["--a-min", "nan"],
        ["--a-max", "inf"],
    ],
)
def test_zero_scan_rejects_bad_budget_or_range(tmp_path, capsys, monkeypatch, flags):
    _refuse_growth(monkeypatch)
    out = tmp_path / "scan.pgm"
    assert main(["zero-scan", "--grid", "4", *flags, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("budget", ["inf", "nan", "0", "-1"])
def test_manifolds_rejects_bad_arc_budget(tmp_path, capsys, monkeypatch, budget):
    _refuse_growth(monkeypatch)
    out = tmp_path / "wu.csv"
    assert main(["manifolds", "--a", "1.4", "--b", "0.3", "--branch", "p1_right",
                 "--arc-budget", budget, "--out", str(out)]) == 2
    assert "arc budget" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_manifolds_refuses_a_branch_past_the_vertex_cap(tmp_path, capsys, monkeypatch):
    # The cap patched low, so a modest budget reaches it at once.
    monkeypatch.setattr(geometry, "_MAX_VERTICES", 1000)
    out = tmp_path / "wu.csv"
    assert main(["manifolds", "--a", "1.875", "--b", "0.25", "--branch", "p1_right",
                 "--arc-budget", "1e6", "--out", str(out)]) == 2
    assert "BudgetExceeded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------- manifolds


def test_manifolds_vertex_dump(tmp_path):
    out = tmp_path / "wu.csv"
    assert main(["manifolds", "--a", "1.0", "--b", "0.5", "--branch",
                 "p1_right", "--arc-budget", "5", "--out", str(out)]) == 0
    header, rows = read_csv_rows(out)
    assert header == ["x", "y"]
    fd = fixed_data(Params(1.0, 0.5))
    assert float(rows[0][0]) == fd.p1.x and float(rows[0][1]) == fd.p1.y
    sidecar = formats.read_config(str(out) + ".txt")
    assert sidecar["kind"] == "unstable_right"
    assert sidecar["truncated"] == "false"
    arc = float(sidecar["arc_length"])
    assert 2.0 < arc < 2.5


def test_manifolds_stable_branch(tmp_path):
    out = tmp_path / "ws.csv"
    assert main(["manifolds", "--a", "1.0", "--b", "0.5", "--branch",
                 "p1_plus", "--arc-budget", "5", "--out", str(out)]) == 0
    sidecar = formats.read_config(str(out) + ".txt")
    assert sidecar["kind"] == "stable_halfline"


@pytest.mark.parametrize("branch", sorted(MANIFOLD_BRANCHES))
def test_manifolds_accepts_every_table_branch(tmp_path, branch):
    out = tmp_path / f"{branch}.csv"
    assert main(["manifolds", "--a", "1.4", "--b", "0.3", "--branch", branch,
                 "--arc-budget", "5", "--out", str(out)]) == 0
    sidecar = formats.read_config(str(out) + ".txt")
    assert sidecar["branch"] == branch
    assert sidecar["kind"] == MANIFOLD_BRANCHES[branch][3]


# sha256 of CSV + sidecar bytes of `lozi manifolds --a 1.4 --b 0.3` with the
# default arc budget, taken before points became (x, y) tuples.
MANIFOLD_DIGESTS = {
    "p1_right": "0757ab4965f4136647f55a2a8afab152080b16b0c90588a349b6c69292348d81",
    "p1_left": "adbab58a305edfb30169e9714c77cc9d89022ff4e7b372d66f06dca56e50d109",
    "p2": "1469a66fb18142a8eea8b2e1cd44ca7592f270f638e7e7af80e2cd36e2bd4801",
    "p1_plus": "f05a7309a0622f4804f718b61cd16063051b2645d5b3b1dbc5b5cbbe162e0938",
    "p1_minus": "c9d2a73d62b17c624dcd6fd00d26a4592bfd1922fa71a9c858835b8122da24b7",
}


@pytest.mark.parametrize("branch", sorted(MANIFOLD_DIGESTS))
def test_manifolds_regression_pin(tmp_path, branch):
    out = tmp_path / f"{branch}.csv"
    assert main(["manifolds", "--a", "1.4", "--b", "0.3", "--branch", branch,
                 "--out", str(out)]) == 0
    data = out.read_bytes() + (tmp_path / f"{branch}.csv.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == MANIFOLD_DIGESTS[branch]


# The same digests at (1.0, 0.5), where the 2-cycle attracts: the unstable
# branches spiral into the sink, and the homoclinic sweep's stop inside the
# sink's trapping ellipses must not reach this command.
SINK_MANIFOLD_DIGESTS = {
    "p1_right": "4f76aa13d68e1ff16a5ca957efbb38553bbcf8729175c55b424d75972235faac",
    "p1_left": "f128cb6ae1cedddff9608364a5dd8bf5d65d6411fbf29d04be4668ded18b968a",
    "p2": "547a4a8b2a7356a288255ced1fd2e123782eb042ad1c69ece962d1553a278df7",
    "p1_plus": "2f21e9029085e28473bc6f3ec5e2a9070e0d0b29d35d8fa033c77165089fd06c",
    "p1_minus": "4c7eb8b8c6aafd13f8987e380fd58a5d7d7980829f428b561d163c2cce3b74f2",
}


@pytest.mark.parametrize("branch", sorted(SINK_MANIFOLD_DIGESTS))
def test_manifolds_regression_pin_at_sink(tmp_path, branch):
    out = tmp_path / f"{branch}.csv"
    assert main(["manifolds", "--a", "1.0", "--b", "0.5", "--branch", branch,
                 "--out", str(out)]) == 0
    data = out.read_bytes() + (tmp_path / f"{branch}.csv.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SINK_MANIFOLD_DIGESTS[branch]


def test_manifolds_rejects_unknown_branch(capsys):
    assert main(["manifolds", "--branch", "p3", "--out", "/tmp/nope.csv"]) == 2
    assert "branch" in capsys.readouterr().err


# ------------------------------------------------------------ module entry


def test_module_entry_point_runs_without_warnings():
    src = str(Path(lozi_pruning.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lozi_pruning.cli",
         "entropy", "--a", "1.8", "--b", "0.1", "--n-max", "2"],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.splitlines()[0] == ",".join(ENTROPY_HEADER)


def test_package_loads_front_ends_on_first_use():
    assert lozi_pruning.RunConfig is RunConfig
    assert lozi_pruning.cli.main is main
    assert lozi_pruning.run_checks is lozi_pruning.verify.run_checks
    assert lozi_pruning.CheckResult is lozi_pruning.verify.CheckResult
    with pytest.raises(AttributeError):
        lozi_pruning.no_such_name


# ----------------------------------------------------------------- verify


def test_verify_single_criterion(tmp_path, capsys):
    assert main(["verify", "--criteria", "4", "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS criterion 4")
    report = (tmp_path / "v" / "report.txt").read_text()
    assert report == out


@pytest.mark.parametrize(
    "criteria, present", [("3,7", "entropy.csv"), ("3", "report.txt")], ids=["artifact", "report"]
)
def test_verify_refuses_an_existing_output_before_any_check(tmp_path, capsys, criteria, present):
    # One file of the output set present and no --force: exit 2 before any
    # check runs, so nothing in the directory is created or changed.
    rep = tmp_path / "rep"
    rep.mkdir()
    (rep / present).write_text("stale\n")
    argv = ["verify", "--criteria", criteria, "--word-len", "4", "--n-max", "6"]
    assert main(argv + ["--out", str(rep)]) == 2
    captured = capsys.readouterr()
    assert "force" in captured.err and captured.out == ""
    assert {p.name: p.read_text() for p in rep.iterdir()} == {present: "stale\n"}


@pytest.mark.parametrize(
    "criteria, present", [("3,7", "entropy.csv"), ("3", "report.txt")], ids=["artifact", "report"]
)
def test_verify_refuses_a_directory_output_even_with_force(tmp_path, capsys, criteria, present):
    # The output directory itself is kept, but a directory where one of its
    # files goes is refused under --force too, before any check runs.
    rep = tmp_path / "rep"
    (rep / present).mkdir(parents=True)
    argv = ["verify", "--criteria", criteria, "--word-len", "4", "--n-max", "6", "--force"]
    assert main(argv + ["--out", str(rep)]) == 2
    captured = capsys.readouterr()
    assert str(rep / present) in captured.err and captured.out == ""
    assert [p.name for p in rep.iterdir()] == [present] and not any((rep / present).iterdir())


def test_verify_reports_a_polygon_escape_as_a_failing_criterion(monkeypatch, capsys):
    # An escape is a finding of criterion 9, not a usage error: exit 1 with
    # the report line.
    def escape(params):
        raise NotInvariant("image left the polygon", witness=(1.25, -0.5), margin=-0.125)

    monkeypatch.setattr(verify, "polygon_invariance", escape)
    assert main(["verify", "--criteria", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL criterion 9 (plane-anchors):")
    assert "polygon escape margin -0.125" in captured.out and captured.err == ""


def test_verify_rejects_unknown_criterion(capsys):
    # The message names the entry it cannot read and what is valid.
    for criteria, entry in (("13", "13"), ("1,x", "x"), ("2.5", "2.5")):
        assert main(["verify", "--criteria", criteria]) == 2
        captured = capsys.readouterr()
        assert f"criterion {entry!r} does not exist (valid: 1..12 or all)" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("criteria", ["", ",", " , "])
def test_verify_rejects_empty_criteria(capsys, criteria):
    assert main(["verify", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert "criterion" in captured.err
    assert captured.out == ""


REPORT_NAMES = (
    "closed-form-series",
    "head-maximum",
    "full-slope-raster",
    "derivative-anchors",
    "bound-lemmas",
    "kneading-identities",
    "entropy-brackets",
    "upper-bound-monotone",
    "plane-anchors",
    "zero-entropy-atlas",
    "orbit-window-consistency",
    "artifact-determinism",
)


def test_verify_report_names_in_order(monkeypatch):
    # Stubs keep each check's function name, as the benchmark tracer's
    # wrappers do, so nothing expensive runs.
    for index, check in list(verify.CHECKS.items()):
        stub = functools.wraps(check)(lambda config: (True, "stub"))
        monkeypatch.setitem(verify.CHECKS, index, stub)
    results = verify.run_checks(RunConfig(command="verify"))
    assert [(r.index, r.name) for r in results] == list(enumerate(REPORT_NAMES, 1))
    assert all(r.passed and r.detail == "stub" for r in results)


# sha256 of report.txt from `lozi verify --criteria 2,4,6,9,11 --seed 3`, taken
# before the checks stopped building their own results.
VERIFY_REPORT_DIGEST = "b3337658bb78a8514c219c2fa19d8dc89ef0c24692c27ec7900843f9690e1702"


def test_verify_report_regression_pin(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--criteria", "2,4,6,9,11", "--seed", "3",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "report.txt").read_bytes()).hexdigest()
    assert digest == VERIFY_REPORT_DIGEST


def _closed_form_worst_per_point():
    """Criterion 1's worst excess over its 2,500 points built one by one in
    floats, with one eval_q call on the flat list of points."""
    points = []
    for i in range(50):
        b = -0.9 + i * (1.8 / 49)
        for j in range(50):
            points.append((1.0 + abs(b) + 0.02 + j * (1.3 / 49), b))
    a, b = np.array(points).T
    lo, hi = eval_q(np.transpose([special_head(60)]), 40, Params(a, b))
    worst = -math.inf
    for k, point in enumerate(points):
        closed = closed_form_q(Params(*point))
        worst = max(worst, lo[k] - closed, closed - hi[k])
    return float(worst)


def test_closed_form_series_worst_equals_the_per_point_loop(monkeypatch):
    # The check prints its worst excess as .3e text only, but its pass test
    # worst <= ULP_SLACK pins the float: it holds with the slack at the
    # loop's worst and fails one ulp below.
    worst = _closed_form_worst_per_point()
    config = RunConfig(command="verify")
    monkeypatch.setattr(verify, "ULP_SLACK", worst)
    passed, detail = verify.check_closed_form_series(config)
    assert passed and f"= {worst:.3e} over 2500 params" in detail
    monkeypatch.setattr(verify, "ULP_SLACK", math.nextafter(worst, -math.inf))
    assert not verify.check_closed_form_series(config)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["--criteria", "3,7", "--word-len", "4", "--n-max", "0"],
        ["--criteria", "3,8", "--word-len", "4", "--n-max", "21"],
        ["--criteria", "3,10", "--word-len", "4", "--grid", "2", "--arc-budget", "-1"],
        ["--criteria", "3,10", "--grid", "0"],
    ],
    ids=["n-max-0", "n-max-21", "arc-budget", "grid-0"],
)
def test_verify_refuses_a_scale_input_before_any_check(tmp_path, capsys, argv):
    # Criterion 3 runs first and writes its raster; an input that a later
    # selected check refuses must stop the run before that write.
    out = tmp_path / "d"
    out.mkdir()
    assert main(["verify", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert list(out.iterdir()) == []


def test_verify_ignores_the_scale_inputs_of_unselected_checks(capsys):
    assert main(["verify", "--criteria", "6", "--n-max", "0", "--grid", "0"]) == 0
    assert capsys.readouterr().out.startswith("PASS criterion 6")


def test_verify_report_regenerates_identically(tmp_path):
    assert main(["verify", "--criteria", "3", "--word-len", "4",
                 "--out", str(tmp_path / "v")]) == 0
    report = (tmp_path / "v" / "report.txt").read_text()
    assert "criterion 3" in report
    assert main(["verify", "--criteria", "3", "--word-len", "4",
                 "--out", str(tmp_path / "v"), "--force"]) == 0
    assert (tmp_path / "v" / "report.txt").read_text() == report


@pytest.mark.parametrize(
    "argv",
    [
        ["--criteria", "1,2,5,7,10", "--depth", "-1", "--grid", "4"],
        ["--criteria", "1,3", "--depth", "-1", "--word-len", "4"],
        ["--criteria", "1,8", "--depth", "-2"],
        ["--criteria", "1,3", "--word-len", "0"],
        ["--criteria", "1,3", "--word-len", "12"],
    ],
    ids=["criterion-7", "criterion-3", "criterion-8", "word-len-0", "word-len-12"],
)
def test_verify_refuses_a_negative_depth_before_any_check(tmp_path, capsys, monkeypatch, argv):
    # Criteria 3, 7 and 8 read --depth, and criterion 3 reads --word-len; a
    # selected one refuses them before any check runs, the ones ahead of it
    # included.
    ran = []
    for index, check in list(verify.CHECKS.items()):
        def spy(config, index=index, check=check):
            ran.append(index)
            return check(config)

        monkeypatch.setitem(verify.CHECKS, index, functools.wraps(check)(spy))
    out = tmp_path / "d"
    out.mkdir()
    assert main(["verify", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert ran == [] and list(out.iterdir()) == []


# sha256 of entropy_sweep.csv from `lozi verify --criteria 8` at the default
# n_max (12) and at --n-max 14, taken while criterion 8 swept one slope at a
# time.
ENTROPY_SWEEP_DIGESTS = {
    None: "e0c599b505c56f9854f3d23de8ad4775f22b9911159add203a394a9297c91607",
    14: "d1db860bfebdd003aa08cf69e96f5a6ca39ab7f246774ffc190ac97e9573d380",
}


@pytest.mark.parametrize("n_max", sorted(ENTROPY_SWEEP_DIGESTS, key=str), ids=str)
def test_upper_bound_monotone_sweep_regression_pin(tmp_path, n_max):
    out = tmp_path / "v"
    argv = ["verify", "--criteria", "8", "--out", str(out)]
    assert main(argv + ([] if n_max is None else ["--n-max", str(n_max)])) == 0
    data = (out / "entropy_sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == ENTROPY_SWEEP_DIGESTS[n_max]


@pytest.mark.parametrize("a", verify._BOUND_SLOPES)
def test_bound_lemmas_broadcast_fd_equals_the_matrix_form_per_tail(a):
    # Criterion 5 differences p on 14 symbol axes; the tail matrix of
    # coordinate_symbols gives every tail's difference bit for bit.
    sym = coordinate_symbols(14, MINUS)
    params = Params(a, 0.0)
    matrix, axes = (
        fd_derivative(functools.partial(eval_p, tails, 12), params, (0.0, 1.0), verify._FD_H)
        for tails in (sym.T, symbol_axes(14))
    )
    assert axes.shape == (2,) * 14
    per_tail = axes[tuple((sym == MINUS).astype(int).T)]
    assert np.array_equal(per_tail, matrix)


def _identity_residual_per_point(seed):
    """Criterion 9's worst identity residual as a loop over rejection
    samples, one rng.uniform call per coordinate and one signed distance per
    sample."""
    params = Params(1.0, 0.5)
    poly = list(geometry.polygon_invariance(params).corners)
    x_lo, x_hi = min(c.x for c in poly), max(c.x for c in poly)
    y_lo, y_hi = min(c.y for c in poly), max(c.y for c in poly)
    rng = random.Random(seed + 99)
    worst = -math.inf
    checked = 0
    while checked < 1000:
        qx, qy = rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)
        dist = math.inf
        for (ux, uy), (wx, wy) in zip(poly, poly[1:] + poly[:1]):
            ex, ey = wx - ux, wy - uy
            dist = min(dist, (ex * (qy - uy) - ey * (qx - ux)) / math.hypot(ex, ey))
        if dist < 0.0:
            continue
        v = (qx - 1.2) ** 2 + (qy + 0.4) ** 2
        delta = geometry.lyapunov_delta(params, geometry.PlanePoint(qx, qy))
        worst = max(worst, abs(delta + (15.0 / 16.0) * v))
        checked += 1
    return worst


def test_plane_anchors_identity_residual_equals_the_per_point_loop():
    params = Params(1.0, 0.5)
    corners = geometry.polygon_invariance(params).corners
    for seed in range(50):
        got = verify._identity_residual(params, corners, seed + 99)
        assert type(got) is float and got == _identity_residual_per_point(seed), seed


def _orbit_window_check_per_window(config):
    """Criterion 11 as it was written, every window classified, repeated
    windows included: one classify_words column per window."""
    params = Params(1.7, 0.5)
    pt = geometry.PlanePoint(0.1, 0.1)
    for _ in range(200):
        pt = geometry.lozi_apply(params, pt)
    symbols = []
    for _ in range(1500):
        symbols.append(1 if pt.x >= 0.0 else -1)
        pt = geometry.lozi_apply(params, pt)
        if abs(pt.x) > 5.0 or abs(pt.y) > 5.0:
            return False, "orbit left the trapping box"
    rng = random.Random(config.seed + 13)
    half = 6
    tails, heads = [], []
    for _ in range(1000):
        t = rng.randrange(half, len(symbols) - half)
        tails.append(symbols[t - half : t][::-1])
        heads.append(symbols[t : t + half])
    codes = verify.classify_words(np.transpose(tails), np.transpose(heads), 5, params)
    pruned = int(np.count_nonzero(codes == PGM_PRUNED))
    return pruned == 0, f"{pruned} of 1000 orbit windows certified pruned"


def test_orbit_window_check_equals_the_per_window_loop():
    for seed in range(50):
        config = RunConfig(command="verify", seed=seed)
        want = _orbit_window_check_per_window(config)
        assert want[0]
        assert verify.check_orbit_window_consistency(config) == want, seed


def test_orbit_window_check_counts_each_window_of_a_pruned_word(monkeypatch):
    # A stand-in classifier calls a word pruned by its first two head
    # symbols, so repeated windows must each count once more, as in the
    # per-window loop.
    real = verify.classify_words
    calls = []

    def some_pruned(tails, heads, depth, params):
        calls.append(np.vstack([tails, heads]))
        codes = real(tails, heads, depth, params)
        codes[(heads[0] == 1) & (heads[1] == -1)] = PGM_PRUNED
        return codes

    monkeypatch.setattr(verify, "classify_words", some_pruned)
    for seed in (1, 2, 3, 14):
        config = RunConfig(command="verify", seed=seed)
        want = _orbit_window_check_per_window(config)
        calls.clear()
        got = verify.check_orbit_window_consistency(config)
        assert got == want and not got[0], seed
        (words,) = calls
        assert words.shape[1] == np.unique(words, axis=1).shape[1] < 1000, seed

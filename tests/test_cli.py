"""Command line tests: config resolution, artifact content, determinism,
error exit codes. Commands run in process through main()."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lozi_pruning
from lozi_pruning import formats
from lozi_pruning.cli import (
    ENTROPY_HEADER,
    RunConfig,
    config_from_sources,
    entropy_rows,
    main,
)
from lozi_pruning.derivatives import CONE_TABLE_HEADER, dq_db_at_b0
from lozi_pruning.geometry import MANIFOLD_BRANCHES, ZERO_ENTROPY_CODES, fixed_data
from lozi_pruning.pruning import (
    PGM_ADMISSIBLE,
    PGM_PRUNED,
    PGM_UNKNOWN,
    Params,
    entropy_estimate,
)


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


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        config_from_sources("entropy", file_settings={"alpha": "1"})


def test_config_serializes_round_trip(tmp_path):
    cfg = RunConfig(command="zero-scan", grid=6, out="/tmp/z.pgm", force=True)
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_text())
    parsed = formats.read_config(str(path))
    rebuilt = config_from_sources(parsed.pop("command"), parsed)
    assert rebuilt == cfg


def test_config_file_feeds_command(tmp_path):
    out = tmp_path / "r.pgm"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"a=2.0\nb=0.0\nword_len=5\ndepth=6\nout={out}\n")
    assert main(["pruned-region", "--config", str(cfg_file)]) == 0
    grid = formats.read_pgm(str(out))
    assert grid.shape == (32, 32)


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


def test_pruned_region_requires_force_to_overwrite(tmp_path, capsys):
    out = tmp_path / "r.pgm"
    args = ["pruned-region", "--a", "1.7", "--b", "0.5", "--word-len", "4",
            "--depth", "5", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 2
    assert "force" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


def test_pruned_region_rejects_nonhyperbolic(capsys):
    code = main(["pruned-region", "--a", "1.2", "--b", "0.5",
                 "--out", "/tmp/never-written.pgm"])
    assert code == 2
    assert "NotHyperbolic" in capsys.readouterr().err


def test_pruned_region_budget_error_propagates(capsys):
    code = main(["pruned-region", "--a", "1.7", "--b", "0.5",
                 "--word-len", "12", "--out", "/tmp/never-written.pgm"])
    assert code == 2
    assert "BudgetExceeded" in capsys.readouterr().err


def test_pruned_region_requires_out(capsys):
    assert main(["pruned-region", "--a", "1.7", "--b", "0.5"]) == 2
    assert "--out" in capsys.readouterr().err


# ---------------------------------------------------------------- entropy


def test_entropy_stdout_matches_library(capsys):
    assert main(["entropy", "--a", "2.0", "--b", "0.05", "--n-max", "8",
                 "--depth", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(ENTROPY_HEADER)
    assert len(lines) == 9
    last = lines[-1].split(",")
    h_lo, h_hi = entropy_estimate(Params(2.0, 0.05), 8, 10)
    assert float(last[-2]) == h_lo and float(last[-1]) == h_hi
    assert h_lo <= math.log(2.0) <= h_hi


def test_entropy_rows_reproduce_estimate_at_each_length():
    params = Params(1.8, 0.1)
    rows = entropy_rows(params, 6, 8)
    for n in range(1, 7):
        assert rows[n - 1][-2:] == entropy_estimate(params, n, 8)


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


def test_verify_rejects_unknown_criterion(capsys):
    assert main(["verify", "--criteria", "13"]) == 2
    assert "criterion" in capsys.readouterr().err


def test_verify_report_regenerates_identically(tmp_path):
    assert main(["verify", "--criteria", "3", "--word-len", "4",
                 "--out", str(tmp_path / "v")]) == 0
    report = (tmp_path / "v" / "report.txt").read_text()
    assert "criterion 3" in report
    assert main(["verify", "--criteria", "3", "--word-len", "4",
                 "--out", str(tmp_path / "v"), "--force"]) == 0
    assert (tmp_path / "v" / "report.txt").read_text() == report

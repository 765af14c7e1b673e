"""Tests of the benchmark's own helpers: span arithmetic, the percentile
rule, seeded inputs, and the output checks behind failed_frac.

    python3 -m pytest bench/tests
"""

import json
import math
import signal
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
import workloads
from layers import PER_LAYER, body_metrics, tail_percentile
from spans import Span, Tracer, self_times

import lozi_pruning as lib

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------- spans


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("pruning.a", 1.0, 4.0, 0),
        Span("pruning.b", 3.0, 6.0, 0),  # overlaps its sibling: merged
        Span("symbolic.c", 2.0, 3.0, 1),
        Span("formats.d", 9.0, 12.0, 0),  # overhangs its parent: clipped
        Span("cli.main", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0, 1.5])


def test_self_times_of_a_tree_add_up_to_its_root():
    spans = [
        Span("cli.main", 0.0, 8.0, -1),
        Span("geometry.a", 1.0, 7.0, 0),
        Span("geometry.b", 2.0, 3.0, 1),
        Span("geometry.c", 4.0, 6.5, 1),
        Span("geometry.d", 5.0, 6.0, 3),
    ]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def _fake_package():
    """Two modules where one re-binds the other's function by import, one
    calls itself through its own global, and a dispatch table holds one."""
    core = types.ModuleType("fakepkg.core")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def outer(x):\n    return leaf(x) * 2\n"
        "def _private(x):\n    return x\n",
        core.__dict__,
    )
    front = types.ModuleType("fakepkg.front")
    front.outer = core.outer
    front.TABLE = {"go": core.leaf}
    return core, front


def test_tracer_wraps_rebound_names_and_tables_and_restores_them():
    core, front = _fake_package()
    originals = (core.outer, core.leaf, front.outer, front.TABLE["go"], core._private)
    tracer = Tracer({"core.outer": lambda args, kwargs, result: result})
    tracer.install({"core": core}, [core, front])
    assert front.outer(1) == 4
    assert front.TABLE["go"](1) == 2
    assert core._private is originals[4]
    tracer.uninstall()
    assert (core.outer, core.leaf, front.outer, front.TABLE["go"], core._private) == originals
    spans = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [
        ("core.outer", -1),
        ("core.leaf", 0),
        ("core.leaf", -1),
    ]
    assert spans[0].note == 4
    assert all(s.start <= s.end for s in spans)
    assert tracer.take() == []


def test_tracer_marks_a_raising_call_and_keeps_the_stack_balanced():
    core = types.ModuleType("fakepkg.boom")
    exec("def boom():\n    raise ValueError('x')\n", core.__dict__)
    tracer = Tracer()
    tracer.install({"boom": core}, [core])
    with pytest.raises(ValueError):
        core.boom()
    tracer.uninstall()
    (span,) = tracer.take()
    assert span.note == "raised" and span.parent == -1


def test_body_metrics_split_time_by_layer_and_keep_nested_checks_in_their_parent():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("verify.check_a", 1.0, 5.0, 0),
        Span("pruning.eval_q", 2.0, 3.0, 1, None),
        Span("verify.check_b", 5.0, 9.0, 0),
        Span("verify.check_a", 6.0, 7.0, 3),  # a nested rerun belongs to b
        Span("geometry.classify_zero_entropy", 7.5, 8.0, 3, "homoclinic"),
    ]
    metrics, samples = body_metrics(spans, {"verify.check_a": 1, "verify.check_b": 12}, 10.0)
    assert metrics["verify.check_s.1"] == pytest.approx(4.0)
    assert metrics["verify.check_s.12"] == pytest.approx(4.0)
    assert metrics["pruning.scalar_calls"] == 1
    assert metrics["pruning.scalar_s"] == pytest.approx(1.0)
    assert metrics["geometry.classify_n.homoclinic"] == 1
    assert samples == pytest.approx([500.0])
    layer_sum = sum(metrics.get(m, 0.0) for m, _ in layers.LAYER_TOTALS.values())
    assert layer_sum == pytest.approx(10.0)
    assert metrics["trace.self_sum_s"] == pytest.approx(10.0)
    assert metrics["trace.coverage_frac"] == pytest.approx(1.0)


# ---------------------------------------------------------- percentiles


@pytest.mark.parametrize(
    "n, pct",
    [(0, 0.0), (5, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)  # fmt: skip
def test_tail_percentile_keeps_ten_samples_beyond_it(n, pct):
    samples = [float(k) for k in range(n, 0, -1)]  # unsorted on purpose
    chosen, value, count = tail_percentile(samples)
    assert (chosen, count) == (pct, n)
    if n:
        # nearest rank: the smallest sample with pct% of them at or below it
        share = Fraction(str(pct)) / 100 * n
        assert sum(s < value for s in samples) < share <= sum(s <= value for s in samples)
        assert sum(s > value for s in samples) >= min(10, n // 2)


# ------------------------------------------------------- seeded inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name):
    make = workloads.WORKLOADS[name]
    first = make().ops(7, "out")
    assert first == make().ops(7, "out")
    if name != "verify":
        assert first != make().ops(8, "out")
    else:
        assert make().ops(8, "out")[0].argv != first[0].argv


def test_atlas_offsets_keep_pixel_centres_in_the_paper_rectangle():
    for seed in range(50):
        for op in workloads.Atlas().ops(seed, "out"):
            args = dict(zip(op.argv[1::2], op.argv[2::2]))
            a_min, a_max = float(args["--a-min"]), float(args["--a-max"])
            grid = int(args["--grid"])
            half = 0.5 * (a_max - a_min) / grid
            assert 0.0 < a_min + half and a_max - half <= 2.5
            assert (float(args["--b-min"]), float(args["--b-max"])) == (0.0, 1.0)


def test_parameter_points_are_hyperbolic_and_include_full_slope():
    for seed in range(50):
        for make in (workloads.Raster, workloads.Entropy):
            for op in make().ops(seed, "out"):
                a, b = op.params
                assert a > 1.0 + abs(b)
        assert workloads.Raster().ops(seed, "out")[0].params == (2.0, 0.0)


# -------------------------------------------------------- output checks


def _run(op):
    code, stdout, stderr = run.run_op(lib, op)
    assert code == 0, stderr
    return stdout


def test_atlas_check_flags_a_wrong_verdict(tmp_path):
    atlas = workloads.Atlas()
    op = atlas.warmup(str(tmp_path))
    assert atlas.check(lib, op, _run(op)) == []
    listing = Path(op.out + ".csv")
    text = listing.read_text()
    assert "homoclinic" in text
    listing.write_text(text.replace("homoclinic", "unknown"))
    problems = atlas.check(lib, op, "")
    assert any("a >= 2" in p for p in problems)
    assert any("disagree" in p for p in problems)


def test_raster_check_flags_a_changed_cell_and_pruning_at_full_slope(tmp_path):
    raster = workloads.Raster()
    op = workloads.Op(
        raster._argv(2.0, 0.0, 4, str(tmp_path / "r.pgm")), str(tmp_path / "r.pgm"), 256, (2.0, 0.0)
    )
    assert raster.check(lib, op, _run(op)) == []
    cells = lib.formats.read_pgm(op.out).copy()
    cells[3, 5] = lib.pruning.PGM_PRUNED
    lib.formats.write_pgm(op.out, cells, force=True)
    problems = raster.check(lib, op, "")
    assert any("differs" in p for p in problems)
    assert any("full slope" in p for p in problems)
    assert any("sidecar" in p for p in problems)


@pytest.mark.parametrize(
    "h_lower, h_upper", [(-0.1, 0.5), (0.6, 0.5), (0.1, math.log(2.0) + 1e-6)]
)
def test_entropy_check_flags_a_bracket_outside_zero_log2(tmp_path, h_lower, h_upper):
    entropy = workloads.Entropy()
    op = entropy.warmup(str(tmp_path))
    assert entropy.check(lib, op, _run(op)) == []
    header = ",".join(lib.cli.ENTROPY_HEADER)
    Path(op.out).write_text(f"{header}\n1.8,0.1,4,12,3,9,{h_lower!r},{h_upper!r}\n")
    assert entropy.check(lib, op, "") != []


@pytest.mark.parametrize(
    "counts, problem",
    [((1, 2, 3, 5), "2^2"), ((2, 2, 4, 3), "2^2"), ((2, 2, 3, 9), "submultiplicative")],
)
def test_entropy_check_flags_counts_that_the_clamped_brackets_hide(tmp_path, counts, problem):
    """Brackets in [0, log 2] with impossible counts behind them."""
    entropy = workloads.Entropy()
    op = entropy.warmup(str(tmp_path))
    lower_1, upper_1, lower_2, upper_2 = counts
    header = ",".join(lib.cli.ENTROPY_HEADER)
    rows = [f"1.8,0.1,1,12,{lower_1},{upper_1},0.3,0.6", f"1.8,0.1,2,12,{lower_2},{upper_2},0.3,0.6"]
    Path(op.out).write_text("\n".join([header, *rows]) + "\n")
    problems = entropy.check(lib, op, "")
    assert any(problem in p for p in problems), problems


def test_verify_check_flags_a_failed_or_missing_criterion():
    verify = workloads.Verify()
    (op,) = verify.ops(3, "out")
    passing = "".join(f"PASS criterion {n} (x): ok\n" for n in range(1, 13))
    assert verify.check(lib, op, passing) == []
    assert verify.check(lib, op, passing.replace("PASS criterion 7", "FAIL criterion 7")) == [
        "criterion 7 failed"
    ]
    assert verify.check(lib, op, passing.replace("PASS criterion 12 (x): ok\n", "")) == [
        "criterion 12 missing"
    ]


def test_a_nonzero_exit_or_a_raise_fails_the_operation(tmp_path):
    op = workloads.Op(("entropy", "--a", "0.5", "--b", "0.0", "--n-max", "3"), None, 1)
    result = run.run_op(lib, op)
    assert result[0] == 2
    assert run.check_op(lib, workloads.Entropy(), op, result)
    assert run.check_op(lib, workloads.Entropy(), op, (None, "", "Traceback"))


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    assert end_to_end == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


# ---------------------------------------------------------------- set-up


def test_setup_sampler_spreads_its_samples_over_the_measured_time(monkeypatch):
    sampler = run.SetupSampler("raster", 1, seconds=0.1 * run.SETUP_SAMPLES)
    monkeypatch.setattr(sampler, "_sample", lambda: sampler.times.append(sampler.clock()))
    sampler.between()  # the first is due at once
    sampler.between()
    assert len(sampler.times) == 1
    sampler._start -= 0.25  # 0.25 s on: the samples due at 0.1 and 0.2, one per call
    for _ in range(4):
        sampler.between()
    assert len(sampler.times) == 3
    assert len(sampler.finish()) == run.SETUP_SAMPLES


# ---------------------------------------------------------------- speed


def test_timed_scales_wall_time_by_the_probe_speed(monkeypatch):
    """A probe twice as slow as its reference halves the scaled time."""
    import speed

    monkeypatch.setitem(speed.PROBES, "interpreter", (lambda: 0.002, 0.001))

    def busy():
        end = time.process_time() + 0.05  # long enough for SIGPROF ticks
        while time.process_time() < end:
            pass
        return "done"

    result, timing = speed.timed(busy)
    assert result == "done"
    assert 0.0 < timing.wall <= timing.elapsed
    assert timing.scaled == pytest.approx(timing.wall / 2.0)
    assert signal.getsignal(signal.SIGPROF) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


@pytest.mark.parametrize("kind", sorted(__import__("speed").PROBES))
def test_each_probe_times_its_fixed_work(kind):
    import speed

    measure, ref_s = speed.PROBES[kind]
    assert 0.1 * ref_s < measure() < 100.0 * ref_s
    assert all(w.probe in speed.PROBES for w in workloads.WORKLOADS.values())

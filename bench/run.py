"""Benchmark of the lozi_pruning library, one workload per run.

    python3 bench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory. The workload body (see workloads.py) is repeated for
``--seconds`` seconds through ``cli.main`` in this process, its outputs are
checked after every repetition, and the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Times
are reported at a reference machine speed (speed.py); wall times are
printed next to them.

--trace 0  end-to-end metrics, tracing off.
--trace 1  per-layer metrics: untraced and traced repetitions alternate, the
           traced ones run with every public library function wrapped
           (spans.py), and the overhead is their ratio.

Everything the run writes goes under ``.bench_out/`` in the checkout: the
artifacts of the body, a JSON record of each result with its environment,
the spans of a traced run, and the bytecode cache the set-ups import from.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from layers import LAYERS, NOTES, PER_LAYER, body_metrics, tail_percentile  # noqa: E402
from spans import Tracer, write_spans  # noqa: E402
from speed import Timing, timed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.2),
    ("work_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# numpy's BLAS gets one thread. The library makes no BLAS call big enough
# to use more, and starting the thread pool at import took about 60 ms of a
# 0.2 s set-up, a cost that is not the library's.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_REPS = 3  # body repetitions per run (per side when tracing), however slow
SETUP_SAMPLES = 11  # fresh interpreters per run, spread over it
PROBE_TIMEOUT_S = 120


def import_library():
    """Import lozi_pruning from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    lib = importlib.import_module("lozi_pruning")
    where = Path(lib.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"lozi_pruning imported from {where}, not from {src}")
    return lib


def run_op(lib, op) -> tuple[int | None, str, str]:
    """One ``lozi`` call in this process: (exit code or None if it raised,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raised counts as failed
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def check_op(lib, workload, op, result) -> list[str]:
    code, stdout, stderr = result
    if code != 0:
        return [f"{op.argv[0]} exited {code}: {stderr.strip()[-500:]}"]
    try:
        return workload.check(lib, op, stdout)
    except (OSError, ValueError, KeyError) as exc:
        return [f"output unreadable: {exc!r}"]


def setup(workload_name: str, seed: int, work: str):
    """Import, generate the inputs and make one warm-up call. Returns the
    library, the workload, its operations and the set-up's speed.Timing."""

    def steps():
        lib = import_library()
        workload = WORKLOADS[workload_name]()
        ops = workload.ops(seed, work)
        warm = workload.warmup(work)
        return lib, workload, ops, warm, run_op(lib, warm)

    (lib, workload, ops, warm, result), timing = timed(steps)
    problems = check_op(lib, workload, warm, result)
    if problems:
        raise RuntimeError(f"warm-up call failed: {problems}")
    return lib, workload, ops, timing


def setup_in_child(workload_name: str, seed: int) -> Timing:
    """The set-up time of a fresh interpreter, which imports the library anew."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr[-500:]}")
    return Timing(*json.loads(done.stdout.splitlines()[-1]))


class SetupSampler:
    """Set-up times of fresh interpreters (``setup_in_child``).

    The machine's speed drifts over seconds, so the SETUP_SAMPLES set-ups
    are spread evenly over the measured time: ``between`` takes the next one
    when it is due, between two operations. ``clock`` is the time since the
    start less the time spent sampling, so the run still measures its
    operations for the full time.
    """

    def __init__(self, workload_name: str, seed: int, seconds: float):
        self._workload_name, self._seed = workload_name, seed
        self._step = seconds / SETUP_SAMPLES
        self._start = time.perf_counter()
        self._sampling = 0.0
        self.times: list[Timing] = []

    def clock(self) -> float:
        return time.perf_counter() - self._start - self._sampling

    def between(self) -> None:
        if len(self.times) < SETUP_SAMPLES and self.clock() >= len(self.times) * self._step:
            self._sample()

    def finish(self) -> list[Timing]:
        while len(self.times) < SETUP_SAMPLES:
            self._sample()
        return self.times

    def _sample(self) -> None:
        start = time.perf_counter()
        self.times.append(setup_in_child(self._workload_name, self._seed))
        self._sampling += time.perf_counter() - start


def environment(lozi_threads_was) -> dict:
    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "lozi_threads_cleared": "LOZI_THREADS" not in os.environ,
        "lozi_threads_before": lozi_threads_was,
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
        "os_threads": _os_threads(),
    }


def _os_threads() -> int | None:
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    return None


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def body(self, lib, workload, ops, tracer=None, between=None) -> list:
        """Run the body once, each operation timed (speed.Timing), calling
        ``between()`` untimed before each; then check every output,
        untimed."""
        results, timings = [], []
        if tracer is not None:
            tracer.install(layer_modules(lib), package_modules(lib))
        try:
            for op in ops:
                if between is not None:
                    between()
                result, timing = timed(run_op, lib, op, probe=workload.probe)
                results.append(result)
                timings.append(timing)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op, result in zip(ops, results):
            self.attempted += 1
            problems = check_op(lib, workload, op, result)
            if problems:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{' '.join(op.argv)}: {'; '.join(problems[:3])}")
        return timings


def layer_modules(lib) -> dict:
    return {layer: getattr(lib, layer) for layer in LAYERS}


def package_modules(lib) -> list:
    prefix = lib.__name__ + "."
    return [lib] + [m for name, m in sys.modules.items() if name.startswith(prefix)]


def body_time(reps: list[list], field: str = "scaled") -> float:
    """Time of one body: each operation's median over the repetitions,
    summed, so a slow moment costs one operation's sample, not a body's."""
    return sum(
        statistics.median(getattr(t, field) for t in op_timings) for op_timings in zip(*reps)
    )


def measure_plain(lib, workload, ops, seconds, tally, sampler) -> dict:
    reps = []
    while len(reps) < MIN_REPS or sampler.clock() < seconds:
        reps.append(tally.body(lib, workload, ops, between=sampler.between))
    setups = sampler.finish()
    run_s = body_time(reps)
    units = sum(op.units for op in ops)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": run_s,
        "work_per_s": units / run_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "wall_run_s": body_time(reps, "wall"),
        "setup_s": statistics.median(t.scaled for t in setups),
        "wall_setup_s": statistics.median(t.wall for t in setups),
        "_setup_samples": [t._asdict() for t in setups],
        "_samples": [[t._asdict() for t in rep] for rep in reps],
        "_units": units,
    }


def measure_traced(lib, workload, ops, seconds, tally, spans_path) -> dict:
    check_names = {f"verify.{fn.__name__}": n for n, fn in lib.verify.CHECKS.items()}
    tracer = Tracer(NOTES)
    plain, traced, per_body, samples, kept = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while min(len(plain), len(traced)) < MIN_REPS or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(tally.body(lib, workload, ops))
            continue
        timings = tally.body(lib, workload, ops, tracer)
        spans = tracer.take()
        # spans include the probes' time, so compare them with elapsed time
        metrics, pixel_ms = body_metrics(spans, check_names, sum(t.elapsed for t in timings))
        traced.append(timings)
        per_body.append(metrics)
        samples.extend(pixel_ms)
        kept.append(spans)
    out = {}
    for name, unit, _ in PER_LAYER:
        value = statistics.median(m.get(name, 0) for m in per_body)
        out[name] = round(value) if unit in ("count", "bytes") else float(value)
    out["geometry.classify_p50_ms"] = tail_percentile(samples, ladder=(50.0,))[1]
    pct, value, count = tail_percentile(samples)
    out["geometry.classify_tail_pct"] = pct
    out["geometry.classify_tail_ms"] = value
    out["geometry.classify_samples"] = count
    out["traced_run_s"] = body_time(traced)
    out["untraced_run_s"] = body_time(plain)
    out["trace_overhead_frac"] = out["traced_run_s"] / out["untraced_run_s"] - 1.0
    # unscaled and probes included, as the spans are
    out["self_time_sum_s"] = statistics.median(m["trace.self_sum_s"] for m in per_body)
    out["untraced_elapsed_s"] = statistics.median(
        sum(t.elapsed for t in timings) for timings in plain
    )
    write_spans(spans_path, [s for body in kept for s in body])
    out["_untraced_samples"] = [[t._asdict() for t in rep] for rep in plain]
    out["_traced_samples"] = [[t._asdict() for t in rep] for rep in traced]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lozi_threads_was = os.environ.pop("LOZI_THREADS", None)
    for name in BLAS_THREAD_VARS:  # before numpy is imported; children inherit it
        os.environ[name] = "1"
    out_dir = ROOT / ".bench_out"
    # Set-up imports from a warm bytecode cache, kept in the checkout, so
    # that it never times compiling, whatever PYTHONDONTWRITEBYTECODE says.
    # The first set-up of a checkout fills the cache.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(out_dir / "pycache")
    work = out_dir / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    # criterion 12 writes through tempfile; keep that inside the checkout too
    tempfile.tempdir = str(work)
    try:
        if not args.setup_probe and not Path(sys.pycache_prefix).exists():
            # fill the cache in a child, so that this process's set-up and
            # peak memory are those of every later run
            setup_in_child(args.workload, args.seed)
        lib, workload, ops, setup_timing = setup(args.workload, args.seed, str(work))
    except (ImportError, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_timing))
        return 0

    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        measured = measure_traced(
            lib, workload, ops, args.seconds, tally, str(out_dir / f"spans-{tag}.tsv")
        )
        reported = {name: (measured[name], unit) for name, unit, _ in PER_LAYER}
    else:
        sampler = SetupSampler(args.workload, args.seed, args.seconds)
        measured = measure_plain(lib, workload, ops, args.seconds, tally, sampler)
        measured["_own_setup"] = setup_timing._asdict()  # not in the median
        reported = {name: (measured[name], unit) for name, unit, _, _ in END_TO_END}

    env = environment(lozi_threads_was)
    if args.trace:
        # the self times of a traced body should exceed the untraced body's
        # time by about the tracing overhead
        notes = {
            "self_time_sum_s": (measured["self_time_sum_s"], "s"),
            "untraced_elapsed_s": (measured["untraced_elapsed_s"], "s"),
            "self_time_excess_frac": (
                measured["self_time_sum_s"] / measured["untraced_elapsed_s"] - 1.0,
                "ratio",
            ),
        }
    else:
        notes = {
            f"{workload.unit}_per_s": (measured["work_per_s"], "1/s"),
            "wall_run_s": (measured["wall_run_s"], "s"),
            "wall_setup_s": (measured["wall_setup_s"], "s"),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "notes": {name: value for name, (value, _) in notes.items()},
        "measured": measured,
    }
    (out_dir / "results").mkdir(exist_ok=True)
    with open(out_dir / "results" / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("env " + json.dumps(env))
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    for name, (value, unit) in reported.items():
        print(f"{name:34s} {value!r} {unit}")
    for name, (value, unit) in notes.items():
        print(f"{name:34s} {value!r} {unit}")
    print(f"{'failed_frac':34s} {record['failed_frac']!r} ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics derived from the spans of one traced workload body.

Layers are the library's modules. A layer's time metrics sum self times
(span duration minus the time its traced children cover), so the layer
times of one body add up to the traced wall time of that body, less the
benchmark's own loop. Counts are read where the work happens: by a span
count, or by a note function that reads a call's arguments or result.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import Span, self_times

LAYERS = ("symbolic", "pruning", "tent", "derivatives", "geometry", "formats", "cli", "verify")

VERDICT_KINDS = ("homoclinic", "numeric_zero", "unknown", "analytic_zero")

SCALAR_PRUNING = (
    "pruning.eval_s",
    "pruning.eval_r",
    "pruning.eval_p",
    "pruning.eval_q",
    "pruning.eval_pq_cylinder",
    "pruning.classify_cylinder",
)

# (self-time metric, call-count metric or None, span names it covers)
GROUPS = (
    ("geometry.classify_self_s", None, ("geometry.classify_zero_entropy",)),
    ("geometry.homoclinic_s", "geometry.homoclinic_calls", ("geometry.homoclinic_intersects",)),
    (
        "geometry.manifold_s",
        "geometry.manifold_calls",
        ("geometry.stable_manifold", "geometry.unstable_manifold"),
    ),
    ("geometry.polygon_s", "geometry.polygon_calls", ("geometry.polygon_invariance",)),
    ("geometry.lyapunov_s", "geometry.lyapunov_calls", ("geometry.lyapunov_delta",)),
    ("geometry.fixed_data_s", "geometry.fixed_data_calls", ("geometry.fixed_data",)),
    ("pruning.raster_s", None, ("pruning.pruned_region_raster",)),
    ("pruning.count_s", "pruning.count_calls", ("pruning.admissible_word_count",)),
    ("pruning.scalar_s", "pruning.scalar_calls", SCALAR_PRUNING),
)

# (self-time metric, call-count metric or None) over every span of a layer
LAYER_TOTALS = {
    "geometry": ("geometry.self_s", None),
    "pruning": ("pruning.self_s", None),
    "symbolic": ("symbolic.s", "symbolic.calls"),
    "tent": ("tent.s", "tent.calls"),
    "derivatives": ("derivatives.s", "derivatives.calls"),
    "formats": ("formats.write_s", None),
    "cli": ("cli.self_s", None),
    "verify": ("verify.self_s", None),
}

# Bytes of the outer-compare arrays of one raster cell: two float64
# differences, two boolean masks and the uint8 verdict.
RASTER_BYTES_PER_CELL = 8 + 8 + 1 + 1 + 1

CRITERIA = range(1, 13)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _raster_note(args, kwargs, raster):
    cells = raster.width * raster.height
    return cells, cells - raster.unknown_count


def _count_note(args, kwargs, bracket):
    n = _arg(args, kwargs, 1, "n")
    lower, upper = bracket
    return n << n, upper - lower


NOTES = {
    "geometry.classify_zero_entropy": lambda args, kwargs, verdict: verdict.kind,
    "geometry.stable_manifold": lambda args, kwargs, line: len(line.vertices),
    "geometry.unstable_manifold": lambda args, kwargs, line: len(line.vertices),
    "pruning.pruned_region_raster": _raster_note,
    "pruning.admissible_word_count": _count_note,
    "formats.atomic_write_bytes": lambda args, kwargs, _: len(_arg(args, kwargs, 1, "data")),
}

# name, unit, better; the order is the report order
PER_LAYER = (
    *((f"geometry.classify_s.{k}", "s", "lower") for k in VERDICT_KINDS),
    *(
        (f"geometry.classify_n.{k}", "count", "lower" if k == "unknown" else "higher")
        for k in VERDICT_KINDS
    ),
    ("geometry.classify_p50_ms", "ms", "lower"),
    ("geometry.classify_tail_ms", "ms", "lower"),
    ("geometry.classify_tail_pct", "%", "higher"),
    ("geometry.classify_samples", "count", "higher"),
    ("geometry.classify_self_s", "s", "lower"),
    ("geometry.homoclinic_s", "s", "lower"),
    ("geometry.homoclinic_calls", "count", "lower"),
    ("geometry.manifold_s", "s", "lower"),
    ("geometry.manifold_calls", "count", "lower"),
    ("geometry.manifold_vertices", "count", "lower"),
    ("geometry.vertices_per_s", "1/s", "higher"),
    ("geometry.polygon_s", "s", "lower"),
    ("geometry.polygon_calls", "count", "lower"),
    ("geometry.lyapunov_s", "s", "lower"),
    ("geometry.lyapunov_calls", "count", "lower"),
    ("geometry.fixed_data_s", "s", "lower"),
    ("geometry.fixed_data_calls", "count", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("pruning.raster_s", "s", "lower"),
    ("pruning.raster_cells", "count", "higher"),
    ("pruning.raster_decided_frac", "ratio", "higher"),
    ("pruning.raster_bytes_computed", "bytes", "lower"),
    ("pruning.count_s", "s", "lower"),
    ("pruning.count_calls", "count", "lower"),
    ("pruning.placements", "count", "lower"),
    ("pruning.undecided_blocks", "count", "lower"),
    ("pruning.scalar_s", "s", "lower"),
    ("pruning.scalar_calls", "count", "lower"),
    ("pruning.self_s", "s", "lower"),
    ("symbolic.s", "s", "lower"),
    ("symbolic.calls", "count", "lower"),
    ("tent.s", "s", "lower"),
    ("tent.calls", "count", "lower"),
    ("derivatives.s", "s", "lower"),
    ("derivatives.calls", "count", "lower"),
    ("formats.write_s", "s", "lower"),
    ("formats.bytes_written", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"verify.check_s.{n}", "s", "lower") for n in CRITERIA),
    ("verify.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.run_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
SAMPLES_BEYOND = 10  # a reported percentile has at least this many samples above it


def tail_percentile(samples, ladder=PERCENTILE_LADDER):
    """(percentile, value, sample count) for the highest ladder percentile
    with at least SAMPLES_BEYOND samples above it; nearest-rank values.

    With too few samples for any rung the median is reported; with none,
    (0.0, 0.0, 0).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    chosen = ladder[0]
    for pct in ladder:
        if n - _rank(pct, n) >= SAMPLES_BEYOND:
            chosen = pct
    return chosen, ordered[_rank(chosen, n) - 1], n


def _rank(pct, n):
    # nearest rank; rounding first keeps 99.9% of 10000 at 9990, not 9991
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def body_metrics(spans: list[Span], check_names: dict[str, int], wall_s: float):
    """Per-layer metrics of one traced body, plus its classify samples (ms).

    ``check_names`` maps a verify check's span name to its criterion number;
    ``wall_s`` is the body's traced wall time.
    """
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(int)
    group_of = {}
    for time_metric, calls_metric, names in GROUPS:
        for name in names:
            group_of[name] = (time_metric, calls_metric)
    samples = []
    raster_decided = 0
    vertices = 0
    for span, own in zip(spans, selfs):
        name = span.name
        layer = name.split(".", 1)[0]
        time_metric, calls_metric = LAYER_TOTALS[layer]
        out[time_metric] += own
        if calls_metric:
            out[calls_metric] += 1
        if name in group_of:
            time_metric, calls_metric = group_of[name]
            out[time_metric] += own
            if calls_metric:
                out[calls_metric] += 1
        note = span.note
        duration = span.end - span.start
        if name == "geometry.classify_zero_entropy":
            # the scan scores a raising pixel as unknown; so does this
            kind = note if note in VERDICT_KINDS else "unknown"
            out[f"geometry.classify_s.{kind}"] += duration
            out[f"geometry.classify_n.{kind}"] += 1
            samples.append(duration * 1e3)
        elif name in ("geometry.stable_manifold", "geometry.unstable_manifold"):
            vertices += note if isinstance(note, int) else 0
        elif name == "pruning.pruned_region_raster" and isinstance(note, tuple):
            out["pruning.raster_cells"] += note[0]
            raster_decided += note[1]
        elif name == "pruning.admissible_word_count" and isinstance(note, tuple):
            out["pruning.placements"] += note[0]
            out["pruning.undecided_blocks"] += note[1]
        elif name == "formats.atomic_write_bytes" and isinstance(note, int):
            out["formats.bytes_written"] += note
        elif name in check_names and not _inside_check(spans, span, check_names):
            out[f"verify.check_s.{check_names[name]}"] += duration
    out["geometry.manifold_vertices"] = vertices
    if out["geometry.manifold_s"] > 0.0:
        out["geometry.vertices_per_s"] = vertices / out["geometry.manifold_s"]
    cells = out["pruning.raster_cells"]
    if cells:
        out["pruning.raster_decided_frac"] = raster_decided / cells
    out["pruning.raster_bytes_computed"] = RASTER_BYTES_PER_CELL * cells
    out["trace.spans"] = len(spans)
    out["trace.self_sum_s"] = sum(selfs)
    out["trace.coverage_frac"] = out["trace.self_sum_s"] / wall_s if wall_s > 0.0 else 0.0
    out["trace.run_s"] = wall_s
    return dict(out), samples


def _inside_check(spans, span, check_names) -> bool:
    # criterion 12 reruns criteria 3, 4, 6 and 9; their time belongs to 12
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in check_names:
            return True
        parent = spans[parent].parent
    return False

"""In-memory call spans around the public functions of the library.

A Tracer replaces module attributes with timing wrappers. Every module of
the package that holds a reference to a wrapped function gets the wrapper,
so names re-bound by ``from ... import`` (``cli.pruned_region_raster``,
``verify.eval_q``), module-internal calls (``geometry.fixed_data`` inside
``classify_zero_entropy``) and the entries of module-level dispatch tables
(``cli._COMMANDS``, ``verify.CHECKS``) are traced too. Private helpers and the
hot leaves in ``HOT_LEAVES`` are left alone: their time lands in the self
time of the nearest traced caller.

The library runs single-threaded here (``LOZI_THREADS`` unset), so one
stack gives every span its parent.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

# Per-step map applications: millions of calls per atlas, too cheap to
# time without the wrapper dominating them.
HOT_LEAVES = frozenset(
    {
        "geometry.lozi_apply",
        "geometry.lozi_apply_inverse",
        "geometry.lozi_apply_n",
        "formats.format_value",
    }
)

RAISED = "raised"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    note: object = None  # what a note function read off the call, or RAISED


class Tracer:
    """Records one Span per call of each wrapped function.

    ``notes`` maps a span name to ``note(args, kwargs, result)``; its value
    is stored on the span, so counts (cells, vertices, verdict kinds) are
    taken where the work happens.
    """

    def __init__(self, notes=None):
        self.spans: list[Span] = []
        self._notes = dict(notes or {})
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.note = RAISED
                raise
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def install(self, layers: dict[str, object], package_modules) -> None:
        """Wrap the public functions of each layer module.

        ``layers`` maps a layer name to its module; ``package_modules`` are
        every module whose attributes may hold re-bound references.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in layers.items():
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in HOT_LEAVES
                ):
                    continue
                wrappers[id(fn)] = self.wrap(name, fn)
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, value, wrappers[id(value)])
                elif isinstance(value, dict):
                    # dispatch tables such as cli._COMMANDS and verify.CHECKS
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._patch(value, key, entry, wrappers[id(entry)])

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are merged, overhanging ones
    clipped)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def write_spans(path: str, spans: list[Span]) -> None:
    """One tab-separated line per span: index, parent, name, start, end."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tparent\tname\tstart\tend\n")
        for index, span in enumerate(spans):
            handle.write(
                f"{index}\t{span.parent}\t{span.name}\t{span.start!r}\t{span.end!r}\n"
            )

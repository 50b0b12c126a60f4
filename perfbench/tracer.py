"""Outside-in tracer: times the program's layers by wrapping its functions.

Nothing in the program is edited. While installed, every module attribute
in the ``singersep`` package that *is* one of the traced functions (the
defining module and each by-name import site alike) is replaced by a
wrapper that records a span: name, start, end, the span that was current
when it was called, and per-layer counts. ``ThreadPoolExecutor`` at the
program's import sites is replaced by a subclass that runs each task in a
copy of the submitter's context, so spans from worker threads attach to
the span that submitted them.

Layer metrics per operation, for a span name ``<module>.<function>``:
``.calls``; ``.s`` (durations summed over threads); ``.wall_s`` (length
of the union of its intervals); ``.self_s`` (that union minus the union
of its children's intervals); plus the counts each layer's hook records
(``.mb`` is file bytes read or written / 1e6).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

_current_span = contextvars.ContextVar("perfbench_current_span", default=None)


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# Traced functions by defining module, each with the hook that turns its
# bound arguments and result into counts.
LAYERS = {
    "audio.read_wav": lambda a, r: _file_bytes(a["path"]),
    "audio.write_wav": lambda a, r: _file_bytes(a["path"]),
    "audio.resample": lambda a, r: {"in_samples": len(a["w"])},
    "audio.segment": None,
    "pitch.track_pitch": lambda a, r: {"frames": len(r)},
    "selection.select_model": lambda a, r: {"penalized": sum(s.penalized for s in r.scores)},
    "selection.trend_distance": None,
    "backends.run_backend": None,
    "dataset.build_dataset": None,
    "dataset.mix_at_snr": None,
    "dataset.pair_segments": None,
    "metrics.pit_evaluate": None,
    "metrics.si_snr": None,
    "metrics.sdr": None,
    "pipeline.separate_song": None,
}

# By-name import sites that must be wrapped; a layer the workload calls
# through an unwrapped site would read as zero.
REQUIRED_SITES = (
    "pipeline.read_wav", "pipeline.resample", "pipeline.write_wav",
    "pipeline.run_backend", "pipeline.select_model", "pipeline.pit_evaluate",
    "selection.track_pitch", "selection.run_backend", "selection.trend_distance",
    "backends.read_wav", "backends.write_wav",
    "dataset.read_wav", "dataset.resample", "dataset.segment", "dataset.write_wav",
    "dataset.mix_at_snr", "dataset.pair_segments", "dataset.build_dataset",
    "audio.read_wav", "metrics.pit_evaluate", "metrics.si_snr", "metrics.sdr",
    "pipeline.separate_song", "selection.ThreadPoolExecutor", "cli.ThreadPoolExecutor",
)

_BACKEND_KINDS = {"external_command": "external", "oracle": "oracle",
                  "passthrough": "passthrough"}


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    ok: bool = False
    counts: dict = field(default_factory=dict)


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Collects spans in memory; ``installed()`` patches, ``take()`` drains."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def call(self, name, fn, *args, counts=None, hook=None, **kwargs):
        """Call fn inside a span named ``name``; hook(result) adds counts."""
        span = Span(next(self._ids), _current_span.get(), name, time.perf_counter(),
                    counts=dict(counts or {}))
        token = _current_span.set(span.span_id)
        try:
            result = fn(*args, **kwargs)
            span.ok = True
        finally:
            span.end = time.perf_counter()
            _current_span.reset(token)
            self.spans.append(span)
        if hook is not None:
            span.counts.update(hook(result))
        return result

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "backends.run_backend":
                backend = sig.bind(*args, **kwargs).arguments["backend"]
                counts = {"kind": _BACKEND_KINDS[backend.kind]}
                return self.call(name, fn, *args, counts=counts, **kwargs)
            if hook is None:
                return self.call(name, fn, *args, **kwargs)
            arguments = sig.bind(*args, **kwargs).arguments
            return self.call(name, fn, *args, **kwargs,
                             hook=lambda result: hook(arguments, result))

        return traced

    @contextmanager
    def installed(self):
        """Wrap every import site of the traced functions, restoring them after."""
        modules = {n.split(".", 1)[1]: m for n, m in list(sys.modules.items())
                   if n.startswith("singersep.") and m is not None}
        targets = {}
        for name, hook in LAYERS.items():
            module, func = name.split(".")
            original = getattr(modules[module], func)
            targets[id(original)] = self._wrap(name, original, hook)
        targets[id(ThreadPoolExecutor)] = _ContextExecutor
        patched = []
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    patched.append((module, attr, value, f"{mod_name}.{attr}"))
        missing = set(REQUIRED_SITES) - {site for *_, site in patched}
        if missing:
            raise RuntimeError(f"call sites not found: {sorted(missing)}")
        try:
            for module, attr, value, _ in patched:
                setattr(module, attr, targets[id(value)])
            yield self
        finally:
            for module, attr, value, _ in patched:
                setattr(module, attr, value)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# --- interval arithmetic ------------------------------------------------------

def union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def length(merged) -> float:
    return sum(e - s for s, e in merged)


def overlap(a, b) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics for the spans of one operation."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
        if s.name == "backends.run_backend":
            by_name[f"backends.{s.counts['kind']}"].append(s)
    out: dict[str, float] = {}
    for name, group in by_name.items():
        own = union((s.start, s.end) for s in group)
        kids = union((c.start, c.end) for s in group for c in children[s.span_id])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.s"] = sum(s.end - s.start for s in group)
        out[f"{name}.wall_s"] = length(own)
        out[f"{name}.self_s"] = length(own) - overlap(own, kids)
        for s in group:
            for key, value in s.counts.items():
                if key != "kind":
                    out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    for name in ("audio.read_wav", "audio.write_wav"):
        out[f"{name}.mb"] = out.pop(f"{name}.bytes", 0) / 1e6
    out["backends.failed"] = sum(not s.ok for s in by_name["backends.run_backend"])
    out["selection.penalized"] = out.pop("selection.select_model.penalized", 0)
    return out

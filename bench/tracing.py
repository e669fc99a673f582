"""Span tracing of thetamoments layers from outside the package.

`install(tracer)` rebinds each traced public function in every `thetamoments`
module that imported it (so `from .x import f` call sites are covered), plus
`CharacterGroup.transform`, the conductor and table cached properties and
`ReportEnvelope.to_json`, for the rest of the process.  Nothing under src/
is edited.

A span records name, start, end, parent and counters.  Spans opened in
`parallel_map` pool threads are parented to the enclosing `parallel_map` span.
Self time is a span's duration minus the union of its children's intervals,
so overlapping pool-thread children are not subtracted twice.  tracemalloc
runs only while an `alloc_peak_mb` span is open, and only for the first
ALLOC_SAMPLE calls of each such layer per pass: tracing every allocation makes
a small Hurwitz call about 14x slower, and mellin-check makes thousands of
them.  When alloc spans overlap in different threads each sees the
process-wide traced peak.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
import tracemalloc
from functools import cached_property

# layer name -> (module, attribute names); "Class.attr" targets a class member
TARGETS = {
    "numtheory.group_structure": ("numtheory", ("group_structure",)),
    "numtheory.sieve": ("numtheory", ("sieve",)),
    "characters.build_group": ("characters", ("build_group",)),
    "characters.transform": ("characters", ("CharacterGroup.transform",)),
    "characters.conductors": ("characters", ("CharacterGroup.conductors",)),
    "characters.tables": ("characters", ("CharacterGroup.parity_bits", "CharacterGroup.orders",
                                         "CharacterGroup.primitive_mask",
                                         "CharacterGroup.quadratic_or_trivial_mask")),
    "theta.truncation_length": ("theta", ("truncation_length",)),
    "theta.theta_all_chars": ("theta", ("theta_all_chars",)),
    "theta.theta_moment": ("theta", ("theta_moment",)),
    "theta.mellin_check": ("theta", ("mellin_check",)),
    "specfun.hurwitz_zeta_vector": ("specfun", ("hurwitz_zeta_vector",)),
    "specfun.gamma_fn": ("specfun", ("gamma_fn",)),
    "lfunc.l_value": ("lfunc", ("l_value",)),
    "lfunc.l_values_all_chars": ("lfunc", ("l_values_all_chars",)),
    "lfunc.aggregates": ("lfunc", ("central_moment", "shifted_moment")),
    "lfunc.large_value_counts": ("lfunc", ("large_value_counts",)),
    "randmodel.sample": ("randmodel", ("sample",)),
    "randmodel.model_moment": ("randmodel", ("model_moment",)),
    "summation.parallel_map": ("summation", ("parallel_map",)),
    "summation.chunked_sum": ("summation", ("chunked_sum",)),
    "bounds": ("bounds", None),  # every public function in bounds.__all__
    "reports": ("reports", ("csv_text", "moment_csv", "make_envelope",
                            "ReportEnvelope.to_json")),
    "cli.run": ("cli", ("run",)),
}
ALLOC_LAYERS = ("characters.conductors", "specfun.hurwitz_zeta_vector",
                "lfunc.large_value_counts")
ALLOC_SAMPLE = 64


class Span:
    __slots__ = ("name", "start", "end", "children", "counts", "alloc_base", "alloc_peak")

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.children: list[Span] = []
        self.counts: dict[str, float] = {}
        self.alloc_base = self.alloc_peak = 0

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals."""
        covered, edge = 0.0, self.start
        for c in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        return self.end - self.start - covered

    def to_dict(self, t0: float) -> dict:
        return {"name": self.name,
                "start_ms": (self.start - t0) * 1e3,
                "dur_ms": (self.end - self.start) * 1e3,
                "self_ms": self.self_time() * 1e3,
                "counts": self.counts,
                "children": [c.to_dict(t0) for c in self.children]}


class Tracer:
    """Per-thread span stacks feeding one shared tree of root spans."""

    def __init__(self):
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._alloc_open: set[Span] = set()
        self._alloc_calls: dict[str, int] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, alloc: bool = False) -> Span:
        span = Span(name)
        stack = self._stack()
        with self._lock:
            (stack[-1].children if stack else self.roots).append(span)
            if alloc and self._alloc_calls.get(name, 0) < ALLOC_SAMPLE:
                self._alloc_calls[name] = self._alloc_calls.get(name, 0) + 1
                if not self._alloc_open:
                    tracemalloc.start()
                self._alloc_sync()
                span.alloc_base = span.alloc_peak = tracemalloc.get_traced_memory()[0]
                self._alloc_open.add(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        self._stack().pop()
        if span in self._alloc_open:
            with self._lock:
                self._alloc_sync()
                self._alloc_open.discard(span)
                span.add("alloc_peak_mb", (span.alloc_peak - span.alloc_base) / 2 ** 20)
                if not self._alloc_open:
                    tracemalloc.stop()
        span.end = time.perf_counter()

    def _alloc_sync(self) -> None:
        """Fold the traced peak since the last sync into every open alloc span."""
        if self._alloc_open:
            peak = tracemalloc.get_traced_memory()[1]
            for s in self._alloc_open:
                s.alloc_peak = max(s.alloc_peak, peak)
            tracemalloc.reset_peak()

    @contextlib.contextmanager
    def adopt(self, parent: Span):
        """Parent the spans a pool thread opens to `parent`."""
        stack = self._stack()
        pushed = not stack
        if pushed:
            stack.append(parent)
        try:
            yield
        finally:
            if pushed:
                stack.pop()


# ---------------------------------------------------------------------------
# wrappers


def _counters(layer: str, fn_name: str):
    """(before, after) hooks recording a call's work counts; either may be None."""
    if layer == "specfun.hurwitz_zeta_vector":  # entries attempted, failed calls too
        return (lambda span, args: span.add("entries", len(args[1]))), None
    if layer == "characters.transform":
        return None, lambda span, result: span.add("points", len(result))
    if layer == "theta.truncation_length":
        return None, lambda span, result: span.add("n_sum", result)
    if fn_name in ("csv_text", "to_json"):  # the serialisers that produce report text
        return None, lambda span, result: span.add("bytes", len(result))
    return None, None


def _wrap(tracer: Tracer, layer: str, fn):
    from thetamoments.errors import PrecisionError

    alloc = layer in ALLOC_LAYERS
    before, after = _counters(layer, fn.__name__)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(layer, alloc)
        if before is not None:
            before(span, args)
        try:
            result = fn(*args, **kwargs)
        except PrecisionError:
            span.add("fails", 1)
            raise
        finally:
            tracer.finish(span)
        if after is not None:
            after(span, result)
        return result

    return traced


def _wrap_parallel_map(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(f, items, workers=1):
        span = tracer.begin("summation.parallel_map")

        def adopted(x):
            with tracer.adopt(span):
                return f(x)

        try:
            return fn(adopted, items, workers)
        finally:
            tracer.finish(span)

    return traced


def install(tracer: Tracer) -> None:
    """Install every wrapper."""
    import thetamoments  # noqa: F401  (loads every submodule)

    pkg = [m for n, m in list(sys.modules.items())
           if m is not None and (n == "thetamoments" or n.startswith("thetamoments."))]
    for layer, (modname, attrs) in TARGETS.items():
        mod = sys.modules[f"thetamoments.{modname}"]
        if attrs is None:
            attrs = tuple(a for a in mod.__all__
                          if callable(getattr(mod, a)) and not isinstance(getattr(mod, a), type))
        for attr in attrs:
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[member]
                if isinstance(orig, cached_property):
                    new = cached_property(_wrap(tracer, layer, orig.func))
                    new.__set_name__(cls, member)
                else:
                    new = _wrap(tracer, layer, orig)
                setattr(cls, member, new)
                continue
            orig = getattr(mod, attr)
            new = (_wrap_parallel_map(tracer, orig) if layer == "summation.parallel_map"
                   else _wrap(tracer, layer, orig))
            for m in pkg:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, new)


# ---------------------------------------------------------------------------
# aggregation


def layer_stats(roots: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: calls, self_ms and summed counters (alloc peaks take the max)."""
    stats: dict[str, dict[str, float]] = {}
    todo = list(roots)
    while todo:
        span = todo.pop()
        todo.extend(span.children)
        s = stats.setdefault(span.name, {"calls": 0, "self_ms": 0.0})
        s["calls"] += 1
        s["self_ms"] += span.self_time() * 1e3
        for key, value in span.counts.items():
            s[key] = max(s.get(key, 0.0), value) if key == "alloc_peak_mb" else s.get(key, 0) + value
    return stats

"""Span tracing around the calls the benchmark makes into each layer.

No file of the program changes.  Spans are recorded by wrappers that sit
at the program's own injection points (``perf=``/``cost=`` model objects,
a :class:`~repro.explore.engine.MemoCache` subclass passed as ``cache=``)
and, where the API has none, by swapping the public name a caller looks up
at call time (``repro.explore.engine.iter_designs``,
``repro.service.wire.point_to_row`` ...).  :meth:`Tracer.patch` installs
those swaps only around a traced sweep and restores them afterwards.

A span is ``[name, start, end, parent, thread, tag]``; spans live in memory
and :meth:`Tracer.dump` writes them out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import defaultdict

import repro.core.enumerate as enumerate_mod
import repro.explore.engine as engine_mod
import repro.service.wire as wire_mod
from repro.cost.model import CostModel
from repro.explore.engine import EvaluationEngine, MemoCache
from repro.perf.model import PerfModel

_clock = time.perf_counter

#: Span name -> the layer (module) its self time is charged to.  The two
#: classifiers are defined in ``repro.core.enumerate``, whoever calls them.
LAYER_OF = {
    "enumerate": "core.enumerate",
    "classify.signature": "core.enumerate",
    "classify.realizable": "core.enumerate",
    "perf": "perf.model",
    "cost": "cost.model",
    "engine": "explore.engine",
    "memo.load": "explore.engine",
    "memo.get": "explore.engine",
    "memo.put": "explore.engine",
    "memo.flush": "explore.engine",
    "wire.encode": "service.wire",
    "wire.decode": "service.wire",
}
LAYERS = (
    "core.enumerate",
    "perf.model",
    "cost.model",
    "explore.engine",
    "service.wire",
    "service.coordinator",
    "api.session",
)


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.counters: dict[str, int] = defaultdict(int)
        self.enum_by_workload: dict[str, dict[str, int]] = {}
        self.thread_names: dict[int, str] = {}
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str, tag=None) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, _clock(), None, stack[-1] if stack else None,
                threading.get_ident(), tag]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = _clock()
        self._local.stack.pop()

    def call(self, name: str, tag, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span while tracing is on."""
        if not self.active:
            return fn(*args, **kwargs)
        span = self.open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call made while tracing is on."""

        def traced(*args, **kwargs):
            return self.call(name, None, fn, *args, **kwargs)

        return traced

    def wrap_generator(self, name: str, gen, tag=None):
        """Yield from ``gen``, with one span around each step of it."""
        try:
            while True:
                span = self.open(name, tag)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(span)
                yield item
        finally:
            gen.close()

    # -- name swaps --------------------------------------------------------
    def _swap(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def patch(self):
        """Swap the public names callers look up; tracing on inside."""
        signature = self.wrap("classify.signature", enumerate_mod.canonical_signature)
        self._swap(enumerate_mod, "canonical_signature", signature)
        self._swap(engine_mod, "canonical_signature", signature)
        self._swap(enumerate_mod, "is_realizable",
                   self.wrap("classify.realizable", enumerate_mod.is_realizable))
        self._swap(engine_mod, "iter_designs", self._traced_iter_designs())
        self._swap(EvaluationEngine, "stream", self._traced_stream())
        self._swap(wire_mod, "point_to_row",
                   self.wrap("wire.encode", wire_mod.point_to_row))
        self._swap(wire_mod, "row_to_point", self._traced_row_to_point())
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            # the server's threads are gone by the time the spans are dumped
            self.thread_names.update((t.ident, t.name) for t in threading.enumerate())
            while self._originals:
                owner, attr, value = self._originals.pop()
                setattr(owner, attr, value)

    def _traced_iter_designs(self):
        original = engine_mod.iter_designs
        tracer = self

        def iter_designs(statement, *args, stats=None, **kwargs):
            stats = stats if stats is not None else enumerate_mod.EnumerationStats()
            gen = original(statement, *args, stats=stats, **kwargs)
            yield from tracer.wrap_generator("enumerate", gen, statement.name)
            tally = tracer.enum_by_workload.setdefault(statement.name, defaultdict(int))
            for field in ("candidates", "duplicates", "unrealizable", "invalid", "yielded"):
                tally[field] += getattr(stats, field)

        return iter_designs

    def _traced_stream(self):
        original = EvaluationEngine.stream
        tracer = self

        def stream(engine, statement, *args, **kwargs):
            return tracer.wrap_generator(
                "engine", original(engine, statement, *args, **kwargs), statement.name
            )

        return stream

    def _traced_row_to_point(self):
        original = wire_mod.row_to_point
        traced = self.wrap("wire.decode", original)
        tracer = self

        def row_to_point(row, statement):
            point = traced(row, statement)
            # the NDJSON frame the row travelled in (outside the span)
            tracer.counters["wire.bytes"] += len(json.dumps(row)) + 1
            return point

        return row_to_point

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one JSON line (parents by index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, (name, start, end, parent, thread, tag) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent is None else index[id(parent)],
                    "thread": self.thread_names.get(thread, str(thread)),
                    "tag": tag,
                }) + "\n")


def traced_models(tracer: Tracer):
    """Perf/cost model and memo subclasses that record spans while tracing."""

    class TracedPerfModel(PerfModel):
        def evaluate(self, spec):
            tag = (spec.statement.name, f"{self.config.rows}x{self.config.cols}")
            return tracer.call("perf", tag, super().evaluate, spec)

    class TracedCostModel(CostModel):
        def evaluate(self, spec):
            tag = (spec.statement.name, f"{self.rows}x{self.cols}")
            return tracer.call("cost", tag, super().evaluate, spec)

    class TracedMemo(MemoCache):
        def load(self):
            return tracer.call("memo.load", None, super().load)

        def get(self, section, key):
            value = tracer.call("memo.get", section, super().get, section, key)
            if tracer.active and value is not None:
                tracer.counters["memo.hits"] += 1
                if section == "spaces":
                    tracer.counters["engine.space_replays"] += 1
            return value

        def put(self, section, key, value):
            return tracer.call("memo.put", section, super().put, section, key, value)

        def flush(self, force=False):
            if not tracer.active:
                return super().flush(force)
            before = _inode(self.path)
            tracer.call("memo.flush", None, super().flush, force)
            after = _inode(self.path)
            if after is not None and after != before:
                # flush writes a temp file and renames it over the old one
                tracer.counters["memo.flush.bytes"] += os.path.getsize(self.path)

    return TracedPerfModel, TracedCostModel, TracedMemo


def _inode(path):
    if path is None:
        return None
    try:
        return os.stat(path).st_ino
    except FileNotFoundError:
        return None


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyze(spans: list[list], root: list, root_layer: str, main_thread: int) -> dict:
    """Per-layer figures for one traced sweep.

    ``spans`` are the spans recorded during the sweep, ``root`` the
    benchmark's own span around the sweep call.  A span's self time is its
    duration minus its children's; the root's self time is what no other
    span, on any thread, covers, and is charged to ``root_layer``.
    """
    wall = root[2] - root[1]
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] is not None:
            child_time[id(span[3])] += span[2] - span[1]
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    tagged: dict[tuple, float] = defaultdict(float)
    tagged_calls: dict[tuple, int] = defaultdict(int)
    top_level = []
    for span in spans:
        if span is root:
            continue
        name, start, end, parent, thread, tag = span
        duration = end - start
        own = duration - child_time[id(span)]
        busy[name] += duration
        calls[name] += 1
        selfs[name] += own
        layer_self[LAYER_OF[name]] += own
        if parent is None or parent is root:
            top_level.append((start, end))
        if name in ("perf", "cost", "enumerate"):
            tag = tag if isinstance(tag, tuple) else (tag,)
            for part in tag:
                tagged[(name, part)] += duration
                tagged_calls[(name, part)] += 1
        if name == "engine" and thread != main_thread:
            busy["server"] += duration
    root_self = wall - _union_length(top_level, root[1], root[2])
    layer_self[root_layer] += root_self
    covered = sum(selfs.values())
    return {
        "wall": wall,
        "busy": busy,
        "calls": calls,
        "self": selfs,
        "layer_self": layer_self,
        "coverage": covered / wall if wall > 0 else 0.0,
        "tagged": tagged,
        "tagged_calls": tagged_calls,
    }

"""Spans recorded by the benchmark around calls into the pipeline.

A span is ``{id, name, start, end, parent, pass, pid, counts}`` with
wall-clock nanosecond times, so spans from the driver and from Ray
workers on one host share a time base.  Each process keeps its finished
spans in memory.  A worker writes them once, when the traced callable a
Ray task deserialized is released at the end of that task; the driver
writes its own when the pass is collected.  Nothing in the package is
changed: per-batch stages are wrapped in ``TracedCall`` and driver-side
calls in ``Tracer.span``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import time

_OPEN: list[str] = []  # ids of the spans open in this process, innermost last
_DONE: list[dict] = []  # finished spans not yet written
_IDS = itertools.count()


def _begin() -> tuple[str, str | None, int]:
    sid = f"{os.getpid()}-{next(_IDS)}"
    parent = _OPEN[-1] if _OPEN else None
    _OPEN.append(sid)
    return sid, parent, time.time_ns()


def _end(sid: str, parent: str | None, start: int, name: str, pass_id: int) -> dict:
    end = time.time_ns()
    _OPEN.pop()
    span = {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "pass": pass_id, "pid": os.getpid(), "counts": None}
    _DONE.append(span)
    return span


def flush(trace_dir: str) -> None:
    """Write this process's finished spans to one new file and forget them."""
    if not _DONE:
        return
    spans = list(_DONE)
    _DONE.clear()
    path = os.path.join(trace_dir, f"spans-{os.getpid()}-{time.time_ns()}.json")
    with open(path + ".tmp", "w") as f:
        json.dump(spans, f)
    os.rename(path + ".tmp", path)


class TracedCall:
    """A per-batch callable that records one span around each call of ``inner``.

    ``count(out)`` runs after the span closes, so the counts it records
    cost trace overhead but not span time."""

    def __init__(self, inner, name: str, trace_dir: str, pass_id: int, count=None):
        self.inner = inner
        self.name = name
        self.trace_dir = trace_dir
        self.pass_id = pass_id
        self.count = count

    def __call__(self, batch):
        sid, parent, start = _begin()
        try:
            out = self.inner(batch)
        finally:
            span = _end(sid, parent, start, self.name, self.pass_id)
        if self.count is not None:
            span["counts"] = self.count(out)
        return out

    def __del__(self):
        try:
            flush(self.trace_dir)
        except (OSError, TypeError, AttributeError):
            pass  # interpreter shutdown or trace dir already removed


class Tracer:
    """Driver-side handle: opens driver spans, wraps worker callables,
    captures ``Dataset.stats()`` of every materialized dataset, and
    collects the spans of one pass."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pass_id = 0
        self.summaries: list = []
        self._read: dict[str, list[dict]] = {}
        os.makedirs(trace_dir, exist_ok=True)

    def wrap(self, inner, name: str, count=None) -> TracedCall:
        return TracedCall(inner, name, self.trace_dir, self.pass_id, count)

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent, start = _begin()
        try:
            yield
        finally:
            _end(sid, parent, start, name, self.pass_id)

    @contextlib.contextmanager
    def stats_capture(self):
        """Record a span and the stats summary of every ``materialize()``
        (``write_parquet`` and the driver combine materialize internally)."""
        import ray.data

        original = ray.data.Dataset.materialize
        tracer = self

        def materialize(ds):
            with tracer.span("ray.materialize"):
                out = original(ds)
            tracer.summaries.append(out._get_stats_summary())
            return out

        ray.data.Dataset.materialize = materialize
        try:
            yield
        finally:
            ray.data.Dataset.materialize = original

    def collect(self, pass_id: int, batch_span: str | None = None,
                batches: int = 0, timeout_s: float = 5.0) -> list[dict]:
        """Spans of ``pass_id``.  Workers write theirs when a task's
        callable is released, just after the task returns, so wait until
        ``batches`` spans named ``batch_span`` have arrived."""
        flush(self.trace_dir)
        deadline = time.monotonic() + timeout_s
        while True:
            for name in os.listdir(self.trace_dir):
                if name.endswith(".json") and name not in self._read:
                    with open(os.path.join(self.trace_dir, name)) as f:
                        self._read[name] = json.load(f)
            spans = [s for group in self._read.values() for s in group
                     if s["pass"] == pass_id]
            seen = sum(s["name"] == batch_span for s in spans)
            if batch_span is None or seen >= batches or time.monotonic() > deadline:
                return spans
            time.sleep(0.02)


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: a span's duration minus the
    durations of its children (children run inside it, one at a time)."""
    child_ns: dict[str, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_ns.get(s["id"], 0)
        out[s["name"]] = out.get(s["name"], 0.0) + own / 1e9
    return out


def total_seconds(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name) / 1e9

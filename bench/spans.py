"""In-memory spans around calls into the pipeline's modules.

A Tracer swaps selected module attributes for thin wrappers that record
one span per call: name, start, end, parent span and the run id of the
stage call it belongs to. Every stage call made through ``Tracer.root``
is a root span with a fresh run id. The original attributes come back
when ``installed()`` exits, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    work: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Wrap:
    """One module attribute to wrap, looked up where its caller looks."""

    module: str
    attr: str
    span: str
    work: Optional[Callable[..., int]] = None


class Tracer:
    def __init__(self, wraps: tuple[Wrap, ...]):
        self.wraps = wraps
        self.spans: list[Span] = []
        self.stage_of: dict[str, str] = {}   # run id -> stage key
        self.scale: dict[str, float] = {}    # run id -> host-speed scale
        self._stack: list[int] = []
        self._run_id = ""

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for w in self.wraps:
                module = importlib.import_module(w.module)
                original = getattr(module, w.attr)
                saved.append((module, w.attr, original))
                setattr(module, w.attr, self._wrap(original, w))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn: Callable, w: Wrap) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = w.work(*args, **kwargs) if w.work is not None else 0
            return self._call(w.span, work, fn, args, kwargs)
        return traced

    def _call(self, name, work, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, self._run_id, work)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def root(self, run_id: str, stage: str, fn: Callable, *args):
        """Call ``fn(*args)`` as the root span of one stage call."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self._run_id = run_id
        self.stage_of[run_id] = stage
        try:
            return self._call("cli", 0, fn, args, {})
        finally:
            self._run_id = ""

    def totals(self, first: int, last: int) -> dict[tuple[str, str], "SpanTotals"]:
        """Per (span name, stage key) totals over ``spans[first:last]``.

        Self time is a span's duration minus the durations of its direct
        children; one thread runs the pipeline, so children never overlap.
        Durations are scaled to the reference host speed by the factor
        measured around their stage call.
        """
        spans = self.spans
        child_s = [0.0] * (last - first)
        for i in range(first, last):
            parent = spans[i].parent
            if parent is not None and parent >= first:
                child_s[parent - first] += spans[i].duration
        out: dict[tuple[str, str], SpanTotals] = {}
        for i in range(first, last):
            s = spans[i]
            scale = self.scale.get(s.run_id, 1.0)
            t = out.setdefault((s.name, self.stage_of[s.run_id]), SpanTotals())
            t.total_s += s.duration * scale
            t.self_s += (s.duration - child_s[i - first]) * scale
            t.calls += 1
            t.work += s.work
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run_id": s.run_id, "work": s.work,
             "scale": self.scale.get(s.run_id, 1.0)}
            for s in self.spans
        ]


@dataclass
class SpanTotals:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    work: int = 0

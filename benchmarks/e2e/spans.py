"""Benchmark-side span recorder.

The traced run wraps every call the benchmark makes into a public
``repro`` function in a span: name, start, end, parent span, op id.
Spans stay in memory and are written to ``spans.jsonl`` when the run
ends.  The program itself is not instrumented; the stage seconds it
already reports (``QueryResult.metrics``, ``ScoreResult``) are attached
as child spans marked ``source="program-metrics"``.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    op_id: "int | None"
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; each thread has its own stack of
    open spans, so client threads nest independently."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op_id(self) -> "int | None":
        """The op id of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1].op_id if stack else None

    def _new(self, name: str, start: float, end: float, attrs: dict) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        op_id = attrs.pop("op_id", parent.op_id if parent else None)
        with self._lock:
            span = Span(
                len(self.spans),
                name,
                start,
                end,
                parent.span_id if parent else None,
                op_id,
                attrs,
            )
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Time the enclosed block as a child of the innermost open span
        of this thread."""
        span = self._new(name, time.perf_counter(), 0.0, attrs)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, seconds: float, **attrs: object) -> Span:
        """Attach a duration the program reported (not timed here) as a
        child of the innermost open span.  The child is laid at the
        parent's start; only its length is meaningful."""
        stack = self._stack()
        start = stack[-1].start if stack else time.perf_counter()
        attrs.setdefault("source", "program-metrics")
        return self._new(name, start, start + seconds, attrs)

    # ------------------------------------------------------------ reading
    def self_seconds(self) -> "dict[str, float]":
        """Summed self time per span name (duration minus children,
        floored at zero: summed task time of parallel stages can exceed
        the statement that contains them)."""
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent] += span.seconds
        totals: "dict[str, float]" = {}
        for span in self.spans:
            own = max(0.0, span.seconds - child_seconds[span.span_id])
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op_id,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )

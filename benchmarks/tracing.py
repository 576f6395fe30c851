"""Spans recorded from outside the package, around each call into a layer.

A span holds its name, start, end, parent span id and op id.  Spans stay in
memory until the run ends; self time is a span's duration minus the time its
child spans cover.  Calls the package makes internally are invisible here, so
their time lands in the self time of the outermost traced call.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class NullTracer:
    """The untraced path: calls straight through."""

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1
        # Seconds spent recording spans, per op: the tracer's own cost.
        self.bookkeeping: dict[int, float] = defaultdict(float)

    def call(self, name, fn, *args):
        entered = perf_counter()
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(name, start, end, parent, self.op)
            self.bookkeeping[self.op] += start - entered + perf_counter() - end


    def totals(self, ops: int) -> dict[str, tuple[int, float]]:
        """Map each span name to (calls, summed self seconds) over ops 0..ops-1."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span_id, span in enumerate(self.spans):
            if span.op < ops:
                calls[span.name] += 1
                self_s[span.name] += span.end - span.start - covered[span_id]
        return {name: (calls[name], self_s[name]) for name in calls}

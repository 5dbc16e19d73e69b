"""In-memory spans recorded by the benchmark around each public call.

Nothing inside the package is instrumented: a span covers one call the
benchmark makes into a module, and the request span is its parent.
Spans stay in a list and are written out when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    request: int
    error: str | None = None


class NullTracer:
    """Untraced runs: call straight through."""

    def begin(self, request_id: int, kind: str) -> None:
        pass

    def end(self, error: str | None = None) -> None:
        pass

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[Span] = []
        self._request_span: int | None = None
        self._request_id = -1

    def begin(self, request_id: int, kind: str) -> None:
        self._request_id = request_id
        self._request_span = len(self.spans)
        self.spans.append(Span(kind, "request", time.perf_counter(), 0.0, None, request_id))

    def end(self, error: str | None = None) -> None:
        span = self.spans[self._request_span]
        span.end = time.perf_counter()
        span.error = error
        self._request_span = None

    def call(self, layer, fn, *args, **kwargs):
        span = Span(fn.__name__, layer, time.perf_counter(), 0.0,
                    self._request_span, self._request_id)
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per layer: span duration minus its children's."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for i, span in enumerate(spans):
        own = span.end - span.start - child_time[i]
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals

"""Spans recorded by the benchmark around each call it makes into a layer.

A workload makes every call into the library through ``tracer.call(name,
fn, *args)``.  The untraced ``Tracer`` simply calls ``fn``; the
``SpanTracer`` also records a span (name, start, end, parent) and keeps
it in memory until the run ends.  Span names are ``<module>.<function>``,
so the per-layer metrics are sums of span durations by name.
"""

from __future__ import annotations

import time


class Tracer:
    """Calls straight through; used for every end-to-end measurement."""

    traced = False

    def call(self, name, fn, *args):
        return fn(*args)

    def open(self, name):
        return None

    def close(self, span_id):
        pass


class SpanTracer(Tracer):
    """Records one span per call, nested through a stack of open spans."""

    traced = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name):
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        })
        self._stack.append(span_id)
        return span_id

    def close(self, span_id):
        self.spans[span_id]["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        span_id = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(span_id)

    def totals(self, first_span: int = 0) -> dict[str, float]:
        """Summed duration per span name, over spans from ``first_span`` on."""
        out: dict[str, float] = {}
        for span in self.spans[first_span:]:
            out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
        return out

"""In-memory spans for the traced benchmark pass.

A span records its name, start, end, the span that contains it and the op it
belongs to.  Calls of one name inside the same open span and op merge into
one record, which counts the calls and adds up their seconds; so a call made
once per crystal element, such as total_D, costs one record per op, not one
per element.  Spans stay in memory and are written out with the pass result.
The untraced pass uses NULL_TRACER, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._index: dict = {}
        self.op: str | None = None

    def _enter(self, name: str) -> float:
        parent = self._open[-1] if self._open else None
        key = (parent, name, self.op)
        k = self._index.get(key)
        start = time.perf_counter()
        if k is None:
            k = self._index[key] = len(self.spans)
            self.spans.append({"name": name, "start": start, "end": None,
                               "parent": parent, "op": self.op,
                               "calls": 0, "seconds": 0.0})
        self.spans[k]["calls"] += 1
        self._open.append(k)
        return start

    def _exit(self, start: float) -> None:
        record = self.spans[self._open.pop()]
        record["end"] = end = time.perf_counter()
        record["seconds"] += end - start

    @contextmanager
    def span(self, name: str):
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(start)

    def timed(self, name: str, fn, count=None):
        """fn wrapped in a span; count(result, *args) sees each result."""
        def call(*args, **kwargs):
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(start)
            if count is not None:
                count(result, *args)
            return result
        return call

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of each span's children.
        A child runs only while its parent is open, so its seconds are part
        of the parent's."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["seconds"]
        out: dict[str, float] = {}
        for s, inner in zip(self.spans, covered):
            out[s["name"]] = out.get(s["name"], 0.0) + s["seconds"] - inner
        return out


class NullTracer:
    op = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()

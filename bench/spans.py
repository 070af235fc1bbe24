"""Spans around the benchmark's calls into the package, kept in memory.

A span records its name, start, end, parent span and job id, plus the
counts attached at that call (classes walked, points scanned, the
certificate kind).  ``NullTracer`` has the same interface and records
nothing: the untraced run pays one attribute lookup and one no-op context
per call.
"""

from __future__ import annotations

from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "job", "attrs", "start", "end", "parent", "index", "error")

    def __init__(self, tracer, name, job, attrs):
        self.tracer = tracer
        self.name = name
        self.job = job
        self.attrs = attrs
        self.error = None

    def __enter__(self):
        stack = self.tracer._stack
        self.parent = stack[-1].index if stack else None
        self.index = len(self.tracer.spans)
        self.tracer.spans.append(self)
        stack.append(self)
        self.start = perf_counter()
        return self.attrs

    def __exit__(self, exc_type, exc, tb):
        self.end = perf_counter()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.error = exc_type.__name__
        return False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "job": self.job,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "error": self.error,
            **self.attrs,
        }


class Tracer:
    """Records every span; ``job`` sets the job id given to new spans."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self.job = None

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, self.job, attrs)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return {}

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    job = None
    _null = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._null


def self_times(spans: list[_Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own

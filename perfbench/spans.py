"""In-memory spans around the benchmark's calls into the library.

A span records (name, start, end, parent span, operation id).  Names are
"<module>.<function>" for calls into a crepant module, "op.<kind>" for
the root span of one operation and "bench.check" for the checks of its
output.  Spans are only opened by the benchmark's
own files; nothing inside the library is instrumented, so a layer's time is
the time of the benchmark's calls into it.

Self time of a span is its duration minus the duration of its direct
children; the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import os
import time

_clock = time.perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, _clock(), 0.0, parent, tr.op])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = _clock()
        tr.stack.pop()
        return False


class Tracer:
    """Records spans in memory; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.op = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self, ops_only: bool = False) -> dict:
        """{name: [calls, total seconds, self seconds]} over all spans, or
        over the spans of operations only (set-up excluded)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            if ops_only and op is None:
                continue
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[i]
        return out

    def write(self, path: str, summary: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "summary": summary,
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    op = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


def span_cost_s(samples: int = 20_000) -> float:
    """Measured cost of opening and closing one nested span, in seconds."""
    tr = Tracer()
    with tr.span("calibrate"):
        t0 = _clock()
        for _ in range(samples):
            with tr.span("x"):
                pass
        t1 = _clock()
    return (t1 - t0) / samples

"""Spans and counts recorded around the benchmark's calls into each layer.

A span is opened by the benchmark around one call into the library, so
work nested inside that call is charged to the outer call.  Counts are
added by the benchmark from the inputs and outputs it sees, which is how
nested work is attributed to the layer that does it.

``NullTracer`` is used for untraced runs: its ``span`` returns a shared
no-op context manager and its ``count`` does nothing, so the untraced
run pays only an attribute lookup per call site.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def job(self, job_id):
        return _NULL

    def span(self, key, name, expected=()):
        return _NULL

    def count(self, key, amount=1):
        pass


class _Span:
    __slots__ = ("tracer", "key", "name", "expected", "index")

    def __init__(self, tracer, key, name, expected):
        self.tracer, self.key, self.name, self.expected = tracer, key, name, expected

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else None
        tr.spans.append([self.key, self.name, time.perf_counter(), None, parent, tr.job_id, False])
        tr.stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        record = tr.spans[self.index]
        record[3] = time.perf_counter()
        tr.stack.pop()
        if exc_type is not None and not issubclass(exc_type, self.expected):
            record[6] = True
        return False


class Tracer:
    """Keeps every span in memory; ``write`` dumps them as JSON lines at the end.

    Span keys are ``<layer>`` or ``<layer>.<part>`` (``analytics.gram``);
    the layer is the part before the first dot.  The job span has key
    ``job`` and is the parent of every layer span opened inside it.
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job_id = None

    @contextlib.contextmanager
    def job(self, job_id):
        self.job_id = job_id
        with self.span("job", "job"):
            yield
        self.job_id = None

    def span(self, key, name, expected=()):
        return _Span(self, key, name, expected)

    def count(self, key, amount=1):
        self.counts[key] += amount

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (key, name, start, end, parent, job_id, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "key": key, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job_id, "error": error,
                }) + "\n")

    def summary(self) -> dict:
        """Per span key: calls, busy seconds, self seconds and errors."""
        child_time = defaultdict(float)
        for key, name, start, end, parent, job_id, error in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (key, name, start, end, parent, job_id, error) in enumerate(self.spans):
            row = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["errors"] += int(error)
        return out

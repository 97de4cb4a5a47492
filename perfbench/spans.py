"""In-memory spans around the benchmark's own calls into nzeck, and the
order statistics the report is built from."""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records one span per `span()` block: name, start, end, parent span
    and operation id, plus any attributes the caller attaches.

    Spans stay in memory until `write()`; nothing is timed or stored unless
    the benchmark runs with tracing on.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "op": op, **attrs, "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off: records nothing."""

    def span(self, name: str, op: int | None = None, **attrs):
        return nullcontext({})


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0

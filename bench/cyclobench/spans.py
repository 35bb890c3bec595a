"""In-memory spans for the traced run, and their self times.

A span is a dict with an id, the id of its parent span (None at the
root), the id of the call it belongs to, a name, start and end times
from `time.perf_counter`, and free-form attributes such as cosets in
and out. Spans are only recorded by the benchmark, around its calls into
cycloset's public functions; nothing inside the library is touched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._call: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "call": self._call,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def call(self, call_id: int, **attrs):
        """A span named "call" whose descendants carry `call_id`."""
        outer = self._call
        self._call = call_id
        try:
            with self.span("call", **attrs) as rec:
                yield rec
        finally:
            self._call = outer

    def record(self, parent: dict, name: str, start: float, end: float, **attrs) -> dict:
        """Add a finished child of `parent` whose times are already known.

        Used for intervals a public function reports about itself, such
        as the sweep time inside `verify`.
        """
        rec = {
            "id": len(self.spans),
            "parent": parent["id"],
            "call": parent["call"],
            "name": name,
            "start": start,
            "end": end,
            "attrs": attrs,
        }
        self.spans.append(rec)
        return rec


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            lo, hi = max(s["start"], parent["start"]), min(s["end"], parent["end"])
            if hi > lo:
                children.setdefault(s["parent"], []).append((lo, hi))
    out = {}
    for s in spans:
        covered, reach = 0.0, float("-inf")
        for lo, hi in sorted(children.get(s["id"], [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = duration(s) - covered
    return out

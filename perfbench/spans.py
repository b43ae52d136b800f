"""The benchmark's own span recorder and per-op attribution.

Spans are recorded around calls into the program's public functions
(by wrapping them for the length of a traced phase), kept in memory,
and attributed per op: every span's *self* time is its duration minus
the durations of the spans directly under it, so the self times of one
op's spans plus the op span's own remainder add up to the op's wall
time by construction.  What can go wrong is a span recorded outside
every op, whose time no op would carry: :func:`self_times` refuses
those.
"""

from __future__ import annotations

import functools
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass

from common import CheckFailed


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int
    op: int | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans for one single-threaded benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent,
                                   self.op))

    def wrap(self, owner, attr: str, name: str, name_of=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``name_of(*args)``, when given, names each call's span instead.
        """
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name_of(*args) if name_of else name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, None if inherited else original))

    def unwrap_all(self) -> None:
        """Restore every wrapped function (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def begin_op(self, op: int) -> None:
        """Open an op span that is not a ``with`` block (train epochs)."""
        self.op = op
        self._op_start = time.perf_counter()
        self._op_id = next(self._ids)
        self._stack.append(self._op_id)

    def end_op(self, name: str) -> None:
        end = time.perf_counter()
        self._stack.remove(self._op_id)
        self.spans.append(Span(name, self._op_start, end, self._op_id, 0,
                               self.op))
        self.op = None


def self_times(spans: list[Span], op_span_name: str) -> list[dict]:
    """Per-op self time by span name, plus the op's unattributed rest.

    Returns one dict per op span, in op order:
    ``{"op": id, "wall": s, "self": {name: s}, "total": {name: s},
    "count": {name: n}, "unattributed": s}`` (``total`` holds the
    spans' full durations).  ``sum(self.values()) + unattributed ==
    wall`` up to rounding.  Raises :class:`CheckFailed` for a span that
    no op span encloses.
    """
    by_id = {s.span_id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    ops = [s for s in spans if s.name == op_span_name]
    results = {s.span_id: {"op": s.op, "wall": s.dur, "self": {},
                           "total": {}, "count": {},
                           "unattributed": s.dur - child_time.get(
                               s.span_id, 0.0)} for s in ops}
    for s in spans:
        if s.name == op_span_name:
            continue
        root = s
        while root.parent and root.name != op_span_name:
            root = by_id[root.parent]
        entry = results.get(root.span_id)
        if entry is None:
            raise CheckFailed(f"span {s.name} (op {s.op}) lies outside "
                              f"every {op_span_name} span")
        own = s.dur - child_time.get(s.span_id, 0.0)
        entry["self"][s.name] = entry["self"].get(s.name, 0.0) + own
        entry["total"][s.name] = entry["total"].get(s.name, 0.0) + s.dur
        entry["count"][s.name] = entry["count"].get(s.name, 0) + 1
    return [results[s.span_id] for s in ops]


def program_span_self(events: list[dict]) -> dict[str, float]:
    """Self time per name over the program's ``SWORDFISH_TRACE`` events."""
    child: dict[str, float] = {}
    for e in events:
        if e.get("parent"):
            child[e["parent"]] = child.get(e["parent"], 0.0) + e["dur_s"]
    totals: dict[str, float] = {}
    for e in events:
        own = e["dur_s"] - child.get(e["span"], 0.0)
        totals[e["name"]] = totals.get(e["name"], 0.0) + own
    return totals

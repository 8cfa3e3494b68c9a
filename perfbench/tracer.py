"""Outside-in tracer: wraps public negprec callables, records spans in memory.

A span is (id, name, start, end, parent id, attributes). Calls are strictly
nested on one thread, so a span's self time is its duration minus the sum
of its direct children's durations, and self plus children equals the span.
Each name is patched where its caller looks it up (a module global or a
class attribute); `restore()` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id, name, start, parent, attrs):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent, attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs=None, after=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        attrs(*args, **kwargs) gives span attributes from the call's
        arguments; after(span, result, *args, **kwargs) runs once the span
        has closed, so what it computes is not charged to the span.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def self_times(self) -> dict[int, float]:
        kids = self.children()
        return {
            s.id: s.duration - sum(c.duration for c in kids.get(s.id, ())) for s in self.spans
        }

    def check_nesting(self) -> bool:
        """Children lie inside their parent and do not overlap, so a span's
        self time is non-negative and self time plus the child spans equals
        the span."""
        kids = self.children()
        for span in self.spans:
            prev_end = span.start
            for c in kids.get(span.id, ()):
                if c.start < prev_end or c.end > span.end:
                    return False
                prev_end = c.end
        return True

    def write(self, path: Path, counts: dict) -> None:
        """Spans as JSON lines (times relative to the first span) plus the
        counts as the final line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        selfs = self.self_times()
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start_s": round(s.start - t0, 9), "end_s": round(s.end - t0, 9),
                    "self_s": round(selfs[s.id], 9), "attrs": s.attrs,
                }))
                fh.write("\n")
            fh.write(json.dumps({"counts": counts}))
            fh.write("\n")


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0

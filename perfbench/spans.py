"""In-memory spans around calls into slitlab's modules, and their self time.

A span records one call: its name, start and end (``time.perf_counter``),
the span that was open when it began (its parent), the id of the
invocation it belongs to, the process's ``ru_maxrss`` high-water mark at
both ends, and an optional work count.  Spans stay in memory until the
invocation ends; the caller then writes them out once.
"""

from __future__ import annotations

import functools
import resource
import time
from dataclasses import asdict, dataclass


def max_rss_kb() -> int:
    """High-water resident set size of this process (kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    rss_start_kb: int
    rss_end_kb: int
    count: int | None = None


class Recorder:
    """Wraps attributes so that each call through them records a span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced version.

        ``owner`` is a module or a class; a function set on a class is still
        bound as a method.  ``count(args, result)`` gives the span's work
        count, if any.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._call(name, original, args, kwargs, count)

        setattr(owner, attr, traced)

    def _call(self, name, fn, args, kwargs, count=None):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), float("nan"), parent, self.run_id,
                    max_rss_kb(), 0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                span.count = int(count(args, result))
            return result
        finally:
            span.end = time.perf_counter()
            span.rss_end_kb = max_rss_kb()
            self._open.pop()

    def as_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    self_rss_kb: int = 0
    count: int = 0


def self_totals(spans: list[dict]) -> dict[str, LayerTotals]:
    """Per span name: calls, self time, self ``ru_maxrss`` growth and counts.

    Self time is a span's duration minus the durations of its child spans;
    calls within one invocation are sequential, so children never overlap.
    Self RSS growth is the rise of the high-water mark inside the span
    minus the rises its children account for.
    """
    child_s = [0.0] * len(spans)
    child_rss = [0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
            child_rss[span["parent"]] += span["rss_end_kb"] - span["rss_start_kb"]
    totals: dict[str, LayerTotals] = {}
    for i, span in enumerate(spans):
        layer = totals.setdefault(span["name"], LayerTotals())
        layer.calls += 1
        layer.self_s += span["end"] - span["start"] - child_s[i]
        layer.self_rss_kb += span["rss_end_kb"] - span["rss_start_kb"] - child_rss[i]
        layer.count += span["count"] or 0
    return totals

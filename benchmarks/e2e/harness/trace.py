"""Spans recorded from the harness, around calls into each layer.

One :class:`Tracer` per traced pass. Spans are kept in memory and written
as JSON lines when the pass is over. A span's *duration* is end minus
start minus the calibration-kernel time that fell inside it; its *self
time* is that duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, TextIO


class Span:
    """One timed call: a context manager handed out by the tracer."""

    __slots__ = (
        "tracer", "name", "index", "parent", "start", "end", "stolen",
    )

    def __init__(
        self, tracer: "Tracer", name: str, index: int, parent: int
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.index = index
        #: Index of the enclosing span, -1 for a root.
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        #: Calibration-kernel seconds that ran while this span was open.
        self.stolen = 0.0

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self)
        self.start = self.tracer._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = self.tracer._clock()
        self.tracer._stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start - self.stolen


class Tracer:
    """Records nested spans of one workload repetition."""

    def __init__(
        self,
        workload: str,
        rep: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.workload = workload
        self.rep = rep
        self._clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str) -> Span:
        parent = self._stack[-1].index if self._stack else -1
        span = Span(self, name, len(self.spans), parent)
        self.spans.append(span)
        return span

    def steal(self, seconds: float) -> None:
        """Take *seconds* of foreign work out of every open span."""
        for span in self._stack:
            span.stolen += seconds

    # -- derived -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.duration - child_time[span.index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def call_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def root_duration(self) -> float:
        return sum(
            span.duration for span in self.spans if span.parent < 0
        )

    def write_jsonl(self, handle: TextIO) -> int:
        """Write one JSON object per span; returns the span count.

        Times are seconds since this tracer's first span.
        """
        origin = self.spans[0].start if self.spans else 0.0
        for span in self.spans:
            record = {
                "workload": self.workload,
                "rep": self.rep,
                "id": span.index,
                "parent": span.parent,
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "stolen": span.stolen,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(self.spans)

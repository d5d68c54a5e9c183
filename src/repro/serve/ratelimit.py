"""Per-client rate limiting on a logical-tick clock.

:class:`SlidingWindowLimiter` admits at most ``limit`` requests in any
trailing ``window`` ticks, per client. It is exact (it keeps the
admitted tick deque), so the bound holds for every window placement, not
just aligned ones. It is a pure function of its inputs: time is an
integer tick injected by the caller (the server wires in its own tick
source; tests drive arbitrary adversarial schedules), so admission
decisions are replayable and the determinism analyzer's wall-clock rule
holds for this package exactly as it does for the ingest engine.

The limiter answers one question — "may this client's request pass at
this tick?" — and never blocks; escalation (bursts, auto-block,
healing) lives in :mod:`repro.serve.guard` on top.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict


class SlidingWindowLimiter:
    """At most *limit* admissions in any trailing *window* ticks."""

    def __init__(self, limit: int, window: int):
        if limit < 1:
            raise ValueError("limit must be positive")
        if window < 1:
            raise ValueError("window must be positive")
        self.limit = limit
        self.window = window
        self._admitted: Dict[str, Deque[int]] = {}

    def _prune(self, events: Deque[int], tick: int) -> None:
        floor = tick - self.window
        while events and events[0] <= floor:
            events.popleft()

    def allow(self, client: str, tick: int) -> bool:
        events = self._admitted.get(client)
        if events is None:
            events = self._admitted[client] = deque()
        self._prune(events, tick)
        if len(events) >= self.limit:
            return False
        events.append(tick)
        return True

    def retry_after(self, client: str, tick: int) -> int:
        events = self._admitted.get(client)
        if not events or len(events) < self.limit:
            return 0
        # The oldest admitted tick leaves the window at oldest + window.
        return max(0, events[0] + self.window - tick)

    def forget(self, client: str) -> None:
        self._admitted.pop(client, None)

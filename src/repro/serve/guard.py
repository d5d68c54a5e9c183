"""Burst detection, adaptive throttling and auto-block escalation.

The limiter in :mod:`repro.serve.ratelimit` bounds a *compliant*
client's request rate; this guard handles the rest of the threat model
of a service that measures DDoS protection and is therefore itself a
target:

* **burst detection** — more than ``BURST_LIMIT`` arrivals (admitted or
  not) inside ``BURST_WINDOW`` ticks flips the client into a throttled
  state, independent of the limiter;
* **adaptive throttling** — while throttled, only every
  ``THROTTLE_FACTOR``-th request is even offered to the limiter,
  so a hammering client degrades gracefully instead of binarily;
* **auto-block escalation** — accumulated violations (limiter denials
  and burst trips) turn into a hard block whose duration doubles per
  repeat offence; a block expires on its own (release by tick), and a
  healed client — ``HEAL_AFTER`` consecutive admissions without a
  violation — is indistinguishable from a brand-new one.

Everything is keyed per client and runs on the same injected logical
ticks as the limiter: no wall clock anywhere in the decision path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.serve.ratelimit import SlidingWindowLimiter

#: The guard's one policy, in ticks and counts.
#: More than BURST_LIMIT arrivals inside BURST_WINDOW ticks trip a burst.
BURST_LIMIT = 30
BURST_WINDOW = 10
#: A burst throttles the client for THROTTLE_TICKS ticks, during which
#: only every THROTTLE_FACTOR-th request reaches the limiter.
THROTTLE_TICKS = 50
THROTTLE_FACTOR = 2
#: BLOCK_AFTER violations block the client for BLOCK_TICKS, times
#: ESCALATION per earlier offence, capped at MAX_BLOCK_TICKS.
BLOCK_AFTER = 5
BLOCK_TICKS = 500
ESCALATION = 2
MAX_BLOCK_TICKS = 100_000
#: HEAL_AFTER consecutive clean admissions forgive every offence.
HEAL_AFTER = 20

#: Decision reasons.
OK = "ok"
RATE_LIMITED = "rate-limited"
BURST = "burst"
THROTTLED = "throttled"
BLOCKED = "blocked"


@dataclass(frozen=True)
class Decision:
    """The guard's verdict for one request."""

    allowed: bool
    reason: str
    #: Ticks until a retry could succeed (0 when unknown/now).
    retry_after: int = 0


@dataclass
class _ClientState:
    arrivals: Deque[int] = field(default_factory=deque)
    violations: int = 0
    offences: int = 0
    clean_streak: int = 0
    blocked_until: Optional[int] = None
    throttled_until: Optional[int] = None
    throttle_phase: int = 0


class AdmissionGuard:
    """Per-client admission control over a sliding-window limiter."""

    def __init__(self, strategy: SlidingWindowLimiter):
        self.strategy = strategy
        self._clients: Dict[str, _ClientState] = {}
        #: reason → decision count, for the health endpoint.
        self.decisions: Dict[str, int] = {}

    # -- the decision path ---------------------------------------------------

    def admit(self, client: str, tick: int) -> Decision:
        """Decide one request from *client* arriving at *tick*."""
        state = self._clients.get(client)
        if state is None:
            state = self._clients[client] = _ClientState()
        if state.blocked_until is not None:
            if tick < state.blocked_until:
                return self._record(
                    Decision(
                        False, BLOCKED,
                        retry_after=state.blocked_until - tick,
                    )
                )
            # Release by tick: the block served its time.
            state.blocked_until = None
            state.violations = 0
        state.arrivals.append(tick)
        floor = tick - BURST_WINDOW
        while state.arrivals and state.arrivals[0] <= floor:
            state.arrivals.popleft()
        if len(state.arrivals) > BURST_LIMIT:
            state.throttled_until = tick + THROTTLE_TICKS
            return self._record(
                self._violation(
                    client, state, tick, BURST,
                    retry_after=BURST_WINDOW,
                )
            )
        if (
            state.throttled_until is not None
            and tick < state.throttled_until
        ):
            state.throttle_phase += 1
            if state.throttle_phase % THROTTLE_FACTOR != 0:
                return self._record(
                    Decision(
                        False, THROTTLED,
                        retry_after=1,
                    )
                )
        elif state.throttled_until is not None:
            state.throttled_until = None
            state.throttle_phase = 0
        if not self.strategy.allow(client, tick):
            return self._record(
                self._violation(
                    client, state, tick, RATE_LIMITED,
                    retry_after=self.strategy.retry_after(client, tick),
                )
            )
        state.clean_streak += 1
        if state.clean_streak >= HEAL_AFTER:
            # Healing: sustained good behaviour wipes the rap sheet.
            state.violations = 0
            state.offences = 0
            state.clean_streak = 0
        return self._record(Decision(True, OK))

    def _violation(
        self,
        client: str,
        state: _ClientState,
        tick: int,
        reason: str,
        retry_after: int,
    ) -> Decision:
        state.clean_streak = 0
        state.violations += 1
        if state.violations < BLOCK_AFTER:
            return Decision(False, reason, retry_after=retry_after)
        duration = min(
            MAX_BLOCK_TICKS,
            BLOCK_TICKS * ESCALATION ** min(state.offences, 16),
        )
        state.offences += 1
        state.violations = 0
        state.blocked_until = tick + duration
        state.arrivals.clear()
        state.throttled_until = None
        state.throttle_phase = 0
        return Decision(False, BLOCKED, retry_after=duration)

    def _record(self, decision: Decision) -> Decision:
        self.decisions[decision.reason] = (
            self.decisions.get(decision.reason, 0) + 1
        )
        return decision

    # -- introspection / manual control --------------------------------------

    def is_blocked(self, client: str, tick: int) -> bool:
        state = self._clients.get(client)
        return (
            state is not None
            and state.blocked_until is not None
            and tick < state.blocked_until
        )

    def blocked_clients(self, tick: int) -> Dict[str, int]:
        """client → ticks remaining, for currently blocked clients."""
        blocked: Dict[str, int] = {}
        for client in sorted(self._clients):
            state = self._clients[client]
            if state.blocked_until is not None and tick < state.blocked_until:
                blocked[client] = state.blocked_until - tick
        return blocked

    def release(self, client: str) -> None:
        """Manually clear *client*'s guard and strategy state."""
        self._clients.pop(client, None)
        self.strategy.forget(client)

    def stats(self) -> Dict[str, int]:
        """Decision counters by reason (canonical order)."""
        return {
            reason: self.decisions[reason]
            for reason in sorted(self.decisions)
        }

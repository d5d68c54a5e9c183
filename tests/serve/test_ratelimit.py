"""The rate limiter and the admission guard, on explicit ticks."""

from __future__ import annotations

import pytest

from repro.serve.guard import (
    BLOCK_AFTER,
    BLOCK_TICKS,
    BLOCKED,
    BURST,
    BURST_LIMIT,
    BURST_WINDOW,
    ESCALATION,
    HEAL_AFTER,
    MAX_BLOCK_TICKS,
    OK,
    RATE_LIMITED,
    THROTTLE_FACTOR,
    THROTTLE_TICKS,
    THROTTLED,
    AdmissionGuard,
    Decision,
)
from repro.serve.ratelimit import SlidingWindowLimiter


class TestSlidingWindow:
    def test_admits_up_to_limit_then_denies(self):
        limiter = SlidingWindowLimiter(limit=3, window=10)
        assert [limiter.allow("c", t) for t in range(5)] == [
            True, True, True, False, False,
        ]

    def test_window_slides_exactly(self):
        limiter = SlidingWindowLimiter(limit=1, window=10)
        assert limiter.allow("c", 0)
        assert not limiter.allow("c", 9)
        # The tick-0 admission leaves the trailing window at tick 10.
        assert limiter.allow("c", 10)

    def test_retry_after(self):
        limiter = SlidingWindowLimiter(limit=2, window=10)
        assert limiter.retry_after("new", 0) == 0
        limiter.allow("c", 0)
        limiter.allow("c", 4)
        assert not limiter.allow("c", 6)
        assert limiter.retry_after("c", 6) == 4

    def test_clients_are_independent(self):
        limiter = SlidingWindowLimiter(limit=1, window=100)
        assert limiter.allow("a", 0)
        assert limiter.allow("b", 0)
        assert not limiter.allow("a", 1)

    def test_forget_resets(self):
        limiter = SlidingWindowLimiter(limit=1, window=100)
        limiter.allow("c", 0)
        limiter.forget("c")
        assert limiter.allow("c", 1)

    @pytest.mark.parametrize("limit, window", [(0, 5), (5, 0)])
    def test_rejects_bad_parameters(self, limit, window):
        with pytest.raises(ValueError):
            SlidingWindowLimiter(limit=limit, window=window)


def wide_guard(strategy=None):
    """A guard whose limiter, unless given, never denies (isolates one
    feature)."""
    return AdmissionGuard(
        strategy or SlidingWindowLimiter(limit=10_000, window=1)
    )


def offend(guard, tick):
    """One clean admit at *tick*, then BLOCK_AFTER limiter denials at
    ``tick + 1`` (the guard's limiter must admit one per window)."""
    guard.admit("c", tick)
    for _ in range(BLOCK_AFTER):
        decision = guard.admit("c", tick + 1)
    return decision


class TestAdmissionGuard:
    def test_compliant_client_always_ok(self):
        guard = wide_guard()
        for tick in range(0, 200, 10):
            decision = guard.admit("calm", tick)
            assert decision == Decision(True, OK)
        assert guard.stats() == {OK: 20}

    def test_burst_trips_and_throttles(self):
        guard = wide_guard()
        decisions = [guard.admit("noisy", 0) for _ in range(BURST_LIMIT + 2)]
        reasons = [d.reason for d in decisions]
        assert reasons[:BURST_LIMIT] == [OK] * BURST_LIMIT
        assert decisions[BURST_LIMIT].reason == BURST
        assert decisions[BURST_LIMIT].retry_after == BURST_WINDOW
        # Now throttled: only every 2nd offered request passes.
        follow = [
            guard.admit("noisy", BURST_WINDOW + t * BURST_WINDOW)
            for t in range(4)
        ]
        assert follow[0].reason in (THROTTLED, OK)

    def test_throttle_admits_every_nth(self):
        guard = wide_guard()
        for _ in range(BURST_LIMIT):
            guard.admit("n", 0)
        tripped = guard.admit("n", 0)
        assert tripped.reason == BURST
        # Within THROTTLE_TICKS, spaced outside the burst window: the
        # first offered request is swallowed, the second passes.
        spacing = BURST_WINDOW + 1
        assert 2 * spacing < THROTTLE_TICKS and THROTTLE_FACTOR == 2
        reasons = [
            guard.admit("n", spacing * (i + 1)).reason for i in range(2)
        ]
        assert reasons == [THROTTLED, OK]

    def test_strategy_denial_reason_and_retry_after(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=50)
        )
        assert guard.admit("c", 0).reason == OK
        denied = guard.admit("c", 10)
        assert denied == Decision(False, RATE_LIMITED, retry_after=40)

    def test_blocks_after_repeated_violations(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=10_000)
        )
        assert guard.admit("c", 0).allowed
        reasons = [
            guard.admit("c", 20 * (i + 1)).reason
            for i in range(BLOCK_AFTER)
        ]
        assert reasons == [RATE_LIMITED] * (BLOCK_AFTER - 1) + [BLOCKED]
        after = 20 * BLOCK_AFTER + 1
        blocked = guard.admit("c", after)
        assert blocked.reason == BLOCKED
        assert blocked.retry_after > 0
        assert guard.is_blocked("c", after)
        assert "c" in guard.blocked_clients(after)

    def test_block_expires_by_tick(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=10)
        )
        guard.admit("c", 0)
        for i in range(BLOCK_AFTER):
            guard.admit("c", 1 + i)
        assert guard.is_blocked("c", BLOCK_AFTER)
        # After the block and outside the rate window: clean admit.
        later = BLOCK_AFTER + BLOCK_TICKS + 20
        assert not guard.is_blocked("c", later)
        assert guard.admit("c", later).allowed

    def test_block_duration_escalates_and_caps(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=5)
        )
        # Offences needed before the escalated duration passes the cap.
        offences = 1
        while BLOCK_TICKS * ESCALATION ** (offences - 1) < MAX_BLOCK_TICKS:
            offences += 1
        assert offences + 1 < HEAL_AFTER  # no healing in between
        durations = []
        tick = 0
        for _ in range(offences):
            decision = offend(guard, tick)
            assert decision.reason == BLOCKED
            durations.append(decision.retry_after)
            tick += 1 + decision.retry_after + 10
        assert durations[0] == BLOCK_TICKS
        assert durations[1] == BLOCK_TICKS * ESCALATION
        assert durations[-2] < MAX_BLOCK_TICKS
        # capped, not BLOCK_TICKS * ESCALATION ** (offences - 1)
        assert durations[-1] == MAX_BLOCK_TICKS

    def test_healing_wipes_the_rap_sheet(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=5)
        )
        first = offend(guard, 0)
        assert first.reason == BLOCKED  # offence 1
        assert first.retry_after == BLOCK_TICKS
        # Serve the time, then behave: spaced clean requests heal.
        tick = 1 + BLOCK_TICKS + 10
        for i in range(HEAL_AFTER):
            assert guard.admit("c", tick + i * 10).allowed
        # The next block starts from the base duration again.
        tick += HEAL_AFTER * 10
        relapse = offend(guard, tick)
        assert relapse.reason == BLOCKED
        assert relapse.retry_after == BLOCK_TICKS

    def test_release_forgets_guard_and_strategy(self):
        strategy = SlidingWindowLimiter(limit=1, window=10_000)
        guard = wide_guard(strategy=strategy)
        guard.admit("c", 0)
        assert not guard.admit("c", 1).allowed
        guard.release("c")
        assert guard.admit("c", 2).allowed

    def test_stats_counts_by_reason(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=100)
        )
        guard.admit("c", 0)
        guard.admit("c", 1)
        stats = guard.stats()
        assert stats[OK] == 1
        assert stats[RATE_LIMITED] == 1

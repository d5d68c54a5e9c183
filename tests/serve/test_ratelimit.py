"""The rate limiter and the admission guard, on explicit ticks."""

from __future__ import annotations

import pytest

from repro.serve.guard import (
    BLOCKED,
    BURST,
    OK,
    RATE_LIMITED,
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


def wide_guard(**overrides):
    """A guard whose limiter never denies (isolates one feature)."""
    defaults = dict(
        strategy=SlidingWindowLimiter(limit=10_000, window=1),
        burst_limit=5,
        burst_window=10,
        throttle_ticks=20,
        throttle_factor=2,
        block_after=3,
        block_ticks=100,
        escalation=2,
        max_block_ticks=1000,
        heal_after=4,
    )
    defaults.update(overrides)
    return AdmissionGuard(**defaults)


class TestAdmissionGuard:
    def test_compliant_client_always_ok(self):
        guard = wide_guard()
        for tick in range(0, 200, 10):
            decision = guard.admit("calm", tick)
            assert decision == Decision(True, OK)
        assert guard.stats() == {OK: 20}

    def test_burst_trips_and_throttles(self):
        guard = wide_guard()
        decisions = [guard.admit("noisy", t) for t in range(7)]
        assert [d.reason for d in decisions[:5]] == [OK] * 5
        assert decisions[5].reason == BURST
        # Now throttled: only every 2nd offered request passes.
        follow = [guard.admit("noisy", 100 + t * 20) for t in range(4)]
        assert follow[0].reason in (THROTTLED, OK)

    def test_throttle_admits_every_nth(self):
        guard = wide_guard(burst_limit=2, burst_window=5)
        for t in range(3):
            guard.admit("n", t)
        tripped = guard.admit("n", 3)
        assert tripped.reason == BURST
        # Within throttle_ticks, spaced outside the burst window: the
        # first offered request is swallowed, the second passes.
        reasons = [
            guard.admit("n", 10 + i * 6).reason for i in range(2)
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
        reasons = [guard.admit("c", 20 * (i + 1)).reason for i in range(3)]
        assert reasons == [RATE_LIMITED, RATE_LIMITED, BLOCKED]
        blocked = guard.admit("c", 61)
        assert blocked.reason == BLOCKED
        assert blocked.retry_after > 0
        assert guard.is_blocked("c", 61)
        assert "c" in guard.blocked_clients(61)

    def test_block_expires_by_tick(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=10)
        )
        guard.admit("c", 0)
        for i in range(3):
            guard.admit("c", 1 + i)
        assert guard.is_blocked("c", 4)
        # After the block and outside the rate window: clean admit.
        later = 4 + 100 + 20
        assert not guard.is_blocked("c", later)
        assert guard.admit("c", later).allowed

    def test_block_duration_escalates_and_caps(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=5),
            block_after=1,
            block_ticks=100,
            escalation=2,
            max_block_ticks=150,
            heal_after=10_000,
        )
        tick = 0
        guard.admit("c", tick)
        first = guard.admit("c", tick + 1)
        assert first.reason == BLOCKED and first.retry_after == 100
        tick += 1 + 100 + 10
        guard.admit("c", tick)
        second = guard.admit("c", tick + 1)
        assert second.reason == BLOCKED
        assert second.retry_after == 150  # capped, not 200

    def test_healing_wipes_the_rap_sheet(self):
        guard = wide_guard(
            strategy=SlidingWindowLimiter(limit=1, window=5),
            block_after=1,
            block_ticks=100,
            escalation=2,
            max_block_ticks=10_000,
            heal_after=3,
        )
        guard.admit("c", 0)
        assert guard.admit("c", 1).reason == BLOCKED  # offence 1
        # Serve the time, then behave: spaced clean requests heal.
        tick = 200
        for i in range(3):
            assert guard.admit("c", tick + i * 10).allowed
        # The next block starts from the base duration again.
        tick += 100
        guard.admit("c", tick)
        relapse = guard.admit("c", tick + 1)
        assert relapse.reason == BLOCKED
        assert relapse.retry_after == 100

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burst_limit": 0},
            {"burst_window": 0},
            {"throttle_factor": 0},
            {"block_after": 0},
            {"block_ticks": 0},
            {"escalation": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            wide_guard(**kwargs)

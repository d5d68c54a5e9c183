"""Property tests: limiter bounds hold under adversarial schedules.

Schedules are arbitrary non-decreasing tick sequences (bursts at one
tick included). The properties are the contracts the serve plane leans
on: no window placement ever sees more than ``limit`` admissions, a
denied client's ``retry_after`` is honest, and a blocked client always
heals back to a clean admit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.guard import BLOCKED, AdmissionGuard
from repro.serve.ratelimit import SlidingWindowLimiter

# Non-decreasing arrival ticks: cumulative sums of small gaps, so the
# schedules concentrate bursts (gap 0) and window-edge cases (gap ~=
# window) rather than sampling sparse uniform ticks.
schedules = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=120
).map(
    lambda gaps: [sum(gaps[: i + 1]) for i in range(len(gaps))]
)


@settings(max_examples=200, deadline=None)
@given(
    ticks=schedules,
    limit=st.integers(min_value=1, max_value=8),
    window=st.integers(min_value=1, max_value=30),
)
def test_sliding_window_bound_holds_everywhere(ticks, limit, window):
    limiter = SlidingWindowLimiter(limit=limit, window=window)
    admitted = [
        tick for tick in ticks if limiter.allow("adv", tick)
    ]
    # Every trailing window placement, not just the aligned ones.
    for tick in admitted:
        in_window = [t for t in admitted if tick - window < t <= tick]
        assert len(in_window) <= limit


@settings(max_examples=200, deadline=None)
@given(
    ticks=schedules,
    limit=st.integers(min_value=1, max_value=4),
    window=st.integers(min_value=1, max_value=20),
)
def test_denied_retry_after_is_honest(ticks, limit, window):
    """Retrying exactly retry_after ticks later succeeds (quiet client)."""
    limiter = SlidingWindowLimiter(limit=limit, window=window)
    for tick in ticks:
        if not limiter.allow("adv", tick):
            wait = limiter.retry_after("adv", tick)
            assert wait > 0
            assert limiter.allow("adv", tick + wait)
            break


@settings(max_examples=150, deadline=None)
@given(ticks=schedules)
def test_guard_release_heals_to_clean_admit(ticks):
    """However abusive the history, release() restores a clean slate."""
    guard = AdmissionGuard(
        SlidingWindowLimiter(limit=2, window=8),
        burst_limit=3,
        burst_window=5,
        block_after=2,
        block_ticks=50,
    )
    for tick in ticks:
        guard.admit("adv", tick)
    guard.release("adv")
    assert guard.admit("adv", ticks[-1] + 1).allowed


@settings(max_examples=150, deadline=None)
@given(ticks=schedules)
def test_guard_block_expires_into_admission(ticks):
    """However abusive the history, blocks expire by tick: once every
    window, throttle and block horizon has passed, the client is
    admitted again without any manual intervention."""
    guard = AdmissionGuard(
        SlidingWindowLimiter(limit=2, window=8),
        burst_limit=3,
        burst_window=5,
        throttle_ticks=50,
        block_after=2,
        block_ticks=50,
        escalation=2,
        max_block_ticks=500,
    )
    saw_block = False
    for tick in ticks:
        decision = guard.admit("adv", tick)
        saw_block = saw_block or decision.reason == BLOCKED
    # Beyond every horizon the guard knows: max block (500), the
    # throttle run-out (50) and the strategy/burst windows (8).
    healed_at = ticks[-1] + 500 + 50 + 8 + 1
    if saw_block:
        assert not guard.is_blocked("adv", healed_at)
    assert guard.admit("adv", healed_at).allowed

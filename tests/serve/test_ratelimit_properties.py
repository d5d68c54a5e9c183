"""Property tests: limiter bounds hold under adversarial schedules.

Schedules are arbitrary non-decreasing tick sequences (bursts at one
tick included). The properties are the contracts the serve plane leans
on: no window placement ever sees more than ``limit`` admissions, a
denied client's ``retry_after`` is honest, and a blocked client always
heals back to a clean admit.
"""

from __future__ import annotations

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.serve.guard import (
    BLOCKED,
    BURST_WINDOW,
    MAX_BLOCK_TICKS,
    THROTTLE_TICKS,
    AdmissionGuard,
)
from repro.serve.ratelimit import SlidingWindowLimiter

# Non-decreasing arrival ticks: cumulative sums of small gaps, so the
# schedules concentrate bursts (gap 0) and window-edge cases (gap ~=
# window) rather than sampling sparse uniform ticks.
def schedules_with_gaps(max_gap):
    return st.lists(
        st.integers(min_value=0, max_value=max_gap), min_size=1, max_size=120
    ).map(
        lambda gaps: [sum(gaps[: i + 1]) for i in range(len(gaps))]
    )


schedules = schedules_with_gaps(12)
# The guard blocks only after BLOCK_AFTER (5) violations; gaps well
# under the guard limiter's 8 ticks / 2 admits make blocks common.
guard_schedules = st.one_of(schedules, schedules_with_gaps(3))

#: One request per tick: the guard's limiter below (2 per 8 ticks)
#: denies six of every eight, so the guard blocks within the first
#: window. Both guard properties run it, so each reaches BLOCKED.
DENSE = list(range(40))


def drive(guard, ticks):
    """Admit *ticks* for one client; True when any decision blocked."""
    saw_block = False
    for tick in ticks:
        saw_block = guard.admit("adv", tick).reason == BLOCKED or saw_block
    if saw_block:
        event("reached BLOCKED")
    if ticks == DENSE:
        assert saw_block
    return saw_block


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
@given(ticks=guard_schedules)
@example(ticks=DENSE)
def test_guard_release_heals_to_clean_admit(ticks):
    """However abusive the history, release() restores a clean slate."""
    guard = AdmissionGuard(SlidingWindowLimiter(limit=2, window=8))
    drive(guard, ticks)
    guard.release("adv")
    assert guard.admit("adv", ticks[-1] + 1).allowed


@settings(max_examples=150, deadline=None)
@given(ticks=guard_schedules)
@example(ticks=DENSE)
def test_guard_block_expires_into_admission(ticks):
    """However abusive the history, blocks expire by tick: once every
    window, throttle and block horizon has passed, the client is
    admitted again without any manual intervention."""
    guard = AdmissionGuard(SlidingWindowLimiter(limit=2, window=8))
    saw_block = drive(guard, ticks)
    # Beyond every horizon the guard knows: the longest block, the
    # throttle run-out and the burst window (wider than the strategy's 8).
    assert BURST_WINDOW >= 8
    healed_at = ticks[-1] + MAX_BLOCK_TICKS + THROTTLE_TICKS + BURST_WINDOW + 1
    if saw_block:
        assert not guard.is_blocked("adv", healed_at)
    assert guard.admit("adv", healed_at).allowed

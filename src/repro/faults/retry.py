"""Bounded retry with deterministic backoff.

The platform's retry discipline (docs/ROBUSTNESS.md): every retry loop
is **bounded** (a poisoned input must escalate, not spin) and its
backoff is **deterministic** — a geometric schedule of logical ticks
derived only from the attempt number, never from the wall clock, so a
replayed run retries identically. Inside the simulation a tick is
accounting, not sleeping; a live deployment would map ticks to seconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How often to retry and how long to (logically) back off.

    ``attempts`` counts total tries, so ``attempts=3`` means one initial
    try plus two retries. The backoff before retry *n* (1-based) is
    ``backoff_base * backoff_factor ** (n - 1)`` ticks.
    """

    attempts: int = 3
    backoff_base: int = 1
    backoff_factor: int = 2

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and growing")

    def backoff_ticks(self, retry_number: int) -> int:
        """Ticks to back off before 1-based retry *retry_number*."""
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        return self.backoff_base * self.backoff_factor ** (retry_number - 1)


#: The default policy applied by hardened layers when none is given.
DEFAULT_RETRY_POLICY = RetryPolicy(attempts=3, backoff_base=1, backoff_factor=2)

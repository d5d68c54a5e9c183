"""Process-local fault-suppression scope.

When a hardened layer re-executes work that an injected fault just
killed, the retry must not be re-killed by the same schedule — a real
platform's retry lands on a repaired path. Entering
:func:`fault_suppression` disables every injector in this process for
the duration; injectors check :func:`faults_suppressed` before drawing.

The scope is a plain re-entrant depth counter, not thread-local: the
study, the feeds and the engine run in one thread.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_suppression_depth = 0


def faults_suppressed() -> bool:
    """True while at least one suppression scope is active."""
    return _suppression_depth > 0


@contextmanager
def fault_suppression() -> Iterator[None]:
    """Disable fault injection in this process for the ``with`` body."""
    global _suppression_depth
    _suppression_depth += 1
    try:
        yield
    finally:
        _suppression_depth -= 1

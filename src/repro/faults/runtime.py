"""Process-local fault-suppression scope.

When a hardened layer retries or re-executes work that an injected fault
just killed (the parent re-running a crashed shard, a feed re-reading a
partition after rotating to the previous checkpoint), the retry must not
be re-killed by the same schedule — a real platform's retry lands on a
fresh worker or a repaired path. Entering :func:`fault_suppression`
disables every injector in this process for the duration; injectors
check :func:`faults_suppressed` before drawing.

The scope is a plain re-entrant depth counter, not thread-local: the
backends' deterministic retry path is single-threaded by construction
and worker processes each get their own module instance via fork.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

R = TypeVar("R")

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


def shard_retryable(error: BaseException) -> bool:
    """Whether a failed shard should be re-executed by its backend.

    Errors that model a lost worker (a broken pool, an injected
    :class:`~repro.faults.errors.WorkerCrash`) carry a
    ``shard_retryable`` attribute; anything else is a real bug and must
    propagate.
    """
    return bool(getattr(error, "shard_retryable", False))


def rerun_shard(
    task: Callable[[int, Any], R], index: int, shard: Any
) -> R:
    """Re-execute one lost shard with injection suppressed.

    This is the crashed-shard recovery primitive shared by every
    execution backend (:mod:`repro.parallel.backend`): the retry models
    a fresh worker on a repaired path, so the same fault plan cannot
    re-kill it, and because the result lands back at the shard's index
    the merged output stays byte-identical.
    """
    with fault_suppression():
        return task(index, shard)

"""Typed exceptions for injected faults.

Injected faults are first-class, typed errors so hardened code can react
by *policy* — retry a transient, quarantine on a persistent — instead
of pattern-matching strings. Production code never raises these itself;
only the injection shims do.
"""

from __future__ import annotations

from typing import Sequence, Tuple


class FaultError(Exception):
    """Base class for every fault-harness error."""


class InjectedFault(FaultError):
    """An artificial failure produced by a :class:`FaultInjector`.

    Carries the site and kind so retry layers and logs can attribute it.
    """

    def __init__(self, site: str, kind: str, key: str = "") -> None:
        detail = f" [{key}]" if key else ""
        super().__init__(f"injected {kind} fault at {site}{detail}")
        self.site = site
        self.kind = kind
        self.key = key


class TransientFault(InjectedFault):
    """A fault that a bounded retry is expected to clear."""


class PersistentFault(FaultError):
    """A fault that survived every retry attempt.

    *scopes* names the detection scopes the failure poisons; the caller
    quarantines them instead of aborting the run.
    """

    def __init__(
        self, message: str, scopes: Sequence[str] = ()
    ) -> None:
        super().__init__(message)
        self.scopes: Tuple[str, ...] = tuple(scopes)

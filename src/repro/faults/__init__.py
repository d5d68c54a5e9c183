"""Deterministic fault injection and robustness instrumentation.

The measurement platform must "degrade, not die": missing zone files,
truncated storage segments and malformed DNS answers are routine at
production scale, and a contiguous adoption time series depends on
surviving all of them. This package provides the harness that
proves it:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded, serialisable
  schedule of faults (rate-, site- and kind-addressable), the
  :class:`FaultInjector` that evaluates it, and the structured
  :class:`FaultLog` counter surface exported alongside study results;
* :mod:`repro.faults.retry` — :class:`RetryPolicy`, the bounded
  deterministic-backoff policy shared by the prober and feed layers;
* :mod:`repro.faults.inject` — injection shims wrapping the real seams
  (storage segment reads, partition feeds, the simulated network, the
  prober, checkpoint bytes);
* :mod:`repro.faults.report` — scope-slicing helpers behind the chaos
  invariant (a faulted run must match the clean run byte-for-byte on
  every non-quarantined scope).

A failing chaotic run is replayable from its plan: serialise the plan
with :meth:`FaultPlan.to_json`, re-run with ``repro study --fault-plan``.
"""

from repro.faults.errors import (
    FaultError,
    InjectedFault,
    PersistentFault,
    TransientFault,
)
from repro.faults.retry import RetryPolicy
from repro.faults.plan import (
    FAULT_SITES,
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultPlan,
    FaultSpec,
)
from repro.faults.report import (
    SCOPE_EXPORT_KEYS,
    SCOPE_GROWTH_LABELS,
    SCOPE_OF_SOURCE,
    scope_digest,
    strip_scopes,
)
from repro.faults.inject import (
    FaultyFeed,
    FaultyNetwork,
    FaultyProber,
    corrupt_blob,
    corrupt_store_files,
)

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "FaultyFeed",
    "FaultyNetwork",
    "FaultyProber",
    "InjectedFault",
    "PersistentFault",
    "RetryPolicy",
    "SCOPE_EXPORT_KEYS",
    "SCOPE_GROWTH_LABELS",
    "SCOPE_OF_SOURCE",
    "TransientFault",
    "corrupt_blob",
    "corrupt_store_files",
    "scope_digest",
    "strip_scopes",
]

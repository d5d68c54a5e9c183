"""Scope slicing for the chaos invariant.

The invariant under test: a faulted study run must complete and be
**byte-identical** to the clean run on every scope that was not
quarantined. A *scope* is one of the study's detection universes —
``"gtld"`` (com/net/org), ``"nl"``, ``"alexa"`` — and quarantining one
means its derived export keys are forfeit while everything else must
still match exactly.

:func:`strip_scopes` removes a set of scopes' keys (plus the fault
bookkeeping itself) from a ``study_to_dict`` payload; comparing the
stripped clean and faulted payloads — or their :func:`scope_digest`
hashes — is how the chaos tests assert the invariant.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import Dict, Iterable, Mapping, Tuple

# Declared beside ALL_SOURCES; re-exported from here.
from repro.measurement.scheduler import SCOPE_OF_SOURCE as SCOPE_OF_SOURCE

#: scope → top-level ``study_to_dict`` keys derived from that scope's
#: detection. Keys absent here (zone_sizes, namespace_distribution,
#: dataset, horizon) derive from the world alone and must survive any
#: quarantine untouched.
SCOPE_EXPORT_KEYS: Dict[str, Tuple[str, ...]] = {
    "gtld": (
        "any_use",
        "providers",
        "dps_distribution",
        "flux",
        "peaks",
        "anomalies",
        "exposure",
    ),
    "nl": (),
    "alexa": (),
}

#: scope → labels inside the ``growth`` mapping owned by that scope.
SCOPE_GROWTH_LABELS: Dict[str, Tuple[str, ...]] = {
    "gtld": ("DPS adoption", "Overall expansion"),
    "nl": ("DPS adoption (.nl)", "Overall expansion (.nl)"),
    "alexa": ("DPS adoption (Alexa)",),
}

#: fault bookkeeping keys, always stripped before comparison: a clean
#: run has none, a faulted run reports them, and the invariant is about
#: the *measurements*, not the telemetry.
FAULT_BOOKKEEPING_KEYS: Tuple[str, ...] = ("faults", "quarantined")


def strip_scopes(
    payload: Mapping[str, object], scopes: Iterable[str]
) -> Dict[str, object]:
    """A deep copy of *payload* with *scopes*' derived keys removed.

    Fault bookkeeping keys are always removed. Unknown scope names are
    rejected so a typo cannot silently weaken the invariant.
    """
    scope_set = set(scopes)
    unknown = scope_set - set(SCOPE_EXPORT_KEYS)
    if unknown:
        raise ValueError(f"unknown scopes: {sorted(unknown)}")
    stripped: Dict[str, object] = copy.deepcopy(dict(payload))
    for key in FAULT_BOOKKEEPING_KEYS:
        stripped.pop(key, None)
    for scope in sorted(scope_set):
        for key in SCOPE_EXPORT_KEYS[scope]:
            stripped.pop(key, None)
        growth = stripped.get("growth")
        if isinstance(growth, dict):
            for label in SCOPE_GROWTH_LABELS[scope]:
                growth.pop(label, None)
    return stripped


def scope_digest(
    payload: Mapping[str, object], exclude_scopes: Iterable[str] = ()
) -> str:
    """A canonical SHA-256 over *payload* minus *exclude_scopes*.

    Two runs satisfy the chaos invariant iff their digests — excluding
    the union of their quarantined scopes — are equal.
    """
    stripped = strip_scopes(payload, exclude_scopes)
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

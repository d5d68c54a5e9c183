"""Fault plans: seeded, serialisable schedules of injected failures.

A :class:`FaultPlan` is the reproducibility unit of chaos testing: a
seed plus a list of :class:`FaultSpec` entries, each addressing a
**site** (a named seam in the pipeline, see :data:`FAULT_SITES`), a
**kind** (what goes wrong there), a **rate**, and optional **keys**
(only fire for these domains / sources / scopes) and **times** (at
most this many firings). Serialising the plan to JSON makes a failing
chaotic run replayable: same plan, same decisions, same faults.

Decision determinism: a spec's firing decision for a call is a pure hash
of ``(plan seed, spec identity, call key, per-key occurrence number)`` —
no shared RNG stream — so decisions are independent of global call
order, and adding or dropping one spec moves no other spec's draws.

The :class:`FaultLog` is the "visibly degraded" surface: a structured
counter record of what was injected, retried, recovered, dropped and
quarantined, exported alongside study results so a degraded run can
never masquerade as a clean one.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple


#: Every injection seam the harness knows, with the kinds it supports.
#: site → (description, (kind, ...)).
FAULT_SITES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "storage.segment_read": (
        "segment file reads from disk (SegmentStore)",
        ("truncate", "bitflip", "missing"),
    ),
    "feed.partition": (
        "daily (source, day) partition production",
        ("transient", "delay", "poison"),
    ),
    "checkpoint.save": (
        "stream checkpoint writes",
        ("torn_write",),
    ),
    "checkpoint.load": (
        "stream checkpoint reads",
        ("corrupt",),
    ),
    "transport.query": (
        "datagram/stream exchanges on the simulated network",
        ("timeout", "short_read", "malformed_rdata"),
    ),
    "prober.observe": (
        "per-domain observation during measurement",
        ("transient",),
    ),
    "study.detect": (
        "per-scope detection during a full study run",
        ("poison",),
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One addressable fault source within a plan."""

    site: str
    kind: str
    rate: float = 1.0
    #: Only fire when the call's key is one of these (None: any key).
    keys: Optional[Tuple[str, ...]] = None
    #: Fire at most this many times per injector (None: unbounded).
    times: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"known: {sorted(FAULT_SITES)}"
            )
        _, kinds = FAULT_SITES[self.site]
        if self.kind not in kinds:
            raise ValueError(
                f"site {self.site!r} does not support kind {self.kind!r}; "
                f"supported: {list(kinds)}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if self.keys is not None:
            object.__setattr__(self, "keys", tuple(self.keys))
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "kind": self.kind,
            "rate": self.rate,
            "keys": list(self.keys) if self.keys is not None else None,
            "times": self.times,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        keys = payload.get("keys")
        return cls(
            site=payload["site"],
            kind=payload["kind"],
            rate=float(payload.get("rate", 1.0)),
            keys=tuple(keys) if keys is not None else None,
            times=payload.get("times"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable fault schedule."""

    seed: int
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(payload["seed"]),
            specs=tuple(
                FaultSpec.from_dict(spec)
                for spec in payload.get("specs", [])
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def injector(self, log: Optional["FaultLog"] = None) -> "FaultInjector":
        return FaultInjector(self, log=log)


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault decision."""

    site: str
    kind: str
    key: str = ""


def _spec_seed(plan_seed: int, spec: FaultSpec, index: int) -> int:
    """A stable per-spec seed for the decision hash."""
    tag = f"{spec.site}\x1f{spec.kind}\x1f{index}".encode("utf-8")
    return (plan_seed & 0xFFFFFFFF) ^ zlib.crc32(tag)


def _draw(spec_seed: int, key: str, occurrence: int) -> float:
    """A uniform [0, 1) decision for one (spec, key, occurrence) call."""
    digest = zlib.crc32(
        f"{key}\x1f{occurrence}".encode("utf-8"), spec_seed
    )
    return (digest & 0xFFFFFF) / float(1 << 24)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at run time.

    Call :meth:`fire` at a site with the call's key; the first matching
    spec whose decision hash lands below its rate produces a
    :class:`FaultEvent` (and a log entry). ``times`` bounds are
    per-injector.
    """

    def __init__(
        self, plan: FaultPlan, log: Optional["FaultLog"] = None
    ) -> None:
        self.plan = plan
        self.log = log if log is not None else FaultLog()
        self._seeds: List[int] = [
            _spec_seed(plan.seed, spec, index)
            for index, spec in enumerate(plan.specs)
        ]
        #: per spec: key → number of calls asked so far.
        self._asked: List[Dict[str, int]] = [{} for _ in plan.specs]
        self._fired: List[int] = [0] * len(plan.specs)

    def fire(self, site: str, key: str = "") -> Optional[FaultEvent]:
        """The fault (if any) this call at *site* suffers."""
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if spec.keys is not None and key not in spec.keys:
                continue
            asked = self._asked[index]
            occurrence = asked.get(key, 0)
            asked[key] = occurrence + 1
            if spec.times is not None and self._fired[index] >= spec.times:
                continue
            if (
                spec.rate < 1.0
                and _draw(self._seeds[index], key, occurrence) >= spec.rate
            ):
                continue
            self._fired[index] += 1
            event = FaultEvent(site=site, kind=spec.kind, key=key)
            self.log.record_injection(event)
            return event
        return None

    def fired_counts(self) -> List[int]:
        return list(self._fired)


class FaultLog:
    """Structured counters describing how degraded a run was.

    Serialises canonically (sorted keys) so it can ride along in
    ``series.json`` exports.
    """

    def __init__(self) -> None:
        #: "site/kind" → number of injected faults.
        self._injected: Dict[str, int] = {}
        #: site → retries spent recovering from faults there.
        self._retries: Dict[str, int] = {}
        #: site → calls that recovered after at least one retry.
        self._recovered: Dict[str, int] = {}
        #: site → items dropped / skipped after retries were exhausted.
        self._dropped: Dict[str, int] = {}
        #: scope → human-readable quarantine reason.
        self._quarantined: Dict[str, str] = {}
        #: Released quarantines (scope names, in release order).
        self._released: List[str] = []
        #: Logical backoff ticks accrued by deterministic backoff.
        self._backoff_ticks: int = 0

    # -- recording ----------------------------------------------------------

    def record_injection(self, event: FaultEvent) -> None:
        label = f"{event.site}/{event.kind}"
        self._injected[label] = self._injected.get(label, 0) + 1

    def record_retry(self, site: str, backoff_ticks: int = 0) -> None:
        self._retries[site] = self._retries.get(site, 0) + 1
        self._backoff_ticks += backoff_ticks

    def record_recovery(self, site: str) -> None:
        self._recovered[site] = self._recovered.get(site, 0) + 1

    def record_drop(self, site: str, count: int = 1) -> None:
        self._dropped[site] = self._dropped.get(site, 0) + count

    def record_quarantine(self, scope: str, reason: str) -> None:
        self._quarantined.setdefault(scope, reason)

    def record_release(self, scope: str) -> None:
        self._quarantined.pop(scope, None)
        self._released.append(scope)

    # -- queries ------------------------------------------------------------

    @property
    def quarantined_scopes(self) -> Dict[str, str]:
        return dict(sorted(self._quarantined.items()))

    @property
    def backoff_ticks(self) -> int:
        return self._backoff_ticks

    def injections(self) -> int:
        return sum(self._injected.values())

    def is_clean(self) -> bool:
        """True when nothing was injected, dropped or quarantined."""
        return (
            not self._injected
            and not self._dropped
            and not self._quarantined
            and not self._released
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "injected": dict(sorted(self._injected.items())),
            "retries": dict(sorted(self._retries.items())),
            "recovered": dict(sorted(self._recovered.items())),
            "dropped": dict(sorted(self._dropped.items())),
            "quarantined": dict(sorted(self._quarantined.items())),
            "released": list(self._released),
            "backoff_ticks": self._backoff_ticks,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultLog":
        log = cls()
        log._injected = dict(sorted(payload.get("injected", {}).items()))
        log._retries = dict(sorted(payload.get("retries", {}).items()))
        log._recovered = dict(sorted(payload.get("recovered", {}).items()))
        log._dropped = dict(sorted(payload.get("dropped", {}).items()))
        log._quarantined = dict(
            sorted(payload.get("quarantined", {}).items())
        )
        log._released = list(payload.get("released", []))
        log._backoff_ticks = int(payload.get("backoff_ticks", 0))
        return log

"""Measurement row schema.

A :class:`DomainObservation` is everything the platform records for one
domain on one day: NS names, apex addresses, the ``www`` CNAME chain and
its expansion addresses, and (after enrichment) the origin ASNs of every
address. An :class:`ObservationSegment` is the run-length-compressed form —
the same payload, valid over a day interval — that the fast pipeline uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Tuple

from repro.dnscore.name import DomainName

#: The platform queries A, AAAA and NS for the apex plus A/AAAA for www
#: (§3.1); we count four measurement data points per domain per day, which
#: is what Table 1's #DPs column tallies.
MEASUREMENTS_PER_DOMAIN_DAY = 4


#: name text → :func:`sld_of` result, ``None`` included. The function is
#: pure and its inputs are the NS/CNAME hostnames the string pools already
#: hold (a few hundred per world), so the memo is process-wide and unbounded.
_SLD_MEMO: Dict[str, Optional[str]] = {}


def sld_of(name_text: str) -> Optional[str]:
    """The registrable SLD of *name_text*, as text (None if unknown).

    Parsed and validated once per distinct text.
    """
    if name_text in _SLD_MEMO:
        return _SLD_MEMO[name_text]
    try:
        sld = DomainName.from_text(name_text).sld()
    except ValueError:
        sld = None
    result = _SLD_MEMO[name_text] = (
        sld.to_text() if sld is not None else None
    )
    return result


@dataclass(frozen=True)
class DomainObservation:
    """One domain's measured DNS state on one day."""

    day: int
    domain: str
    tld: str
    ns_names: Tuple[str, ...]
    apex_addrs: Tuple[str, ...]
    www_cnames: Tuple[str, ...] = ()
    www_addrs: Tuple[str, ...] = ()
    apex_addrs6: Tuple[str, ...] = ()
    www_addrs6: Tuple[str, ...] = ()
    #: Origin ASNs of all observed addresses (filled by enrichment).
    asns: FrozenSet[int] = frozenset()

    def all_addresses(self) -> Tuple[str, ...]:
        # dict.fromkeys: first-seen order, O(n) — same order and dedup
        # semantics as the old linear `seen` scan without the O(n^2).
        return tuple(
            dict.fromkeys(
                self.apex_addrs + self.www_addrs
                + self.apex_addrs6 + self.www_addrs6
            )
        )

    def ns_slds(self) -> FrozenSet[str]:
        """SLDs referenced by the NS records (§3.3 detection input)."""
        return frozenset(
            sld for sld in (sld_of(ns) for ns in self.ns_names)
            if sld is not None
        )

    def cname_slds(self) -> FrozenSet[str]:
        """SLDs referenced anywhere in the www CNAME expansion."""
        return frozenset(
            sld for sld in (sld_of(c) for c in self.www_cnames)
            if sld is not None
        )

    def is_dark(self) -> bool:
        """True when the measurement yielded no usable records at all."""
        return not (
            self.ns_names or self.apex_addrs or self.www_addrs
            or self.www_cnames
        )

    def with_asns(self, asns: FrozenSet[int]) -> "DomainObservation":
        return DomainObservation(
            self.day, self.domain, self.tld, self.ns_names, self.apex_addrs,
            self.www_cnames, self.www_addrs, self.apex_addrs6,
            self.www_addrs6, asns,
        )


@dataclass(frozen=True)
class ObservationSegment:
    """A :class:`DomainObservation` valid over ``[start, end)`` days."""

    start: int
    end: int
    observation: DomainObservation

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("segment end must be after start")

    @property
    def days(self) -> int:
        return self.end - self.start

    def at(self, day: int) -> DomainObservation:
        """The daily observation for *day* within this segment."""
        if not self.start <= day < self.end:
            raise ValueError(f"day {day} outside segment")
        return replace(self.observation, day=day)

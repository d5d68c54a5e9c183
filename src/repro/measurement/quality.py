"""Measurement quality accounting: coverage, dark domains, NS-SLD census.

§4.4.1 infers the Sedo incident was a DNS issue *at the third party*
because "the number of measured domains with a sedoparking.com NS SLD
also dipped that same day" — i.e. the platform tracks not just answers but
measurement coverage. This module provides that view: per-day coverage
(how many zone names produced usable answers), dark-domain counts, and a
census of domains per NS SLD whose day-over-day dips flag infrastructure
incidents rather than protection changes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from repro.measurement.snapshot import DomainObservation


@dataclass(frozen=True)
class CoverageReport:
    """One day's measurement coverage for one source."""

    source: str
    day: int
    zone_names: int
    measured: int
    dark: int

    @property
    def coverage(self) -> float:
        """Fraction of zone names that yielded usable records."""
        if not self.zone_names:
            return 1.0
        return (self.measured - self.dark) / self.zone_names


def coverage_of(
    source: str,
    day: int,
    zone_names: int,
    observations: Sequence[DomainObservation],
) -> CoverageReport:
    """Build a coverage report from one day's observations."""
    dark = sum(1 for observation in observations if observation.is_dark())
    return CoverageReport(
        source=source,
        day=day,
        zone_names=zone_names,
        measured=len(observations),
        dark=dark,
    )


def ns_sld_census(
    observations: Sequence[DomainObservation],
) -> Dict[str, int]:
    """Domains measured per NS SLD (the paper's Sedo-dip signal)."""
    census: Counter = Counter()
    for observation in observations:
        for sld in observation.ns_slds():
            census[sld] += 1
    return dict(census)


@dataclass
class IncidentDetector:
    """Flags days on which an NS SLD's measured population collapses.

    A *protection* change keeps the NS SLD visible (the domains still
    resolve, just elsewhere); an *infrastructure incident* makes the
    domains unmeasurable, so the SLD's census count collapses. The
    detector keeps a census history and reports collapses beyond
    ``drop_fraction``.
    """

    drop_fraction: float = 0.5
    min_population: int = 5
    _history: List[Tuple[int, Dict[str, int]]] = field(default_factory=list)

    def observe_day(
        self, day: int, observations: Sequence[DomainObservation]
    ) -> List[Tuple[str, int, int]]:
        """Ingest a day; return ``(sld, before, after)`` incident rows."""
        census = ns_sld_census(observations)
        incidents: List[Tuple[str, int, int]] = []
        if self._history:
            _, previous = self._history[-1]
            # Over the decimal the caller wrote: in floats 10 * (1 - 0.7)
            # is 3.0000000000000004, which would flag 10 → 3.
            kept = 1 - Fraction(str(self.drop_fraction))
            for sld, before in previous.items():
                if before < self.min_population:
                    continue
                after = census.get(sld, 0)
                if after < before * kept:
                    incidents.append((sld, before, after))
        self._history.append((day, census))
        return incidents

    def census_series(self, sld: str) -> List[Tuple[int, int]]:
        """The (day, count) history of one NS SLD."""
        return [
            (day, census.get(sld, 0)) for day, census in self._history
        ]

"""On-demand peak-duration analysis (§4.4.3, Fig. 8).

For each provider the paper estimates a set of on-demand domains — those
showing **at least three peaks** over the measurement period — and plots
the CDF of peak durations (in days), marking the 80th percentile:
"for providers that show signs of highly anomalous behavior from day to
day, the majority of peak occurrences are short-lived
(P(duration <= days) = 0.8)".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.classification import ON_DEMAND_MIN_PEAKS
from repro.core.detection import DetectionResult, UseInterval


@dataclass
class PeakStats:
    """Peak-duration distribution for one provider's on-demand set."""

    provider: str
    domain_count: int
    durations: List[int]

    def percentile(self, fraction: Union[Fraction, int]) -> int:
        """The smallest duration d with P(duration <= d) >= fraction.

        *fraction* is a :class:`~fractions.Fraction` or an ``int``: a
        float's binary value can sit past the rational meant (``9/14``)
        and read one duration too far, so floats raise ``TypeError``.
        """
        if not isinstance(fraction, (Fraction, int)):
            raise TypeError("fraction must be a Fraction or an int")
        if not self.durations:
            raise ValueError(f"{self.provider} has no on-demand peaks")
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        ordered = sorted(self.durations)
        index = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[index]

    @property
    def p80(self) -> int:
        """The Fig. 8 marker: 80 % of peaks last at most this many days."""
        return self.percentile(Fraction(4, 5))

    def cdf(self, max_days: Optional[int] = None) -> List[Tuple[int, float]]:
        """``(duration, P(duration <= d))`` points for plotting."""
        if not self.durations:
            return []
        ordered = sorted(self.durations)
        horizon = max_days if max_days is not None else ordered[-1]
        points: List[Tuple[int, float]] = []
        count = 0
        cursor = 0
        for duration in range(1, horizon + 1):
            while cursor < len(ordered) and ordered[cursor] <= duration:
                cursor += 1
                count += 1
            points.append((duration, count / len(ordered)))
        return points


class PeakAnalysis:
    """Extracts on-demand sets and their peak durations per provider."""

    def __init__(
        self, horizon: int, min_peaks: int = ON_DEMAND_MIN_PEAKS
    ):
        self._horizon = horizon
        self._min_peaks = min_peaks

    def peaks_of(
        self, intervals: Sequence[UseInterval]
    ) -> List[UseInterval]:
        """The *bounded* peaks among a domain's use intervals.

        A right-censored final interval is not a complete peak — its true
        duration is unknown — so it is excluded from duration statistics
        (but still counts towards the ≥3-peaks membership test, since the
        domain demonstrably switched that many times).
        """
        return [
            interval
            for interval in intervals
            if interval.end < self._horizon
        ]

    def analyze(self, detection: DetectionResult) -> Dict[str, PeakStats]:
        """Per-provider peak statistics over the on-demand sets (Fig. 8)."""
        return self.analyze_intervals(
            detection.intervals, detection.providers
        )

    def analyze_intervals(
        self,
        intervals_by_key: Dict[Tuple[str, str], List[UseInterval]],
        providers: Sequence[str] = (),
    ) -> Dict[str, PeakStats]:
        """Peak statistics from raw ``(domain, provider) → intervals`` state.

        Interval-level entry point for the incremental ingest engine (see
        :meth:`FluxAnalysis.analyze_intervals` for the rationale).
        """
        stats: Dict[str, PeakStats] = {}
        counts: Dict[str, int] = {}
        durations: Dict[str, List[int]] = {}
        for (domain, provider), intervals in sorted(intervals_by_key.items()):
            if len(intervals) < self._min_peaks:
                continue
            counts[provider] = counts.get(provider, 0) + 1
            bucket = durations.setdefault(provider, [])
            bucket.extend(
                interval.days for interval in self.peaks_of(intervals)
            )
        for provider in sorted(set(providers) | set(counts)):
            stats[provider] = PeakStats(
                provider=provider,
                domain_count=counts.get(provider, 0),
                # Canonically sorted so the duration list is a pure
                # function of the duration multiset.
                durations=sorted(durations.get(provider, [])),
            )
        return stats

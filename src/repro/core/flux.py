"""Daily-flux analysis: first-seen/last-seen deltas (§4.4.2, Fig. 7).

"We analyzed the daily flux per provider in terms of first seen and last
seen domain names. This way, if protection is turned on and off several
times for a set of names, the names involved will contribute to influx at
most once, and to outflux at most once." Counts are grouped in two-week
windows and the figure plots the delta (influx − outflux) per window.

Domains still using the provider when the measurement ends are
right-censored: they have not been "last seen" and contribute no outflux.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.detection import DetectionResult, UseInterval
from repro.world.timeline import TWO_WEEKS


@dataclass
class FluxSeries:
    """Per-window influx, outflux, and delta for one provider."""

    provider: str
    window_days: int
    influx: List[int]
    outflux: List[int]

    @property
    def delta(self) -> List[int]:
        return [
            inflow - outflow
            for inflow, outflow in zip(self.influx, self.outflux)
        ]

    @property
    def windows(self) -> int:
        return len(self.influx)

    def largest_inflow_window(self) -> int:
        return max(range(self.windows), key=self.influx.__getitem__)

    def spread(self) -> float:
        """How spread out influx is: 1 − (max window share).

        CloudFlare's "rather spread out" influx scores high; a provider
        whose customers arrive in one mass event scores near zero. The
        first window is excluded — it holds the pre-existing customer base
        (everyone protected on day 0 is "first seen" then), not arrivals.
        """
        arrivals = self.influx[1:]
        total = sum(arrivals)
        if total == 0:
            return 0.0
        return 1.0 - max(arrivals) / total


class FluxAnalysis:
    """Computes per-provider flux series from detection intervals."""

    def __init__(self, horizon: int, window_days: int = TWO_WEEKS):
        if window_days < 1:
            raise ValueError("window_days must be positive")
        self._horizon = horizon
        self._window_days = window_days
        self._window_count = (horizon + window_days - 1) // window_days

    def first_last_seen(
        self, intervals: Sequence[UseInterval]
    ) -> Tuple[int, Tuple[int, bool]]:
        """``(first_seen_day, (last_seen_day, censored))`` for one domain."""
        if not intervals:
            raise ValueError("no intervals")
        first = intervals[0].start
        last_end = intervals[-1].end
        censored = last_end >= self._horizon
        return first, (last_end - 1, censored)

    def analyze(self, detection: DetectionResult) -> Dict[str, FluxSeries]:
        """Flux series per provider (Fig. 7)."""
        return self.analyze_intervals(
            detection.intervals, detection.providers
        )

    def analyze_intervals(
        self,
        intervals_by_key: Dict[Tuple[str, str], List[UseInterval]],
        providers: Sequence[str] = (),
    ) -> Dict[str, FluxSeries]:
        """Flux series from raw ``(domain, provider) → intervals`` state.

        The incremental ingest engine maintains use intervals directly and
        has no :class:`DetectionResult` to hand over; this entry point lets
        it (and anything else holding interval state) compute Fig. 7
        without materialising one. *providers* seeds empty series for
        providers that appear in the detection but have no intervals.
        """
        series: Dict[str, FluxSeries] = {}
        for provider in providers:
            series[provider] = FluxSeries(
                provider=provider,
                window_days=self._window_days,
                influx=[0] * self._window_count,
                outflux=[0] * self._window_count,
            )
        for (domain, provider), intervals in sorted(intervals_by_key.items()):
            flux = series.get(provider)
            if flux is None:
                flux = FluxSeries(
                    provider=provider,
                    window_days=self._window_days,
                    influx=[0] * self._window_count,
                    outflux=[0] * self._window_count,
                )
                series[provider] = flux
            first, (last, censored) = self.first_last_seen(intervals)
            flux.influx[first // self._window_days] += 1
            if not censored:
                flux.outflux[last // self._window_days] += 1
        return series

"""Adoption growth analysis with smoothing and anomaly cleaning (§4.2).

"For our growth analysis we do not count anomalous peaks and troughs. We
smooth shorter and smaller anomalies out by taking the median reference
count over a time window of several weeks, while the large anomalies are
cleaned manually." The manual step is automated here: days whose raw value
deviates from the running median by more than a threshold are treated as
anomalous and replaced by the median (with the deviation logged, so the
"manual" decisions stay inspectable).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

DEFAULT_WINDOW = 21  # days — "a time window of several weeks"
#: Anomaly cleaning compares against a much longer running median so that
#: multi-week plateaus (e.g. the Wix/Incapsula May 2015 episode) still
#: stand out against the underlying trend.
DEFAULT_CLEAN_WINDOW = 91
DEFAULT_DEVIATION = 0.08  # fraction of the median


def median_smooth(values: Sequence[float], window: int = DEFAULT_WINDOW) -> List[float]:
    """Centred running median of *values* with the given odd *window*.

    Edges use the available part of the window. O(n·w log w), fine for
    series of hundreds of days.
    """
    if window < 1:
        raise ValueError("window must be positive")
    if window % 2 == 0:
        window += 1
    half = window // 2
    smoothed: List[float] = []
    for index in range(len(values)):
        lo = max(0, index - half)
        hi = min(len(values), index + half + 1)
        smoothed.append(statistics.median(values[lo:hi]))
    return smoothed


@dataclass(frozen=True)
class CleanedDay:
    """One day the cleaner treated as anomalous."""

    day: int
    raw: float
    replaced_with: float

    @property
    def deviation(self) -> float:
        if self.replaced_with == 0:
            return float("inf") if self.raw else 0.0
        return abs(self.raw - self.replaced_with) / self.replaced_with


@dataclass
class GrowthSeries:
    """A cleaned, smoothed daily series plus its growth statistics."""

    label: str
    raw: List[float]
    cleaned: List[float]
    smoothed: List[float]
    anomalous_days: List[CleanedDay]

    @property
    def start_level(self) -> float:
        return self.smoothed[0]

    @property
    def end_level(self) -> float:
        return self.smoothed[-1]

    @property
    def growth_factor(self) -> float:
        """End level over start level — the paper's ``1.24×`` number."""
        if self.start_level == 0:
            raise ValueError(f"series {self.label!r} starts at zero")
        return self.end_level / self.start_level

    def relative(self) -> List[float]:
        """The series normalised to its start (Fig. 5/6 y-axis)."""
        base = self.start_level
        if base == 0:
            raise ValueError(f"series {self.label!r} starts at zero")
        return [value / base for value in self.smoothed]


class GrowthAnalysis:
    """Builds :class:`GrowthSeries` from raw daily counts."""

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        deviation_threshold: float = DEFAULT_DEVIATION,
        clean_window: int = DEFAULT_CLEAN_WINDOW,
    ):
        if deviation_threshold <= 0:
            raise ValueError("deviation threshold must be positive")
        self._window = window
        self._clean_window = clean_window
        self._threshold = deviation_threshold

    def clean(
        self, values: Sequence[float]
    ) -> Tuple[List[float], List[CleanedDay]]:
        """Replace large-anomaly days with the running median.

        This automates the paper's manual cleaning of "anomalous peaks and
        troughs, which can involve millions of domains".
        """
        reference = median_smooth(values, self._clean_window)
        cleaned: List[float] = []
        anomalies: List[CleanedDay] = []
        for day, (raw, median) in enumerate(zip(values, reference)):
            limit = self._threshold * max(median, 1.0)
            if abs(raw - median) > limit:
                anomalies.append(CleanedDay(day, raw, median))
                cleaned.append(median)
            else:
                cleaned.append(raw)
        return cleaned, anomalies

    def analyze(
        self, label: str, values: Sequence[float]
    ) -> GrowthSeries:
        """Clean, smooth, and wrap a raw daily series."""
        if not values:
            raise ValueError("cannot analyse an empty series")
        cleaned, anomalies = self.clean(list(values))
        smoothed = median_smooth(cleaned, self._window)
        return GrowthSeries(
            label=label,
            raw=list(values),
            cleaned=cleaned,
            smoothed=smoothed,
            anomalous_days=anomalies,
        )

    def compare(
        self, series: Dict[str, Sequence[float]]
    ) -> Dict[str, GrowthSeries]:
        """Analyse several labelled series (e.g. adoption vs expansion)."""
        # Label order is semantic here — figures assign glyphs by
        # series position — and every caller passes a fixed literal
        # mapping, so insertion order is deterministic by construction.
        return {
            label: self.analyze(label, values)
            for label, values in series.items()
        }

"""DDoS attack episodes and the on-demand mitigation they trigger (§2.3).

"If protection is done on-demand, a DNS change is made by either the
provider or the customer, or the DPS could start announcing a customer's
IP prefix using BGP. ... On-demand protection can be manual or automated"
— e.g. an in-line appliance alerting the cloud when an attack is too
large to handle locally.

The model: a customer experiences attack episodes (renewal process with
exponential inter-arrival gaps); each episode has a peak traffic volume
and a duration; diversion turns on at episode start and turns off when the
episode ends — hybrid customers (Neustar-style) revert almost immediately,
always-on-style responders keep diversion up for a safety margin. Peak
durations therefore reproduce the Fig. 8 distributions from an actual
generating process rather than being sampled directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class AttackEpisode:
    """One attack against one target: days and peak volume."""

    start: int
    duration: int  # days the attack lasts
    peak_gbps: float

    @property
    def end(self) -> int:
        return self.start + self.duration

    def is_volumetric(self, threshold_gbps: float = 10.0) -> bool:
        """Volumetric vs semantic (§1/§2): big pipes vs clever packets."""
        return self.peak_gbps >= threshold_gbps


@dataclass(frozen=True)
class MitigationWindow:
    """The diversion interval an episode produces."""

    start: int
    end: int
    episode: AttackEpisode

    @property
    def days(self) -> int:
        return self.end - self.start


class AttackModel:
    """Generates attack episodes and mitigation windows for a customer.

    ``p80_days`` calibrates the mitigation-duration distribution so that
    80 % of windows last at most that many days (the Fig. 8 markers);
    ``mean_gap_days`` sets how often episodes recur.
    """

    def __init__(
        self,
        rng: random.Random,
        p80_days: int,
        mean_gap_days: float = 30.0,
        max_duration: int = 120,
    ):
        if p80_days < 1:
            raise ValueError("p80_days must be at least 1 day")
        if mean_gap_days <= 0:
            raise ValueError("mean_gap_days must be positive")
        self._rng = rng
        # Exponential durations with the 80th percentile at p80_days.
        self._duration_rate = math.log(5.0) / p80_days
        self._mean_gap = mean_gap_days
        self._max_duration = max_duration

    def episode_duration(self) -> int:
        duration = 1 + int(self._rng.expovariate(self._duration_rate))
        return min(duration, self._max_duration)

    def episode_volume(self) -> float:
        """Peak Gbps, log-normal-ish: most attacks small, a heavy tail.

        Matches the paper's framing: volumes "in the order of hundreds of
        Gbps" at the top (Spamhaus 300, BBC 600), mere nuisance at the
        bottom.
        """
        return round(min(600.0, self._rng.lognormvariate(2.0, 1.4)), 1)

    def episodes(self, start: int, horizon: int) -> Iterator[AttackEpisode]:
        """Attack episodes over ``[start, horizon)``, chronologically,
        at least two days apart."""
        day = start + int(self._rng.expovariate(1.0 / self._mean_gap))
        while day < horizon:
            duration = self.episode_duration()
            if day + duration >= horizon:
                return
            yield AttackEpisode(
                start=day, duration=duration, peak_gbps=self.episode_volume()
            )
            gap = 2 + int(self._rng.expovariate(1.0 / self._mean_gap))
            day += duration + gap

    def mitigation_windows(
        self,
        start: int,
        horizon: int,
        episode_count: Tuple[int, int] = (3, 7),
        revert_margin: int = 0,
    ) -> List[MitigationWindow]:
        """Mitigation windows for one customer over its lifetime.

        ``episode_count`` bounds how many episodes to keep (the Fig. 8
        populations have 3+ peaks); ``revert_margin`` extends each window
        past the attack's end (manual reversion lag).
        """
        low, high = episode_count
        wanted = self._rng.randint(low, high)
        windows: List[MitigationWindow] = []
        for episode in self.episodes(start, horizon):
            end = min(episode.end + revert_margin, horizon - 1)
            if end <= episode.start:
                continue
            windows.append(
                MitigationWindow(
                    start=episode.start, end=end, episode=episode
                )
            )
            if len(windows) >= wanted:
                break
        return windows

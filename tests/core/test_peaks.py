"""Tests for on-demand peak-duration analysis (§4.4.3)."""

import pytest

from repro.core.detection import DetectionResult, ProviderSeries, UseInterval
from repro.core.peaks import PeakAnalysis, PeakStats

HORIZON = 100


def detection_with(intervals):
    providers = {
        provider: ProviderSeries(provider, [0] * HORIZON, {})
        for _, provider in intervals
    }
    return DetectionResult(
        horizon=HORIZON,
        providers=providers,
        any_use_by_tld={},
        any_use_combined=[0] * HORIZON,
        intervals={
            key: [UseInterval(*pair) for pair in pairs]
            for key, pairs in intervals.items()
        },
        combo_days={},
    )


class TestPeakStats:
    def test_p80(self):
        stats = PeakStats("X", 1, durations=[1, 2, 3, 4, 10])
        assert stats.p80 == 4

    def test_percentile_bounds(self):
        stats = PeakStats("X", 1, durations=[5])
        assert stats.percentile(1) == 5
        with pytest.raises(ValueError):
            stats.percentile(0)
        with pytest.raises(TypeError):
            stats.percentile(1.0)

    def test_empty_durations_raise(self):
        with pytest.raises(ValueError):
            PeakStats("X", 0, durations=[]).p80

    def test_cdf_monotone_and_complete(self):
        stats = PeakStats("X", 1, durations=[2, 2, 5])
        points = stats.cdf()
        assert points[0] == (1, 0.0)
        assert points[1] == (2, pytest.approx(2 / 3))
        assert points[-1] == (5, 1.0)
        probs = [p for _, p in points]
        assert probs == sorted(probs)

    def test_cdf_empty(self):
        assert PeakStats("X", 0, durations=[]).cdf() == []


class TestAnalysis:
    def test_on_demand_requires_three_peaks(self):
        detection = detection_with(
            {
                ("a.com", "X"): [(0, 5), (20, 25), (40, 46)],
                ("b.com", "X"): [(0, 5), (20, 25)],
            }
        )
        stats = PeakAnalysis(HORIZON).analyze(detection)["X"]
        assert stats.domain_count == 1
        assert sorted(stats.durations) == [5, 5, 6]

    def test_censored_final_interval_excluded_from_durations(self):
        detection = detection_with(
            {("a.com", "X"): [(0, 5), (20, 25), (60, HORIZON)]}
        )
        stats = PeakAnalysis(HORIZON).analyze(detection)["X"]
        assert stats.domain_count == 1
        assert sorted(stats.durations) == [5, 5]

    def test_min_peaks_configurable(self):
        detection = detection_with(
            {("a.com", "X"): [(0, 5), (20, 25)]}
        )
        stats = PeakAnalysis(HORIZON, min_peaks=2).analyze(detection)["X"]
        assert stats.domain_count == 1

    def test_provider_without_on_demand_domains(self):
        detection = detection_with({("a.com", "X"): [(0, HORIZON)]})
        stats = PeakAnalysis(HORIZON).analyze(detection)["X"]
        assert stats.domain_count == 0
        assert stats.durations == []

    def test_peaks_of_filters_censored(self):
        analysis = PeakAnalysis(HORIZON)
        peaks = analysis.peaks_of(
            [UseInterval(0, 10), UseInterval(50, HORIZON)]
        )
        assert peaks == [UseInterval(0, 10)]

"""Tests for the streaming detector (intervals, series, combinations)."""

from dataclasses import replace

import pytest

from repro.batch.batch import ObservationBatch
from repro.core.detection import (
    SegmentDetector,
    UseInterval,
    combo_label,
)
from repro.core.references import RefType, SignatureCatalog
from repro.measurement.snapshot import DomainObservation, ObservationSegment

CATALOG = SignatureCatalog.paper_table2()
HORIZON = 100


def observation(domain="a.com", ns=(), cnames=(), asns=()):
    return DomainObservation(
        day=0,
        domain=domain,
        tld="com",
        ns_names=tuple(ns),
        apex_addrs=("10.0.0.1",),
        www_cnames=tuple(cnames),
        asns=frozenset(asns),
    )


CLOUDFLARE_OBS = observation(
    ns=("kate.ns.cloudflare.com",), asns={13335}
)
PLAIN_OBS = observation(ns=("ns1.hostco-dns.com",), asns={64500})
INCAPSULA_OBS = observation(cnames=("x.incapdns.net",), asns={19551})


def runs(domain, tld, segments):
    """*segments* as a run batch: the row carries the domain and TLD
    the detector reads, so the shared observations are re-keyed."""
    batch = ObservationBatch()
    for segment in segments:
        batch.append_row(
            replace(
                segment.observation,
                day=segment.start,
                domain=domain,
                tld=tld,
            )
        )
    return batch, [segment.end for segment in segments]


class TestDetectObservation:
    def test_wrapper(self):
        # The detector matches each observation with catalog.match.
        matches = CATALOG.match(CLOUDFLARE_OBS)
        assert matches["CloudFlare"] == frozenset({RefType.AS, RefType.NS})


def run_detector(segment_lists):
    """One ``process_runs`` call per ``(domain, tld, segments)`` entry."""
    detector = SegmentDetector(CATALOG, HORIZON)
    for domain, tld, segments in segment_lists:
        detector.process_runs(*runs(domain, tld, segments))
    return detector.result()


class TestComboLabel:
    def test_ordering_stable(self):
        assert combo_label(frozenset({RefType.NS, RefType.AS})) == "AS+NS"
        assert combo_label(frozenset()) == "none"


class TestIntervals:
    def test_continuous_use_single_interval(self):
        result = run_detector(
            [("a.com", "com", [ObservationSegment(0, 100, CLOUDFLARE_OBS)])]
        )
        assert result.intervals[("a.com", "CloudFlare")] == [
            UseInterval(0, 100)
        ]

    def test_gap_creates_two_intervals(self):
        segments = [
            ObservationSegment(0, 20, CLOUDFLARE_OBS),
            ObservationSegment(20, 40, PLAIN_OBS),
            ObservationSegment(40, 100, CLOUDFLARE_OBS),
        ]
        result = run_detector([("a.com", "com", segments)])
        assert result.intervals[("a.com", "CloudFlare")] == [
            UseInterval(0, 20),
            UseInterval(40, 100),
        ]

    def test_adjacent_segments_merge(self):
        other_cf = observation(ns=("ben.ns.cloudflare.com",), asns={13335})
        segments = [
            ObservationSegment(0, 50, CLOUDFLARE_OBS),
            ObservationSegment(50, 100, other_cf),
        ]
        result = run_detector([("a.com", "com", segments)])
        assert result.intervals[("a.com", "CloudFlare")] == [
            UseInterval(0, 100)
        ]

    def test_provider_switch(self):
        segments = [
            ObservationSegment(0, 30, CLOUDFLARE_OBS),
            ObservationSegment(30, 100, INCAPSULA_OBS),
        ]
        result = run_detector([("a.com", "com", segments)])
        assert result.intervals[("a.com", "CloudFlare")] == [
            UseInterval(0, 30)
        ]
        assert result.intervals[("a.com", "Incapsula")] == [
            UseInterval(30, 100)
        ]

    def test_unprotected_domain_has_no_intervals(self):
        result = run_detector(
            [("a.com", "com", [ObservationSegment(0, 100, PLAIN_OBS)])]
        )
        assert result.intervals == {}

    def test_segments_clipped_to_horizon(self):
        result = run_detector(
            [("a.com", "com", [ObservationSegment(0, 500, CLOUDFLARE_OBS)])]
        )
        assert result.intervals[("a.com", "CloudFlare")] == [
            UseInterval(0, 100)
        ]


class TestSeries:
    def test_daily_totals(self):
        segments = [
            ObservationSegment(0, 20, CLOUDFLARE_OBS),
            ObservationSegment(20, 100, PLAIN_OBS),
        ]
        result = run_detector(
            [
                ("a.com", "com", segments),
                ("b.com", "com",
                 [ObservationSegment(0, 100, CLOUDFLARE_OBS)]),
            ]
        )
        series = result.providers["CloudFlare"]
        assert series.total[0] == 2
        assert series.total[19] == 2
        assert series.total[20] == 1
        assert series.total[99] == 1

    def test_ref_breakdown(self):
        result = run_detector(
            [("a.com", "com", [ObservationSegment(0, 100, CLOUDFLARE_OBS)])]
        )
        series = result.providers["CloudFlare"]
        assert series.by_ref[RefType.AS][50] == 1
        assert series.by_ref[RefType.NS][50] == 1
        assert RefType.CNAME not in series.by_ref

    def test_any_use_counts_domain_once(self):
        both = observation(
            ns=("kate.ns.cloudflare.com",), cnames=("x.incapdns.net",),
            asns={13335, 19551},
        )
        result = run_detector(
            [("a.com", "com", [ObservationSegment(0, 100, both)])]
        )
        assert result.any_use_combined[10] == 1
        assert result.any_use_by_tld["com"][10] == 1

    def test_any_use_split_by_tld(self):
        result = run_detector(
            [
                ("a.com", "com",
                 [ObservationSegment(0, 100, CLOUDFLARE_OBS)]),
                ("b.org", "org",
                 [ObservationSegment(0, 100, INCAPSULA_OBS)]),
            ]
        )
        assert result.any_use_by_tld["com"][0] == 1
        assert result.any_use_by_tld["org"][0] == 1
        assert result.any_use_combined[0] == 2

    def test_peak_day(self):
        segments = [
            ObservationSegment(0, 40, PLAIN_OBS),
            ObservationSegment(40, 45, CLOUDFLARE_OBS),
            ObservationSegment(45, 100, PLAIN_OBS),
        ]
        result = run_detector(
            [
                ("a.com", "com", segments),
                ("b.com", "com",
                 [ObservationSegment(0, 100, CLOUDFLARE_OBS)]),
            ]
        )
        assert result.providers["CloudFlare"].peak_day() == 40


class TestCombos:
    def test_combo_days_accumulate(self):
        result = run_detector(
            [("a.com", "com", [ObservationSegment(0, 100, CLOUDFLARE_OBS)])]
        )
        assert result.combo_days["CloudFlare"]["AS+NS"] == 100

    def test_cname_without_ns_combo(self):
        """The paper's example: CNAME+AS but no NS = no delegation."""
        result = run_detector(
            [("a.com", "com", [ObservationSegment(0, 10, INCAPSULA_OBS)])]
        )
        assert result.combo_days["Incapsula"] == {"AS+CNAME": 10}

    def test_domains_seen_counter(self):
        result = run_detector(
            [
                ("a.com", "com", [ObservationSegment(0, 10, PLAIN_OBS)]),
                ("b.com", "com", [ObservationSegment(0, 10, PLAIN_OBS)]),
            ]
        )
        assert result.domains_seen == 2

    def test_interval_count(self):
        result = run_detector(
            [
                ("a.com", "com", [
                    ObservationSegment(0, 10, CLOUDFLARE_OBS),
                    ObservationSegment(10, 20, PLAIN_OBS),
                    ObservationSegment(20, 30, CLOUDFLARE_OBS),
                ]),
            ]
        )
        assert result.interval_count() == 2
        assert result.providers_of("a.com") == ["CloudFlare"]


class TestNoWholeHistoryContract:
    """A domain's history may reach one detector in any number of
    pieces: intervals stay maximal and the domain counts once."""

    def test_consecutive_daily_batches_build_one_interval(self):
        detector = SegmentDetector(CATALOG, HORIZON)
        for day in (0, 1):
            detector.process_batch(
                ObservationBatch.from_rows(
                    [ObservationSegment(0, 2, CLOUDFLARE_OBS).at(day)]
                )
            )
        result = detector.result()
        assert result.intervals[("a.com", "CloudFlare")] == [
            UseInterval(0, 2)
        ]
        assert result.domains_seen == 1
        assert result.providers["CloudFlare"].total[:3] == [1, 1, 0]

    def test_domain_fed_twice_counts_once(self):
        result = run_detector(
            [
                ("a.com", "com", [ObservationSegment(10, 20, CLOUDFLARE_OBS)]),
                ("a.com", "com", [ObservationSegment(0, 10, CLOUDFLARE_OBS)]),
            ]
        )
        assert result.domains_seen == 1
        assert result.intervals[("a.com", "CloudFlare")] == [
            UseInterval(0, 20)
        ]

    def test_overlapping_spans_raise(self):
        detector = SegmentDetector(CATALOG, HORIZON)
        with pytest.raises(ValueError):
            detector.process_runs(
                *runs(
                    "a.com",
                    "com",
                    [
                        ObservationSegment(0, 10, CLOUDFLARE_OBS),
                        ObservationSegment(5, 15, CLOUDFLARE_OBS),
                    ],
                )
            )

"""Property-based correctness of the streaming detector.

For random piecewise-constant observation histories, the detector's
intervals and daily series must equal what brute-force per-day matching
computes. This is the strongest guard on the run-length-compressed fast
path.
"""

from hypothesis import given, settings, strategies as st

from repro.batch.batch import ObservationBatch
from repro.core.detection import SegmentDetector, UseInterval
from repro.core.references import SignatureCatalog
from repro.measurement.snapshot import DomainObservation, ObservationSegment

CATALOG = SignatureCatalog.paper_table2()
HORIZON = 60

#: A small universe of observation states: unprotected, three providers.
STATES = (
    DomainObservation(
        day=0, domain="d.com", tld="com",
        ns_names=("ns1.hostco-dns.com",), apex_addrs=("10.0.0.1",),
        asns=frozenset({64500}),
    ),
    DomainObservation(
        day=0, domain="d.com", tld="com",
        ns_names=("kate.ns.cloudflare.com",), apex_addrs=("10.1.0.1",),
        asns=frozenset({13335}),
    ),
    DomainObservation(
        day=0, domain="d.com", tld="com",
        ns_names=("ns1.hostco-dns.com",),
        www_cnames=("x.incapdns.net",), apex_addrs=("10.2.0.1",),
        asns=frozenset({19551}),
    ),
    DomainObservation(
        day=0, domain="d.com", tld="com",
        ns_names=("ns1.hostco-dns.com",), apex_addrs=("10.3.0.1",),
        asns=frozenset({26415}),
    ),
)


@st.composite
def histories(draw):
    """A random segmentation of [0, HORIZON) into observation states."""
    cut_count = draw(st.integers(min_value=0, max_value=8))
    cuts = sorted(
        set(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=HORIZON - 1),
                    min_size=cut_count,
                    max_size=cut_count,
                )
            )
        )
    )
    boundaries = [0] + cuts + [HORIZON]
    segments = []
    for start, end in zip(boundaries, boundaries[1:]):
        state = draw(st.integers(min_value=0, max_value=len(STATES) - 1))
        segments.append(ObservationSegment(start, end, STATES[state]))
    return segments


def detect(segments):
    """*segments* through the detector as one batch of runs."""
    detector = SegmentDetector(CATALOG, HORIZON)
    detector.process_runs(
        ObservationBatch.from_rows(
            segment.at(segment.start) for segment in segments
        ),
        [segment.end for segment in segments],
    )
    return detector.result()


def brute_force(segments):
    """Per-day matching → daily counts and intervals, the slow way."""
    daily = {}
    for day in range(HORIZON):
        observation = None
        for segment in segments:
            if segment.start <= day < segment.end:
                observation = segment.observation
                break
        daily[day] = CATALOG.match(observation) if observation else {}
    intervals = {}
    for provider in {p for match in daily.values() for p in match}:
        runs = []
        run_start = None
        for day in range(HORIZON):
            used = provider in daily[day]
            if used and run_start is None:
                run_start = day
            if not used and run_start is not None:
                runs.append(UseInterval(run_start, day))
                run_start = None
        if run_start is not None:
            runs.append(UseInterval(run_start, HORIZON))
        intervals[provider] = runs
    series = {}
    for provider in intervals:
        series[provider] = [
            1 if provider in daily[day] else 0 for day in range(HORIZON)
        ]
    return intervals, series


@given(histories())
@settings(max_examples=120, deadline=None)
def test_detector_matches_brute_force(segments):
    result = detect(segments)

    expected_intervals, expected_series = brute_force(segments)

    got_intervals = {
        provider: intervals
        for (domain, provider), intervals in result.intervals.items()
    }
    assert got_intervals == expected_intervals

    for provider, series in expected_series.items():
        assert result.providers[provider].total == series

    combined_expected = [
        1 if any(series[day] for series in expected_series.values()) else 0
        for day in range(HORIZON)
    ]
    if expected_series:
        assert result.any_use_combined == combined_expected


@given(histories())
@settings(max_examples=60, deadline=None)
def test_detector_ref_breakdown_matches_brute_force(segments):
    result = detect(segments)

    for (domain, provider), _ in result.intervals.items():
        series = result.providers[provider]
        for ref, values in series.by_ref.items():
            for day in range(HORIZON):
                observation = None
                for segment in segments:
                    if segment.start <= day < segment.end:
                        observation = segment.observation
                        break
                expected = 0
                if observation is not None:
                    refs = CATALOG.match(observation).get(
                        provider, frozenset()
                    )
                    expected = 1 if ref in refs else 0
                assert values[day] == expected

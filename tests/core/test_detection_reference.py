"""Every way into detection against one brute-force reference.

A micro-world is a handful of domains, each with disjoint ``[start,
end)`` spans of constant DNS state — gap days between them, spans that
start past or straddle the horizon, spans matching no provider. The same
facts are fed as one batch of runs, as one batch of daily rows, and
day by day out of order; every ``result()`` must equal
:class:`~tests.core.reference_detection.ReferenceDetection` fed the
expanded rows. ``derandomize=True`` as in ``tests/sketch``: the examples
are part of the suite, not a fresh draw per run.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.batch.batch import ObservationBatch  # noqa: E402
from repro.core.detection import SegmentDetector  # noqa: E402
from repro.core.references import (  # noqa: E402
    ProviderSignature,
    RefType,
    SignatureCatalog,
)
from repro.measurement.snapshot import (  # noqa: E402
    DomainObservation,
    ObservationSegment,
)
from repro.stream import ScopeState  # noqa: E402
from tests.core.reference_detection import ReferenceDetection  # noqa: E402

DETERMINISTIC = settings(max_examples=150, deadline=None, derandomize=True)

HORIZON = 12
DOMAINS = (
    ("a.com", "com"), ("b.com", "com"), ("c.org", "org"), ("d.nl", "nl"),
)
PROVIDERS = ("Alpha", "Beta", "Gamma")
CATALOG = SignatureCatalog(
    ProviderSignature(
        name=name,
        asns=frozenset({64600 + index}),
        cname_slds=frozenset({f"{name.lower()}-edge.net"}),
        ns_slds=frozenset({f"{name.lower()}-dns.net"}),
    )
    for index, name in enumerate(PROVIDERS)
)


def _observation(domain, tld, wanted):
    """The DNS state whose references are exactly *wanted*."""
    ns, cnames, asns = ["ns1.plainhost.net"], [], {64500}
    for provider, refs in wanted.items():
        if RefType.NS in refs:
            ns.append(f"ns1.{provider.lower()}-dns.net")
        if RefType.CNAME in refs:
            cnames.append(f"x.{provider.lower()}-edge.net")
        if RefType.AS in refs:
            asns.add(64600 + PROVIDERS.index(provider))
    return DomainObservation(
        day=0,
        domain=domain,
        tld=tld,
        ns_names=tuple(ns),
        apex_addrs=("192.0.2.1",),
        www_cnames=tuple(cnames),
        asns=frozenset(asns),
    )


references = st.dictionaries(
    st.sampled_from(PROVIDERS),
    st.frozensets(st.sampled_from(list(RefType)), min_size=1),
    max_size=2,
)


@st.composite
def micro_worlds(draw):
    """domain → ``(tld, start-sorted disjoint segments)``."""
    world = {}
    for domain, tld in draw(
        st.lists(st.sampled_from(DOMAINS), min_size=1, unique=True)
    ):
        segments, cursor = [], 0
        for gap, length, wanted in draw(
            st.lists(
                st.tuples(
                    st.integers(0, 3), st.integers(1, 6), references
                ),
                max_size=5,
            )
        ):
            start = cursor + gap
            cursor = start + length
            segments.append(
                ObservationSegment(
                    start, cursor, _observation(domain, tld, wanted)
                )
            )
        # An empty history is a domain no producer ever reports.
        if segments:
            world[domain] = (tld, segments)
    return world


def _daily_rows(world):
    return [
        segment.at(day)
        for _, segments in world.values()
        for segment in segments
        for day in range(segment.start, segment.end)
    ]


def _reference(rows):
    reference = ReferenceDetection(HORIZON)
    for row in rows:
        reference.observe(row.domain, row.tld, row.day, CATALOG.match(row))
    return reference.detection()


@DETERMINISTIC
@given(micro_worlds())
def test_segments_through_one_run_batch(world):
    segments = [
        segment for _, domain_segments in world.values()
        for segment in domain_segments
    ]
    detector = SegmentDetector(CATALOG, HORIZON)
    detector.process_runs(
        ObservationBatch.from_rows(
            segment.at(segment.start) for segment in segments
        ),
        [segment.end for segment in segments],
    )
    assert detector.result() == _reference(_daily_rows(world))


@DETERMINISTIC
@given(micro_worlds())
def test_daily_rows_through_one_process_batch(world):
    rows = _daily_rows(world)
    detector = SegmentDetector(CATALOG, HORIZON)
    detector.process_batch(ObservationBatch.from_rows(rows))
    assert detector.result() == _reference(rows)


@DETERMINISTIC
@given(micro_worlds(), st.randoms(use_true_random=False), st.data())
def test_observe_day_by_day_with_late_arrivals(world, shuffler, data):
    """Out-of-order days, and a checkpoint round trip taken mid-feed:
    the restored state continues to the same result and the same
    serialised bytes as the one that never stopped."""
    rows = _daily_rows(world)
    shuffler.shuffle(rows)
    cut = data.draw(st.integers(0, len(rows)))
    state = ScopeState(HORIZON)
    restored = None
    for index, row in enumerate(rows):
        if index == cut:
            restored = ScopeState.from_dict(
                json.loads(json.dumps(state.to_dict()))
            )
        for each in filter(None, (state, restored)):
            each.observe(row.domain, row.tld, row.day, CATALOG.match(row))
    expected = _reference(rows)
    assert state.result() == expected
    if restored is not None:
        assert restored.result() == expected
        assert json.dumps(restored.to_dict()) == json.dumps(state.to_dict())


@DETERMINISTIC
@given(micro_worlds(), st.randoms(use_true_random=False))
def test_per_day_batches_in_shuffled_day_order(world, shuffler):
    """No whole-history contract: one detector fed a batch per day, days
    in any order, builds the same maximal intervals."""
    rows = _daily_rows(world)
    days = sorted({row.day for row in rows})
    shuffler.shuffle(days)
    detector = SegmentDetector(CATALOG, HORIZON)
    for day in days:
        detector.process_batch(
            ObservationBatch.from_rows(
                [row for row in rows if row.day == day]
            )
        )
    assert detector.result() == _reference(rows)

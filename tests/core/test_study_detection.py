"""The in-memory study's detection against the brute-force reference.

``AdoptionStudy.detect`` and ``detect_alexa`` fold enriched run-length
segments. :class:`~tests.core.reference_detection.ReferenceDetection`
takes the same facts one covered day at a time, keyed by the listed name
and the world's TLD for it rather than by anything the row carries; for
the Alexa scope only the days inside the name's membership windows
count.
"""

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.measurement.scheduler import GTLD_SOURCES
from tests.core.reference_detection import ReferenceDetection


@pytest.fixture(scope="module")
def study(tiny_world):
    return AdoptionStudy(tiny_world)


@pytest.fixture(scope="module")
def segments(study):
    return study.collect_segments()


def _reference(study, segments, names, windows):
    world = study.world
    reference = ReferenceDetection(world.horizon)
    for name in names:
        tld = world.domains[name].tld
        for segment in segments.get(name, ()):
            # Matching reads no day, so one match serves every day of
            # the segment; the facts still go in one day at a time.
            matches = study.catalog.match(segment.observation)
            for start, end in windows(name):
                lo, hi = max(segment.start, start), min(segment.end, end)
                for day in range(lo, hi):
                    reference.observe(name, tld, day, matches)
    return reference.detection()


def _names(world, wanted):
    return [
        name
        for name, timeline in world.domains.items()
        if wanted(timeline.tld)
    ]


@pytest.mark.parametrize(
    "wanted",
    [lambda tld: tld in GTLD_SOURCES, lambda tld: tld == "nl"],
    ids=["gtld", "nl"],
)
def test_detect_equals_reference(study, segments, wanted):
    names = _names(study.world, wanted)
    whole = [(0, study.world.horizon)]
    expected = _reference(study, segments, names, lambda name: whole)
    assert expected.domains_seen > 0 and expected.providers
    assert study.detect(segments, names) == expected


def test_detect_alexa_equals_reference(study, segments):
    world = study.world
    # The clipping is exercised: some ranked name is measured on days
    # outside its membership windows.
    assert any(
        segment.days
        > sum(
            max(0, min(segment.end, end) - max(segment.start, start))
            for start, end in world.alexa_membership(name)
        )
        for name in world.alexa_names
        for segment in segments.get(name, ())
    )
    expected = _reference(
        study, segments, world.alexa_names, world.alexa_membership
    )
    assert expected.providers
    assert study.detect_alexa(segments) == expected

"""Exact-arithmetic laws for the statistics that decide on a threshold.

Figure 8's marker and the NS-SLD incident flag each compare a computed
share with a fraction. Both laws restate the definition over
:class:`fractions.Fraction` and hold the code to it, so a float
shortcut that lands one ulp off the boundary (eight steps of ``0.1``
sum to ``0.7999999999999999``) fails here instead of moving a figure.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.core.peaks import PeakStats  # noqa: E402
from repro.measurement.quality import IncidentDetector  # noqa: E402
from repro.measurement.snapshot import DomainObservation  # noqa: E402

#: Each law's budget: 200 derandomized examples, under 1 s each.
EXACT = settings(max_examples=200, deadline=None, derandomize=True)
#: Peak stats carry the on-demand domain count; the law does not read it.
ON_DEMAND_DOMAINS = 3


def exact_percentile(durations, fraction):
    """The smallest d with P(duration <= d) >= *fraction*, exactly."""
    return min(
        duration
        for duration in durations
        if Fraction(
            sum(1 for each in durations if each <= duration), len(durations)
        )
        >= fraction
    )


@EXACT
@given(
    durations=st.lists(
        st.integers(min_value=1, max_value=12), min_size=1, max_size=40
    ),
    fraction=st.fractions(
        min_value=Fraction(1, 20), max_value=1, max_denominator=20
    ),
    tail=st.integers(min_value=0, max_value=3),
)
@example(durations=list(range(1, 43)), fraction=Fraction(9, 14), tail=0)
def test_peak_percentile_and_cdf_are_exact(durations, fraction, tail):
    """``percentile`` of a rational fraction, the Fig. 8 ``p80`` marker
    (4/5) and every ``cdf`` point agree with the definition computed
    over fractions. Durations 1..42 at 9/14 are the case a float
    fraction read one duration past (28, where 27/42 = 9/14 holds)."""
    stats = PeakStats("P", ON_DEMAND_DOMAINS, list(durations))
    assert stats.percentile(fraction) == exact_percentile(
        durations, fraction
    )
    assert stats.p80 == exact_percentile(durations, Fraction(4, 5))
    horizon = max(durations) + tail
    assert stats.cdf(max_days=horizon) == [
        (
            day,
            float(
                Fraction(
                    sum(1 for each in durations if each <= day),
                    len(durations),
                )
            ),
        )
        for day in range(1, horizon + 1)
    ]


def census_day(day, population):
    """*population* measured domains behind one NS SLD."""
    return [
        DomainObservation(
            day=day,
            domain=f"parked{index}.com",
            tld="com",
            ns_names=("ns1.sedoparking.com.",),
            apex_addrs=("192.0.2.1",),
        )
        for index in range(population)
    ]


@st.composite
def drops_and_populations(draw):
    """A drop fraction as a caller writes it — sixteenths (the default
    0.5 among them), tenths or hundredths; only sixteenths are exact
    floats — and a population before the drop. Half the populations
    are multiples of the fraction's denominator, which put the boundary
    on an integer day count: a float a hair above it flags a census
    that sits exactly on it."""
    parts = draw(st.sampled_from((16, 10, 100)))
    drop = Fraction(draw(st.integers(min_value=1, max_value=parts - 1)), parts)
    before = draw(
        st.one_of(
            st.integers(min_value=0, max_value=48),
            st.integers(min_value=1, max_value=3).map(
                lambda multiple: multiple * drop.denominator
            ),
        )
    )
    return drop, before


@EXACT
@example(case=(Fraction(7, 10), 10), offset=0, min_population=1)
@given(
    case=drops_and_populations(),
    offset=st.integers(min_value=-1, max_value=1),
    min_population=st.integers(min_value=1, max_value=6),
)
def test_incident_threshold_is_exact(case, offset, min_population):
    """A collapse is flagged exactly when ``after < before * (1 - drop)``
    over fractions, for the decimal the caller wrote even where no float
    holds it (``10 * (1 - 0.7)`` is ``3.0000000000000004``), and
    ``after`` is drawn at the boundary and one either side of it."""
    drop, before = case
    after = max(0, round(before * (1 - drop)) + offset)
    detector = IncidentDetector(
        drop_fraction=float(drop), min_population=min_population
    )
    assert detector.observe_day(0, census_day(0, before)) == []
    flagged = detector.observe_day(1, census_day(1, after))
    collapsed = before >= min_population and after < before * (1 - drop)
    assert flagged == (
        [("sedoparking.com", before, after)] if collapsed else []
    )

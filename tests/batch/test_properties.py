"""Property-based round-trip checks for the columnar plane.

The contract under test: for any list of observations — IPv6-only rows,
empty CNAME chains, multi-origin ASN sets, the empty batch — boxing them
into an :class:`ObservationBatch` and reading the rows back reproduces
the input exactly, and every restructuring operation (slice, concat)
preserves row content. Runs only where ``hypothesis``
is installed (optional dev dependency; the suite must not require it).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.batch.batch import BatchBuilder, ObservationBatch  # noqa: E402
from repro.measurement.snapshot import DomainObservation  # noqa: E402

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

label = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1,
    max_size=12,
)
hostname = st.builds("{}.{}.{}".format, label, label, label)
ipv4 = st.builds(
    "{}.{}.{}.{}".format,
    *[st.integers(min_value=0, max_value=255)] * 4,
)
ipv6 = st.builds(
    "2001:db8:{:x}::{:x}".format,
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=1, max_value=0xFFFF),
)


@st.composite
def observations(draw):
    """One observation; optional columns are frequently empty, ASN sets
    frequently multi-origin (anycast), addresses frequently IPv6-only."""
    v4_heavy = draw(st.booleans())
    return DomainObservation(
        day=draw(st.integers(min_value=0, max_value=3000)),
        domain=draw(hostname),
        tld=draw(st.sampled_from(["com", "net", "org", "nl"])),
        ns_names=tuple(
            draw(st.lists(hostname, min_size=0, max_size=3))
        ),
        apex_addrs=tuple(
            draw(st.lists(ipv4, max_size=2)) if v4_heavy else ()
        ),
        www_cnames=tuple(
            draw(st.lists(hostname, min_size=0, max_size=2))
        ),
        www_addrs=tuple(
            draw(st.lists(ipv4, max_size=2)) if v4_heavy else ()
        ),
        apex_addrs6=tuple(draw(st.lists(ipv6, max_size=2))),
        www_addrs6=tuple(draw(st.lists(ipv6, max_size=2))),
        asns=frozenset(
            draw(
                st.sets(
                    st.integers(min_value=1, max_value=70000), max_size=4
                )
            )
        ),
    )


row_lists = st.lists(observations(), min_size=0, max_size=12)


class TestBatchRoundTrip:
    @RELAXED
    @given(rows=row_lists)
    def test_from_rows_rows_is_identity(self, rows):
        assert ObservationBatch.from_rows(rows).rows() == rows

    @RELAXED
    @given(rows=row_lists)
    def test_shared_pool_builder_round_trips(self, rows):
        builder = BatchBuilder()
        # Interleave a second build to pollute the shared pools: row
        # fidelity must not depend on pool ids starting at zero.
        builder.build(rows[::-1])
        assert builder.build(rows).rows() == rows

    @RELAXED
    @given(rows=row_lists, data=st.data())
    def test_slice_concat_preserve_rows(self, rows, data):
        batch = ObservationBatch.from_rows(rows)
        cut = data.draw(
            st.integers(min_value=0, max_value=len(rows)), label="cut"
        )
        head, tail = batch.slice(0, cut), batch.slice(cut, len(rows))
        assert head.rows() + tail.rows() == rows
        assert ObservationBatch.concat([head, tail]).rows() == rows
        # Parts with pools of their own concatenate by re-interning.
        assert (
            ObservationBatch.concat(
                [
                    ObservationBatch.from_rows(rows[:cut]),
                    ObservationBatch.from_rows(rows[cut:]),
                ]
            ).rows()
            == rows
        )

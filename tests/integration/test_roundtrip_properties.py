"""Property-based round-trip guarantees on the serialisation formats."""

import ipaddress
import tempfile

from hypothesis import given, settings, strategies as st

from repro.dnscore.name import DomainName
from repro.dnscore.rrtypes import RRType
from repro.dnscore.zone import Zone, parse_zone_text
from repro.dnscore.records import SOAData
from repro.measurement.snapshot import DomainObservation
from repro.routing.pfx2as import Pfx2As, Pfx2AsEntry
from repro.store import SegmentStore

from tests.store.cells import stored_cells

_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                 max_size=10)


@st.composite
def _pfx2as_entries(draw):
    prefixlen = draw(st.integers(min_value=8, max_value=28))
    base = draw(st.integers(min_value=0, max_value=2**prefixlen - 1))
    network = ipaddress.IPv4Network((base << (32 - prefixlen), prefixlen))
    origins = frozenset(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=4_000_000_000),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
    )
    return Pfx2AsEntry(network, origins)


@given(st.lists(_pfx2as_entries(), min_size=1, max_size=25))
@settings(max_examples=80, deadline=None)
def test_pfx2as_text_roundtrip(entries):
    dataset = Pfx2As(entries)
    parsed = Pfx2As.from_text(dataset.to_text())
    assert list(parsed) == list(dataset)


@given(
    hosts=st.lists(
        st.tuples(_label, st.integers(min_value=1, max_value=254)),
        min_size=0, max_size=15, unique_by=lambda t: t[0],
    ),
    aliases=st.lists(_label, min_size=0, max_size=5, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_zone_master_file_roundtrip(hosts, aliases):
    origin = DomainName.from_text("zone.example.com")
    soa = SOAData(
        DomainName.from_text("ns1.zone.example.com"),
        DomainName.from_text("host.zone.example.com"),
        serial=7,
    )
    zone = Zone(origin, soa)
    zone.add("zone.example.com", RRType.NS, "ns1.zone.example.com.")
    host_names = set()
    for label, octet in hosts:
        zone.add(
            f"{label}.zone.example.com", RRType.A, f"10.0.0.{octet}"
        )
        host_names.add(label)
    for alias in aliases:
        if alias in host_names or alias == "www":
            continue
        zone.add(
            f"{alias}-alias.zone.example.com",
            RRType.CNAME,
            "target.example.net.",
        )
    parsed = parse_zone_text(zone.to_text())
    assert parsed.origin == zone.origin
    assert parsed.to_text() == zone.to_text()


@st.composite
def _observations(draw):
    index = draw(st.integers(min_value=0, max_value=10_000))
    ns_count = draw(st.integers(min_value=0, max_value=3))
    return DomainObservation(
        day=draw(st.integers(min_value=0, max_value=549)),
        domain=f"d{index}.com",
        tld="com",
        ns_names=tuple(f"ns{i}.provider-dns.com" for i in range(ns_count)),
        apex_addrs=tuple(
            f"10.0.{draw(st.integers(min_value=0, max_value=255))}.1"
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ),
        www_cnames=(
            (f"tok{index}.incapdns.net",)
            if draw(st.booleans())
            else ()
        ),
        asns=frozenset(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=70_000),
                    max_size=3,
                )
            )
        ),
    )


@given(st.lists(_observations(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_column_store_roundtrip(observations):
    day = observations[0].day
    normalised = [
        DomainObservation(
            day=day,
            domain=o.domain,
            tld=o.tld,
            ns_names=o.ns_names,
            apex_addrs=o.apex_addrs,
            www_cnames=o.www_cnames,
            asns=o.asns,
        )
        for o in observations
    ]
    with tempfile.TemporaryDirectory() as directory:
        with SegmentStore(directory, create=True) as store:
            store.append("com", day, normalised)
            assert list(store.rows("com", day)) == normalised
            # The encoded form decodes to the same columns.
            decoded = stored_cells(store, "com", day)
    assert decoded["domain"] == [o.domain for o in normalised]
    assert decoded["asns"] == [sorted(o.asns) for o in normalised]

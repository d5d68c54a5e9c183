"""Most-specific-prefix lookups held to a linear scan of what is stored.

``Pfx2As.lookup`` and ``RoutingTable.origins_for_address`` answer the
§3.2 question — every origin of the most-specific prefix containing an
address — through ``PrefixTable``'s per-length probes. The reference
here scans every stored prefix instead. Prefixes are cut around a few
anchor addresses at random lengths, so most draws nest, and origin sets
of more than one AS (MOAS) are drawn on purpose.
"""

import ipaddress

from hypothesis import given, settings, strategies as st

from repro.routing.pfx2as import Pfx2As, Pfx2AsEntry
from repro.routing.table import RoutingTable

#: (first prefix length, anchors) per family: every drawn prefix covers
#: one anchor, so prefixes around the same anchor nest.
_ANCHORS = {
    4: (8, ("10.1.2.3", "10.1.2.200", "10.1.130.7", "10.77.0.1")),
    6: (16, ("fd00::53", "fd00::1:53", "fd00:0:8000::1", "fd00:ff::9")),
}

_origins = st.frozensets(st.integers(64496, 64502), min_size=1, max_size=3)


@st.composite
def _networks(draw):
    version = draw(st.sampled_from(sorted(_ANCHORS)))
    shortest, anchors = _ANCHORS[version]
    anchor = draw(st.sampled_from(anchors))
    width = 32 if version == 4 else 128
    prefixlen = draw(st.integers(shortest, width))
    return ipaddress.ip_network((anchor, prefixlen), strict=False)


@st.composite
def _probes(draw):
    """Addresses to look up: each anchor, a neighbour of it (low bits
    flipped, inside the family's shortest prefix), and two strangers."""
    probes = []
    for version, (shortest, anchors) in sorted(_ANCHORS.items()):
        host_bits = (32 if version == 4 else 128) - shortest
        for anchor in anchors:
            parsed = ipaddress.ip_address(anchor)
            flip = draw(st.integers(0, 2**host_bits - 1))
            probes += [parsed, type(parsed)(int(parsed) ^ flip)]
    probes.append(ipaddress.ip_address("203.0.113.9"))
    probes.append(ipaddress.ip_address("2001:db8::9"))
    return probes


def _scan(stored, address):
    """The value of the longest stored prefix containing *address*."""
    best = None
    for network, value in stored.items():
        if network.version == address.version and address in network:
            if best is None or network.prefixlen > best[0].prefixlen:
                best = (network, value)
    return best


@settings(max_examples=200)
@given(
    entries=st.lists(st.tuples(_networks(), _origins), max_size=25),
    probes=_probes(),
)
def test_pfx2as_lookup_agrees_with_linear_scan(entries, probes):
    """A repeated prefix merges its origins; every MOAS origin is kept."""
    dataset = Pfx2As(Pfx2AsEntry(network, origins)
                     for network, origins in entries)
    merged = {}
    for network, origins in entries:
        merged[network] = merged.get(network, frozenset()) | origins
    for address in probes:
        best = _scan(merged, address)
        expected = frozenset() if best is None else best[1]
        assert dataset.lookup(address) == expected
        assert dataset.lookup(str(address)) == expected
        assert dataset.lookup_prefix(address) == (best and best[0])


@settings(max_examples=200)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(("announce", "withdraw", "withdraw-all")),
            _networks(),
            st.integers(64496, 64502),
        ),
        min_size=1,
        max_size=40,
    ),
    probes=_probes(),
)
def test_routing_table_lookup_agrees_with_linear_scan(steps, probes):
    """Announcements and withdrawals against a ``{network: origins}``
    model; each answer is a copy that later steps leave alone."""
    table = RoutingTable()
    model = {}
    answers = []
    for action, network, origin in steps:
        if action == "announce":
            table.announce(network, origin)
            model.setdefault(network, set()).add(origin)
        else:
            one = origin if action == "withdraw" else None
            assert table.withdraw(network, one) == (network in model)
            if network in model:
                model[network].discard(one)
                if one is None:
                    model[network].clear()
                if not model[network]:
                    del model[network]
        for address in probes:
            best = _scan(model, address)
            expected = frozenset() if best is None else frozenset(best[1])
            got = table.origins_for_address(address)
            assert type(got) is frozenset
            assert got == expected
            assert table.origins_for_address(str(address)) == expected
            route = table.most_specific(address)
            if best is None:
                assert route is None
            else:
                assert (route.prefix, route.origin) == (best[0], min(best[1]))
            answers.append((got, expected))
    for got, expected in answers:
        assert got == expected

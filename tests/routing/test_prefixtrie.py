"""Tests for the per-length LPM table, incl. reference-model property tests.

This file keeps the name (and the ``trie`` locals) it had when the LPM
structure was a radix trie, so the surviving test ids are the ones
earlier runs recorded.
"""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.prefixtable import PrefixTable


class TestBasics:
    def test_insert_and_get(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "a")
        assert trie.get("10.0.0.0/8") == "a"

    def test_get_missing(self):
        assert PrefixTable().get("10.0.0.0/8") is None

    def test_get_is_exact_not_covering(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "a")
        assert trie.get("10.0.0.0/16") is None

    def test_replace_value(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "a")
        trie.insert("10.0.0.0/8", "b")
        assert trie.get("10.0.0.0/8") == "b"
        assert len(trie) == 1

    def test_contains(self):
        trie = PrefixTable()
        trie.insert("192.0.2.0/24", 1)
        assert "192.0.2.0/24" in trie
        assert "192.0.3.0/24" not in trie

    def test_contains_stored_falsy_value(self):
        # Membership is on the slot, not on the value.
        trie = PrefixTable()
        trie.insert("192.0.2.0/24", None)
        trie.insert("2001:db8::/32", 0)
        assert "192.0.2.0/24" in trie
        assert "2001:db8::/32" in trie
        assert len(trie) == 2
        assert trie.longest_match("2001:db8::1")[1] == 0
        # The value probe reads the same slot: a falsy value, not the
        # caller's miss marker.
        assert trie.longest_value("2001:db8::1", "miss") == 0
        assert trie.longest_value("192.0.2.7", "miss") is None
        assert trie.longest_value("198.51.100.7", "miss") == "miss"

    def test_remove(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "a")
        assert trie.remove("10.0.0.0/8")
        assert len(trie) == 0
        assert trie.get("10.0.0.0/8") is None

    def test_remove_missing_returns_false(self):
        assert not PrefixTable().remove("10.0.0.0/8")

    def test_remove_keeps_more_specific(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "a")
        trie.insert("10.1.0.0/16", "b")
        trie.remove("10.0.0.0/8")
        assert trie.get("10.1.0.0/16") == "b"
        assert trie.longest_match("10.1.2.3")[1] == "b"

    def test_strict_network_required(self):
        with pytest.raises(ValueError):
            PrefixTable().insert("10.0.0.1/8", "x")


class TestLongestMatch:
    def test_most_specific_wins(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "short")
        trie.insert("10.1.0.0/16", "mid")
        trie.insert("10.1.2.0/24", "long")
        prefix, value = trie.longest_match("10.1.2.3")
        assert value == "long"
        assert prefix == ipaddress.IPv4Network("10.1.2.0/24")

    def test_fallback_to_covering(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "short")
        trie.insert("10.1.2.0/24", "long")
        assert trie.longest_match("10.9.9.9")[1] == "short"

    def test_no_match(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "a")
        assert trie.longest_match("11.0.0.1") is None

    def test_default_route(self):
        trie = PrefixTable()
        trie.insert("0.0.0.0/0", "default")
        prefix, value = trie.longest_match("203.0.113.7")
        assert value == "default"
        assert prefix.prefixlen == 0

    def test_host_route(self):
        trie = PrefixTable()
        trie.insert("192.0.2.1/32", "host")
        assert trie.longest_match("192.0.2.1")[1] == "host"
        assert trie.longest_match("192.0.2.2") is None

    def test_ipv6(self):
        trie = PrefixTable()
        trie.insert("2001:db8::/32", "doc")
        trie.insert("2001:db8:1::/48", "sub")
        assert trie.longest_match("2001:db8:1::5")[1] == "sub"
        assert trie.longest_match("2001:db8:2::5")[1] == "doc"

    def test_families_are_separate(self):
        trie = PrefixTable()
        trie.insert("0.0.0.0/0", "v4")
        assert trie.longest_match("2001:db8::1") is None

    def test_text_and_parsed_addresses_agree(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", "coarse")
        trie.insert("10.1.0.0/16", "fine")
        from_text = trie.longest_match("10.1.2.3")
        from_parsed = trie.longest_match(ipaddress.ip_address("10.1.2.3"))
        assert from_parsed == from_text
        assert from_text[1] == "fine"


class TestItems:
    def test_items_yield_all(self):
        trie = PrefixTable()
        prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24",
                    "2001:db8::/32"]
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
        got = {str(prefix) for prefix, _ in trie.items()}
        assert got == set(prefixes)

    def test_len(self):
        trie = PrefixTable()
        trie.insert("10.0.0.0/8", 1)
        trie.insert("10.1.0.0/16", 2)
        trie.insert("2001:db8::/32", 3)
        assert len(trie) == 3


_FAMILIES = {
    32: (ipaddress.IPv4Network, ipaddress.IPv4Address),
    128: (ipaddress.IPv6Network, ipaddress.IPv6Address),
}


@st.composite
def _prefixes(draw):
    """A v4 or v6 network of any length; ``/0`` and host routes are
    drawn on purpose, not left to chance."""
    width = draw(st.sampled_from(sorted(_FAMILIES)))
    prefixlen = draw(
        st.one_of(st.sampled_from((0, width)), st.integers(0, width))
    )
    base = draw(st.integers(min_value=0, max_value=2**prefixlen - 1))
    return _FAMILIES[width][0]((base << (width - prefixlen), prefixlen))


@st.composite
def _table_and_probe(draw):
    """(distinct networks, an address): the address is either inside one
    of the networks or anywhere in either family."""
    entries = draw(st.lists(_prefixes(), min_size=1, max_size=30, unique=True))
    inside = draw(st.sampled_from(entries))
    near = inside[draw(st.integers(0, inside.num_addresses - 1))]
    width = draw(st.sampled_from(sorted(_FAMILIES)))
    anywhere = _FAMILIES[width][1](draw(st.integers(0, 2**width - 1)))
    return entries, draw(st.sampled_from((near, anywhere)))


def _sort_key(network):
    return (network.version, int(network.network_address), network.prefixlen)


@settings(max_examples=300)
@given(case=_table_and_probe())
def test_longest_match_agrees_with_linear_scan(case):
    entries, address = case
    trie = PrefixTable()
    for index, network in enumerate(entries):
        trie.insert(network, index)
    expected = None
    for index, network in enumerate(entries):
        if network.version == address.version and address in network:
            if expected is None or network.prefixlen > expected[0].prefixlen:
                expected = (network, index)
    assert trie.longest_match(address) == expected
    miss = object()
    assert trie.longest_value(address, miss) == (
        miss if expected is None else expected[1]
    )


@settings(max_examples=300)
@given(
    steps=st.lists(
        st.tuples(st.booleans(), _prefixes()), min_size=1, max_size=40
    )
)
def test_insert_remove_leaves_trie_empty(steps):
    """Interleaved inserts and removes against a ``{network: value}``
    model, then everything removed."""
    trie = PrefixTable()
    model = {}
    for number, (is_insert, network) in enumerate(steps):
        if is_insert:
            trie.insert(network, number)
            model[network] = number
        else:
            assert trie.remove(network) == (network in model)
            model.pop(network, None)
        assert trie.get(network) == model.get(network)
        assert (network in trie) == (network in model)
        assert len(trie) == len(model)
        assert list(trie.items()) == sorted(
            model.items(), key=lambda item: _sort_key(item[0])
        )
    for network in list(model):
        assert trie.remove(network)
    assert len(trie) == 0
    assert list(trie.items()) == []
    for _, network in steps:
        assert trie.get(network) is None
        assert trie.longest_match(network.network_address) is None

"""Tests for prefix allocation and stable addressing."""

import ipaddress

import pytest

from repro.world.ipam import PrefixAllocator, address_in, stable_hash


def addresses_in(network, key, count):
    """*count* distinct stable addresses inside *network* for *key*: the
    keys ``key#0``, ``key#1``, ... with collisions skipped."""
    seen = set()
    index = 0
    while len(seen) < count:
        address = address_in(network, f"{key}#{index}")
        index += 1
        if address not in seen:
            seen.add(address)
            yield address


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("example.com") == stable_hash("example.com")

    def test_spread(self):
        values = {stable_hash(f"d{i}") for i in range(1000)}
        assert len(values) > 990


class TestAllocator:
    def test_allocations_disjoint(self):
        allocator = PrefixAllocator()
        a = allocator.allocate(20)
        b = allocator.allocate(20)
        assert not a.overlaps(b)

    def test_alignment(self):
        allocator = PrefixAllocator()
        allocator.allocate(24)
        aligned = allocator.allocate(16)
        assert int(aligned.network_address) % aligned.num_addresses == 0

    def test_within_pool(self):
        allocator = PrefixAllocator(pool_v4="10.0.0.0/8")
        assert allocator.allocate(16).subnet_of(
            ipaddress.IPv4Network("10.0.0.0/8")
        )

    def test_bad_prefixlen(self):
        with pytest.raises(ValueError):
            PrefixAllocator().allocate(4)

    def test_exhaustion(self):
        allocator = PrefixAllocator(pool_v4="10.0.0.0/30")
        with pytest.raises((RuntimeError, ValueError)):
            for _ in range(10):
                allocator.allocate(30)

    def test_v6_allocation(self):
        allocator = PrefixAllocator()
        a = allocator.allocate_v6(48)
        b = allocator.allocate_v6(48)
        assert a.version == 6
        assert not a.overlaps(b)

    def test_allocated_listing(self):
        allocator = PrefixAllocator()
        allocator.allocate(24)
        allocator.allocate_v6()
        assert len(allocator.allocated) == 2


class TestAddressing:
    def test_address_in_network(self):
        network = ipaddress.IPv4Network("192.0.2.0/24")
        address = ipaddress.IPv4Address(address_in(network, "key"))
        assert address in network
        assert address != network.network_address
        assert address != network.broadcast_address

    def test_address_is_stable(self):
        network = ipaddress.IPv4Network("192.0.2.0/24")
        assert address_in(network, "a.com") == address_in(network, "a.com")

    def test_addresses_in_distinct(self):
        network = ipaddress.IPv4Network("192.0.2.0/24")
        got = list(addresses_in(network, "key", 10))
        assert len(set(got)) == 10

    def test_v6_address(self):
        network = ipaddress.IPv6Network("2001:db8::/48")
        assert ipaddress.IPv6Address(address_in(network, "x")) in network

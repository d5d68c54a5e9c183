"""Tests for the World container: zones, routing view, materialisation."""

import pytest

from repro.dnscore.name import DomainName
from repro.dnscore.resolver import IterativeResolver
from repro.dnscore.rrtypes import RRType
from repro.world.domain import DomainTimeline
from repro.world.entities import HostingProvider, provision_organization
from repro.world.world import World


@pytest.fixture
def world():
    world = World(horizon=100)
    hoster = HostingProvider(name="HostCo", ns_sld="hostco-dns.com")
    provision_organization(
        hoster, world.as_registry, world.allocator, prefixlen=20
    )
    world.announce(hoster)
    world.register_ns_owner("hostco-dns.com", hoster)
    world.hosters.append(hoster)
    world.tld_windows = {"com": (0, 100)}
    for index in range(5):
        name = f"d{index}.com"
        world.add_domain(
            DomainTimeline(
                name, "com", created=index * 10,
                base_config=hoster.base_config(name),
                deleted=90 if index == 0 else None,
            )
        )
    return world


class TestZoneAccounting:
    def test_zone_names_respects_lifetime(self, world):
        assert set(world.zone_names("com", 0)) == {"d0.com"}
        assert len(list(world.zone_names("com", 45))) == 5
        assert "d0.com" not in set(world.zone_names("com", 95))

    def test_zone_size_series(self, world):
        series = world.zone_size_series("com")
        assert series[0] == 1
        assert series[45] == 5
        assert series[95] == 4

    def test_unique_slds(self, world):
        assert world.unique_slds("com") == 5

    def test_duplicate_domain_rejected(self, world):
        listing = list(world.zone_names("com", 45))
        with pytest.raises(ValueError):
            world.add_domain(
                DomainTimeline(
                    "d0.com", "com", created=0,
                    base_config=world.domains["d0.com"].config_at(0),
                )
            )
        assert list(world.zone_names("com", 45)) == listing
        assert world.unique_slds("com") == 5


def test_zone_names_equal_the_full_scan(tiny_world):
    """The per-TLD index lists what a scan of every domain lists, in
    the same order, for every TLD on every day of the world."""
    timelines = list(tiny_world.domains.values())
    for tld in sorted({timeline.tld for timeline in timelines}):
        in_tld = [timeline for timeline in timelines if timeline.tld == tld]
        assert tiny_world.unique_slds(tld) == len(in_tld)
        for day in range(tiny_world.horizon):
            assert list(tiny_world.zone_names(tld, day)) == [
                timeline.name for timeline in in_tld if timeline.alive(day)
            ]


class TestRoutingView:
    def test_base_announcements_visible(self, world):
        hoster = world.hosters[0]
        address = hoster.host_address("d1.com")
        assert world.pfx2as_at(0).lookup(address) == frozenset(
            {hoster.primary_asn()}
        )

    def test_routing_event_takes_effect_from_its_day(self, world):
        hoster = world.hosters[0]
        prefix = str(hoster.prefixes[0])
        world.add_routing_event(50, prefix, frozenset({26415}))
        address = hoster.host_address("d1.com")
        assert world.pfx2as_at(49).lookup(address) == frozenset(
            {hoster.primary_asn()}
        )
        assert world.pfx2as_at(50).lookup(address) == frozenset({26415})

    def test_routing_change_days(self, world):
        world.add_routing_event(30, "10.200.0.0/24", frozenset({1}))
        assert 30 in world.routing_change_days()

    def test_routing_events_accessor_is_day_sorted(self, world):
        world.add_routing_event(50, "10.202.0.0/24", frozenset({3}))
        world.add_routing_event(20, "10.203.0.0/24", frozenset({4}))
        events = world.routing_events()
        days = [day for day, _, _ in events]
        assert days == sorted(days)
        assert (20, "10.203.0.0/24", frozenset({4})) in events
        assert (50, "10.202.0.0/24", frozenset({3})) in events

    def test_snapshot_caching_invalidated_by_new_events(self, world):
        first = world.pfx2as_at(10)
        assert world.pfx2as_at(10) is first
        world.add_routing_event(5, "10.201.0.0/24", frozenset({2}))
        assert world.pfx2as_at(10) is not first

    def test_snapshots_are_shared_within_a_routing_epoch(self, world):
        hoster = world.hosters[0]
        prefix = str(hoster.prefixes[0])
        world.add_routing_event(50, prefix, frozenset({26415}))
        world.add_routing_event(70, prefix, frozenset())
        before = world.pfx2as_at(0)
        assert world.pfx2as_at(49) is before
        during = world.pfx2as_at(50)
        assert during is not before
        assert world.pfx2as_at(69) is during
        assert world.pfx2as_at(70) is world.pfx2as_at(99)
        # Each epoch's snapshot is what a world that never cached gives.
        for day in (0, 49, 50, 69, 70, 99):
            scratch = World(horizon=100)
            for event in world.routing_events():
                scratch.add_routing_event(*event)
            assert (
                world.pfx2as_at(day).to_text()
                == scratch.pfx2as_at(day).to_text()
            )
        address = hoster.host_address("d1.com")
        assert world.pfx2as_at(60).lookup(address) == frozenset({26415})
        assert world.pfx2as_at(80).lookup(address) == frozenset()

    def test_ns_host_address_via_owner(self, world):
        address = world.ns_host_address("ns1.hostco-dns.com")
        assert address is not None
        assert world.ns_host_address("ns1.unknown-sld.com") is None


class TestMaterialization:
    def test_resolves_like_the_fast_state(self, world):
        network, roots = world.materialize_dns(45, ["d1.com", "d2.com"])
        resolver = IterativeResolver(network, roots)
        config = world.domains["d1.com"].config_at(45)
        result = resolver.resolve(DomainName.from_text("d1.com"), RRType.A)
        assert tuple(sorted(result.addresses())) == tuple(
            sorted(config.apex_ips)
        )
        www = resolver.resolve(DomainName.from_text("www.d1.com"), RRType.A)
        assert tuple(sorted(www.addresses())) == tuple(sorted(config.www_ips))

    def test_ns_resolution(self, world):
        network, roots = world.materialize_dns(45, ["d1.com"])
        resolver = IterativeResolver(network, roots)
        result = resolver.resolve(DomainName.from_text("d1.com"), RRType.NS)
        got = sorted(
            r.rdata.to_text().rstrip(".") for r in result.rrs(RRType.NS)
        )
        assert got == ["ns1.hostco-dns.com", "ns2.hostco-dns.com"]

    def test_dead_domain_not_materialized(self, world):
        network, roots = world.materialize_dns(95, ["d0.com"])
        resolver = IterativeResolver(network, roots)
        result = resolver.resolve(DomainName.from_text("d0.com"), RRType.A)
        assert result.addresses() == []

    def test_dark_domain_fails_resolution(self, world):
        from repro.world.domain import DARK_CONFIG

        world.domains["d1.com"].set_config(50, DARK_CONFIG)
        network, roots = world.materialize_dns(55, ["d1.com"])
        resolver = IterativeResolver(network, roots)
        result = resolver.resolve(DomainName.from_text("d1.com"), RRType.A)
        assert result.addresses() == []

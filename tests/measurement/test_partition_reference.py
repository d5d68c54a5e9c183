"""``PartitionFeed.partition`` against the reference route it must equal.

The reference route is a day's public pieces called one after another:
the :class:`ZoneFeed` listing, :meth:`FastProber.observe_day`, a
:class:`BatchBuilder` of its own and :meth:`AsnEnricher.enrich_batch`.
Both sides run in lockstep over the same ``(source, day)`` sequence, so
their pools grow alike and must stay equal id for id: equal columns,
equal pool value lists and byte-equal one-day segments.

The hand-built world holds the rows a config → ids shortcut could get
wrong: a dark config, an IPv6-only domain, an empty and a non-empty
CNAME chain, unsorted NS and address tuples, configs shared by several
domains, config changes inside every window, a routing change and a
domain deleted mid-window.
"""

import pytest

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.measurement.enrich import AsnEnricher
from repro.measurement.prober import FastProber
from repro.measurement.scheduler import PartitionFeed
from repro.measurement.zonefeed import ZoneFeed
from repro.store.segment import encode_partition, layout_segment
from repro.store.store import batch_pages
from repro.world.domain import DARK_CONFIG, DnsConfig, DomainTimeline
from repro.world.timeline import CCTLD_START_DAY
from repro.world.world import World

HORIZON = CCTLD_START_DAY + 34
#: gTLD configs change on this day; ccTLD and ranked ones on NL_CHANGE.
CHANGE_DAY = 200
NL_CHANGE = CCTLD_START_DAY + 14
ROUTING_DAY = CCTLD_START_DAY + 4
DELETED = 300

#: Each window's first day, the routing change, the day after each
#: config change, the deletion and the last day.
DAYS = frozenset({
    0, CHANGE_DAY + 1, DELETED, CCTLD_START_DAY, ROUTING_DAY,
    NL_CHANGE + 1, HORIZON - 1,
})

HOSTED = DnsConfig(
    ns_names=("ns2.host.net", "ns1.host.net"),
    apex_ips=("10.1.0.9", "10.1.0.2"),
    www_ips=("10.1.0.7",),
    apex_ips6=("2001:db8:1::9",),
    www_ips6=("2001:db8:1::7", "2001:db8:1::10"),
)
PROTECTED = DnsConfig(
    ns_names=("ns1.host.net", "ns2.host.net"),
    apex_ips=("10.1.0.2",),
    # Chain order is resolution order: it must not be sorted.
    www_cnames=("www.shop.cdn.net", "edge.cdn.net"),
    www_ips=("10.9.0.7", "10.9.0.3"),
)
V6_ONLY = DnsConfig(
    ns_names=("ns.v6.org",),
    apex_ips=(),
    apex_ips6=("2001:db8:2::3", "2001:db8:2::20"),
    www_ips6=("2001:db8:2::3",),
)

#: name → (tld, created, deleted, [(from_day, config), ...]).
DOMAINS = {
    "a.com": ("com", 0, None,
              [(0, HOSTED), (CHANGE_DAY, PROTECTED), (NL_CHANGE, HOSTED)]),
    "b.com": ("com", 0, None, [(0, HOSTED), (CHANGE_DAY, DARK_CONFIG)]),
    "c.net": ("net", 0, None, [(0, V6_ONLY)]),
    "d.net": ("net", 0, DELETED, [(0, PROTECTED)]),
    "e.org": ("org", 0, None, [(0, DARK_CONFIG)]),
    "f.org": ("org", 100, None, [(100, PROTECTED), (NL_CHANGE, V6_ONLY)]),
    "g.nl": ("nl", 0, None, [(0, HOSTED)]),
    "h.nl": ("nl", 0, None, [(0, DARK_CONFIG), (NL_CHANGE, PROTECTED)]),
}


@pytest.fixture(scope="module")
def world():
    world = World(horizon=HORIZON)
    world.tld_windows = {
        "com": (0, HORIZON),
        "net": (0, HORIZON),
        "org": (0, HORIZON),
        "nl": (CCTLD_START_DAY, HORIZON - CCTLD_START_DAY),
    }
    for name, (tld, created, deleted, history) in DOMAINS.items():
        timeline = DomainTimeline(
            name, tld, created, history[0][1], deleted=deleted
        )
        for day, config in history[1:]:
            timeline.set_config(day, config)
        world.add_domain(timeline)
    world.alexa_names = ["f.org", "a.com", "h.nl", "d.net", "gone.com"]
    world.alexa_members = {
        "f.org": [(CCTLD_START_DAY, HORIZON)],
        "a.com": [(CCTLD_START_DAY, ROUTING_DAY), (NL_CHANGE, HORIZON)],
        "h.nl": [(CCTLD_START_DAY, HORIZON)],
        "gone.com": [(0, HORIZON)],
    }
    world.add_routing_event(0, "10.1.0.0/16", frozenset({64500}))
    world.add_routing_event(0, "10.9.0.0/16", frozenset({64510}))
    world.add_routing_event(0, "2001:db8::/32", frozenset({64520}))
    world.add_routing_event(
        ROUTING_DAY, "10.1.0.0/24", frozenset({64500, 64501})
    )
    return world


def _pool_values(pool):
    return [pool.value(index) for index in range(len(pool))]


def _columns(batch: ObservationBatch):
    return {
        column: getattr(batch, column)
        for column in ObservationBatch.__slots__
        if column not in ("names", "addresses")
    }


def _segment(source, day, batch):
    return layout_segment(
        [encode_partition(source, day, batch_pages(batch))]
    )


@pytest.mark.parametrize("enrich", ["own", "off", "shared"])
def test_partition_equals_the_reference_route(world, enrich):
    """Every landed ``(source, day)`` of the test days, in landing
    order: the feed's partition equals the reference route's batch."""
    enricher = None if enrich == "off" else AsnEnricher(world)
    if enrich == "own":
        feed = PartitionFeed(world)
    else:
        # A shared enricher, as ``build_dataset_table`` passes the study's.
        feed = PartitionFeed(world, enrich=enricher or False)
    listings = ZoneFeed(world)
    prober = FastProber(world)
    builder = BatchBuilder()
    landed = []
    for source, day in feed.keys():
        if day not in DAYS:
            continue
        partition = feed.partition(source, day)
        if source == "alexa":
            listing = listings.alexa_listing(day)
        else:
            listing = listings.listing(source, day)
        batch = builder.build(prober.observe_day(listing.names, day))
        if enricher is not None:
            batch = enricher.enrich_batch(batch)
        assert (partition.source, partition.day) == (source, day)
        assert partition.zone_size == len(listing)
        assert _columns(partition.batch) == _columns(batch)
        assert _pool_values(partition.batch.names) == _pool_values(
            batch.names
        )
        assert _pool_values(partition.batch.addresses) == _pool_values(
            batch.addresses
        )
        assert _segment(source, day, partition.batch) == _segment(
            source, day, batch
        )
        landed.append((source, day, len(batch)))
    sources = {source for source, _, _ in landed}
    assert sources == {"com", "net", "org", "nl", "alexa"}
    assert all(rows for _, _, rows in landed)


def test_the_world_holds_the_edge_rows(world):
    """The oracle's world really contains the rows it claims to."""
    feed = PartitionFeed(world, enrich=False)
    rows = {}
    for source, day in feed.keys():
        if day in DAYS:
            for row in feed.partition(source, day).observations:
                rows[row.domain, day] = row
    assert rows["b.com", CHANGE_DAY + 1].is_dark()
    assert rows["c.net", 0].apex_addrs == ()
    assert rows["c.net", 0].apex_addrs6 == (
        "2001:db8:2::20", "2001:db8:2::3"
    )
    assert rows["a.com", 0].www_cnames == ()
    assert rows["a.com", CHANGE_DAY + 1].www_cnames == (
        "www.shop.cdn.net", "edge.cdn.net"
    )
    assert ("d.net", CHANGE_DAY + 1) in rows
    assert ("d.net", DELETED) not in rows
    assert ("h.nl", NL_CHANGE + 1) in rows


def test_consecutive_days_across_a_routing_change(world):
    """One feed lands every day around the routing change, in landing
    order: each partition equals the reference route's batch, and each
    row's ASNs equal the per-day oracle :meth:`AsnEnricher.enrich`.

    Configs do not change over these days, so every row repeats its
    address cells from the day before; only the routing epoch moves.
    """
    feed = PartitionFeed(world)
    oracle = AsnEnricher(world)
    listings = ZoneFeed(world)
    prober = FastProber(world)
    builder = BatchBuilder()
    enricher = AsnEnricher(world)
    asns = {}
    for source, day in feed.keys(ROUTING_DAY - 2, ROUTING_DAY + 3):
        partition = feed.partition(source, day)
        if source == "alexa":
            listing = listings.alexa_listing(day)
        else:
            listing = listings.listing(source, day)
        batch = enricher.enrich_batch(
            builder.build(prober.observe_day(listing.names, day))
        )
        assert _columns(partition.batch) == _columns(batch)
        for row in partition.observations:
            assert row.asns == oracle.enrich(row.with_asns(frozenset())).asns
            asns[source, row.domain, day] = row.asns
    # The change reaches the rows: an apex in 10.1.0.0/24 gains an origin.
    assert asns["com", "a.com", ROUTING_DAY - 1] == frozenset({64500, 64510})
    assert asns["com", "a.com", ROUTING_DAY] == frozenset(
        {64500, 64501, 64510}
    )

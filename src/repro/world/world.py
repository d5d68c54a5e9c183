"""The assembled simulated internet: domains, routing, and DNS hosting.

:class:`World` is what the measurement platform measures. It exposes:

* zone listings per TLD per day (what the registry zone files provide);
* per-domain DNS configurations per day (what active measurement observes);
* a day-indexed BGP view exported as pfx2as snapshots (what Routeviews
  provides for ASN enrichment);
* full DNS materialisation of any single day — real zones on real
  (simulated) authoritative servers behind a lossy datagram network — for
  the full-fidelity wire prober.
"""

from __future__ import annotations

import ipaddress
from bisect import bisect_right
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.dnscore.name import DomainName
from repro.dnscore.records import SOAData
from repro.dnscore.rrtypes import RRType
from repro.dnscore.server import AuthoritativeServer
from repro.dnscore.transport import SimulatedNetwork
from repro.dnscore.zone import Zone
from repro.routing.asn import ASRegistry
from repro.routing.pfx2as import Pfx2As
from repro.routing.table import RoutingTable
from repro.world.domain import DnsConfig, DomainTimeline
from repro.world.entities import HostingProvider, Organization
from repro.world.events import EventLog
from repro.world.ipam import PrefixAllocator, address_in
from repro.world.providers import DPSProvider
from repro.world.thirdparty import ThirdParty


class World:
    """A complete simulated internet over a study period."""

    def __init__(self, horizon: int):
        #: Number of study days the world covers (day 0 .. horizon-1).
        self.horizon = horizon
        self.as_registry = ASRegistry()
        self.allocator = PrefixAllocator()
        self.providers: Dict[str, DPSProvider] = {}
        self.hosters: List[HostingProvider] = []
        self.thirdparties: Dict[str, ThirdParty] = {}
        self.domains: Dict[str, DomainTimeline] = {}
        #: TLD → its timelines, in ``domains`` order (zone listings).
        self._by_tld: Dict[str, List[DomainTimeline]] = {}
        #: TLD → (start_day, measured_days).
        self.tld_windows: Dict[str, Tuple[int, int]] = {}
        #: All names ever on the Alexa-style list.
        self.alexa_names: List[str] = []
        #: Membership windows per name: ``[(start, end), ...]`` study days.
        #: Empty dict means every name is a member for the whole window.
        self.alexa_members: Dict[str, List[Tuple[int, int]]] = {}
        #: SLD text → organisation that runs name servers under it.
        self.ns_owners: Dict[str, Organization] = {}
        #: Ground-truth log of scripted mass events (never read by the
        #: methodology; used to validate attribution).
        self.event_log = EventLog()
        #: Routing timeline: (day, prefix_text, origin_set), sorted lazily.
        self._routing_events: List[Tuple[int, str, FrozenSet[int]]] = []
        self._routing_sorted = False
        #: Snapshot per routing epoch (index into the change days).
        self._pfx2as_cache: Dict[int, Pfx2As] = {}
        self._change_days: Optional[List[int]] = None
        #: Infrastructure addressing for roots and TLD servers.
        self.infra_prefix = self.allocator.allocate(24)

    # -- population -------------------------------------------------------

    def add_domain(self, timeline: DomainTimeline) -> DomainTimeline:
        if timeline.name in self.domains:
            raise ValueError(f"duplicate domain {timeline.name}")
        self.domains[timeline.name] = timeline
        self._by_tld.setdefault(timeline.tld, []).append(timeline)
        return timeline

    def register_ns_owner(self, sld: str, org: Organization) -> None:
        """Record that *org* runs the name servers under *sld*."""
        self.ns_owners[sld] = org

    def add_routing_event(
        self, day: int, prefix: str, origins: FrozenSet[int]
    ) -> None:
        """From *day* on, *prefix* is announced by *origins* (empty = gone)."""
        self._routing_events.append((day, prefix, frozenset(origins)))
        self._routing_sorted = False
        self._pfx2as_cache.clear()
        self._change_days = None

    def announce(self, org: Organization) -> None:
        """Announce all of *org*'s prefixes from day 0.

        DPS providers announce each prefix from the matching AS number;
        other organisations use their primary ASN.
        """
        for prefix in org.prefixes:
            origin = org.primary_asn()
            if isinstance(org, DPSProvider):
                origin = org.prefix_origins.get(prefix, origin)
            self.add_routing_event(0, str(prefix), frozenset({origin}))
        for prefix6 in org.prefixes_v6:
            self.add_routing_event(
                0, str(prefix6), frozenset({org.primary_asn()})
            )

    # -- zone listings (what registry zone files provide) ---------------------

    def zone_names(self, tld: str, day: int) -> Iterator[str]:
        """The names present in *tld*'s zone file on *day*."""
        for timeline in self._by_tld.get(tld, ()):
            if timeline.alive(day):
                yield timeline.name

    def zone_size_series(self, tld: str) -> List[int]:
        """Daily zone size for *tld* over the whole horizon (O(its names))."""
        deltas = [0] * (self.horizon + 1)
        for timeline in self.domains_in_tld(tld):
            first, last = timeline.lifespan(self.horizon)
            if first < last:
                deltas[first] += 1
                deltas[last] -= 1
        sizes: List[int] = []
        running = 0
        for day in range(self.horizon):
            running += deltas[day]
            sizes.append(running)
        return sizes

    def domains_in_tld(self, tld: str) -> Iterator[DomainTimeline]:
        return iter(self._by_tld.get(tld, ()))

    def unique_slds(self, tld: str) -> int:
        """Unique SLDs ever observed in *tld* (Table 1's #SLDs column)."""
        return len(self._by_tld.get(tld, ()))

    # -- the Alexa-style ranking ------------------------------------------------

    def alexa_membership(self, name: str) -> List[Tuple[int, int]]:
        """The ranking-membership windows of *name* (may be empty)."""
        if not self.alexa_members:
            # Fixed-list worlds: every listed name is always a member.
            if name in self.alexa_names:
                return [(0, self.horizon)]
            return []
        return self.alexa_members.get(name, [])

    def alexa_list(self, day: int) -> List[str]:
        """The ranking's members on *day* (alive domains only)."""
        members = []
        for name in self.alexa_names:
            timeline = self.domains.get(name)
            if timeline is None or not timeline.alive(day):
                continue
            if any(
                start <= day < end
                for start, end in self.alexa_membership(name)
            ):
                members.append(name)
        return members

    def alexa_member_days(self, start: int, days: int) -> int:
        """Σ membership days over the window (Table 1 accounting)."""
        total = 0
        for name in self.alexa_names:
            for window_start, window_end in self.alexa_membership(name):
                lo = max(window_start, start)
                hi = min(window_end, start + days)
                if lo < hi:
                    total += hi - lo
        return total

    # -- routing view ------------------------------------------------------------

    def _sorted_routing_events(self) -> List[Tuple[int, str, FrozenSet[int]]]:
        if not self._routing_sorted:
            self._routing_events.sort(key=lambda event: event[0])
            self._routing_sorted = True
        return self._routing_events

    def routing_events(self) -> Sequence[Tuple[int, str, FrozenSet[int]]]:
        """All ``(day, prefix, origins)`` events, day-ascending.

        The public read-only view of the routing timeline; consumers (ASN
        enrichment, diagnostics) must not mutate the returned sequence.
        """
        return self._sorted_routing_events()

    def pfx2as_at(self, day: int) -> Pfx2As:
        """The Routeviews-style pfx2as snapshot for *day*.

        Cached per routing epoch: days between two consecutive change
        days see the same announcements and get the same object.
        """
        epoch = bisect_right(self.routing_change_days(), day)
        cached = self._pfx2as_cache.get(epoch)
        if cached is not None:
            return cached
        table = RoutingTable()
        current: Dict[str, FrozenSet[int]] = {}
        for event_day, prefix, origins in self._sorted_routing_events():
            if event_day > day:
                break
            current[prefix] = origins
        for prefix, origins in current.items():
            for origin in origins:
                table.announce(prefix, origin)
        snapshot = table.snapshot_pfx2as()
        self._pfx2as_cache[epoch] = snapshot
        return snapshot

    def routing_change_days(self) -> Sequence[int]:
        """Days on which any announcement changes (snapshot boundaries),
        ascending; read-only like :meth:`routing_events`."""
        if self._change_days is None:
            self._change_days = sorted(
                {event[0] for event in self._routing_events}
            )
        return self._change_days

    # -- single-day DNS materialisation (for the wire prober) ---------------------

    def ns_host_address(self, hostname: str) -> Optional[str]:
        """The address of a name-server hostname, via its SLD's owner."""
        name = DomainName.from_text(hostname)
        sld = name.sld()
        if sld is None:
            return None
        owner = self.ns_owners.get(sld.to_text())
        if owner is None:
            return None
        return owner.host_address(hostname)

    def materialize_dns(
        self, day: int, domain_names: Sequence[str]
    ) -> Tuple[SimulatedNetwork, List[str]]:
        """Build a live DNS tree for *day* covering *domain_names*.

        Returns the simulated network and the root-server addresses. Every
        measured domain gets a real zone on a real authoritative server;
        TLD zones carry the delegations and glue; DPS CNAME targets resolve
        inside provider-run zones — so an iterative resolver sees exactly
        what OpenINTEL's resolvers saw.
        """
        builder = _DayMaterializer(self, day)
        for domain_name in domain_names:
            builder.add_domain(domain_name)
        return builder.finish()


def _soa_for(origin: DomainName) -> SOAData:
    mname = DomainName.from_text("ns.invalid").concat(DomainName.root())
    rname = DomainName.from_text("hostmaster.invalid")
    return SOAData(mname, rname, serial=1)


class _DayMaterializer:
    """Builds zones, servers, and the network for one study day."""

    def __init__(self, world: World, day: int):
        self.world = world
        self.day = day
        self.network = SimulatedNetwork()
        self._zones: Dict[str, Zone] = {}
        #: zone origin text → list of ns hostnames serving it.
        self._zone_ns: Dict[str, List[str]] = {}
        self._ns_addresses: Dict[str, str] = {}
        self._root = self._ensure_zone("", ())
        self._infra_counter = 0
        self._servers: Dict[str, AuthoritativeServer] = {}

    # -- helpers -----------------------------------------------------------

    def _infra_address(self, key: str) -> str:
        return address_in(self.world.infra_prefix, key)

    def _ensure_zone(self, origin_text: str, ns_names: Sequence[str]) -> Zone:
        zone = self._zones.get(origin_text)
        if zone is None:
            origin = (
                DomainName.root()
                if origin_text == ""
                else DomainName.from_text(origin_text)
            )
            zone = Zone(origin, _soa_for(origin))
            self._zones[origin_text] = zone
            self._zone_ns[origin_text] = []
        for ns_name in ns_names:
            if ns_name not in self._zone_ns[origin_text]:
                self._zone_ns[origin_text].append(ns_name)
                zone.add(origin_text or ".", RRType.NS, ns_name + ".")
        return zone

    def _ns_address(self, hostname: str) -> str:
        address = self._ns_addresses.get(hostname)
        if address is None:
            address = self.world.ns_host_address(hostname)
            if address is None:
                address = self._infra_address(hostname)
            self._ns_addresses[hostname] = address
        return address

    def _ensure_tld(self, tld: str) -> Zone:
        zone = self._zones.get(tld)
        if zone is not None:
            return zone
        tld_ns = f"ns.registry-{tld}.{tld}"
        zone = self._ensure_zone(tld, (tld_ns,))
        zone.add(tld_ns, RRType.A, self._ns_address(tld_ns))
        root_ns = "ns.root-servers.org"
        self._ensure_zone("", (root_ns,))
        self._root.add(tld, RRType.NS, tld_ns + ".")
        self._root.add(tld_ns, RRType.A, self._ns_address(tld_ns))
        return zone

    def _delegate(self, zone_origin: str, child: str,
                  ns_names: Sequence[str]) -> None:
        """Add child delegation NS (+ in-bailiwick glue) to a parent zone."""
        parent = self._zones[zone_origin]
        child_name = DomainName.from_text(child)
        for ns_name in ns_names:
            existing = parent.get_rrset(child_name, RRType.NS)
            texts = existing.rdata_texts() if existing else []
            if ns_name + "." not in texts:
                parent.add(child, RRType.NS, ns_name + ".")
            ns_domain = DomainName.from_text(ns_name)
            if ns_domain.is_subdomain_of(parent.origin):
                glue = parent.get_rrset(ns_domain, RRType.A)
                if not glue:
                    parent.add(ns_name, RRType.A, self._ns_address(ns_name))

    def _ensure_ns_host_zone(self, hostname: str) -> None:
        """Make a name-server hostname itself resolvable.

        ``ns1.hostco-dns.com`` needs the ``hostco-dns.com`` zone delegated
        from ``com`` with glue, and an A record inside it.
        """
        name = DomainName.from_text(hostname)
        sld = name.sld()
        if sld is None:
            return
        sld_text = sld.to_text()
        tld = sld.labels[-1].decode()
        self._ensure_tld(tld)
        zone = self._ensure_zone(sld_text, ())
        if not self._zone_ns[sld_text]:
            # The SLD zone serves itself; its NS lives in-zone, with glue
            # in the parent (the standard in-bailiwick pattern).
            self_ns = f"ns1.{sld_text}"
            self._ensure_zone(sld_text, (self_ns,))
            if not zone.get_rrset(
                DomainName.from_text(self_ns), RRType.A
            ):
                zone.add(self_ns, RRType.A, self._ns_address(self_ns))
            self._delegate(tld, sld_text, (self_ns,))
        if not zone.get_rrset(name, RRType.A):
            zone.add(hostname, RRType.A, self._ns_address(hostname))

    # -- domain material ------------------------------------------------------

    def add_domain(self, domain_name: str) -> None:
        timeline = self.world.domains.get(domain_name)
        if timeline is None or not timeline.alive(self.day):
            return
        config = timeline.config_at(self.day)
        tld = timeline.tld
        self._ensure_tld(tld)
        if not config.ns_names:
            # Dark domain: delegated nowhere — lookups will fail.
            return
        for ns_name in config.ns_names:
            self._ensure_ns_host_zone(ns_name)
        self._delegate(tld, domain_name, config.ns_names)
        zone = self._ensure_zone(domain_name, config.ns_names)
        for address in config.apex_ips:
            zone.add(domain_name, RRType.A, address)
        for address in config.apex_ips6:
            zone.add(domain_name, RRType.AAAA, address)
        www = f"www.{domain_name}"
        if config.www_cnames:
            zone.add(www, RRType.CNAME, config.www_cnames[0] + ".")
            self._materialize_cname_chain(config)
        else:
            for address in config.www_ips:
                zone.add(www, RRType.A, address)
            for address in config.www_ips6:
                zone.add(www, RRType.AAAA, address)

    def _materialize_cname_chain(self, config: DnsConfig) -> None:
        """Host each CNAME chain element in its owner's zone."""
        chain = config.www_cnames
        for index, target_text in enumerate(chain):
            target = DomainName.from_text(target_text)
            sld = target.sld()
            if sld is None:
                continue
            sld_text = sld.to_text()
            tld = sld.labels[-1].decode()
            self._ensure_tld(tld)
            owner = self.world.ns_owners.get(sld_text)
            ns_names = (
                (f"ns1.{sld_text}", f"ns2.{sld_text}")
                if owner is not None
                else (f"ns1.{sld_text}",)
            )
            zone = self._zones.get(sld_text)
            if zone is None:
                zone = self._ensure_zone(sld_text, ns_names)
                for ns_name in ns_names:
                    zone.add(ns_name, RRType.A, self._ns_address(ns_name))
                self._delegate(tld, sld_text, ns_names)
            next_hop = chain[index + 1] if index + 1 < len(chain) else None
            if next_hop is not None:
                if not zone.get_rrset(target, RRType.CNAME):
                    zone.add(target_text, RRType.CNAME, next_hop + ".")
            else:
                if not zone.get_rrset(target, RRType.A):
                    for address in config.www_ips:
                        zone.add(target_text, RRType.A, address)
                    for address in config.www_ips6:
                        zone.add(target_text, RRType.AAAA, address)

    # -- assembly -------------------------------------------------------------

    def finish(self) -> Tuple[SimulatedNetwork, List[str]]:
        root_ns = "ns.root-servers.org"
        self._ensure_zone("", (root_ns,))
        if not self._root.get_rrset(
            DomainName.from_text(root_ns), RRType.A
        ):
            self._root.add(root_ns, RRType.A, self._ns_address(root_ns))
        # Place every zone on the server(s) of its NS hostnames.
        for origin_text, zone in self._zones.items():
            ns_names = self._zone_ns.get(origin_text) or [root_ns]
            for ns_name in ns_names:
                address = self._ns_address(ns_name)
                server = self._servers.get(address)
                if server is None:
                    server = AuthoritativeServer(ns_name)
                    self._servers[address] = server
                    self._register(address, server)
                server.attach_zone(zone)
        root_addresses = [self._ns_address(root_ns)]
        return self.network, root_addresses

    def _register(self, address: str, server: AuthoritativeServer) -> None:
        from repro.dnscore.server import make_wire_handlers

        datagram, stream = make_wire_handlers(server)
        self.network.register(
            ipaddress.ip_address(address), datagram, stream
        )

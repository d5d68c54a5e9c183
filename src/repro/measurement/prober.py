"""Stage II: measurement workers that observe domains.

Two implementations of the same observation contract:

* :class:`FastProber` reads the world's piecewise-constant state directly.
  It also emits run-length-compressed :class:`ObservationSegment` streams,
  which make 550-day sweeps over 10⁵ domains cheap.
* :class:`WireProber` performs *real* iterative DNS resolution — wire
  encoding, referrals from the root, cross-zone CNAME chasing — against the
  world's materialised zones for a day.

``tests/integration`` asserts byte-level agreement between the two on
sampled domains, which is what justifies using the fast path for bulk runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.batch.batch import Ids, ObservationBatch
from repro.dnscore.name import DomainName
from repro.dnscore.resolver import IterativeResolver, ResolutionError, ResolverCache
from repro.dnscore.rrtypes import Rcode, RRType
from repro.measurement.snapshot import DomainObservation, ObservationSegment
from repro.world.domain import DnsConfig
from repro.world.world import World


def _observation_from_config(
    domain: str, tld: str, day: int, config: DnsConfig
) -> DomainObservation:
    return DomainObservation(
        day=day,
        domain=domain,
        tld=tld,
        ns_names=tuple(sorted(config.ns_names)),
        apex_addrs=tuple(sorted(config.apex_ips)),
        www_cnames=config.www_cnames,
        www_addrs=tuple(sorted(config.www_ips)),
        apex_addrs6=tuple(sorted(config.apex_ips6)),
        www_addrs6=tuple(sorted(config.www_ips6)),
    )


class FastProber:
    """Observes domains by reading the world's state directly."""

    def __init__(self, world: World):
        self._world = world
        self.observations_made = 0

    def observe(self, domain: str, day: int) -> Optional[DomainObservation]:
        """The observation for *domain* on *day* (None if not in zone)."""
        timeline = self._world.domains.get(domain)
        if timeline is None or not timeline.alive(day):
            return None
        self.observations_made += 1
        return _observation_from_config(
            domain, timeline.tld, day, timeline.config_at(day)
        )

    def observe_day(
        self, names: Iterable[str], day: int
    ) -> List[DomainObservation]:
        """Observe every name in *names* on *day* (a daily sweep shard)."""
        observations = []
        for name in names:
            observation = self.observe(name, day)
            if observation is not None:
                observations.append(observation)
        return observations

    def append_day(
        self,
        batch: ObservationBatch,
        names: Iterable[str],
        day: int,
        payloads: Dict[DnsConfig, Tuple[Ids, ...]],
    ) -> None:
        """Append to *batch* the rows :meth:`observe_day` returns, unboxed.

        *payloads* maps each config seen to its NS, CNAME and address id
        cells in *batch*'s pools, so the caller keeps it exactly as long
        as those pools. A known config costs a dict hit; a new one is
        boxed once and interned by :meth:`ObservationBatch.intern_row`,
        so the pools grow id for id as under the boxed route.
        """
        domains = self._world.domains
        intern = batch.names.intern
        append = batch.append_ids
        made = 0
        for name in names:
            timeline = domains.get(name)
            if timeline is None or not timeline.alive(day):
                continue
            made += 1
            config = timeline.config_at(day)
            payload = payloads.get(config)
            if payload is None:
                ids = batch.intern_row(
                    _observation_from_config(name, timeline.tld, day, config)
                )
                payloads[config] = ids[2:8]  # no domain, TLD or ASNs
                append(day, *ids)
            else:
                append(day, intern(name), intern(timeline.tld), *payload, ())
        self.observations_made += made

    def observe_segments(
        self, domain: str, horizon: Optional[int] = None
    ) -> List[ObservationSegment]:
        """The domain's full observation history, run-length compressed.

        Equivalent to calling :meth:`observe` for every day of the
        domain's life and merging equal consecutive rows — but O(changes)
        instead of O(days).
        """
        timeline = self._world.domains.get(domain)
        if timeline is None:
            return []
        horizon = self._world.horizon if horizon is None else horizon
        segments: List[ObservationSegment] = []
        for start, end, config in timeline.segments(horizon):
            observation = _observation_from_config(
                domain, timeline.tld, start, config
            )
            self.observations_made += 1
            segments.append(ObservationSegment(start, end, observation))
        return segments


class WireProber:
    """Observes domains via real resolution over the simulated network."""

    def __init__(self, world: World):
        self._world = world
        self.queries_sent = 0
        #: Lookups that fell back to an empty answer after resolution
        #: failed outright — the wire path's visible degradation counter.
        self.degraded_lookups = 0

    def observe_day(
        self, names: Sequence[str], day: int
    ) -> List[DomainObservation]:
        """Materialise *day* once and measure every name through the wire."""
        network, roots = self._world.materialize_dns(day, names)
        resolver = IterativeResolver(network, roots, cache=ResolverCache())
        observations = []
        for name in names:
            timeline = self._world.domains.get(name)
            if timeline is None or not timeline.alive(day):
                continue
            observations.append(
                self._measure_one(resolver, name, timeline.tld, day)
            )
        return observations

    def observe(self, domain: str, day: int) -> Optional[DomainObservation]:
        rows = self.observe_day([domain], day)
        return rows[0] if rows else None

    def _measure_one(
        self,
        resolver: IterativeResolver,
        domain: str,
        tld: str,
        day: int,
    ) -> DomainObservation:
        apex = DomainName.from_text(domain)
        www = apex.prepend("www")

        apex_a = self._addresses(resolver, apex, RRType.A)
        apex_aaaa = self._addresses(resolver, apex, RRType.AAAA)
        www_a, www_chain = self._www(resolver, www, RRType.A)
        www_aaaa, _ = self._www(resolver, www, RRType.AAAA)
        ns_names = self._ns(resolver, apex)

        return DomainObservation(
            day=day,
            domain=domain,
            tld=tld,
            ns_names=tuple(sorted(ns_names)),
            apex_addrs=tuple(sorted(apex_a)),
            www_cnames=www_chain,
            www_addrs=tuple(sorted(www_a)),
            apex_addrs6=tuple(sorted(apex_aaaa)),
            www_addrs6=tuple(sorted(www_aaaa)),
        )

    def _addresses(
        self, resolver: IterativeResolver, name: DomainName, rrtype: RRType
    ) -> List[str]:
        try:
            result = resolver.resolve(name, rrtype)
        except ResolutionError:
            self.degraded_lookups += 1
            return []
        self.queries_sent += result.queries_sent
        if result.rcode != Rcode.NOERROR:
            return []
        return [r.rdata.to_text() for r in result.rrs(rrtype)]

    def _www(
        self, resolver: IterativeResolver, name: DomainName, rrtype: RRType
    ) -> Tuple[List[str], Tuple[str, ...]]:
        try:
            result = resolver.resolve(name, rrtype)
        except ResolutionError:
            self.degraded_lookups += 1
            return [], ()
        self.queries_sent += result.queries_sent
        if result.rcode != Rcode.NOERROR:
            return [], ()
        addresses = [r.rdata.to_text() for r in result.rrs(rrtype)]
        chain = tuple(t.to_text() for t in result.cname_chain)
        return addresses, chain

    def _ns(
        self, resolver: IterativeResolver, name: DomainName
    ) -> List[str]:
        try:
            result = resolver.resolve(name, RRType.NS)
        except ResolutionError:
            self.degraded_lookups += 1
            return []
        self.queries_sent += result.queries_sent
        if result.rcode != Rcode.NOERROR:
            return []
        return [
            r.rdata.nsdname.to_text()  # type: ignore[union-attr]
            for r in result.rrs(RRType.NS)
        ]

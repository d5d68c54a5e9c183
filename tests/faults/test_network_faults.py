"""Transport faults: resolver retry and the wire prober's degradation."""

import ipaddress

import pytest

from repro.dnscore.name import DomainName
from repro.dnscore.records import SOAData
from repro.dnscore.resolver import ResolutionError, StubResolver
from repro.dnscore.rrtypes import Rcode, RRType
from repro.dnscore.server import AuthoritativeServer
from repro.dnscore.transport import SimulatedNetwork
from repro.dnscore.wire import decode_message, encode_message
from repro.dnscore.zone import Zone
from repro.faults.inject import FaultyNetwork
from repro.faults.plan import FaultLog, FaultPlan, FaultSpec
from repro.measurement.prober import WireProber

SERVER_IP = "192.0.2.20"


def name(text):
    return DomainName.from_text(text)


def one_server_network():
    net = SimulatedNetwork()
    zone = Zone(
        name("examp.com"),
        SOAData(name("ns.invalid"), name("host.invalid"), 1),
    )
    zone.add("examp.com", RRType.NS, "ns.examp.com.")
    zone.add("examp.com", RRType.A, "203.0.113.1")
    server = AuthoritativeServer("examp")
    server.attach_zone(zone)
    net.register(
        ipaddress.ip_address(SERVER_IP),
        lambda b: encode_message(server.handle_query(decode_message(b))),
    )
    return net


def faulty_resolver(kind, **spec_kwargs):
    log = FaultLog()
    plan = FaultPlan(
        seed=13,
        specs=(FaultSpec("transport.query", kind, **spec_kwargs),),
    )
    network = FaultyNetwork(one_server_network(), plan.injector(log))
    return StubResolver(network, SERVER_IP), log


class TestResolverRetry:
    def test_single_timeout_is_retried_through(self):
        resolver, log = faulty_resolver("timeout", times=1)
        response = resolver.query(name("examp.com"), RRType.A)
        assert response.rcode == Rcode.NOERROR
        assert response.answer_rrs(RRType.A)
        assert log.to_dict()["injected"] == {"transport.query/timeout": 1}

    def test_single_short_read_is_retried_through(self):
        """A truncated datagram is operationally a lost one: the decode
        error is absorbed and the query retried."""
        resolver, _log = faulty_resolver("short_read", times=1)
        response = resolver.query(name("examp.com"), RRType.A)
        assert response.rcode == Rcode.NOERROR
        assert response.answer_rrs(RRType.A)

    @pytest.mark.parametrize("kind", ["timeout", "short_read"])
    def test_persistent_fault_exhausts_to_typed_error(self, kind):
        resolver, _log = faulty_resolver(kind)
        with pytest.raises(ResolutionError):
            resolver.query(name("examp.com"), RRType.A)

    def test_malformed_rdata_never_leaks_decode_errors(self):
        resolver, _log = faulty_resolver("malformed_rdata")
        try:
            resolver.query(name("examp.com"), RRType.A)
        except ResolutionError:
            pass  # exhausting retries is an acceptable outcome


class TestWireProberDegradation:
    def test_dead_network_degrades_instead_of_dying(
        self, tiny_world, monkeypatch
    ):
        plan = FaultPlan(
            seed=13, specs=(FaultSpec("transport.query", "timeout"),)
        )
        injector = plan.injector()
        original = tiny_world.materialize_dns

        def faulty_materialize(day, names):
            network, roots = original(day, names)
            return FaultyNetwork(network, injector), roots

        monkeypatch.setattr(
            tiny_world, "materialize_dns", faulty_materialize
        )
        names = sorted(tiny_world.domains)[:3]
        day = 0
        alive = [
            domain
            for domain in names
            if tiny_world.domains[domain].alive(day)
        ]
        prober = WireProber(tiny_world)
        observations = prober.observe_day(names, day)
        # Every lookup failed, yet the sweep completed: one (empty)
        # observation per living domain, with the damage counted.
        assert len(observations) == len(alive)
        assert prober.degraded_lookups > 0
        for observation in observations:
            assert observation.ns_names == ()
            assert observation.apex_addrs == ()

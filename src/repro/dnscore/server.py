"""Authoritative name-server logic (the response-building half of RFC 1034).

A server hosts any number of zones. For a query it selects the zone with the
longest matching origin, walks the lookup (following in-zone CNAME chains),
and builds an answer, referral, NODATA, or NXDOMAIN response. Servers are
pure request → response functions; the transport layer handles delivery.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.dnscore.name import DomainName
from repro.dnscore.message import Message, make_response
from repro.dnscore.rrtypes import Opcode, Rcode, RRType
from repro.dnscore.zone import LookupStatus, Zone

MAX_CNAME_CHAIN = 16


class AuthoritativeServer:
    """An authoritative DNS server hosting one or more zones."""

    def __init__(self, name: str = "ns"):
        self.name = name
        self._zones: Dict[DomainName, Zone] = {}
        self.queries_handled = 0

    # -- zone management -----------------------------------------------------

    def attach_zone(self, zone: Zone) -> None:
        self._zones[zone.origin] = zone

    def detach_zone(self, origin: DomainName) -> Optional[Zone]:
        return self._zones.pop(origin, None)

    def zone_for(self, qname: DomainName) -> Optional[Zone]:
        """The hosted zone with the longest origin matching *qname*."""
        best: Optional[Zone] = None
        for origin, zone in self._zones.items():
            if qname.is_subdomain_of(origin):
                if best is None or len(origin) > len(best.origin):
                    best = zone
        return best

    @property
    def zones(self) -> List[Zone]:
        return list(self._zones.values())

    # -- query handling ---------------------------------------------------------

    def handle_query(self, query: Message) -> Message:
        """Answer *query* from hosted zone data."""
        self.queries_handled += 1
        if query.question is None:
            return make_response_refused(query)
        if query.flags.opcode != Opcode.QUERY:
            response = make_response(query, rcode=Rcode.NOTIMP)
            return response
        qname = query.question.qname
        qtype = query.question.qtype
        zone = self.zone_for(qname)
        if zone is None:
            return make_response(query, rcode=Rcode.REFUSED)

        response = make_response(query, authoritative=True)
        current = qname
        for _ in range(MAX_CNAME_CHAIN):
            result = zone.lookup(current, qtype)
            if result.status == LookupStatus.SUCCESS:
                response.answers.extend(result.rrset)
                self._add_apex_ns(zone, response)
                return response
            if result.status == LookupStatus.CNAME:
                response.answers.extend(result.rrset)
                target = result.rrset.records[0].rdata.target  # type: ignore
                if not target.is_subdomain_of(zone.origin):
                    # Chain leaves this zone; the resolver continues it.
                    self._add_apex_ns(zone, response)
                    return response
                current = target
                continue
            if result.status == LookupStatus.DELEGATION:
                response.flags = replace(response.flags, aa=False)
                response.authority.extend(result.delegation)
                response.additional.extend(result.glue)
                return response
            if result.status == LookupStatus.NODATA:
                self._add_soa(zone, response)
                return response
            # NXDOMAIN
            response.flags = replace(response.flags, rcode=Rcode.NXDOMAIN)
            self._add_soa(zone, response)
            return response
        # CNAME chain too long within a single zone.
        return make_response(query, rcode=Rcode.SERVFAIL)

    def _add_soa(self, zone: Zone, response: Message) -> None:
        soa_rrset = zone.get_rrset(zone.origin, RRType.SOA)
        if soa_rrset:
            response.authority.extend(soa_rrset)

    def _add_apex_ns(self, zone: Zone, response: Message) -> None:
        """Populate the authority section with the zone's NS rrset.

        This mirrors the examples in the paper's §2.1, where responses carry
        the authoritative NS in the AUTHORITY section — which is exactly the
        signal the detection methodology reads.
        """
        ns_rrset = zone.get_rrset(zone.origin, RRType.NS)
        if not ns_rrset:
            return
        present = {
            (r.name, r.rrtype, r.rdata.to_text()) for r in response.authority
        }
        for record in ns_rrset:
            key = (record.name, record.rrtype, record.rdata.to_text())
            if key not in present:
                response.authority.append(record)


def make_response_refused(query: Message) -> Message:
    """A REFUSED response for queries we cannot parse a question from."""
    response = Message(msg_id=query.msg_id)
    response.flags = replace(query.flags, qr=True, rcode=Rcode.REFUSED)
    return response


#: Classic DNS UDP payload limit; larger responses come back truncated.
UDP_PAYLOAD_LIMIT = 512
#: The server-side EDNS(0) payload ceiling (the common 1232-byte choice).
EDNS_PAYLOAD_LIMIT = 1232


def make_wire_handlers(server: AuthoritativeServer):
    """``(datagram_handler, stream_handler)`` for a server.

    The datagram handler enforces the UDP size limit — the classic 512
    bytes, raised to ``min(client advertised, EDNS_PAYLOAD_LIMIT)`` when
    the query carries EDNS(0) — setting TC on overflow; the stream
    handler never truncates. Both take and return wire bytes, matching
    the transport's handler contract.
    """
    from repro.dnscore.message import EdnsInfo
    from repro.dnscore.wire import decode_message, encode_message

    def _respond(payload: bytes):
        query = decode_message(payload)
        response = server.handle_query(query)
        if query.edns is not None:
            response.edns = EdnsInfo(payload_size=EDNS_PAYLOAD_LIMIT)
        return query, response

    def datagram(payload: bytes) -> bytes:
        query, response = _respond(payload)
        limit = UDP_PAYLOAD_LIMIT
        if query.edns is not None:
            limit = max(
                UDP_PAYLOAD_LIMIT,
                min(query.edns.payload_size, EDNS_PAYLOAD_LIMIT),
            )
        return encode_message(response, max_size=limit)

    def stream(payload: bytes) -> bytes:
        _, response = _respond(payload)
        return encode_message(response)

    return datagram, stream

"""Authoritative zone data: record tables, delegations, lookups, zone files.

A :class:`Zone` owns every record at or below its origin, except data below
a delegation point (those names exist only as NS + glue). The lookup method
implements the data-side half of the RFC 1034 algorithm: exact match,
CNAME fallback, delegation detection, and NXDOMAIN/NODATA distinction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dnscore.name import DomainName
from repro.dnscore.records import (
    DEFAULT_TTL,
    ResourceRecord,
    RRset,
    SOAData,
    make_record,
)
from repro.dnscore.rrtypes import RRType


class ZoneError(ValueError):
    """Raised on structurally invalid zone contents or operations."""


class LookupStatus(enum.Enum):
    """Outcome classes for a zone lookup."""

    SUCCESS = "success"
    CNAME = "cname"
    DELEGATION = "delegation"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"


@dataclass
class LookupResult:
    """Result of :meth:`Zone.lookup`."""

    status: LookupStatus
    rrset: Optional[RRset] = None
    #: NS rrset of the delegation point when status is DELEGATION.
    delegation: Optional[RRset] = None
    #: Glue address records accompanying a delegation.
    glue: List[ResourceRecord] = field(default_factory=list)


class Zone:
    """A DNS zone: an origin, an SOA, and a table of RRsets."""

    def __init__(self, origin: DomainName, soa: Optional[SOAData] = None):
        self.origin = origin
        self._rrsets: Dict[Tuple[DomainName, RRType], RRset] = {}
        #: Names that exist (possibly only as ancestors of records).
        self._names: Dict[DomainName, int] = {}
        if soa is not None:
            self.add_record(
                ResourceRecord(origin, RRType.SOA, soa, ttl=DEFAULT_TTL)
            )

    # -- content management ------------------------------------------------

    def add_record(self, record: ResourceRecord) -> None:
        """Add *record*; owner must be at or below the zone origin."""
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(
                f"{record.name} is outside zone {self.origin}"
            )
        key = (record.name, record.rrtype)
        existing_cname = self._rrsets.get((record.name, RRType.CNAME))
        if record.rrtype != RRType.CNAME and existing_cname:
            raise ZoneError(
                f"{record.name} already has a CNAME; no other data allowed"
            )
        if record.rrtype == RRType.CNAME and any(
            rrtype != RRType.CNAME and rrset
            for (name, rrtype), rrset in self._rrsets.items()
            if name == record.name
        ):
            raise ZoneError(
                f"cannot add CNAME at {record.name}: other data exists"
            )
        rrset = self._rrsets.get(key)
        if rrset is None:
            rrset = RRset(record.name, record.rrtype)
            self._rrsets[key] = rrset
        before = len(rrset)
        rrset.add(record)
        if len(rrset) > before:
            self._register_name(record.name)

    def add(self, name: str, rrtype: RRType, value: str,
            ttl: int = DEFAULT_TTL) -> ResourceRecord:
        """Convenience: build and add a record from presentation values."""
        record = make_record(name, rrtype, value, ttl=ttl)
        self.add_record(record)
        return record

    def remove_rrset(self, name: DomainName, rrtype: RRType) -> bool:
        """Remove all records of *rrtype* at *name*; True if any existed."""
        rrset = self._rrsets.pop((name, rrtype), None)
        if rrset is None or not rrset:
            return False
        self._unregister_name(name)
        return True

    def remove_name(self, name: DomainName) -> int:
        """Remove every RRset owned by *name*; returns how many."""
        keys = [key for key in self._rrsets if key[0] == name]
        for key in keys:
            self._rrsets.pop(key)
            self._unregister_name(name)
        return len(keys)

    def replace(
        self, name: str, rrtype: RRType, values: Iterable[str]
    ) -> None:
        """Atomically replace the RRset at *name*/*rrtype* with *values*."""
        owner = DomainName.from_text(name)
        self.remove_rrset(owner, rrtype)
        for value in values:
            self.add(name, rrtype, value)

    def _register_name(self, name: DomainName) -> None:
        cursor = name
        while True:
            self._names[cursor] = self._names.get(cursor, 0) + 1
            if cursor == self.origin:
                break
            cursor = cursor.parent()

    def _unregister_name(self, name: DomainName) -> None:
        cursor = name
        while True:
            count = self._names.get(cursor, 0) - 1
            if count <= 0:
                self._names.pop(cursor, None)
            else:
                self._names[cursor] = count
            if cursor == self.origin:
                break
            cursor = cursor.parent()

    # -- accessors -----------------------------------------------------------

    @property
    def soa(self) -> Optional[SOAData]:
        rrset = self._rrsets.get((self.origin, RRType.SOA))
        if rrset and rrset.records:
            return rrset.records[0].rdata  # type: ignore[return-value]
        return None

    def get_rrset(self, name: DomainName, rrtype: RRType) -> Optional[RRset]:
        rrset = self._rrsets.get((name, rrtype))
        return rrset if rrset else None

    def names(self) -> Iterator[DomainName]:
        """Every owner name with at least one record."""
        seen = set()
        for name, _ in self._rrsets:
            if name not in seen:
                seen.add(name)
                yield name

    def records(self) -> Iterator[ResourceRecord]:
        for rrset in self._rrsets.values():
            yield from rrset

    def __len__(self) -> int:
        return sum(len(rrset) for rrset in self._rrsets.values())

    # -- the RFC 1034 data-side lookup ---------------------------------------

    def _find_delegation(self, qname: DomainName) -> Optional[RRset]:
        """The NS rrset of the closest delegation point above *qname*.

        The zone apex NS rrset is authoritative data, not a delegation.
        """
        depth = len(self.origin) + 1
        while depth <= len(qname):
            _, candidate = qname.split(depth)
            if candidate == qname and depth == len(qname):
                # A delegation exactly at qname counts (unless apex).
                pass
            rrset = self._rrsets.get((candidate, RRType.NS))
            if rrset and candidate != self.origin:
                return rrset
            depth += 1
        return None

    def lookup(self, qname: DomainName, qtype: RRType) -> LookupResult:
        """Look *qname*/*qtype* up in this zone's data.

        Callers must ensure *qname* is at or below the origin.
        """
        if not qname.is_subdomain_of(self.origin):
            raise ZoneError(f"{qname} is outside zone {self.origin}")

        delegation = self._find_delegation(qname)
        if delegation is not None and not (
            qname == delegation.name and qtype == RRType.NS
        ):
            glue = self._glue_for(delegation)
            return LookupResult(
                LookupStatus.DELEGATION, delegation=delegation, glue=glue
            )

        exact = self._rrsets.get((qname, qtype))
        if exact:
            return LookupResult(LookupStatus.SUCCESS, rrset=exact)

        if qtype != RRType.CNAME:
            cname = self._rrsets.get((qname, RRType.CNAME))
            if cname:
                return LookupResult(LookupStatus.CNAME, rrset=cname)

        if qname in self._names:
            return LookupResult(LookupStatus.NODATA)

        wildcard = self._wildcard_match(qname, qtype)
        if wildcard is not None:
            return wildcard
        return LookupResult(LookupStatus.NXDOMAIN)

    def _wildcard_match(
        self, qname: DomainName, qtype: RRType
    ) -> Optional[LookupResult]:
        """RFC 1034 §4.3.3 wildcard synthesis.

        When *qname* does not exist, a ``*`` label directly below the
        closest existing ancestor matches; synthesized records carry the
        query name as owner. Parking services (the Sedo pattern) publish
        exactly such zones.
        """
        if qname == self.origin:
            return None
        ancestor = qname.parent()
        while True:
            if ancestor in self._names:
                wildcard_name = ancestor.prepend("*")
                exact = self._rrsets.get((wildcard_name, qtype))
                cname = (
                    self._rrsets.get((wildcard_name, RRType.CNAME))
                    if qtype != RRType.CNAME
                    else None
                )
                source = exact or cname
                if source:
                    synthesized = RRset(qname, source.rrtype)
                    for record in source:
                        synthesized.add(
                            ResourceRecord(
                                qname,
                                record.rrtype,
                                record.rdata,
                                ttl=record.ttl,
                                rrclass=record.rrclass,
                            )
                        )
                    status = (
                        LookupStatus.SUCCESS if exact else LookupStatus.CNAME
                    )
                    return LookupResult(status, rrset=synthesized)
                if wildcard_name in self._names:
                    return LookupResult(LookupStatus.NODATA)
                return None
            if ancestor == self.origin:
                return None
            ancestor = ancestor.parent()

    def _glue_for(self, delegation: RRset) -> List[ResourceRecord]:
        glue: List[ResourceRecord] = []
        for record in delegation:
            nsdname = record.rdata.nsdname  # type: ignore[union-attr]
            if not nsdname.is_subdomain_of(self.origin):
                continue
            for rrtype in (RRType.A, RRType.AAAA):
                rrset = self._rrsets.get((nsdname, rrtype))
                if rrset:
                    glue.extend(rrset)
        return glue

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """Render as a master file (one record per line, sorted)."""
        lines = [f"$ORIGIN {self.origin.to_text(trailing_dot=True)}"]
        records = sorted(
            self.records(),
            key=lambda r: (r.name, int(r.rrtype), r.rdata.to_text()),
        )
        lines.extend(record.to_text() for record in records)
        return "\n".join(lines) + "\n"


def parse_zone_text(text: str) -> Zone:
    """Parse the subset of master-file syntax produced by ``Zone.to_text``.

    Supports ``$ORIGIN``, relative and absolute owner names, optional TTL
    and class fields, and comments introduced by ``;``.
    """
    origin: Optional[DomainName] = None
    pending: List[Tuple[DomainName, RRType, str, int]] = []
    for raw_line in text.splitlines():
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("$ORIGIN"):
            _, _, value = line.partition(" ")
            origin = DomainName.from_text(value.strip())
            continue
        if line.startswith("$"):
            raise ZoneError(f"unsupported directive {line.split()[0]!r}")
        fields = line.split()
        if len(fields) < 4:
            raise ZoneError(f"malformed record line {line!r}")
        owner_text = fields[0]
        rest = fields[1:]
        ttl = DEFAULT_TTL
        if rest and rest[0].isdigit():
            ttl = int(rest[0])
            rest = rest[1:]
        if rest and rest[0].upper() in ("IN", "CH"):
            rest = rest[1:]
        if len(rest) < 2:
            raise ZoneError(f"record line missing type/rdata: {line!r}")
        rrtype = RRType.from_text(rest[0])
        rdata_text = " ".join(rest[1:])
        if owner_text.endswith("."):
            owner = DomainName.from_text(owner_text)
        else:
            if origin is None:
                raise ZoneError("relative owner name before $ORIGIN")
            owner = DomainName.from_text(owner_text).concat(origin)
        pending.append((owner, rrtype, rdata_text, ttl))

    if origin is None:
        soa_owners = [p[0] for p in pending if p[1] == RRType.SOA]
        if not soa_owners:
            raise ZoneError("zone text has neither $ORIGIN nor SOA")
        origin = soa_owners[0]

    zone = Zone(origin)
    for owner, rrtype, rdata_text, ttl in pending:
        if rrtype == RRType.SOA:
            parts = rdata_text.split()
            if len(parts) != 7:
                raise ZoneError(f"SOA rdata needs 7 fields: {rdata_text!r}")
            soa = SOAData(
                DomainName.from_text(parts[0]),
                DomainName.from_text(parts[1]),
                *(int(p) for p in parts[2:]),
            )
            zone.add_record(ResourceRecord(owner, RRType.SOA, soa, ttl=ttl))
        else:
            value = rdata_text
            if rrtype == RRType.TXT:
                value = value.strip().strip('"')
            zone.add(owner.to_text(), rrtype, value, ttl=ttl)
    return zone

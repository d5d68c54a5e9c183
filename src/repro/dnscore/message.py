"""DNS message model: header flags, question, and record sections."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.dnscore.name import DomainName
from repro.dnscore.records import ResourceRecord
from repro.dnscore.rrtypes import Opcode, Rcode, RRClass, RRType


@dataclass(frozen=True)
class Flags:
    """The header flag bits (QR, AA, TC, RD, RA) plus opcode and rcode."""

    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    rcode: Rcode = Rcode.NOERROR

    def pack(self) -> int:
        """Pack into the 16-bit header field."""
        value = 0
        value |= int(self.qr) << 15
        value |= (int(self.opcode) & 0xF) << 11
        value |= int(self.aa) << 10
        value |= int(self.tc) << 9
        value |= int(self.rd) << 8
        value |= int(self.ra) << 7
        value |= int(self.rcode) & 0xF
        return value

    @classmethod
    def unpack(cls, value: int) -> "Flags":
        return cls(
            qr=bool(value >> 15 & 1),
            opcode=Opcode(value >> 11 & 0xF),
            aa=bool(value >> 10 & 1),
            tc=bool(value >> 9 & 1),
            rd=bool(value >> 8 & 1),
            ra=bool(value >> 7 & 1),
            rcode=Rcode(value & 0xF),
        )


@dataclass(frozen=True)
class EdnsInfo:
    """EDNS(0) parameters carried by an OPT pseudo-RR (RFC 6891).

    The OPT record abuses the fixed RR fields — CLASS is the sender's
    maximum UDP payload size, TTL packs extended-rcode/version/flags —
    so it is modelled here as message metadata, not as a resource record.
    """

    payload_size: int = 1232
    version: int = 0
    flags: int = 0
    options: bytes = b""

    def __post_init__(self) -> None:
        if not 512 <= self.payload_size <= 0xFFFF:
            raise ValueError("EDNS payload size must be in [512, 65535]")
        if self.version != 0:
            raise ValueError("only EDNS version 0 is supported")


@dataclass(frozen=True)
class Question:
    """The question section entry: qname, qtype, qclass."""

    qname: DomainName
    qtype: RRType
    qclass: RRClass = RRClass.IN

    def to_text(self) -> str:
        return (
            f"{self.qname.to_text(trailing_dot=True)} "
            f"{self.qclass.name} {self.qtype.name}"
        )


@dataclass
class Message:
    """A DNS message: header, one question, and three record sections."""

    msg_id: int = 0
    flags: Flags = field(default_factory=Flags)
    question: Optional[Question] = None
    answers: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)
    additional: List[ResourceRecord] = field(default_factory=list)
    #: EDNS(0) parameters (an OPT pseudo-RR on the wire), if present.
    edns: Optional[EdnsInfo] = None

    @property
    def rcode(self) -> Rcode:
        return self.flags.rcode

    def is_response(self) -> bool:
        return self.flags.qr

    def answer_rrs(self, rrtype: RRType) -> List[ResourceRecord]:
        """Answer-section records of the given type."""
        return [r for r in self.answers if r.rrtype == rrtype]

    def is_referral(self) -> bool:
        """A delegation response: no answers, NS records in authority."""
        return (
            self.flags.rcode == Rcode.NOERROR
            and not self.answers
            and any(r.rrtype == RRType.NS for r in self.authority)
            and not self.flags.aa
        )

    def to_text(self) -> str:
        """A dig-like rendering, useful in logs and doctests."""
        lines = [
            f";; ->>HEADER<<- opcode: {self.flags.opcode.name}, "
            f"status: {self.flags.rcode.name}, id: {self.msg_id}",
        ]
        if self.question is not None:
            lines.append(";; QUESTION SECTION:")
            lines.append(";" + self.question.to_text())
        for title, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authority),
            ("ADDITIONAL", self.additional),
        ):
            if section:
                lines.append(f";; {title} SECTION:")
                lines.extend(record.to_text() for record in section)
        return "\n".join(lines)


def make_query(
    qname: DomainName,
    qtype: RRType,
    msg_id: int = 0,
    recursion_desired: bool = True,
    edns_payload_size: Optional[int] = None,
) -> Message:
    """Build a standard query message.

    *edns_payload_size* advertises EDNS(0) support with that maximum UDP
    payload size.
    """
    return Message(
        msg_id=msg_id,
        flags=Flags(qr=False, rd=recursion_desired),
        question=Question(qname, qtype),
        edns=(
            EdnsInfo(payload_size=edns_payload_size)
            if edns_payload_size is not None
            else None
        ),
    )


def make_response(
    query: Message,
    rcode: Rcode = Rcode.NOERROR,
    authoritative: bool = False,
) -> Message:
    """Build an (initially empty) response mirroring *query*."""
    if query.question is None:
        raise ValueError("cannot respond to a message without a question")
    return Message(
        msg_id=query.msg_id,
        flags=replace(
            query.flags, qr=True, aa=authoritative, ra=False, rcode=rcode
        ),
        question=query.question,
    )

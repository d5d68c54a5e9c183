"""DPS reference signatures and per-observation matching (§3.3).

A provider signature is the paper's Table 2 row: AS numbers, CNAME
second-level domains, and NS second-level domains. Matching an observation
yields, per provider, the set of :class:`RefType` references found — the
raw material for everything downstream (detection, method breakdowns,
protection classification).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.measurement.snapshot import DomainObservation

# After measurement.snapshot: importing repro.batch first re-enters it
# half-initialised (batch → measurement → scheduler → batch).
from repro.batch.batch import MatchKey, ObservationBatch
from repro.world.providers import PAPER_PROVIDER_BLUEPRINTS


class RefType(enum.Enum):
    """How a domain references a DPS (Table 2 columns)."""

    AS = "AS"
    CNAME = "CNAME"
    NS = "NS"


#: One observation's references: provider → reference types found.
Matches = Dict[str, FrozenSet[RefType]]


@dataclass(frozen=True)
class ProviderSignature:
    """One provider's reference fingerprint."""

    name: str
    asns: FrozenSet[int]
    cname_slds: FrozenSet[str]
    ns_slds: FrozenSet[str]

    def match(self, observation: DomainObservation) -> FrozenSet[RefType]:
        """The reference types *observation* makes to this provider."""
        refs = set()
        if self.asns & observation.asns:
            refs.add(RefType.AS)
        if self.cname_slds and (self.cname_slds & observation.cname_slds()):
            refs.add(RefType.CNAME)
        if self.ns_slds and (self.ns_slds & observation.ns_slds()):
            refs.add(RefType.NS)
        return frozenset(refs)

    def to_row(self) -> Dict[str, str]:
        """A Table 2-style presentation row."""
        return {
            "Provider": self.name,
            "AS number(s)": ", ".join(str(a) for a in sorted(self.asns)),
            "CNAME SLD(s)": ", ".join(sorted(self.cname_slds)) or "—",
            "NS SLD(s)": ", ".join(sorted(self.ns_slds)) or "—",
        }


class SignatureCatalog:
    """The full set of provider signatures used for detection."""

    def __init__(self, signatures: Iterable[ProviderSignature]):
        self._signatures: Dict[str, ProviderSignature] = {}
        for signature in signatures:
            if signature.name in self._signatures:
                raise ValueError(f"duplicate signature {signature.name!r}")
            self._signatures[signature.name] = signature
        # Fast lookup indexes.
        self._by_asn: Dict[int, List[str]] = {}
        self._by_cname_sld: Dict[str, List[str]] = {}
        self._by_ns_sld: Dict[str, List[str]] = {}
        for signature in self._signatures.values():
            for asn in signature.asns:
                self._by_asn.setdefault(asn, []).append(signature.name)
            for sld in signature.cname_slds:
                self._by_cname_sld.setdefault(sld, []).append(signature.name)
            for sld in signature.ns_slds:
                self._by_ns_sld.setdefault(sld, []).append(signature.name)

    @classmethod
    def paper_table2(cls) -> "SignatureCatalog":
        """The catalog exactly as published in the paper's Table 2."""
        return cls(
            ProviderSignature(
                name=blueprint.name,
                asns=frozenset(blueprint.asns),
                cname_slds=frozenset(blueprint.cname_slds),
                ns_slds=frozenset(blueprint.ns_slds),
            )
            for blueprint in PAPER_PROVIDER_BLUEPRINTS
        )

    # -- access ------------------------------------------------------------

    def __iter__(self) -> Iterator[ProviderSignature]:
        return iter(
            sorted(self._signatures.values(), key=lambda s: s.name)
        )

    def __len__(self) -> int:
        return len(self._signatures)

    def get(self, name: str) -> Optional[ProviderSignature]:
        return self._signatures.get(name)

    @property
    def provider_names(self) -> List[str]:
        return sorted(self._signatures)

    # -- matching -----------------------------------------------------------------

    def match(self, observation: DomainObservation) -> Matches:
        """Per-provider references in *observation* (empty dict = no use).

        Uses the inverted indexes: an observation touches few ASNs/SLDs, so
        matching is O(observation), not O(catalog).
        """
        found: Dict[str, set] = {}
        for asn in observation.asns:
            for name in self._by_asn.get(asn, ()):
                found.setdefault(name, set()).add(RefType.AS)
        for sld in observation.cname_slds():
            for name in self._by_cname_sld.get(sld, ()):
                found.setdefault(name, set()).add(RefType.CNAME)
        for sld in observation.ns_slds():
            for name in self._by_ns_sld.get(sld, ()):
                found.setdefault(name, set()).add(RefType.NS)
        return {name: frozenset(refs) for name, refs in found.items()}

    def to_table(self) -> List[Dict[str, str]]:
        """Presentation rows for the Table 2 reproduction."""
        return [signature.to_row() for signature in self]


class BatchMatcher:
    """The batch form of :meth:`SignatureCatalog.match`, for every
    consumer of a landed partition.

    Matching reads only the NS names, the CNAME expansion and the origin
    ASNs, and a domain's are piecewise constant over time. So rows are
    deduplicated by the batch's pool-relative match key (cheap int-tuple
    hashing), each distinct key falls back to a memo keyed by the
    *texts* (pool ids are builder-local; the memo lives as long as the
    matcher), and only a signature never seen before materialises a row
    view and consults the catalog.
    """

    def __init__(self, catalog: SignatureCatalog):
        self.catalog = catalog
        self._memo: Dict[
            Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[int, ...]],
            Matches,
        ] = {}

    def match_rows(self, batch: ObservationBatch) -> List[Matches]:
        """The references of every row of *batch*, in row order."""
        match = self.catalog.match
        memo = self._memo
        by_key: Dict[MatchKey, Matches] = {}
        row_matches: List[Matches] = []
        for index in range(len(batch)):
            id_key = batch.match_key(index)
            matches = by_key.get(id_key)
            if matches is None:
                text_key = (
                    batch.ns_texts(index),
                    batch.cname_texts(index),
                    batch.asns[index],
                )
                matches = memo.get(text_key)
                if matches is None:
                    matches = memo[text_key] = match(batch.row(index))
                by_key[id_key] = matches
            row_matches.append(matches)
        return row_matches

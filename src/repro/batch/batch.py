"""The columnar :class:`ObservationBatch` and its row-view adapters.

One batch holds many domain-day observations as parallel columns:
integer ids into shared :class:`~repro.batch.columns.StringPool` pools
(one for names, one for address texts) instead of per-row boxed
dataclasses. ``batch.row(i)`` materialises the classic
:class:`~repro.measurement.snapshot.DomainObservation` on demand — the
sanctioned lazy row view — so every existing row-shaped call site keeps
working while the hot paths stay column-wise.
"""

from __future__ import annotations

from typing import (
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

from repro.batch.columns import StringPool
from repro.measurement.snapshot import DomainObservation

#: A tuple of pool ids (or of sorted ASNs): one multi-valued cell.
Ids = Tuple[int, ...]

#: Per-partition match-cache key: (ns name ids, cname ids, sorted ASNs).
#: Pool-relative — never persist it (ids are not stable across pools).
MatchKey = Tuple[Ids, Ids, Ids]

#: One row's interned columns, the day aside: domain and TLD name ids,
#: NS and CNAME name ids, the four address id cells, sorted ASNs.
RowIds = Tuple[int, int, Ids, Ids, Ids, Ids, Ids, Ids, Ids]


class ObservationBatch:
    """Columnar storage for a set of domain-day observations.

    Columns are parallel lists, one entry per row: scalar name ids for
    ``domains``/``tlds``, int days, tuples of name ids for
    ``ns_names``/``www_cnames``, tuples of address ids for the four
    address columns, and sorted int tuples for ``asns`` (sorted so the
    column is deterministic and ``frozenset`` round-trips exactly).
    """

    __slots__ = (
        "names",
        "addresses",
        "days",
        "domains",
        "tlds",
        "ns_names",
        "www_cnames",
        "apex_addrs",
        "www_addrs",
        "apex_addrs6",
        "www_addrs6",
        "asns",
    )

    def __init__(
        self,
        names: Optional[StringPool] = None,
        addresses: Optional[StringPool] = None,
    ) -> None:
        self.names = names if names is not None else StringPool()
        self.addresses = (
            addresses if addresses is not None else StringPool()
        )
        self.days: List[int] = []
        self.domains: List[int] = []
        self.tlds: List[int] = []
        self.ns_names: List[Tuple[int, ...]] = []
        self.www_cnames: List[Tuple[int, ...]] = []
        self.apex_addrs: List[Tuple[int, ...]] = []
        self.www_addrs: List[Tuple[int, ...]] = []
        self.apex_addrs6: List[Tuple[int, ...]] = []
        self.www_addrs6: List[Tuple[int, ...]] = []
        self.asns: List[Tuple[int, ...]] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[DomainObservation],
        names: Optional[StringPool] = None,
        addresses: Optional[StringPool] = None,
    ) -> "ObservationBatch":
        batch = cls(names=names, addresses=addresses)
        for row in rows:
            batch.append_row(row)
        return batch

    def intern_row(self, row: DomainObservation) -> RowIds:
        """The id columns of *row* against our pools, in
        :meth:`append_ids` order after ``day`` — intern once, append
        for as many days as the row stays valid."""
        names = self.names
        addresses = self.addresses
        return (
            names.intern(row.domain),
            names.intern(row.tld),
            names.intern_tuple(row.ns_names),
            names.intern_tuple(row.www_cnames),
            addresses.intern_tuple(row.apex_addrs),
            addresses.intern_tuple(row.www_addrs),
            addresses.intern_tuple(row.apex_addrs6),
            addresses.intern_tuple(row.www_addrs6),
            tuple(sorted(row.asns)),
        )

    def append_row(self, row: DomainObservation) -> None:
        self.append_ids(row.day, *self.intern_row(row))

    def append_fields(
        self,
        day: int,
        domain: str,
        tld: str,
        ns_names: Sequence[str],
        apex_addrs: Sequence[str],
        www_cnames: Sequence[str] = (),
        www_addrs: Sequence[str] = (),
        apex_addrs6: Sequence[str] = (),
        www_addrs6: Sequence[str] = (),
        asns: Iterable[int] = (),
    ) -> None:
        """Append one row from raw field values (no boxing required)."""
        names = self.names
        addresses = self.addresses
        self.append_ids(
            day=day,
            domain=names.intern(domain),
            tld=names.intern(tld),
            ns_names=names.intern_tuple(ns_names),
            www_cnames=names.intern_tuple(www_cnames),
            apex_addrs=addresses.intern_tuple(apex_addrs),
            www_addrs=addresses.intern_tuple(www_addrs),
            apex_addrs6=addresses.intern_tuple(apex_addrs6),
            www_addrs6=addresses.intern_tuple(www_addrs6),
            asns=tuple(sorted(set(asns))),
        )

    def append_ids(
        self,
        day: int,
        domain: int,
        tld: int,
        ns_names: Tuple[int, ...],
        www_cnames: Tuple[int, ...],
        apex_addrs: Tuple[int, ...],
        www_addrs: Tuple[int, ...],
        apex_addrs6: Tuple[int, ...],
        www_addrs6: Tuple[int, ...],
        asns: Tuple[int, ...],
    ) -> None:
        """Append one fully interned row (ids must come from our pools,
        and *asns* must already be sorted and duplicate-free)."""
        self.days.append(day)
        self.domains.append(domain)
        self.tlds.append(tld)
        self.ns_names.append(ns_names)
        self.www_cnames.append(www_cnames)
        self.apex_addrs.append(apex_addrs)
        self.www_addrs.append(www_addrs)
        self.apex_addrs6.append(apex_addrs6)
        self.www_addrs6.append(www_addrs6)
        self.asns.append(asns)

    # -- row views ----------------------------------------------------------

    def row(self, index: int) -> DomainObservation:
        """Materialise row *index* as a classic boxed observation (the
        sanctioned lazy row view — everything else stays columnar)."""
        names = self.names
        addresses = self.addresses
        return DomainObservation(
            day=self.days[index],
            domain=names.value(self.domains[index]),
            tld=names.value(self.tlds[index]),
            ns_names=names.values(self.ns_names[index]),
            apex_addrs=addresses.values(self.apex_addrs[index]),
            www_cnames=names.values(self.www_cnames[index]),
            www_addrs=addresses.values(self.www_addrs[index]),
            apex_addrs6=addresses.values(self.apex_addrs6[index]),
            www_addrs6=addresses.values(self.www_addrs6[index]),
            asns=frozenset(self.asns[index]),
        )

    def rows(self) -> List[DomainObservation]:
        return [self.row(index) for index in range(len(self.days))]

    def iter_rows(self) -> Iterator[DomainObservation]:
        for index in range(len(self.days)):
            yield self.row(index)

    def __iter__(self) -> Iterator[DomainObservation]:
        return self.iter_rows()

    def __len__(self) -> int:
        return len(self.days)

    @overload
    def __getitem__(self, index: int) -> DomainObservation: ...

    @overload
    def __getitem__(self, index: slice) -> "ObservationBatch": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[DomainObservation, "ObservationBatch"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self.days))
            if step != 1:
                raise ValueError("batch slices must be contiguous")
            return self.slice(start, stop)
        return self.row(index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObservationBatch):
            return self.rows() == other.rows()
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("ObservationBatch is unhashable (mutable columns)")

    # -- columnar accessors -------------------------------------------------

    def domain_text(self, index: int) -> str:
        return self.names.value(self.domains[index])

    def tld_text(self, index: int) -> str:
        return self.names.value(self.tlds[index])

    def ns_texts(self, index: int) -> Tuple[str, ...]:
        return self.names.values(self.ns_names[index])

    def cname_texts(self, index: int) -> Tuple[str, ...]:
        return self.names.values(self.www_cnames[index])

    def asn_set(self, index: int) -> FrozenSet[int]:
        return frozenset(self.asns[index])

    def match_key(self, index: int) -> MatchKey:
        """The pool-relative signature-match key of row *index*: the
        catalog reads only NS names, CNAMEs, and ASNs, so rows sharing
        this key share their match outcome within one batch."""
        return (
            self.ns_names[index],
            self.www_cnames[index],
            self.asns[index],
        )

    def with_asns(
        self, asns: Sequence[Tuple[int, ...]]
    ) -> "ObservationBatch":
        """A shallow sibling batch with the ASN column replaced (pools
        and all other columns shared) — the enrichment output shape."""
        if len(asns) != len(self.days):
            raise ValueError("asns column length mismatch")
        sibling = ObservationBatch(
            names=self.names, addresses=self.addresses
        )
        sibling.days = self.days
        sibling.domains = self.domains
        sibling.tlds = self.tlds
        sibling.ns_names = self.ns_names
        sibling.www_cnames = self.www_cnames
        sibling.apex_addrs = self.apex_addrs
        sibling.www_addrs = self.www_addrs
        sibling.apex_addrs6 = self.apex_addrs6
        sibling.www_addrs6 = self.www_addrs6
        sibling.asns = list(asns)
        return sibling

    # -- restructuring ------------------------------------------------------

    def slice(self, start: int, stop: int) -> "ObservationBatch":
        """Rows ``[start, stop)`` as a sub-batch sharing our pools."""
        part = ObservationBatch(names=self.names, addresses=self.addresses)
        part.days = self.days[start:stop]
        part.domains = self.domains[start:stop]
        part.tlds = self.tlds[start:stop]
        part.ns_names = self.ns_names[start:stop]
        part.www_cnames = self.www_cnames[start:stop]
        part.apex_addrs = self.apex_addrs[start:stop]
        part.www_addrs = self.www_addrs[start:stop]
        part.apex_addrs6 = self.apex_addrs6[start:stop]
        part.www_addrs6 = self.www_addrs6[start:stop]
        part.asns = self.asns[start:stop]
        return part

    def take(self, indexes: Sequence[int]) -> "ObservationBatch":
        """The given rows, in order, as a sub-batch sharing our pools.

        The row-selection counterpart of :meth:`slice` — a columnar
        gather, no row boxing — used by the store to pick one day's
        rows out of a decoded run fragment and a delta's changed rows
        out of a landed day.
        """
        part = ObservationBatch(names=self.names, addresses=self.addresses)
        part.days = [self.days[i] for i in indexes]
        part.domains = [self.domains[i] for i in indexes]
        part.tlds = [self.tlds[i] for i in indexes]
        part.ns_names = [self.ns_names[i] for i in indexes]
        part.www_cnames = [self.www_cnames[i] for i in indexes]
        part.apex_addrs = [self.apex_addrs[i] for i in indexes]
        part.www_addrs = [self.www_addrs[i] for i in indexes]
        part.apex_addrs6 = [self.apex_addrs6[i] for i in indexes]
        part.www_addrs6 = [self.www_addrs6[i] for i in indexes]
        part.asns = [self.asns[i] for i in indexes]
        return part

    @classmethod
    def concat(
        cls, parts: Sequence["ObservationBatch"]
    ) -> "ObservationBatch":
        """One batch holding every part's rows, in order.

        Parts sharing pools (siblings of one builder) concatenate by
        column extension; mixed-pool parts fall back to re-interning.
        """
        if not parts:
            return cls()
        first = parts[0]
        shared = all(
            part.names is first.names
            and part.addresses is first.addresses
            for part in parts
        )
        if not shared:
            out = cls()
            for part in parts:
                for row in part.iter_rows():
                    out.append_row(row)
            return out
        out = cls(names=first.names, addresses=first.addresses)
        for part in parts:
            out.days.extend(part.days)
            out.domains.extend(part.domains)
            out.tlds.extend(part.tlds)
            out.ns_names.extend(part.ns_names)
            out.www_cnames.extend(part.www_cnames)
            out.apex_addrs.extend(part.apex_addrs)
            out.www_addrs.extend(part.www_addrs)
            out.apex_addrs6.extend(part.apex_addrs6)
            out.www_addrs6.extend(part.www_addrs6)
            out.asns.extend(part.asns)
        return out


class BatchBuilder:
    """A factory of batches sharing one pair of interning pools.

    Feeds and stores keep one builder per lifetime so every partition
    batch they emit shares pools — domains repeat daily, so interning
    across partitions is where the memory win compounds, and shared
    pools make :meth:`ObservationBatch.concat` a cheap column extend.
    """

    __slots__ = ("names", "addresses")

    def __init__(self) -> None:
        self.names = StringPool()
        self.addresses = StringPool()

    def new_batch(self) -> ObservationBatch:
        return ObservationBatch(
            names=self.names, addresses=self.addresses
        )

    def build(
        self, rows: Iterable[DomainObservation]
    ) -> ObservationBatch:
        return ObservationBatch.from_rows(
            rows, names=self.names, addresses=self.addresses
        )


class BatchRows(Sequence[DomainObservation]):
    """A lazy, list-compatible row view over a whole batch.

    :class:`repro.measurement.scheduler.DayPartition` exposes this as
    ``observations`` so row-shaped consumers (checkpoint codecs, tests
    comparing against ``list(store.rows(...))``) see a sequence that
    materialises rows only on demand and compares equal to the
    equivalent plain list.
    """

    __slots__ = ("_batch",)

    def __init__(self, batch: ObservationBatch) -> None:
        self._batch = batch

    @property
    def batch(self) -> ObservationBatch:
        return self._batch

    def __len__(self) -> int:
        return len(self._batch)

    @overload
    def __getitem__(self, index: int) -> DomainObservation: ...

    @overload
    def __getitem__(
        self, index: slice
    ) -> Sequence[DomainObservation]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[DomainObservation, Sequence[DomainObservation]]:
        if isinstance(index, slice):
            return self._batch.rows()[index]
        return self._batch.row(index)

    def __iter__(self) -> Iterator[DomainObservation]:
        return self._batch.iter_rows()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BatchRows):
            return self._batch.rows() == other._batch.rows()
        if isinstance(other, (list, tuple)):
            return self._batch.rows() == list(other)
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("BatchRows is unhashable (mutable batch)")

    def __repr__(self) -> str:
        return f"BatchRows({len(self)} rows)"

""":class:`SegmentStore` — the on-disk, LSM-flavored observation store.

The store is a directory: ``manifest.json`` plus ``segments/*.rseg``
files (:mod:`repro.store.segment`). Appends write fresh generation-0
segments and update the manifest atomically; :meth:`SegmentStore.compact`
merges a generation's segments into one multi-day segment of the next
generation, so read amplification stays bounded as history grows while
the manifest's per-segment day ranges keep partition pruning exact.

Appends store *changes*, compaction stores *runs*: a day that repeats
its source's base lands as a *delta fragment* of the rows that differ
and the base domains that ended (docs/STORAGE.md, "Delta fragments"),
and a domain's row that stays the same over consecutive landed days
becomes one row of a *run fragment* ("Run fragments"); every read stays
day-exact.

A column page is encoded once in its life. Every writer is a producer
of encoded pages in front of one layout function: an append builds its
pages from the batch's interned ids (:func:`batch_pages`), and
compaction verifies a stored page and moves its bytes when its fragment
maps onto the output unchanged, re-encoding only the days it coalesces
or joins.

Reads are lazy and zero-copy: opening the store parses only the
manifest; opening a segment maps it and parses only its directory; and
a fragment is decoded by interning each *distinct* dictionary entry
once, mapping rows through the page's index stream — no JSON, no
pickle, no per-row interning anywhere on the path from disk bytes to
:class:`~repro.batch.batch.ObservationBatch` columns. Whole-history
passes decode each run fragment once (:meth:`SegmentStore.spans`,
:meth:`SegmentStore.batch`).
"""

from __future__ import annotations

import itertools
import operator
import os
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.measurement.snapshot import DomainObservation
from repro.store import codecs
from repro.store.codecs import COLUMN_KINDS, COLUMN_ORDER, SPAN_KINDS, Page
from repro.store.codecs import ENDED, KIND_STR
from repro.store.errors import StorageError
from repro.store.manifest import SegmentMeta, StoreManifest
from repro.store.segment import (
    SEGMENT_SUFFIX,
    EncodedPartition,
    PartitionRef,
    SegmentReader,
    encode_partition,
    layout_segment,
    publish_segment,
)
from repro.store.stats import PartitionStats

#: Subdirectory of the store holding segment files.
SEGMENTS_DIR = "segments"

#: Columns as stored: plain Python cell lists, one list per column.
Columns = Dict[str, List[Any]]

#: A fragment's rows as runs: a batch whose ``days`` are the runs'
#: first days, and each run's end (exclusive).
Runs = Tuple[ObservationBatch, List[int]]

#: One stored fragment and the landed days it covers.
Fragment = Tuple[SegmentReader, PartitionRef, List[int]]

#: A base as it is held: its rows, their domain texts and each text's
#: row (``None`` unless they are in domain order: no delta then).
Base = Tuple[ObservationBatch, List[str], Optional[Dict[str, int]]]

#: The id columns a row is compared on, the day aside.
ROW_COLUMNS = (
    "domains", "tlds", "ns_names", "www_cnames", "apex_addrs",
    "www_addrs", "apex_addrs6", "www_addrs6", "asns",
)


def _domain_texts(batch: ObservationBatch) -> List[str]:
    return list(batch.names.values(batch.domains))


def _ordered(texts: Sequence[str]) -> bool:
    """Strictly increasing: in domain order, no domain twice."""
    return all(map(operator.lt, texts, texts[1:]))


def _as_base(batch: ObservationBatch) -> Base:
    texts = _domain_texts(batch)
    index = dict(zip(texts, range(len(texts)))) if _ordered(texts) else None
    return batch, texts, index


def _diff(
    base: Base, batch: ObservationBatch, texts: List[str]
) -> Tuple[List[int], List[int]]:
    """The rows of *batch* (domains *texts*, strictly increasing, ids in
    the base's pools) not identical to their domain's row in the
    ordered *base*, and the base rows that do not hold in *batch*."""
    rows, _, index = base
    if not rows.domains:
        return list(range(len(batch))), []
    # A domain the base lacks meets base row 0, whose domain differs.
    positions = list(map(index.get, texts, itertools.repeat(0)))  # type: ignore
    differs = list(map(operator.ne, zip(*(
        getattr(batch, name) for name in ROW_COLUMNS
    )), zip(*(
        map(getattr(rows, name).__getitem__, positions)
        for name in ROW_COLUMNS
    ))))
    changed = list(itertools.compress(range(len(batch)), differs))
    held = set(itertools.compress(positions, map(operator.not_, differs)))
    return changed, [row for row in range(len(rows)) if row not in held]


def _decode_delta(
    reader: SegmentReader, ref: PartitionRef, builder: BatchBuilder
) -> Tuple[ObservationBatch, List[str]]:
    """A delta's rows (in *builder*'s pools) and ``ended`` domains."""
    entries, indexes = reader.column_page(ref, ENDED)
    rows, _ = decode_fragment(reader, ref, builder)
    return rows, [entries[index] for index in indexes]


def _decode_base(
    reader: SegmentReader, ref: PartitionRef, builder: BatchBuilder
) -> Base:
    return _as_base(decode_fragment(reader, ref, builder)[0])


def _ended_rows(base: Base, ended: Sequence[str]) -> List[int]:
    """The base rows of the *ended* domains, ascending."""
    try:
        return sorted(map(base[2].__getitem__, ended))  # type: ignore
    except (KeyError, TypeError) as exc:
        raise StorageError(f"a delta ends {exc} outside its base") from exc


def _overlay(
    day: int, base: Base, rows: ObservationBatch, ended: Sequence[str]
) -> ObservationBatch:
    """The day a delta states: *base*'s rows minus the *ended*
    domains', merged in domain order with *rows*, as slices."""
    batch, texts, _ = base
    events = sorted([(row, 1, 0) for row in _ended_rows(base, ended)] + [
        (bisect_left(texts, text), 0, row)
        for row, text in enumerate(_domain_texts(rows))
    ])
    pieces: List[Tuple[ObservationBatch, int, int]] = []
    cursor = 0
    for position, dropped, row in events:
        pieces.append((batch, cursor, position))
        if not dropped:
            pieces.append((rows, row, row + 1))
        cursor = position + dropped
    pieces.append((batch, cursor, len(batch)))
    out = ObservationBatch(names=batch.names, addresses=batch.addresses)
    for name in ROW_COLUMNS:
        getattr(out, name).extend(itertools.chain.from_iterable(
            getattr(part, name)[start:stop] for part, start, stop in pieces
        ))
    if not _ordered(_domain_texts(out)):
        raise StorageError(f"a delta's rows collide with its base on {day}")
    out.days = [day] * len(out.domains)
    return out


def batch_pages(batch: ObservationBatch) -> Dict[str, Page]:
    """Shred a columnar batch into one dictionary page per column,
    straight from its id columns: inside one pool equal ids are equal
    values, so first-seen order over ids *is* first-seen order over
    cells, and only the distinct ids the batch references are resolved
    to text — never the pool, which a feed shares across days."""

    def page(ids: Sequence[Any], resolve: Callable[[Any], Any]) -> Page:
        distinct, indexes = codecs.first_seen(ids)
        return [resolve(key) for key in distinct], indexes

    names = batch.names
    addresses = batch.addresses
    return {
        "domain": page(batch.domains, names.value),
        "tld": page(batch.tlds, names.value),
        "ns_names": page(batch.ns_names, names.values),
        "apex_addrs": page(batch.apex_addrs, addresses.values),
        "www_cnames": page(batch.www_cnames, names.values),
        "www_addrs": page(batch.www_addrs, addresses.values),
        "apex_addrs6": page(batch.apex_addrs6, addresses.values),
        "www_addrs6": page(batch.www_addrs6, addresses.values),
        "asns": codecs.cell_page(COLUMN_KINDS["asns"], batch.asns),
    }


def batch_columns(batch: ObservationBatch) -> Columns:
    """A batch as storage column lists: its :func:`batch_pages`,
    materialised (no row is boxed)."""
    return {
        name: codecs.materialise(COLUMN_KINDS[name], *page)
        for name, page in batch_pages(batch).items()
    }


def fragment_spans(
    reader: SegmentReader, ref: PartitionRef
) -> Tuple[List[int], List[int]]:
    """The ``(starts, ends)`` of a fragment's rows: ``[day, day + 1)``
    for every row of a one-day fragment, the ``start`` / ``end``
    columns of a run fragment, checked to lie inside its span."""
    if ref.end == ref.day + 1:
        return [ref.day] * ref.rows, [ref.end] * ref.rows
    starts = reader.column_cells(ref, "start")
    ends = reader.column_cells(ref, "end")
    if not all(
        ref.day <= start < end <= ref.end
        for start, end in zip(starts, ends)
    ):
        raise StorageError(f"run outside its fragment's days in {reader.path}")
    return starts, ends


def _covered(days: Sequence[int], ref: PartitionRef) -> List[int]:
    """The days of sorted *days* inside *ref*'s ``[day, end)``."""
    return list(days[bisect_left(days, ref.day):bisect_left(days, ref.end)])


def extend_batch(
    out: ObservationBatch, days: Sequence[int], pages: Mapping[str, Page]
) -> None:
    """Append one fragment's *pages* to *out*, row *i* under
    ``days[i]``, translate-once: each distinct entry is interned
    exactly once and rows map through the page's index stream with
    plain list lookups."""
    names = out.names
    addresses = out.addresses
    translated: Dict[str, List[Any]] = {}
    for name in ("domain", "tld"):
        entries, indexes = pages[name]
        ids = [names.intern(entry) for entry in entries]
        translated[name] = [ids[i] for i in indexes]
    for name in ("ns_names", "www_cnames"):
        entries, indexes = pages[name]
        tuples = [names.intern_tuple(entry) for entry in entries]
        translated[name] = [tuples[i] for i in indexes]
    for name in (
        "apex_addrs", "www_addrs", "apex_addrs6", "www_addrs6"
    ):
        entries, indexes = pages[name]
        tuples = [addresses.intern_tuple(entry) for entry in entries]
        translated[name] = [tuples[i] for i in indexes]
    asn_entries, asn_indexes = pages["asns"]
    # Stored asns cells are sorted, so tuple() is the canonical form.
    asn_tuples = [tuple(entry) for entry in asn_entries]
    out.days.extend(days)
    out.domains.extend(translated["domain"])
    out.tlds.extend(translated["tld"])
    out.ns_names.extend(translated["ns_names"])
    out.www_cnames.extend(translated["www_cnames"])
    out.apex_addrs.extend(translated["apex_addrs"])
    out.www_addrs.extend(translated["www_addrs"])
    out.apex_addrs6.extend(translated["apex_addrs6"])
    out.www_addrs6.extend(translated["www_addrs6"])
    out.asns.extend([asn_tuples[i] for i in asn_indexes])


def _moved(reader: SegmentReader, ref: PartitionRef) -> EncodedPartition:
    """A fragment's stored pages, verified, for a segment to take over
    unchanged."""
    names = COLUMN_ORDER
    if ref.end > ref.day + 1:
        fragment_spans(reader, ref)  # every run inside the span
        names += tuple(SPAN_KINDS)
    return ref.source, ref.day, ref.end, ref.rows, {
        name: reader.stored_page(ref, name) for name in names
    }


def decode_fragment(
    reader: SegmentReader, ref: PartitionRef, builder: BatchBuilder
) -> Runs:
    """One fragment's rows as runs, interned into *builder*'s pools."""
    pages = {name: reader.column_page(ref, name) for name in COLUMN_ORDER}
    starts, ends = fragment_spans(reader, ref)
    out = builder.new_batch()
    extend_batch(out, starts, pages)
    return out, ends


def _coalesce(
    source: str,
    fragments: Sequence[Tuple[SegmentReader, PartitionRef]],
    days: Sequence[int],
    base_of: Callable[[Any], Tuple[SegmentReader, PartitionRef]],
) -> List[EncodedPartition]:
    """One source's fragments of a compaction group, rewritten as runs.

    A landed day is *coalescable* when exactly one fragment of the
    group covers it and that fragment is a run fragment, a delta, or
    holds its rows in strictly increasing domain order. Each stretch of
    consecutive coalescable days becomes one fragment of runs — one per
    domain and unchanged stretch of its row — in ``(domain, start)``
    order, so a day's rows still read back in landed order. Every other
    day stays a one-day fragment, its fragments' rows joined in group
    order. A fragment that maps onto its output unchanged is moved
    (:func:`_moved`); a delta never is.

    Runs come from what is stored, never from a day-by-day pass over
    every row: a run fragment's runs, and over days that read through
    one base (*base_of* a delta) each base row until its domain ends
    and each delta row on its day. Touching runs of equal rows join.
    """
    builder = BatchBuilder()
    decoded: Dict[Tuple[int, Any], Any] = {}

    def decode(fragment: Any, how: Callable[..., Any] = decode_fragment) -> Any:
        key = (id(fragment[1]), how)
        if key not in decoded:
            decoded[key] = how(fragment[0], fragment[1], builder)
        return decoded[key]

    covering: Dict[int, List[Tuple[SegmentReader, PartitionRef]]] = {}
    for fragment in fragments:
        for day in _covered(days, fragment[1]):
            covering.setdefault(day, []).append(fragment)

    def coalescable(day: int) -> bool:
        held = covering.get(day, [])
        if len(held) != 1:
            return False
        ref = held[0][1]
        if ref.end - ref.day > 1 or ref.base is not None:
            return True
        entries, indexes = held[0][0].column_page(ref, "domain")
        return _ordered([entries[index] for index in indexes])

    def day_rows(fragment: Any, day: int) -> List[Tuple[Any, int]]:
        """``(batch, row)`` of *fragment*'s rows on *day*, in order."""
        if fragment[1].base is not None:
            batch = _overlay(day, decode(base_of(fragment), _decode_base),
                            *decode(fragment, _decode_delta))
            return [(batch, row) for row in range(len(batch))]
        batch, ends = decode(fragment)
        return [
            (batch, row) for row, (start, end) in enumerate(
                zip(batch.days, ends)) if start <= day < end
        ]

    def runs(first: int, last: int) -> List[List[Any]]:
        """``[domain, start, end, batch, row]`` of the runs the days
        ``[first, last]`` hold, joined, in ``(domain, start)`` order."""
        found: List[Tuple[Any, ...]] = []
        homes: List[Tuple[int, Any, Any]] = []  # day, base, delta
        taken: List[Any] = []
        for day in range(first, last + 1):
            fragment = covering[day][0]
            ref = fragment[1]
            if ref.end - ref.day == 1:
                delta = fragment if ref.base is not None else None
                homes.append((day, base_of(fragment) if delta else fragment,
                              delta))
                continue
            homes.append((day, None, None))
            if not any(fragment is seen for seen in taken):
                taken.append(fragment)
                batch, ends = decode(fragment)
                for row, (text, start, end) in enumerate(
                    zip(_domain_texts(batch), batch.days, ends)
                ):
                    start, end = max(start, first), min(end, last + 1)
                    if start < end:
                        found.append((text, start, end, batch, row))
        for key, held in itertools.groupby(
            homes, lambda home: home[1] and id(home[1][1])
        ):
            block = list(held)
            if key is None:
                continue
            base = decode(block[0][1], _decode_base)
            ended: Dict[int, List[int]] = {}
            for day, _, delta in block:
                if delta is not None:
                    rows, gone = decode(delta, _decode_delta)
                    for row in _ended_rows(base, gone):
                        ended.setdefault(row, []).append(day)
                    found.extend(
                        (text, day, day + 1, rows, row)
                        for row, text in enumerate(_domain_texts(rows))
                    )
            for row, text in enumerate(base[1]):
                start = block[0][0]
                for stop in ended.get(row, []) + [block[-1][0] + 1]:
                    if start < stop:
                        found.append((text, start, stop, base[0], row))
                    start = stop + 1
        found.sort(key=lambda run: run[:2])
        joined: List[List[Any]] = []
        for run in found:
            if joined and joined[-1][0] == run[0] and (
                joined[-1][2] == run[1]
            ) and _row_key(*joined[-1][3:]) == _row_key(*run[3:]):
                joined[-1][2] = run[2]
            else:
                joined.append(list(run))
        return joined

    def rewrite(first: int, last: int, merge: bool) -> EncodedPartition:
        """The days ``[first, last]`` as one fragment: runs merged per
        domain in domain order, or (*merge* false) rows in group order."""
        involved: List[Tuple[SegmentReader, PartitionRef]] = []
        for day in range(first, last + 1):
            for fragment in covering.get(day, []):
                if not any(fragment is seen for seen in involved):
                    involved.append(fragment)
        if len(involved) == 1 and involved[0][1].base is None and (
            involved[0][1].day, involved[0][1].end
        ) == (first, last + 1):
            return _moved(*involved[0])
        stored = runs(first, last) if merge else []
        cells = [run[3:] for run in stored] if merge else [
            cell for fragment in involved for cell in day_rows(fragment, first)
        ]
        out = builder.new_batch()
        for name in ROW_COLUMNS:
            getattr(out, name).extend(
                getattr(batch, name)[row] for batch, row in cells
            )
        pages = batch_pages(out)
        if last > first:
            for index, name in enumerate(SPAN_KINDS, 1):
                pages[name] = codecs.first_seen([run[index] for run in stored])
        _, _, _, rows, encoded = encode_partition(source, first, pages)
        return source, first, last + 1, rows, encoded

    out: List[EncodedPartition] = []
    stretch: List[int] = []
    for day in days:
        joins = coalescable(day)
        if stretch and (not joins or day != stretch[-1] + 1):
            out.append(rewrite(stretch[0], stretch[-1], True))
            stretch = []
        if joins:
            stretch.append(day)
        else:
            out.append(rewrite(day, day, False))
    if stretch:
        out.append(rewrite(stretch[0], stretch[-1], True))
    return out


def _joined(held: List[Tuple[Tuple[int, int], Runs]]) -> Runs:
    """*held* runs, placed by position, as one batch."""
    held.sort(key=operator.itemgetter(0))
    if len(held) == 1:
        return held[0][1]
    return ObservationBatch.concat([batch for _, (batch, _) in held]), [
        end for _, (_, ends) in held for end in ends
    ]


def _row_key(batch: ObservationBatch, row: int) -> Tuple[Any, ...]:
    return tuple(getattr(batch, name)[row] for name in ROW_COLUMNS)


class SegmentStore:
    """A directory of binary column segments behind a manifest.

    The repo's one observation store: ``repro measure`` lands into it,
    and replay feeds, whole-history detection and the sketch rebuild
    read it.

    ``on_error="skip"`` makes reads lenient: a damaged segment costs
    its own partitions, and a damaged fragment the days it covers —
    each ``(source, day)`` recorded once in :attr:`skipped_partitions`
    — never the run.
    """

    def __init__(
        self,
        directory: str,
        on_error: str = "raise",
        create: bool = False,
    ) -> None:
        if on_error not in ("raise", "skip"):
            raise ValueError("on_error must be 'raise' or 'skip'")
        self.directory = directory
        self.on_error = on_error
        #: (source, day, reason) for partitions dropped by lenient reads.
        self.skipped_partitions: List[Tuple[str, int, str]] = []
        self._readers: Dict[str, SegmentReader] = {}
        self._bad_files: Set[str] = set()
        #: segment file → (source, day) → the fragments covering it.
        self._covering: Dict[str, Dict[Tuple[str, int], List[Fragment]]] = {}
        self._bad_fragments: Set[int] = set()  # ids of damaged refs
        #: source → decoded run fragments covering the day last read:
        #: (ref, builder, runs batch, the runs' rows of each day).
        self._decoded: Dict[str, List[Tuple[Any, ...]]] = {}
        #: source → ``(day, base)`` as the writer keeps it: the landed
        #: batch's own columns plus a domain index (None: no base).
        self._bases: Dict[str, Optional[Tuple[int, Base]]] = {}
        manifest_path = os.path.join(directory, "manifest.json")
        if os.path.exists(manifest_path):
            self._manifest = StoreManifest.load(directory)
        elif create:
            self._manifest = StoreManifest()
        else:
            raise StorageError(
                f"no manifest in {directory}; pass create=True to start "
                f"an empty store"
            )

    # -- writing ------------------------------------------------------------

    def append(
        self, source: str, day: int, observations: Sequence[DomainObservation]
    ) -> None:
        """Land a day's observations as a fresh generation-0 segment."""
        self.append_batch(
            source, day, ObservationBatch.from_rows(observations)
        )

    def append_batch(
        self, source: str, day: int, batch: ObservationBatch
    ) -> None:
        """Land a batch as a fresh generation-0 segment: a delta when
        the day repeats its source's base, else the full day."""
        self._append([(source, day, batch)])

    def append_partitions(
        self,
        partitions: Iterable[
            Tuple[str, int, Sequence[DomainObservation]]
        ],
    ) -> None:
        """Land many partitions as one gen-0 segment in one manifest
        swap — the bulk-load path. Per-partition ``append`` pays one
        fsync and one manifest commit per call; this pays both once."""
        self._append(
            (source, day, ObservationBatch.from_rows(observations))
            for source, day, observations in partitions
        )

    def _append(
        self, batches: Iterable[Tuple[str, int, ObservationBatch]]
    ) -> None:
        """Land batches as one gen-0 segment, one fragment and one
        manifest entry (the day's full row count) each. A day lands as
        a delta when its source's base is in domain order and on an
        earlier day, the source landed every day between, the day holds
        no fragment yet and its rows are in strictly increasing domain
        order; otherwise in full, as the new base (docs/STORAGE.md,
        "Delta fragments")."""
        encoded: List[EncodedPartition] = []
        listed: List[Tuple[str, int, int]] = []
        bases: Dict[str, Tuple[int, Base]] = {}
        landed: Set[Tuple[str, int]] = set()

        def held(source: str, day: int) -> bool:
            return (source, day) in landed or bool(
                self._manifest.holding(source, day)
            )

        for source, day, batch in batches:
            found = bases.get(source) or self._base(source)
            texts = _domain_texts(batch)
            if found and found[1][2] is not None and found[0] < day and all(
                held(source, k) for k in range(found[0] + 1, day)
            ) and not held(source, day) and _ordered(texts):
                pools = found[1][0].names, found[1][0].addresses
                if (batch.names, batch.addresses) != pools:
                    # Compare by id: intern the day into the base's pools.
                    batch, landed_batch = ObservationBatch(*pools), batch
                    extend_batch(
                        batch, landed_batch.days, batch_pages(landed_batch)
                    )
                changed, ended = _diff(found[1], batch, texts)
                pages = batch_pages(batch.take(changed))
                pages[ENDED] = codecs.cell_page(
                    KIND_STR, [found[1][1][row] for row in ended]
                )
                *_, rows, columns = encode_partition(source, day, pages)
                encoded.append((source, day, found[0], rows, columns))
            else:
                encoded.append(
                    encode_partition(source, day, batch_pages(batch))
                )
                bases[source] = day, _as_base(batch)
            listed.append((source, day, len(batch)))
            landed.add((source, day))
        if encoded:
            self._write_segment(encoded, listed, generation=0)
            self._bases.update(bases)

    def _base(self, source: str) -> Optional[Tuple[int, Base]]:
        """*source*'s ``(day, base)`` for the writer: kept since it
        landed or, in a reopened store, decoded once from its latest
        generation-0 fragment; ``None`` when there is none or it cannot
        be read — the day then lands in full."""
        if source not in self._bases:
            self._bases[source] = None
            latest = [
                meta for meta in self._manifest.segments
                if meta.generation == 0 and source in meta.sources
            ]
            try:
                reader = self._reader(latest[-1]) if latest else None
                ref = reader and [
                    r for r in reader.partitions if r.source == source
                ][-1]
                fragment = reader and ref and (
                    self._find_base(reader, ref) if ref.base is not None
                    else (reader, ref, [ref.day])
                )
                if fragment:
                    self._bases[source] = fragment[1].day, _decode_base(
                        fragment[0], fragment[1], BatchBuilder()
                    )
            except StorageError:
                pass
        return self._bases[source]

    def _write_segment(
        self,
        partitions: Sequence[EncodedPartition],
        listed: Sequence[Tuple[str, int, int]],
        generation: int,
        replacing: Optional[Set[str]] = None,
    ) -> str:
        """Lay out *partitions* as the next segment of *generation*,
        listed in the manifest as the ``(source, day, rows)`` of
        *listed*, and swap the manifest in a single step; returns the
        segment's path relative to the store.

        *replacing* names segment files superseded by the new one
        (compaction); they leave the manifest in the same atomic
        ``manifest.json`` replace that introduces the new segment, so a
        crash can strand an unreferenced file but never a manifest that
        double-counts a partition.
        """
        relative = os.path.join(
            SEGMENTS_DIR,
            f"g{generation}-{self._manifest.next_sequence():06d}"
            f"{SEGMENT_SUFFIX}",
        )
        size = publish_segment(
            os.path.join(self.directory, relative),
            layout_segment(partitions),
        )
        self._manifest.commit(SegmentMeta.describe(
            file=relative, generation=generation, size=size,
            partitions=listed,
        ), replacing)
        self._manifest.save(self.directory)
        return relative

    # -- segment access -----------------------------------------------------

    def _record_skipped(
        self, skipped: Iterable[Tuple[str, int, str]]
    ) -> None:
        """Enter partitions a lenient read dropped into
        :attr:`skipped_partitions`, each ``(source, day)`` once."""
        seen = {(source, day) for source, day, _ in self.skipped_partitions}
        for source, day, reason in skipped:
            if (source, day) not in seen:
                seen.add((source, day))
                self.skipped_partitions.append((source, day, reason))

    def _reader(self, meta: SegmentMeta) -> Optional[SegmentReader]:
        """The (cached) reader for one segment, honouring ``on_error``."""
        if meta.file in self._bad_files:
            return None
        reader = self._readers.get(meta.file)
        if reader is not None:
            return reader
        path = os.path.join(self.directory, meta.file)
        try:
            reader = SegmentReader(path)
        except StorageError as exc:
            if self.on_error == "raise":
                raise
            self._bad_files.add(meta.file)
            self._record_skipped(
                (source, day, str(exc)) for source, day, _ in meta.partitions
            )
            return None
        self._readers[meta.file] = reader
        return reader

    def _fragments(
        self, meta: SegmentMeta
    ) -> Dict[Tuple[str, int], List[Fragment]]:
        """*meta*'s fragments by the ``(source, day)`` they cover — the
        days its manifest entry lists inside each fragment's span —
        indexed once per segment."""
        covering = self._covering.get(meta.file)
        reader = self._reader(meta) if covering is None else None
        if reader is not None:
            covering = self._covering[meta.file] = {}
            listed: Dict[str, List[int]] = {}
            for source, day in sorted({(s, d) for s, d, _ in meta.partitions}):
                listed.setdefault(source, []).append(day)
            for ref in reader.partitions:
                days = _covered(listed.get(ref.source, []), ref)
                for day in days:
                    covering.setdefault((ref.source, day), []).append(
                        (reader, ref, days)
                    )
        return covering or {}

    def _find_base(
        self, reader: SegmentReader, ref: PartitionRef
    ) -> Optional[Fragment]:
        """The base of the delta *ref* stored in *reader*: the last full
        fragment of its source on its base day landed before it, in the
        last generation-0 segment up to *reader*'s listing that day —
        any full fragment landed later would be the base. Found from the
        manifest, so ``None`` (a lenient read cannot open that segment)
        never falls back to an older fragment."""
        segments = self._manifest.holding(ref.source, ref.day)
        meta = next(m for m in segments if self._readers.get(m.file) is reader)
        for held in reversed(self._manifest.holding(ref.source, ref.base)):
            if held.generation or held.sequence > meta.sequence:
                continue
            found = self._reader(held)
            if found is None:
                return None
            refs = found.partitions
            if held is meta:
                refs = refs[:[id(r) for r in refs].index(id(ref))]
            for other in reversed(refs):
                if (other.source, other.day, other.end, other.base) == (
                    ref.source, ref.base, ref.base + 1, None
                ):
                    return found, other, [other.day]
            if held is not meta:
                break
        raise StorageError(
            f"no base on day {ref.base} for the delta {ref.source}/"
            f"{ref.day} in {reader.path}"
        )

    def _partition_refs(self, source: str, day: int) -> Iterator[Fragment]:
        """Every stored fragment covering ``(source, day)``, in order."""
        for meta in self._manifest.holding(source, day):
            yield from self._fragments(meta).get((source, day), ())

    def _decode(
        self,
        fragment: Fragment,
        builder: BatchBuilder,
        decode: Callable[..., Any] = decode_fragment,
    ) -> Any:
        """``decode(reader, ref, builder)`` of one fragment — by default
        its rows as runs, interned into *builder*'s pools; ``None`` when
        a lenient read finds it damaged (its days are recorded as
        skipped, once)."""
        reader, ref, days = fragment
        if id(ref) in self._bad_fragments:
            return None
        try:
            return decode(reader, ref, builder)
        except StorageError as exc:
            if self.on_error == "raise":
                raise
            self._bad_fragments.add(id(ref))
            self._record_skipped(
                (ref.source, day, str(exc)) for day in days
            )
            return None

    def _delta_rows(
        self, fragment: Fragment, day: int, builder: BatchBuilder
    ) -> Optional[ObservationBatch]:
        """A delta's day: its base's rows minus the ended domains,
        merged with its rows (:func:`_overlay`) — two fragments read."""
        reader, ref, _ = fragment

        def read(*_: Any) -> ObservationBatch:
            base = self._find_base(reader, ref)
            if base is None:
                raise StorageError(f"the base of {ref.source}/{day} is lost")
            return _overlay(
                day, _decode_base(base[0], base[1], builder),
                *_decode_delta(reader, ref, builder),
            )

        return self._decode(fragment, builder, read)

    def _day_rows(
        self, fragment: Fragment, day: int, builder: BatchBuilder
    ) -> Optional[ObservationBatch]:
        """The rows *fragment* holds for *day*, in stored order. A run
        fragment is decoded once per builder and kept while the reads
        of its source stay inside it, so a day-by-day pass expands its
        runs day by day instead of decoding it per day."""
        ref = fragment[1]
        if ref.base is not None:
            return self._delta_rows(fragment, day, builder)
        if ref.end == ref.day + 1:
            runs = self._decode(fragment, builder)
            return None if runs is None else runs[0]
        kept = [
            entry for entry in self._decoded.get(ref.source, ())
            if entry[0].day <= day < entry[0].end
        ]
        self._decoded[ref.source] = kept
        entry = next(
            (e for e in kept if e[0] is ref and e[1] is builder), None
        )
        if entry is None:
            decoded = self._decode(fragment, builder)
            if decoded is None:
                return None
            batch, ends = decoded
            by_day: List[List[int]] = [[] for _ in range(ref.end - ref.day)]
            for row, (start, end) in enumerate(zip(batch.days, ends)):
                for covered in range(start - ref.day, end - ref.day):
                    by_day[covered].append(row)
            entry = (ref, builder, batch, by_day)
            kept[:] = [e for e in kept if e[0] is not ref] + [entry]
        batch, rows = entry[2], entry[3][day - ref.day]
        whole = len(rows) == len(batch)
        part = batch.slice(0, len(batch)) if whole else batch.take(rows)
        part.days = [day] * len(rows)
        return part

    def _day_parts(
        self, source: str, day: int, builder: BatchBuilder
    ) -> List[ObservationBatch]:
        """``(source, day)``'s rows, one batch per readable fragment."""
        parts = (
            self._day_rows(fragment, day, builder)
            for fragment in self._partition_refs(source, day)
        )
        return [part for part in parts if part is not None]

    # -- reading ------------------------------------------------------------

    def partitions(self) -> List[Tuple[str, int]]:
        return self._manifest.partitions()

    def row_count(self, source: str, day: int) -> int:
        return self._manifest.row_count(source, day)

    def columns(self, source: str, day: int) -> Optional[Columns]:
        """One partition's stored column lists, its fragments joined in
        manifest order; ``None`` when no fragment is readable."""
        parts = self._day_parts(source, day, BatchBuilder())
        if not parts:
            return None
        return batch_columns(ObservationBatch.concat(parts))

    def rows(self, source: str, day: int) -> Iterator[DomainObservation]:
        """Re-materialise the observations of one partition."""
        yield from self.batch(source, day).iter_rows()

    def batch(
        self,
        source: str,
        day: int,
        builder: Optional[BatchBuilder] = None,
    ) -> ObservationBatch:
        """One partition as a columnar batch, interned translate-once
        (:func:`extend_batch`) — the zero-copy hot path from segment
        bytes to batch columns. Its rows are the day's rows as landed,
        in landed order, whatever fragments hold them."""
        builder = builder if builder is not None else BatchBuilder()
        parts = self._day_parts(source, day, builder)
        if len(parts) == 1:
            return parts[0]
        return ObservationBatch.concat(parts) if parts else builder.new_batch()

    def batches(
        self, builder: Optional[BatchBuilder] = None
    ) -> Iterator[Tuple[str, int, ObservationBatch]]:
        """Every partition as ``(source, day, batch)``, in sorted
        partition order, sharing one pool pair across all yields."""
        shared = builder if builder is not None else BatchBuilder()
        for source, day in self.partitions():
            yield source, day, self.batch(source, day, builder=shared)

    def spans(
        self,
        partitions: Sequence[Tuple[str, int]],
        builder: Optional[BatchBuilder] = None,
    ) -> Iterator[Runs]:
        """The rows of *partitions* as runs, each fragment decoded once:
        whole when every day it covers is asked for, else the asked-for
        days' rows as one-day runs — the same facts the daily rows
        state, for consumers of ``[start, end)`` spans
        (:meth:`~repro.core.detection.ScopeState.observe`)."""
        return (runs for _, _, runs in self._spans(partitions, builder))

    def _spans(
        self,
        partitions: Sequence[Tuple[str, int]],
        builder: Optional[BatchBuilder],
    ) -> Iterator[Tuple[int, Fragment, Runs]]:
        """:meth:`spans`, each with the day it was met on and the
        fragment it read."""
        builder = builder if builder is not None else BatchBuilder()
        wanted = set(partitions)
        done: Set[int] = set()
        for source, day in partitions:
            for fragment in self._partition_refs(source, day):
                ref = fragment[1]
                if id(ref) in done:
                    continue
                if ref.base is None and all(
                    (source, covered) in wanted for covered in fragment[2]
                ):
                    done.add(id(ref))
                    runs = self._decode(fragment, builder)
                else:
                    part = self._day_rows(fragment, day, builder)
                    runs = None if part is None else (
                        part, [day + 1] * len(part))
                if runs is not None:
                    yield day, fragment, runs

    def source_runs(
        self,
        source: str,
        days: Iterable[int],
        builder: Optional[BatchBuilder] = None,
    ) -> Iterator[Runs]:
        """*source*'s rows on *days* as runs, each fragment read once
        (:meth:`spans`): one batch per group of fragments whose days
        overlap, groups in day order. A batch holds its fragments in
        manifest order, so its rows on a day are ``batch(source, day)``'s
        in that order, whatever days the fragments cover."""
        rank = {
            os.path.join(self.directory, meta.file): n
            for n, meta in enumerate(self._manifest.segments)
        }
        held: List[Tuple[Tuple[int, int], Runs]] = []
        end = 0
        for day, (reader, ref, _), runs in self._spans(
            [(source, day) for day in sorted(days)], builder
        ):
            if held and day >= end:
                yield _joined(held)
                held = []
            position = rank[reader.path], reader.partitions.index(ref)
            held.append((position, runs))
            end = max(end, max(runs[1], default=end))
        if held:
            yield _joined(held)

    # -- statistics ---------------------------------------------------------

    def partition_stats(self, source: str, day: int) -> PartitionStats:
        """On-disk size accounting for one partition.

        ``encoded_bytes`` is the real segment footprint: the whole file
        (header + pages + directory + footer) when the partition has
        its own segment, else its fragments' pages — a run fragment's
        split evenly over the days it covers.
        """
        encoded = 0
        for meta in self._manifest.holding(source, day):
            if meta.sources == (source,) and meta.day_min == meta.day_max:
                encoded += meta.bytes
                continue
            for _, ref, days in self._fragments(meta).get((source, day), ()):
                position = days.index(day)
                encoded += (
                    ref.page_bytes * (position + 1) // len(days)
                    - ref.page_bytes * position // len(days)
                )
        return PartitionStats.measured(
            source, day, self.row_count(source, day), encoded
        )

    def total_stats(self, source: Optional[str] = None) -> PartitionStats:
        """Aggregate stats over all (or one source's) partitions."""
        if source is None:
            days = {
                day
                for meta in self._manifest.segments
                for _, day, _ in meta.partitions
            }
            return PartitionStats.measured(
                "total",
                len(days),
                sum(meta.rows for meta in self._manifest.segments),
                sum(meta.bytes for meta in self._manifest.segments),
            )
        return PartitionStats.total(
            source,
            (
                self.partition_stats(source, day)
                for partition_source, day in self.partitions()
                if partition_source == source
            ),
        )

    def stored_rows(self, source: str) -> int:
        """The rows *source*'s fragments store: one per run — a day of
        a one-day fragment, a run of a run fragment — and one per
        changed row of a delta."""
        readers = map(self._reader, self._manifest.select(sources=(source,)))
        return sum(
            ref.rows for reader in readers if reader is not None
            for ref in reader.partitions if ref.source == source
        )

    # -- compaction ---------------------------------------------------------

    def compact(self, fanout: int = 8) -> List[str]:
        """Tiered compaction: merge any generation with ≥ *fanout*
        segments into one multi-day segment of the next generation.

        Returns the relative paths of the segments written. Runs until
        no tier is over the fanout, so a long append history collapses
        into a handful of large run segments while the manifest's
        day-range metadata keeps pruning exact.
        """
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        written: List[str] = []
        while True:
            tiers: Dict[int, List[SegmentMeta]] = {}
            for meta in self._manifest.segments:
                tiers.setdefault(meta.generation, []).append(meta)
            merged = None
            for generation in sorted(tiers):
                group = tiers[generation]
                if len(group) >= fanout:
                    merged = (generation, group)
                    break
            if merged is None:
                return written
            generation, group = merged
            written.append(self._merge(group, generation + 1))

    def _merge(
        self, group: Sequence[SegmentMeta], generation: int
    ) -> str:
        """Merge *group* into one segment of *generation*, source by
        source (:func:`_coalesce`); the manifest lists every
        ``(source, day, rows)`` the group listed. Every input page is
        verified before anything is written."""
        fragments: Dict[str, List[Tuple[SegmentReader, PartitionRef]]] = {}
        landed: Dict[Tuple[str, int], int] = {}
        for meta in group:
            reader = self._readers.get(meta.file)
            if reader is None:
                reader = SegmentReader(
                    os.path.join(self.directory, meta.file)
                )
                self._readers[meta.file] = reader
            for ref in reader.partitions:
                fragments.setdefault(ref.source, []).append((reader, ref))
            for source, day, rows in meta.partitions:
                landed[(source, day)] = landed.get((source, day), 0) + rows

        def base_of(fragment: Any) -> Tuple[SegmentReader, PartitionRef]:
            # Every segment of the group is open: the base is found.
            return self._find_base(*fragment)[:2]  # type: ignore

        ordered: List[EncodedPartition] = []
        for source in sorted(fragments):
            days = sorted(day for key, day in landed if key == source)
            ordered.extend(
                _coalesce(source, fragments[source], days, base_of)
            )
        ordered.sort(key=lambda fragment: (fragment[1], fragment[0]))
        listed = sorted(
            ((source, day, rows) for (source, day), rows in landed.items()),
            key=lambda entry: (entry[1], entry[0]),
        )
        removed = {meta.file for meta in group}
        relative = self._write_segment(
            ordered, listed, generation=generation, replacing=removed
        )
        self._decoded.clear()
        self._bases.clear()
        self._bad_fragments.clear()
        for file in sorted(removed):
            self._covering.pop(file, None)
            reader = self._readers.pop(file, None)
            if reader is not None:
                reader.close()
            try:
                os.remove(os.path.join(self.directory, file))
            except OSError:
                pass
        return relative

    # -- lifecycle ----------------------------------------------------------

    @property
    def manifest(self) -> StoreManifest:
        return self._manifest

    def close(self) -> None:
        for file in sorted(self._readers):
            self._readers[file].close()
        self._readers.clear()
        self._covering.clear()
        self._decoded.clear()
        self._bases.clear()
        self._bad_fragments.clear()

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "Columns",
    "SegmentStore",
    "batch_columns",
    "batch_pages",
    "decode_fragment",
    "extend_batch",
    "fragment_spans",
]

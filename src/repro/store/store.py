""":class:`SegmentStore` — the on-disk, LSM-flavored observation store.

The store is a directory: ``manifest.json`` plus ``segments/*.rseg``
files (:mod:`repro.store.segment`). Appends write fresh generation-0
segments and update the manifest atomically; :meth:`SegmentStore.compact`
merges a generation's segments into one multi-day run of the next
generation, so read amplification stays bounded as history grows while
the manifest's per-segment day ranges keep partition pruning exact.

A column page is encoded once in its life. Every writer is a producer
of encoded pages in front of one layout function: an append builds its
pages from the batch's interned ids (:func:`batch_pages`), column lists
go through :func:`~repro.store.segment.encode_columns`, and compaction
verifies a stored page and moves its bytes, re-encoding only a
``(source, day)`` it has to join from several fragments.

Reads are lazy and zero-copy: opening the store parses only the
manifest; opening a segment maps it and parses only its directory; and
:meth:`SegmentStore.batch` interns each *distinct* dictionary entry
once, mapping rows through the page's index stream — no JSON, no
pickle, no per-row interning anywhere on the path from disk bytes to
:class:`~repro.batch.batch.ObservationBatch` columns.
"""

from __future__ import annotations

import os
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
from repro.store.codecs import COLUMN_KINDS, COLUMN_ORDER, Page
from repro.store.errors import StorageError
from repro.store.manifest import SegmentMeta, StoreManifest
from repro.store.slices import ManifestSlice
from repro.store.segment import (
    SEGMENT_SUFFIX,
    EncodedPartition,
    PartitionRef,
    SegmentReader,
    encode_columns,
    encode_partition,
    layout_segment,
    publish_segment,
)
from repro.store.stats import PartitionStats

#: Subdirectory of the store holding segment files.
SEGMENTS_DIR = "segments"

#: Columns as stored: plain Python cell lists, one list per column.
Columns = Dict[str, List[Any]]


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
        "apex_addrs": page(batch.apex_addrs, addresses.texts),
        "www_cnames": page(batch.www_cnames, names.values),
        "www_addrs": page(batch.www_addrs, addresses.texts),
        "apex_addrs6": page(batch.apex_addrs6, addresses.texts),
        "www_addrs6": page(batch.www_addrs6, addresses.texts),
        "asns": codecs.cell_page(COLUMN_KINDS["asns"], batch.asns),
    }


def batch_columns(batch: ObservationBatch) -> Columns:
    """A batch as storage column lists: its :func:`batch_pages`,
    materialised (no row is boxed)."""
    return {
        name: codecs.materialise(COLUMN_KINDS[name], *page)
        for name, page in batch_pages(batch).items()
    }


def column_rows(day: int, columns: Columns) -> Iterator[DomainObservation]:
    """Box stored column lists back into row-shaped observations — the
    row-shaped compatibility path (bulk consumers read batches
    instead)."""
    for index in range(len(columns["domain"])):
        yield DomainObservation(  # repro: ignore[row-boxing-in-hot-path]
            day=day,
            domain=columns["domain"][index],
            tld=columns["tld"][index],
            ns_names=tuple(columns["ns_names"][index]),
            apex_addrs=tuple(columns["apex_addrs"][index]),
            www_cnames=tuple(columns["www_cnames"][index]),
            www_addrs=tuple(columns["www_addrs"][index]),
            apex_addrs6=tuple(columns["apex_addrs6"][index]),
            www_addrs6=tuple(columns["www_addrs6"][index]),
            asns=frozenset(columns["asns"][index]),
        )


def extend_columns(columns: Columns, more: Columns) -> None:
    """Append the rows of *more* to *columns*, column by column."""
    for name in COLUMN_ORDER:
        columns[name].extend(more[name])


def _fragment_columns(reader: SegmentReader, ref: PartitionRef) -> Columns:
    """One stored fragment's canonical columns, materialised."""
    return {name: reader.column_cells(ref, name) for name in COLUMN_ORDER}


def extend_batch(
    out: ObservationBatch, day: int, pages: Mapping[str, Page]
) -> None:
    """Append one partition's *pages* to *out*, translate-once: each
    distinct entry is interned exactly once and rows map through the
    page's index stream with plain list lookups."""
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
    out.days.extend([day] * len(translated["domain"]))
    out.domains.extend(translated["domain"])
    out.tlds.extend(translated["tld"])
    out.ns_names.extend(translated["ns_names"])
    out.www_cnames.extend(translated["www_cnames"])
    out.apex_addrs.extend(translated["apex_addrs"])
    out.www_addrs.extend(translated["www_addrs"])
    out.apex_addrs6.extend(translated["apex_addrs6"])
    out.www_addrs6.extend(translated["www_addrs6"])
    out.asns.extend([asn_tuples[i] for i in asn_indexes])


def land_segment(
    directory: str,
    manifest: StoreManifest,
    generation: int,
    sequence: int,
    partitions: Sequence[EncodedPartition],
) -> str:
    """Lay out encoded *partitions* as segment ``g<generation>-
    <sequence>`` under *directory* and enter it in *manifest*; saving
    the manifest — the caller's step — is what publishes it. Returns
    the segment's path relative to *directory*."""
    relative = os.path.join(
        SEGMENTS_DIR, f"g{generation}-{sequence:06d}{SEGMENT_SUFFIX}"
    )
    size = publish_segment(
        os.path.join(directory, relative), layout_segment(partitions)
    )
    manifest.segments.append(
        SegmentMeta.describe(
            file=relative,
            generation=generation,
            size=size,
            partitions=[
                (source, day, rows) for source, day, rows, _ in partitions
            ],
        )
    )
    return relative


class SegmentStore:
    """A directory of binary column segments behind a manifest.

    The repo's one observation store: ``repro measure`` lands into it,
    replay feeds, whole-history detection and the sketch rebuild read
    it, and sharded passes slice it (:meth:`manifest_slices`).

    ``on_error="skip"`` makes reads lenient: a damaged segment costs
    its own partitions (recorded in :attr:`skipped_partitions`), never
    the run. A sharded pass's workers read through stores of their own
    and hand their skips back (:meth:`record_skipped`).
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
        """Write a day's observations as a fresh generation-0 segment."""
        self.append_batch(
            source, day, ObservationBatch.from_rows(observations)
        )

    def append_batch(
        self, source: str, day: int, batch: ObservationBatch
    ) -> None:
        """Write a batch as a fresh generation-0 segment."""
        self._write_segment(
            [encode_partition(source, day, batch_pages(batch))],
            generation=0,
        )

    def append_columns(
        self, source: str, day: int, columns: Columns
    ) -> None:
        """Write already-shredded column lists as a gen-0 segment (the
        migration path — no row boxing, no re-interning)."""
        missing = [name for name in COLUMN_ORDER if name not in columns]
        if missing:
            raise StorageError(
                f"partition {source}/{day} is missing columns {missing}"
            )
        self._write_segment(
            [encode_columns(source, day, columns)], generation=0
        )

    def append_partitions(
        self,
        partitions: Iterable[
            Tuple[str, int, Sequence[DomainObservation]]
        ],
    ) -> None:
        """Land many partitions as one gen-0 segment in one manifest
        swap — the bulk-load path. Per-partition ``append`` pays one
        fsync and one manifest rewrite per call, which is quadratic in
        partition count over a whole-history load; this pays both
        once."""
        encoded = [
            encode_partition(
                source, day,
                batch_pages(ObservationBatch.from_rows(observations)),
            )
            for source, day, observations in partitions
        ]
        if encoded:
            self._write_segment(encoded, generation=0)

    def _write_segment(
        self,
        partitions: Sequence[EncodedPartition],
        generation: int,
        replacing: Optional[Set[str]] = None,
    ) -> str:
        """Write one segment and swap the manifest in a single step.

        *replacing* names segment files superseded by the new one
        (compaction); they leave the manifest in the same atomic
        ``manifest.json`` replace that introduces the new segment, so a
        crash can strand an unreferenced file but never a manifest that
        double-counts a partition.
        """
        relative = land_segment(
            self.directory,
            self._manifest,
            generation,
            self._manifest.next_sequence(),
            partitions,
        )
        if replacing:
            self._manifest.segments = [
                existing
                for existing in self._manifest.segments
                if existing.file not in replacing
            ]
        self._manifest.save(self.directory)
        return relative

    # -- segment access -----------------------------------------------------

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
            for source, day, _rows in meta.partitions:
                self.skipped_partitions.append((source, day, str(exc)))
            return None
        self._readers[meta.file] = reader
        return reader

    def _partition_refs(
        self, source: str, day: int
    ) -> Iterator[Tuple[SegmentReader, PartitionRef]]:
        """Every stored fragment of ``(source, day)``, manifest order."""
        for meta in self._manifest.select(
            sources=(source,), start=day, end=day
        ):
            if not any(
                s == source and d == day for s, d, _ in meta.partitions
            ):
                continue
            reader = self._reader(meta)
            if reader is None:
                continue
            for ref in reader.partitions:
                if ref.source == source and ref.day == day:
                    yield reader, ref

    # -- reading ------------------------------------------------------------

    def partitions(self) -> List[Tuple[str, int]]:
        return self._manifest.partitions()

    def row_count(self, source: str, day: int) -> int:
        return self._manifest.row_count(source, day)

    def columns(self, source: str, day: int) -> Optional[Columns]:
        """One partition's stored column lists, its fragments joined in
        manifest order; ``None`` when no fragment is readable."""
        merged: Optional[Columns] = None
        for reader, ref in self._partition_refs(source, day):
            fragment = self._read_columns(reader, ref, source, day)
            if fragment is None:
                continue
            if merged is None:
                merged = fragment
            else:
                extend_columns(merged, fragment)
        return merged

    def rows(self, source: str, day: int) -> Iterator[DomainObservation]:
        """Re-materialise the observations of one partition."""
        columns = self.columns(source, day)
        if columns is not None:
            yield from column_rows(day, columns)

    def _read_columns(
        self, reader: SegmentReader, ref: PartitionRef, source: str, day: int
    ) -> Optional[Columns]:
        try:
            return _fragment_columns(reader, ref)
        except StorageError as exc:
            if self.on_error == "raise":
                raise
            self._bad_files.add(
                os.path.relpath(reader.path, self.directory)
            )
            self.skipped_partitions.append((source, day, str(exc)))
            return None

    def batch(
        self,
        source: str,
        day: int,
        builder: Optional[BatchBuilder] = None,
    ) -> ObservationBatch:
        """One partition as a columnar batch, interned translate-once
        (:func:`extend_batch`) — the zero-copy hot path from segment
        bytes to batch columns."""
        out = (
            builder if builder is not None else BatchBuilder()
        ).new_batch()
        for reader, ref in self._partition_refs(source, day):
            self._extend_batch(out, reader, ref, source, day)
        return out

    def _extend_batch(
        self,
        out: ObservationBatch,
        reader: SegmentReader,
        ref: PartitionRef,
        source: str,
        day: int,
    ) -> None:
        try:
            pages = {
                name: reader.column_page(ref, name)
                for name in COLUMN_ORDER
            }
        except StorageError as exc:
            if self.on_error == "raise":
                raise
            self._bad_files.add(
                os.path.relpath(reader.path, self.directory)
            )
            self.skipped_partitions.append((source, day, str(exc)))
            return
        extend_batch(out, day, pages)

    def batches(
        self, builder: Optional[BatchBuilder] = None
    ) -> Iterator[Tuple[str, int, ObservationBatch]]:
        """Every partition as ``(source, day, batch)``, in sorted
        partition order, sharing one pool pair across all yields."""
        shared = builder if builder is not None else BatchBuilder()
        for source, day in self.partitions():
            yield source, day, self.batch(source, day, builder=shared)

    # -- statistics ---------------------------------------------------------

    def partition_stats(self, source: str, day: int) -> PartitionStats:
        """On-disk size accounting for one partition.

        ``encoded_bytes`` is the real segment footprint: the whole file
        (header + pages + directory + footer) when the partition has
        its own segment, its column pages' share when it lives inside a
        multi-partition compacted run.
        """
        rows = 0
        encoded = 0
        for meta in self._manifest.select(
            sources=(source,), start=day, end=day
        ):
            own = [
                (s, d, r)
                for s, d, r in meta.partitions
                if s == source and d == day
            ]
            if not own:
                continue
            rows += sum(r for _, _, r in own)
            if len(meta.partitions) == len(own):
                encoded += meta.bytes
            else:
                reader = self._reader(meta)
                if reader is None:
                    continue
                encoded += sum(
                    ref.page_bytes
                    for ref in reader.partitions
                    if ref.source == source and ref.day == day
                )
        return PartitionStats.measured(source, day, rows, encoded)

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

    # -- compaction ---------------------------------------------------------

    def compact(self, fanout: int = 8) -> List[str]:
        """Tiered compaction: merge any generation with ≥ *fanout*
        segments into one multi-day run of the next generation.

        Returns the relative paths of the segments written. Runs until
        no tier is over the fanout, so a long append history collapses
        into a handful of large sorted runs while the manifest's
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
        """Merge *group* into one segment of *generation*: a
        ``(source, day)`` with one fragment in the group has its stored
        pages verified and moved (encoding is canonical, so re-encoding
        would write the same bytes); one with several is decoded,
        joined in group order and encoded afresh. Every input page is
        verified either way, before anything is written."""
        fragments: Dict[
            Tuple[str, int], List[Tuple[SegmentReader, PartitionRef]]
        ] = {}
        for meta in group:
            reader = self._readers.get(meta.file)
            if reader is None:
                reader = SegmentReader(
                    os.path.join(self.directory, meta.file)
                )
                self._readers[meta.file] = reader
            for ref in reader.partitions:
                fragments.setdefault((ref.source, ref.day), []).append(
                    (reader, ref)
                )
        ordered: List[EncodedPartition] = []
        for source, day in sorted(
            fragments, key=lambda key: (key[1], key[0])
        ):
            (reader, ref), *more = fragments[(source, day)]
            if more:
                columns = _fragment_columns(reader, ref)
                for reader, ref in more:
                    extend_columns(columns, _fragment_columns(reader, ref))
                ordered.append(encode_columns(source, day, columns))
            else:
                ordered.append((source, day, ref.rows, {
                    name: reader.stored_page(ref, name)
                    for name in COLUMN_ORDER
                }))
        removed = {meta.file for meta in group}
        relative = self._write_segment(
            ordered, generation=generation, replacing=removed
        )
        for file in sorted(removed):
            reader = self._readers.pop(file, None)
            if reader is not None:
                reader.close()
            try:
                os.remove(os.path.join(self.directory, file))
            except OSError:
                pass
        return relative

    # -- distribution -------------------------------------------------------

    def record_skipped(
        self, skipped: Iterable[Tuple[str, int, str]]
    ) -> None:
        """Enter partitions a worker's reads of this store dropped into
        :attr:`skipped_partitions`, each ``(source, day)`` once — as
        this store's own reads would have recorded them."""
        seen = {(source, day) for source, day, _ in self.skipped_partitions}
        for source, day, reason in skipped:
            if (source, day) not in seen:
                seen.add((source, day))
                self.skipped_partitions.append((source, day, reason))

    def manifest_slices(
        self,
        shard_count: int,
        sources: Optional[Sequence[str]] = None,
    ) -> List[ManifestSlice]:
        """Picklable read plans for a sharded pass over this store.

        ``shard_count`` slices that each cover *all* selected
        partitions and keep only their domain hash shard. Slices are
        per-domain because :meth:`DetectionResult.merge` unions
        ``(domain, provider)`` interval keys and needs them disjoint
        across shards — a domain's days must meet in one worker to be
        stitched into maximal intervals. A slice is directory + keys,
        no handles, so it ships to any worker as a tiny pickle.
        """
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        partitions = tuple(self._manifest.partitions(sources=sources))
        return [
            ManifestSlice(
                self.directory,
                partitions,
                domain_shard=(index, shard_count),
                on_error=self.on_error,
            )
            for index in range(shard_count)
        ]

    # -- lifecycle ----------------------------------------------------------

    @property
    def manifest(self) -> StoreManifest:
        return self._manifest

    def close(self) -> None:
        for file in sorted(self._readers):
            self._readers[file].close()
        self._readers.clear()

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "Columns",
    "SegmentStore",
    "batch_columns",
    "batch_pages",
    "column_rows",
    "extend_batch",
    "extend_columns",
    "land_segment",
]

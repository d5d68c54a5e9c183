"""The store manifest: segment metadata enabling partition pruning.

``manifest.json`` (format 2) describes every live segment file — its
compaction generation, day range, source set, and the exact partitions
inside — so a reader can answer "which segments could hold com days
40–60?" from the manifest alone and never open (or fault in a single
page of) the cold ones. A ``manifest.json`` of any other shape or
format is refused with a typed error: no other format has a reader.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.store.errors import StorageError

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 2


@dataclass
class SegmentMeta:
    """Manifest entry for one segment file."""

    file: str
    generation: int
    day_min: int
    day_max: int
    sources: Tuple[str, ...]
    rows: int
    bytes: int
    #: ``(source, day, rows)`` for every partition, in file order.
    partitions: List[Tuple[str, int, int]] = field(default_factory=list)
    #: The entry's ``manifest.json`` text, serialised on first save.
    _text: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def covers(
        self,
        sources: Optional[Sequence[str]] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> bool:
        """Whether the segment can hold partitions in the window."""
        if start is not None and self.day_max < start:
            return False
        if end is not None and self.day_min > end:
            return False
        if sources is not None and not set(sources) & set(self.sources):
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "generation": self.generation,
            "day_min": self.day_min,
            "day_max": self.day_max,
            "sources": list(self.sources),
            "rows": self.rows,
            "bytes": self.bytes,
            "partitions": [list(entry) for entry in self.partitions],
        }

    def manifest_text(self) -> str:
        """The entry as ``json.dump(..., indent=1)`` writes it inside the
        manifest's ``segments`` list, serialised once: an entry never
        changes after :meth:`describe`."""
        if self._text is None:
            self._text = "  " + json.dumps(
                self.to_dict(), indent=1
            ).replace("\n", "\n  ")
        return self._text

    @property
    def sequence(self) -> int:
        """The file name's sequence number (``-1`` when it has none)."""
        tail = os.path.basename(self.file).split(".")[0].rsplit("-", 1)[-1]
        return int(tail) if tail.isdigit() else -1

    @classmethod
    def from_dict(cls, entry: Dict[str, Any]) -> "SegmentMeta":
        try:
            return cls(
                file=str(entry["file"]),
                generation=int(entry["generation"]),
                day_min=int(entry["day_min"]),
                day_max=int(entry["day_max"]),
                sources=tuple(str(s) for s in entry["sources"]),
                rows=int(entry["rows"]),
                bytes=int(entry["bytes"]),
                partitions=[
                    (str(source), int(day), int(rows))
                    for source, day, rows in entry["partitions"]
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(
                f"malformed manifest segment entry: {exc}"
            ) from exc

    @classmethod
    def describe(
        cls,
        file: str,
        generation: int,
        size: int,
        partitions: Sequence[Tuple[str, int, int]],
    ) -> "SegmentMeta":
        """Derive the min-max metadata from a partition list."""
        if not partitions:
            raise StorageError("segment must hold at least one partition")
        days = [day for _, day, _ in partitions]
        return cls(
            file=file,
            generation=generation,
            day_min=min(days),
            day_max=max(days),
            sources=tuple(sorted({source for source, _, _ in partitions})),
            rows=sum(rows for _, _, rows in partitions),
            bytes=size,
            partitions=list(partitions),
        )


@dataclass
class StoreManifest:
    """The live segment set of one store directory."""

    segments: List[SegmentMeta] = field(default_factory=list)
    #: ``(source, day)`` → [rows, segments listing it in manifest
    #: order]: built on first use, kept up to date by :meth:`commit`.
    _index: Optional[Dict[Tuple[str, int], List[Any]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The next free segment sequence number, once computed.
    _next: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _by_partition(self) -> Dict[Tuple[str, int], List[Any]]:
        if self._index is None:
            self._index = {}
            for meta in self.segments:
                self._enter(meta)
        return self._index

    def _enter(self, meta: SegmentMeta) -> None:
        assert self._index is not None
        for source, day, rows in meta.partitions:
            entry = self._index.setdefault((source, day), [0, []])
            entry[0] += rows
            if not entry[1] or entry[1][-1] is not meta:
                entry[1].append(meta)

    def commit(
        self, meta: SegmentMeta, replacing: Optional[Set[str]] = None
    ) -> None:
        """Enter *meta* as the newest segment, dropping the segments
        named in *replacing*. An append updates the index and the next
        sequence number in place; a compaction's swap rebuilds them."""
        self._next = max(self.next_sequence(), meta.sequence + 1)
        if replacing:
            self.segments = [
                m for m in self.segments if m.file not in replacing
            ]
            self._index = None
        self.segments.append(meta)
        if self._index is not None:
            self._enter(meta)

    def holding(self, source: str, day: int) -> List[SegmentMeta]:
        """The segments listing ``(source, day)``, in manifest order."""
        entry = self._by_partition().get((source, day))
        return entry[1] if entry else []

    def select(
        self,
        sources: Optional[Sequence[str]] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[SegmentMeta]:
        """Segments that may hold partitions in the window — the
        pruning step: everything else is never opened."""
        return [
            meta
            for meta in self.segments
            if meta.covers(sources=sources, start=start, end=end)
        ]

    def partitions(
        self, sources: Optional[Sequence[str]] = None
    ) -> List[Tuple[str, int]]:
        """Distinct ``(source, day)`` pairs of *sources*, sorted."""
        return sorted(
            (source, day) for source, day in self._by_partition()
            if sources is None or source in sources
        )

    def row_count(self, source: str, day: int) -> int:
        entry = self._by_partition().get((source, day))
        return entry[0] if entry else 0

    def next_sequence(self) -> int:
        """The next free segment file sequence number."""
        if self._next is None:
            self._next = 1 + max(
                (meta.sequence for meta in self.segments), default=-1
            )
        return self._next

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "segments": [meta.to_dict() for meta in self.segments],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=1)``, joined from each
        entry's cached text: a commit encodes only its new entry."""
        head = f'{{\n "format": {MANIFEST_FORMAT},\n "segments": '
        if not self.segments:
            return head + "[]\n}"
        return head + "[\n" + ",\n".join(
            meta.manifest_text() for meta in self.segments
        ) + "\n ]\n}"

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StoreManifest":
        segments = payload.get("segments")
        if not isinstance(segments, list):
            raise StorageError("manifest 'segments' must be a list")
        return cls(
            segments=[SegmentMeta.from_dict(entry) for entry in segments]
        )

    def save(self, directory: str) -> str:
        """Atomically and durably write ``manifest.json``; returns its
        path. This is the store's commit point, so the temporary file
        is synced before the rename publishes it — the segments it
        names were synced before it, the ones it drops are unlinked
        only after it."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, MANIFEST_NAME)
        temporary = path + ".tmp"
        with open(temporary, "w") as handle:
            handle.write(self.to_json())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
        return path

    @classmethod
    def load(cls, directory: str) -> "StoreManifest":
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise StorageError(f"cannot read manifest: {exc}") from exc
        except ValueError as exc:
            raise StorageError(f"corrupt manifest: {exc}") from exc
        if isinstance(payload, dict):
            if payload.get("format") == MANIFEST_FORMAT:
                return cls.from_dict(payload)
            found = f"manifest format {payload.get('format')!r}"
        else:
            found = f"a JSON {type(payload).__name__} manifest"
        raise StorageError(
            f"{directory} holds {found}, not a format-{MANIFEST_FORMAT} "
            f"segment store"
        )

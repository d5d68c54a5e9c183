"""Rebuild the sketch plane from a landed store, serial or sharded.

The plane a :class:`~repro.stream.engine.StreamEngine` maintains
incrementally is a pure commutative fold over ``(domain, day, matches)``
facts, so the same state can be rebuilt from history after the fact —
and split across workers: each shard folds a contiguous run of
``(source, day)`` partitions into its own plane, and the parent merges
the shard planes in shard-index order. Because every sketch merge is an
exact cell-wise sum / register max (and the space-saving summaries stay
in their exact regime, see ``docs/SKETCHES.md``), the merged plane is
**byte-identical** to the serial fold and to the live engine plane fed
the same partitions — the property ``tests/sketch/test_identity.py``
pins for three seeds.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.batch.batch import MatchKey, ObservationBatch
from repro.core.references import RefType, SignatureCatalog
from repro.parallel.backend import BackendSpec, resolve_backend
from repro.parallel.sharding import chunk_records
from repro.sketch.plane import (
    SketchConfig,
    SketchPlane,
    provider_slds_of,
)
from repro.stream.engine import SCOPE_OF_SOURCE

PartitionKey = Tuple[str, int]

Matches = Dict[str, FrozenSet[RefType]]


class BatchStore(Protocol):
    """What a landed store must offer: keys and columnar batches."""

    def partitions(self) -> Sequence[PartitionKey]: ...

    def batch(self, source: str, day: int) -> ObservationBatch: ...


class _PlaneBuilder:
    """Folds store partitions into a plane via the engine's batch path."""

    def __init__(
        self,
        config: SketchConfig,
        catalog: SignatureCatalog,
    ):
        self.catalog = catalog
        self.plane = SketchPlane(
            config,
            scope_names=dict.fromkeys(SCOPE_OF_SOURCE.values()),
            provider_slds=provider_slds_of(catalog),
        )
        self._match_cache: Dict[
            Tuple[Tuple[str, ...], Tuple[str, ...], FrozenSet[int]],
            Matches,
        ] = {}

    def fold(
        self, source: str, day: int, batch: ObservationBatch
    ) -> None:
        """One partition, mirroring ``StreamEngine._apply_batch``."""
        plane = self.plane
        scope = plane.scope(SCOPE_OF_SOURCE[source])
        match = self.catalog.match
        cache = self._match_cache
        names = batch.names
        by_key: Dict[MatchKey, Matches] = {}
        third_by_key: Dict[MatchKey, Tuple[str, ...]] = {}
        for index in range(len(batch)):
            id_key = batch.match_key(index)
            matches = by_key.get(id_key)
            if matches is None:
                text_key = (
                    batch.ns_texts(index),
                    batch.cname_texts(index),
                    batch.asn_set(index),
                )
                matches = cache.get(text_key)
                if matches is None:
                    matches = match(batch.row(index))
                    cache[text_key] = matches
                by_key[id_key] = matches
            domain = names.value(batch.domains[index])
            if matches:
                scope.observe(domain, day, matches, ())
                continue
            third = third_by_key.get(id_key)
            if third is None:
                third = plane.third_party_keys(
                    batch.ns_texts(index), batch.cname_texts(index)
                )
                third_by_key[id_key] = third
            scope.observe(domain, day, matches, third)


#: Per-worker-process builder inputs (set by the pool initializer).
_WORKER_BUILD: Optional[
    Tuple[BatchStore, SignatureCatalog, SketchConfig]
] = None


def _init_build_worker(
    store: BatchStore, catalog: SignatureCatalog, config: SketchConfig
) -> None:
    global _WORKER_BUILD
    _WORKER_BUILD = (store, catalog, config)


def _build_shard(
    shard_index: int, partitions: Sequence[PartitionKey]
) -> Dict[str, object]:
    """Fold one contiguous partition run; returns the plane payload."""
    assert _WORKER_BUILD is not None, "worker initializer did not run"
    store, catalog, config = _WORKER_BUILD
    builder = _PlaneBuilder(config, catalog)
    for source, day in partitions:
        builder.fold(source, day, store.batch(source, day))
    return builder.plane.to_dict()


def store_partitions(
    store: BatchStore, sources: Optional[Sequence[str]] = None
) -> List[PartitionKey]:
    """The store's ``(source, day)`` keys, canonically ordered."""
    wanted = None if sources is None else set(sources)
    return sorted(
        (source, day)
        for source, day in store.partitions()
        if wanted is None or source in wanted
    )


def sketch_from_store(
    store: BatchStore,
    config: Optional[SketchConfig] = None,
    sources: Optional[Sequence[str]] = None,
    catalog: Optional[SignatureCatalog] = None,
) -> SketchPlane:
    """The serial rebuild: fold every partition in canonical order."""
    catalog = catalog or SignatureCatalog.paper_table2()
    builder = _PlaneBuilder(config or SketchConfig(), catalog)
    for source, day in store_partitions(store, sources):
        builder.fold(source, day, store.batch(source, day))
    return builder.plane


def sketch_from_store_sharded(
    store: BatchStore,
    config: Optional[SketchConfig] = None,
    sources: Optional[Sequence[str]] = None,
    catalog: Optional[SignatureCatalog] = None,
    backend: Optional[BackendSpec] = None,
) -> SketchPlane:
    """The sharded rebuild; byte-identical to :func:`sketch_from_store`.

    Contiguous partition runs ship to workers of the resolved
    execution backend (*backend* > ``REPRO_BACKEND`` > local pool);
    shard planes merge in shard-index order through the exact merge
    hooks.
    """
    catalog = catalog or SignatureCatalog.paper_table2()
    config = config or SketchConfig()
    executor = resolve_backend(backend)
    chunks = chunk_records(
        store_partitions(store, sources), executor.shard_count
    )
    payloads = executor.map_shards(
        _build_shard,
        [list(chunk) for chunk in chunks],
        initializer=_init_build_worker,
        initargs=(store, catalog, config),
    )
    merged = SketchPlane(
        config,
        scope_names=dict.fromkeys(SCOPE_OF_SOURCE.values()),
        provider_slds=provider_slds_of(catalog),
    )
    for payload in payloads:
        merged.merge(SketchPlane.from_dict(payload))
    return merged

"""Rebuild the sketch plane from a landed store.

The plane a :class:`~repro.stream.engine.StreamEngine` maintains
incrementally is a pure commutative fold over ``(domain, day, matches)``
facts, so the same state can be rebuilt from history after the fact by
the same two calls the engine makes (:meth:`BatchMatcher.match_rows`,
:meth:`SketchPlane.fold_runs`), in one loop through the caller's store.
A source's days are read as runs through one builder
(:meth:`SegmentStore.source_runs`): each fragment decoded once, each run
matched and hashed once, and the order-sensitive top-K still fed the
daily rows' order. While the space-saving summaries stay in their exact
regime (``docs/SKETCHES.md``) the rebuilt plane is **byte-identical**
to the live engine plane fed the same partitions — cells of the
conformance matrix (``tests/integration/test_conformance.py``) pin both
against one digest per seed.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Optional

from repro.batch.batch import BatchBuilder
from repro.core.references import BatchMatcher, SignatureCatalog
from repro.measurement.scheduler import SCOPE_OF_SOURCE
from repro.sketch.plane import (
    SketchConfig,
    SketchPlane,
    provider_slds_of,
)
from repro.store.store import SegmentStore


def sketch_from_store(
    store: SegmentStore,
    config: Optional[SketchConfig] = None,
    catalog: Optional[SignatureCatalog] = None,
) -> SketchPlane:
    """Fold every stored partition into a fresh plane, in
    canonical ``(source, day)`` order, reading through *store* (a
    lenient store records what it skipped).

    Matcher and fold are the ones ``StreamEngine._apply`` uses; each
    source's days are read as its stored runs. Every partition is read
    through one builder, so a string repeated across days is interned
    once per rebuild, not once per partition.
    """
    catalog = catalog or SignatureCatalog.paper_table2()
    plane = SketchPlane(
        config or SketchConfig(),
        scope_names=dict.fromkeys(SCOPE_OF_SOURCE.values()),
        provider_slds=provider_slds_of(catalog),
    )
    matcher = BatchMatcher(catalog)
    builder = BatchBuilder()
    partitions = store.manifest.partitions()
    for source, keys in itertools.groupby(partitions, key=itemgetter(0)):
        days = [day for _, day in keys]
        for batch, ends in store.source_runs(source, days, builder):
            plane.fold_runs(
                SCOPE_OF_SOURCE[source], batch, ends,
                matcher.match_rows(batch),
            )
    return plane

"""repro.sketch — deterministic probabilistic summaries.

Constant-memory streaming analytics over the observation feed: a
count-min sketch (additive and conservative-update variants), a
space-saving top-K summary, and a HyperLogLog cardinality estimator
(sparse + dense), all built on one seeded keyed-hash family so that
live, store-rebuilt and kill/resumed runs produce **byte-identical**
sketch state. :class:`~repro.sketch.plane.SketchPlane` bundles the
per-scope instances the :class:`~repro.stream.engine.StreamEngine`
maintains incrementally; :mod:`repro.sketch.build` rebuilds the same
plane from a landed store, in one loop through the caller's store.

See ``docs/SKETCHES.md`` for the error guarantees and the exact fold
semantics (what is provably order-independent, and what is not).
"""

from repro.sketch.cms import CountMinSketch
from repro.sketch.hll import HyperLogLog
from repro.sketch.plane import ScopeSketches, SketchConfig, SketchPlane
from repro.sketch.topk import SpaceSaving

__all__ = [
    "CountMinSketch",
    "HyperLogLog",
    "ScopeSketches",
    "SketchConfig",
    "SketchPlane",
    "SpaceSaving",
]

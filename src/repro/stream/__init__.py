"""repro.stream — incremental daily-ingest engine with checkpoint/resume.

The batch pipeline (:class:`repro.core.pipeline.AdoptionStudy`) recomputes
the whole study from scratch; this package maintains the same aggregates
one landed ``(source, day)`` partition at a time:

* :class:`StreamEngine` — the stateful core: per-scope incremental
  detection state, ordering discipline (quarantine, missing days, late
  arrivals), live queries;
* :class:`ScopeState` — one scope's aggregates (series, intervals):
  :class:`repro.core.detection.ScopeState`, the accumulator the batch
  detector folds through too, re-exported here;
* feeds — :class:`~repro.measurement.scheduler.PartitionFeed` measures
  live; :class:`StoreReplayFeed` / :class:`SegmentReplayFeed` replay
  existing data;
* checkpoints — :func:`save_checkpoint` / :func:`load_checkpoint`
  serialise the engine for kill-and-resume.

The engine answers its own queries (``adoption``, ``growth``,
``domain_history``); the frozen read surface built from it is
:class:`repro.serve.index.ServeIndex`.

After ingesting every day of a world, the engine's aggregates equal the
batch study's exactly (``tests/stream/test_equivalence.py`` asserts it),
while a single-day increment costs O(day), not O(history).
"""

from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    dump_state,
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.core.detection import ScopeState
from repro.measurement.scheduler import SCOPE_OF_SOURCE
from repro.stream.engine import (
    APPLIED,
    DUPLICATE,
    QUARANTINED,
    RECONCILED,
    StreamEngine,
)
from repro.stream.feed import SegmentReplayFeed, StoreReplayFeed

__all__ = [
    "APPLIED",
    "CHECKPOINT_FORMAT",
    "DUPLICATE",
    "QUARANTINED",
    "RECONCILED",
    "SCOPE_OF_SOURCE",
    "ScopeState",
    "SegmentReplayFeed",
    "StoreReplayFeed",
    "StreamEngine",
    "dump_state",
    "load_checkpoint",
    "save_checkpoint",
    "state_digest",
]

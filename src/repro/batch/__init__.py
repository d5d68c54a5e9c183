"""Columnar observation plane.

:class:`ObservationBatch` is the batch-first unit of data flow across
the measurement, enrichment, detection and streaming layers: parallel
columns per field, interned string pools for domains / TLDs /
NS names / CNAMEs, a pool of verbatim address texts,
and per-row sorted ASN tuples. Row-shaped call sites keep working
through lazy :class:`repro.measurement.snapshot.DomainObservation` views
(``batch.row(i)``). See ``docs/DATA_MODEL.md``.
"""

from repro.batch.batch import BatchBuilder, BatchRows, ObservationBatch
from repro.batch.columns import StringPool

__all__ = [
    "BatchBuilder",
    "BatchRows",
    "ObservationBatch",
    "StringPool",
]

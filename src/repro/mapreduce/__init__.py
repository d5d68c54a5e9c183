"""A small local MapReduce engine — the Hadoop stand-in.

The paper analyses measurement data "using Hadoop" (§3). This package
provides the same programming model (map → combine → partition → reduce)
over in-process records, so the analysis jobs in :mod:`repro.core` can be
expressed exactly as they would be on the real cluster, and an ablation
benchmark can compare the engine against direct aggregation. It keeps
its own package, imported by nothing else in ``src/``, because its three
jobs are the reference the detector is tested against (ROADMAP 2(d)).
"""

from repro.mapreduce.engine import Job, MapReduceEngine, run_job
from repro.mapreduce.jobs import (
    daily_detection_job,
    ns_sld_frequency_job,
    reference_count_job,
)

__all__ = [
    "Job",
    "MapReduceEngine",
    "daily_detection_job",
    "ns_sld_frequency_job",
    "reference_count_job",
    "run_job",
]

"""What every workload shares: where things live, how a world is built,
how a rep is timed, how outputs are digested, how a result is shaped.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from harness.calib import Calibrator, Measured, Timing
from harness.stats import median
from harness.trace import Tracer

#: harness/ -> e2e/ -> benchmarks/ -> the checkout.
ROOT = os.path.dirname(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (stores, traces) goes here; git-ignored.
WORK = os.path.join(ROOT, ".bench_work")

#: Every set-up is done at least this many times and, while it has taken
#: less than :data:`SETUP_SECONDS` in all, up to three times as often;
#: ``setup_s`` is the median. (A 0.25 s set-up done three times spreads
#: 9-15 % from run to run.)
SETUP_REPS = 3
SETUP_SECONDS = 2.0


def require_program() -> None:
    """Put ``src/`` on the path, or leave: there is nothing to measure."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"benchmark: no program to measure ({SRC}/repro is missing)"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(prefix: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=WORK)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_world(scale: int, seed: int) -> object:
    from repro.world.scenario import ScenarioConfig, build_paper_world

    return build_paper_world(ScenarioConfig(scale=scale, seed=seed))


@dataclass
class Check:
    """One output check, run outside every timed section."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one workload pass hands back to ``run.py``."""

    workload: str
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Check] = field(default_factory=list)
    #: name -> hex digest, printed so two commits can show equal bytes.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Raw (un-normalised) companions and sample counts, for the log.
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c.ok for c in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)


def median_setup(
    calibrator: Calibrator,
    setup: Callable[[], object],
    teardown: Callable[[object], None],
    reps: int = SETUP_REPS,
) -> "SetupResult":
    """Set up *reps* times, and on to ``3 * reps`` while all of it has
    taken less than :data:`SETUP_SECONDS`; keep the last product, report
    the median.

    Earlier products are torn down before the next set-up so the
    memory peak stays that of one.
    """
    timings: List[Timing] = []
    product: object = None
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(timings) < reps or (
        len(timings) < 3 * reps and time.perf_counter() < deadline
    ):
        if timings:
            teardown(product)
            product = None
        gc.collect()
        measured = calibrator.measure(setup)
        product = measured.value
        timings.append(measured.timing)
    return SetupResult(
        product=product,
        seconds=median([t.norm for t in timings]),
        raw_seconds=median([t.raw for t in timings]),
        reps=len(timings),
    )


@dataclass
class SetupResult:
    product: object
    seconds: float
    raw_seconds: float
    reps: int


def timed_reps(
    calibrator: Calibrator,
    rep: Callable[[], object],
    seconds: float,
    min_reps: int,
) -> Iterator[Measured]:
    """Repeat *rep* for *seconds* of wall-clock, at least *min_reps*
    times; ``gc.collect()`` before each, GC left on."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < min_reps or time.perf_counter() < deadline:
        gc.collect()
        yield calibrator.measure(rep)
        done += 1


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_traced(
    calibrator: Calibrator, tracer: Tracer, work: Callable[[], object]
) -> Measured:
    """Time one traced call of *work*; kernel runs inside it are taken
    out of *tracer*'s open spans."""
    calibrator.on_fire = tracer.steal
    try:
        gc.collect()
        return calibrator.measure(work)
    finally:
        calibrator.on_fire = None


def finish_trace(
    outcome: Outcome,
    passes: Sequence[Tuple[Tracer, Timing]],
    untraced: Timing,
    layer_spans: Sequence[str],
    seed: int,
) -> Dict[str, float]:
    """What every traced pass ends with: the two ``trace.*`` metrics,
    the coverage check, the span file — and the ledger it returns, span
    name -> summed normalised self seconds, which the workload's layer
    metrics are read from.

    *passes* are the traced sections with the timing that normalises
    each; the last one is the repetition *untraced* is compared with.
    """
    ledger: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    wall = 0.0
    for tracer, timing in passes:
        # Raw span seconds -> normalised, by the pass's own timing.
        scale = timing.norm / timing.raw if timing.raw else 1.0
        wall += tracer.root_duration() * scale
        for name, seconds in tracer.self_times().items():
            ledger[name] = ledger.get(name, 0.0) + seconds * scale
        for name, count in tracer.call_counts().items():
            calls[name] = calls.get(name, 0) + count
    layers = sum(ledger.get(name, 0.0) for name in layer_spans)
    coverage = layers / wall if wall else 0.0
    traced = passes[-1][1]
    outcome.metrics["trace.coverage_share"] = coverage
    outcome.metrics["trace.overhead_share"] = (
        traced.norm - untraced.norm
    ) / untraced.norm
    outcome.check(
        "layer self times sum to within 5 % of the traced wall",
        coverage >= 0.95,
        f"coverage {coverage:.4f}",
    )
    outcome.notes["ledger"] = {name: ledger[name] for name in sorted(ledger)}
    outcome.notes["calls"] = {name: calls[name] for name in sorted(calls)}
    outcome.notes["traced_wall_s"] = wall
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{outcome.workload}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        outcome.notes["spans_written"] = sum(
            tracer.write_jsonl(handle) for tracer, _ in passes
        )
    outcome.notes["trace_file"] = os.path.relpath(path, ROOT)
    return ledger

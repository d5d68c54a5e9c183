"""Speed-normalised timing.

This box's speed swings up to 1.7x in epochs of 1-30 s, so a raw
wall-clock sample mostly measures *when* it ran (README, "Noise").
Every timed sample is therefore reported as

    net_raw * CALIB_REF_S / mean(calibration kernel runs inside it)

where the calibration kernel is a fixed stdlib-only piece of work fired in the
sampling thread every :data:`CALIB_INTERVAL_S` by ``setitimer`` while the
sample runs, plus once just before and once just after it. Time spent in
the kernel is subtracted from the sample (``net_raw``). A sample taken at
reference speed reads the same normalised as raw.
"""

from __future__ import annotations

import json
import signal
import time
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: What one kernel run takes on this box at its usual fast speed. A
#: constant, never re-measured: it only fixes the unit of normalised time.
CALIB_REF_S = 0.003

#: Period of the in-sample calibration timer.
CALIB_INTERVAL_S = 0.2

_BYTECODE_ROUNDS = 5000
_SORT_KEYS = [(index * 2654435761) & 0xFFFF for index in range(8000)]
_BLOB = bytes(range(256)) * 2900


def calibration_kernel() -> int:
    """Fixed work with the measured code's blend: half the time in
    interpreter bytecode (dict, int and str operations), half inside C
    library calls (checksum, compression, sort, JSON). A bytecode-only
    kernel swings more with this box's noise than the workloads do and
    over-corrects them; a C-only one under-corrects (README, "Noise")."""
    table = {}
    total = 0
    for index in range(_BYTECODE_ROUNDS):
        key = (index * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + index
        total += len(str(key)) + (key >> 3)
    total += zlib.crc32(_BLOB)
    total += len(zlib.compress(_BLOB[:80000], 1))
    total += len(sorted(_SORT_KEYS))
    total += len(json.dumps(_SORT_KEYS[:4000]))
    return total + len(table)


def normalise(
    gross_raw: float,
    kernel_time_inside: float,
    kernel_samples: Sequence[float],
    ref: float = CALIB_REF_S,
) -> "Timing":
    """The normalisation maths, separated from the clock.

    *gross_raw* is end minus start; *kernel_time_inside* the part of it
    spent running the kernel; *kernel_samples* every kernel duration
    that describes the speed during the sample.
    """
    if not kernel_samples:
        raise ValueError("a timing needs at least one calibration sample")
    net_raw = gross_raw - kernel_time_inside
    speed = sum(kernel_samples) / len(kernel_samples)
    return Timing(
        raw=net_raw,
        norm=net_raw * ref / speed,
        kernel_runs=len(kernel_samples),
    )


@dataclass(frozen=True)
class Timing:
    """One timed sample: raw net seconds and the normalised value."""

    raw: float
    norm: float
    kernel_runs: int


class Calibrator:
    """Fires the kernel on a timer and brackets samples with it.

    Main-thread only (``signal``). ``on_fire`` receives each kernel
    duration so a tracer can take it out of its open spans.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        kernel: Callable[[], int] = calibration_kernel,
    ) -> None:
        self._clock = clock
        self._kernel = kernel
        #: (start, duration) of every kernel run so far.
        self._fired: List[Tuple[float, float]] = []
        self._previous_handler: object = None
        self._running = False
        self.on_fire: Optional[Callable[[float], None]] = None

    @property
    def runs(self) -> int:
        """Kernel runs so far."""
        return len(self._fired)

    @property
    def seconds(self) -> float:
        """Seconds spent in the kernel so far."""
        return sum(duration for _, duration in self._fired)

    # -- the timer --------------------------------------------------------

    def fire(self) -> float:
        """Run the kernel once; returns and records its duration."""
        started = self._clock()
        self._kernel()
        duration = self._clock() - started
        self._fired.append((started, duration))
        if self.on_fire is not None:
            self.on_fire(duration)
        return duration

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.fire()

    def start(self) -> None:
        if self._running:
            return
        self._previous_handler = signal.signal(
            signal.SIGALRM, self._on_alarm
        )
        signal.setitimer(
            signal.ITIMER_REAL, CALIB_INTERVAL_S, CALIB_INTERVAL_S
        )
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._running = False

    def __enter__(self) -> "Calibrator":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- samples ----------------------------------------------------------

    def measure(self, work: Callable[[], object]) -> "Measured":
        """Time one call of *work*, normalised.

        The bracketing kernel runs sit outside the timed region; timer
        firings inside it are subtracted from the raw time.
        """
        first = len(self._fired)
        self.fire()
        started = self._clock()
        value = work()
        ended = self._clock()
        self.fire()
        fired = self._fired[first:]
        inside = sum(
            duration
            for at, duration in fired
            if started <= at < ended
        )
        timing = normalise(
            ended - started,
            inside,
            [duration for _, duration in fired],
        )
        return Measured(value=value, timing=timing)


@dataclass(frozen=True)
class Measured:
    """What :meth:`Calibrator.measure` returns."""

    value: object
    timing: Timing

"""Drift-calibrated timing and the run statistics.

The machines this benchmark runs on change effective speed from one run to
the next, and CPU time tracks wall time, so the drift is the CPU's, not
waiting.  A fixed kernel of small numpy operations in a Python loop (the
same mix of interpreter and small-array work as the library's hot paths,
and calling no library code) is timed right before every timed step.  Every
time is then scaled to the kernel's nominal speed:

    scaled_s = raw_s * NOMINAL_REF_MS / ref_ms

where ref_ms is the mean of all kernel readings in the run.  The readings
are bimodal: a fast and a slow mode alternate within milliseconds, so one
reading says little about the job beside it, while the run's speed follows
the share of time spent in each mode.  The mean over the run tracks that
share: on this machine a drift that made `sample` jobs about a quarter
faster lowered the mean by about as much, the upper quartile by only 7%.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

KERNEL_OPS = 4000
# Reference kernel time (see Clock.ref_ms) on the reference machine (2-core
# VM, Python 3.11, numpy 2.4).  Only the ratio between runs matters: parent and change are
# measured with the same constant.
NOMINAL_REF_MS = 4.3
# The tail percentile is the highest one with at least this many jobs beyond it.
TAIL_BEYOND = 10


def kernel_ms() -> float:
    """Time KERNEL_OPS small-array numpy operations; returns milliseconds."""
    a = np.linspace(0.0, 1.0, 16)
    start = time.perf_counter()
    for _ in range(KERNEL_OPS // 4):
        b = a * 1.0001
        b += 0.5
        c = np.sqrt(b)
        a = c - 0.5
    return (time.perf_counter() - start) * 1e3


@dataclass
class Step:
    label: str
    raw_s: float


@dataclass
class Clock:
    """Times steps, each right after `kernel_reps` kernel readings.

    `on_step` is called with the index of the step about to run, so that a
    tracer can tag the spans the step records.
    """

    kernel_reps: int = 1
    on_step: object = None
    steps: list[Step] = field(default_factory=list)
    readings: list[float] = field(default_factory=list)

    def time(self, fn, label: str = ""):
        self.readings.extend(kernel_ms() for _ in range(self.kernel_reps))
        if self.on_step is not None:
            self.on_step(len(self.steps))
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.steps.append(Step(label, time.perf_counter() - start))

    def ref_ms(self) -> float:
        """The run's reference kernel time: the mean of its readings."""
        return statistics.fmean(self.readings)

    def factor(self) -> float:
        """Multiplier from raw seconds to seconds at nominal kernel speed."""
        return NOMINAL_REF_MS / self.ref_ms()

    def scaled(self) -> list[float]:
        factor = self.factor()
        return [s.raw_s * factor for s in self.steps]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND values beyond it.

    Returns (value, percentile, values beyond it).  With n values that is
    the nearest-rank percentile 100 * (n - 10) / n, i.e. the 11th largest
    value.  With ten values or fewer no percentile qualifies; the maximum
    is returned with percentile 100 and nothing beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND

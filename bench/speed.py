"""Operation times rescaled to one reference machine speed.

On the shared 2-core x86-64 VM this benchmark was built on, the same
code ran up to 1.7 times slower for seconds to minutes at a time while
other tenants were busy, which swamped any change worth measuring. A
fixed reference kernel measures that speed as the run goes: a timer
signal runs it every `SAMPLE_EVERY_S` seconds, also inside long
operations, and an operation's time (less the sampler's own) is
multiplied by the mean of `REFERENCE_KERNEL_S / kernel time` over the
samples taken during it and the one on either side. The speed changes
within a tenth of a second, hence the short period; sampling costs
about a tenth of the run. The benchmark prints the raw wall times
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from tracer import SPEED

# kernel_seconds() on the machine of the seed baseline while it was quiet
REFERENCE_KERNEL_S = 0.00065
SAMPLE_EVERY_S = 0.01
KERNEL_VALUES = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2)]


def kernel_seconds(reps: int = 1) -> float:
    """Median time of a fixed sum of small-rational products: the
    Python-level `Fraction` arithmetic that dominates probterm's exact
    simplex, computed without probterm."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        total = Fraction(0)
        for a in KERNEL_VALUES:
            for b in KERNEL_VALUES:
                total += a * b - b
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled_setup(run) -> float:
    """Wall time of `run()`, scaled by kernel timings just before and after."""
    before = kernel_seconds(reps=9)
    raw = run()
    return raw * REFERENCE_KERNEL_S / ((before + kernel_seconds(reps=9)) / 2)


@dataclass
class Sample:
    op: str
    start: float
    end: float
    paused: float         # time the speed sampler took inside the operation
    check_seconds: float  # time spent in check_certificate
    scale: float = 1.0    # reference speed over machine speed while it ran

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.paused


class Speedometer:
    """Samples the machine's speed from a timer signal while in use."""

    def __init__(self, tracer=None):
        self.when: list[float] = []
        self.kernel_s: list[float] = []
        self.paused = 0.0
        self._tracer = tracer
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        k = kernel_seconds()
        t1 = perf_counter()
        if self._tracer is not None:
            self._tracer.record(SPEED, t0, t1)
        self.when.append(t0)
        self.kernel_s.append(k)
        self.paused += t1 - t0
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def rescale(self, samples: list[Sample]) -> None:
        for s in samples:
            lo = max(0, bisect.bisect_left(self.when, s.start) - 1)
            hi = bisect.bisect_right(self.when, s.end) + 1
            s.scale = statistics.fmean(REFERENCE_KERNEL_S / k for k in self.kernel_s[lo:hi])

"""CPU-speed calibration for a host whose speed drifts.

On the shared 2-vCPU host this benchmark was written on, the same
pure-Python work runs up to 1.7x slower for tens of seconds at a time, so the
raw times of two runs are not comparable.  While a pass runs, a SpeedProbe
times a fixed reference kernel from a SIGALRM handler every INTERVAL_S
seconds.  The handler's own time is tallied, so it can be taken out of
measured times.  Reported times are scaled to the kernel's nominal speed:

    calibrated = (raw - probe time) / slowdown
    slowdown = 1 / mean(NOMINAL_S / kernel time), over the block's samples

NOMINAL_S is the kernel's time when that host runs at full speed, so
calibrated times read as seconds on the unloaded host.  The kernel is the
benchmark's own code, so a change to cberlab cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 1.75e-3
INTERVAL_S = 0.25
clock = time.perf_counter

# The reference kernel mixes two kinds of work the program does, both on
# data that stays in cache, so that it measures the host's speed and not the
# cache pressure of the workload around it: interpreter-bound integer
# arithmetic, and shifts and masks of 50,000-bit integers.
_BITS = (1 << 50_000) - 1
_MASK = (1 << 49_000) - 7


def kernel_seconds() -> float:
    """Time of one run of the fixed reference kernel."""
    t = clock()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    for k in range(60):
        s += ((_BITS << k) & ~_MASK).bit_count()
    return clock() - t


class SpeedProbe:
    """Samples the reference kernel before and periodically during a `with` block."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler inside the block

    def _sample(self) -> None:
        t = clock()
        self.samples.append(kernel_seconds())
        self.spent += clock() - t

    def _tick(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Raw time over nominal time for the block.  Samples are evenly
        spaced in time, so the host's mean speed is the mean of
        NOMINAL_S / sample."""
        return 1 / statistics.fmean(NOMINAL_S / s for s in self.samples)


def slowdown_now() -> float:
    """Slowdown from a few back-to-back kernel runs, for short measurements."""
    return statistics.median(kernel_seconds() for _ in range(5)) / NOMINAL_S

"""Host-speed calibration: a fixed pure-Python kernel timed alongside the program.

The virtual machines this benchmark runs on change speed by up to 1.6 times
within a minute, the same for every piece of pure-Python code that runs at the
time.  So every time the benchmark reports is a measured time scaled to a
reference speed:

    scaled = measured * REFERENCE_S / k

where k is the typical time of kernel() measured around the measurement (the
mean of the middle half of the samples, see typical()), and REFERENCE_S is
that time on the reference machine (perfbench/README.md).
A program change that makes an operation slower makes its scaled time larger
in the same proportion; a slower host does not.

Sampler times the kernel every PERIOD_S seconds from a SIGALRM handler, in the
same thread as the operations, so the samples follow the host through long
operations.  Its own time is taken out of each operation's measured time.

The kernel is the work ballint spends its time on, mpmath arithmetic on
200-bit numbers, so that the host's fast and slow stretches move it as they
move the program.  It runs in an mpmath context of its own and never calls
ballint, so no change to the program can speed it up or slow it down.
"""

from __future__ import annotations

import bisect
import signal
import time

import mpmath

KERNEL_ORDER = 20     # kernel() runs the Legendre recurrence up to this degree
REFERENCE_S = 2.0e-4  # typical kernel() time on the reference machine, seconds
PERIOD_S = 0.05       # one kernel sample per 50 ms: about 0.5% of the time
WINDOW_S = 0.5        # samples this far before and after an interval count for it
MIN_SAMPLES = 9

_CTX = mpmath.ctx_mp.MPContext()
_CTX.prec = 200


def kernel():
    """P_KERNEL_ORDER(1/3) by the three-term recurrence, as a Gauss-Legendre rule is built."""
    x = _CTX.mpf(1) / 3
    p0, p1 = _CTX.mpf(1), x
    for j in range(2, KERNEL_ORDER + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1


def time_kernel(reps: int) -> list[float]:
    """Time the kernel reps times in a row, in this process."""
    clock = time.perf_counter
    out = []
    for _ in range(reps):
        t = clock()
        kernel()
        out.append(clock() - t)
    return out


def typical(durations: list[float]) -> float:
    """The mean of the middle half of the kernel times.  A mean follows the
    host through fast and slow stretches as an operation's time does; dropping
    the outer quarters keeps a rare preempted sample from deciding it."""
    d = sorted(durations)
    q = len(d) // 4
    middle = d[q:len(d) - q]
    return sum(middle) / len(middle)


def scale(seconds: float, kernel_s: float) -> float:
    """A measured time at the host speed the kernel time k shows, scaled to the reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Kernel samples (start, duration), taken on a timer and on demand."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def record(self, reps: int) -> None:
        for _ in range(reps):
            self._sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, a: float, b: float) -> float:
        """Time the sampler itself spent in [a, b)."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return sum(self.durations[lo:hi])

    def kernel_s(self, a: float, b: float) -> float:
        """Typical kernel time within WINDOW_S of [a, b], widened to the
        MIN_SAMPLES nearest samples where the window holds fewer."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts) or a - self.starts[lo - 1] <= self.starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        return typical(self.durations[lo:hi])

"""Timing corrected for the machine's momentary speed.

On a small shared machine the same work can take twice as long from one
second to the next, because other tenants contend for the host.  The
``CalibratedClock`` interleaves a fixed calibration kernel with the work
being timed: a wall-clock interval timer (SIGALRM) runs the kernel every
``INTERVAL_S`` seconds in the main thread, between bytecodes of whatever the
program is doing.  Each kernel run's duration over ``NOMINAL_S`` is the
machine's slowdown against its uncontended speed, and an interval's
duration is reported as

    (wall time - time spent in the kernel) / mean slowdown

over the kernel runs inside the interval: seconds at uncontended speed.
The kernel touches nothing of the program's, so outputs stay bitwise the
same.

``PlainClock`` has the same interface and reports raw wall time; the traced
run uses it so that calibration does not land inside the spans.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# Kernel runs averaged at least, widening a short interval symmetrically.
MIN_SAMPLES = 16

_SMALL = np.ones((4, 2))
_ROW = np.linspace(0.1, 0.9, 120)

# Duration of one kernel run on an uncontended 2-vCPU Intel Xeon virtual machine.
NOMINAL_S = 0.63e-3


def kernel():
    """Interpreter-bound fixed work: a Python loop of tiny numpy operations
    (like a K=4 training step) and float formatting (like the CSV writer).

    Interleaved with the program on that reference machine, it tracked the
    slowdown of the training loops, the per-row kernel calls and the CSV
    writer better than kernels that add small-array arithmetic or a
    streaming pass; large-array work is tracked by none of them.
    """
    acc = np.zeros(4)
    for _ in range(40):
        diff = _SMALL - acc[:, None]
        acc += 1e-12 * np.sum(diff * diff, axis=1)
    ",".join(repr(float(v)) for v in _ROW)


class PlainClock:
    """Raw wall time behind the CalibratedClock interface."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def now(self):
        return (time.perf_counter(), 0.0, 0)

    def seconds(self, start, end):
        return end[0] - start[0]


class CalibratedClock:
    """Context manager; ``now()`` marks an instant and ``seconds(a, b)``
    converts two marks to calibrated seconds once the run is over."""

    def __init__(self):
        self.slowdowns = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self):
        kernel()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.slowdowns.append(took / NOMINAL_S)
        self.spent += took

    def now(self):
        return (time.perf_counter(), self.spent, len(self.slowdowns))

    def speed_sample(self, lo, hi):
        """Kernel slowdowns for sample indices [lo, hi), widened to at least
        MIN_SAMPLES and clipped to the samples taken."""
        n = len(self.slowdowns)
        if hi - lo < MIN_SAMPLES:
            pad = (MIN_SAMPLES - (hi - lo) + 1) // 2
            lo, hi = lo - pad, hi + pad
            if lo < 0:
                lo, hi = 0, hi - lo
            if hi > n:
                lo, hi = max(0, lo - (hi - n)), n
        return self.slowdowns[lo:hi]

    def seconds(self, start, end):
        wall = (end[0] - start[0]) - (end[1] - start[1])
        sample = self.speed_sample(start[2], end[2])
        if not sample:
            return wall
        return wall / statistics.fmean(sample)

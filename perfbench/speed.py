"""Timings normalised to a reference CPU speed.

On a shared machine the speed of a CPU can switch between regimes many
times a second: the same pure-Python loop runs up to 1.8x slower for a few
hundred milliseconds, and the share of slow time differs from minute to
minute.  Raw wall times therefore spread by 20-40% between runs of the
same code.  A `SpeedMeter` samples the speed while the measured work runs:
every TICK_S a SIGALRM handler times a fixed calibration kernel in the
same process, on the same CPU.  A measured interval is then converted into
reference seconds, the time it would have taken at the speed at which the
kernel takes REF_KERNEL_S:

    reference = (wall - time spent in the handler) * mean(REF_KERNEL_S / kernel)

over the ticks inside the interval and the nearest tick on either side.
The kernel is benchmark code that never changes, so a faster or slower
funcseries moves the reference time in full; only the machine's speed
drops out.  The kernel mixes the kinds of work funcseries does: exact
rational arithmetic on growing integers, float maths, and dict and string
handling.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import time
from fractions import Fraction

# Ticks every 10 ms sample a regime switch within a few ticks; a 0.4 s op
# spread by 0.04 of its median at 50 ms and by 0.02 at 10 ms.
TICK_S = 0.01
# The kernel's time in the fast regime of the machine the benchmark was
# tuned on (a shared 2-vCPU x86-64 VM, Python 3.11.7; 0.55 ms in its slow
# regime).  It only sets the scale of the reported figures.
REF_KERNEL_S = 0.00031

_perf = time.perf_counter


def kernel() -> None:
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i, i * i + 1)
    x = 0.0
    for i in range(1, 600):
        x += math.exp(-i * 1e-3) / (1.0 + i)
    d = {}
    for i in range(500):
        d[i % 31] = d.get(i % 31, 0) + len(str(i))


class SpeedMeter:
    """Samples the CPU speed of this process while it is started."""

    def __init__(self):
        self.times = []  # when each tick's kernel started
        self.factors = []  # REF_KERNEL_S / kernel time, per tick
        self.spent = 0.0  # seconds spent in the handler so far
        self._previous = None
        self.running = False

    def _tick(self, signum=None, frame=None) -> None:
        t0 = _perf()
        kernel()
        t1 = _perf()
        self.times.append(t0)
        self.factors.append(REF_KERNEL_S / (t1 - t0))
        self.spent += _perf() - t0

    def start(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.running = True
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.running = False
        self._tick()

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor over [start, end]: the ticks inside it and the
        nearest one on either side (before `stop`, the ticks so far).  A
        meter that never ran leaves times as they are: 1.0."""
        if not self.times:
            return 1.0
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end) + 1, len(self.times))
        window = self.factors[lo:hi]
        return sum(window) / len(window)

    def reference(self, start: float, end: float, spent: float) -> float:
        """Reference seconds of an interval whose handler time was `spent`."""
        return (end - start - spent) * self.factor(start, end)


class Measurement:
    wall = 0.0  # seconds, without the handler's time
    seconds = 0.0  # reference seconds


@contextlib.contextmanager
def measured(normalise: bool = True):
    """Time the body of a `with` block; with `normalise` off, the reference
    seconds are the wall seconds."""
    meter = SpeedMeter()
    if normalise:
        meter.start()
    out = Measurement()
    spent = meter.spent
    start = _perf()
    try:
        yield out
    finally:
        end = _perf()
        spent = meter.spent - spent
        meter.stop()
        out.wall = end - start - spent
        out.seconds = meter.reference(start, end, spent)

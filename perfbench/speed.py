"""Host-speed probe: rescale measured time to a fixed reference speed.

The shared host this benchmark runs on changes speed by up to about 1.5x
in phases of seconds to minutes, and the process's CPU time changes with
it, so neither wall time nor CPU time of a long pass repeats.  The probe
measures the host's speed while a pass runs, in the same process and on
the same core: every ``PERIOD_S`` a ``SIGALRM`` handler runs a small fixed
kernel (interpreter loop plus small numpy calls, the mix pdwg spends its
time in) and records how long it took.  The kernel does not touch pdwg,
so a change to the program cannot change the yardstick.

``reference_seconds(start, end)`` takes the interval, drops the time the
kernels themselves took, and weighs each stretch between two samples by
``KERNEL_REF_S / k``, where ``k`` is the median kernel time of the
``2 * WINDOW`` samples around that stretch.  The result is the time the
interval would have taken on a host that runs the kernel in
``KERNEL_REF_S``.  A stretch inside one long compiled call (the sparse
LU) gets no samples of its own and takes the speed around it.  Compiled
code slows less than the interpreter does, so the more of a pass is spent
in such calls, the less the rescaling steadies it.  On the 2-vCPU KVM
guest the benchmark was defined on, the time of a 0.5 s SuperLU
factorization grew only as about the 0.4th power of the kernel's time.

The handler runs between bytecodes of the main thread, so it never
interrupts a numerical routine and leaves results bit for bit unchanged.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
WINDOW = 5
BURST = 20
# The kernel's time on the host the benchmark was defined on (2-vCPU KVM
# guest, Intel Xeon) in its fast phases; it only sets the scale of the
# reported seconds, which stay close to wall time there.
KERNEL_REF_S = 0.40e-3

_SMALL = np.arange(64.0)


def kernel() -> float:
    s = 0
    table = {}
    for i in range(3000):
        s += i * i % 7
        table[i & 63] = s
    x = _SMALL
    for _ in range(60):
        x = np.sqrt(x * 1.0001 + 1.0)
    return s + float(x[0])


def kernel_time() -> float:
    """Median time of ``BURST`` kernel runs."""
    times = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Samples the kernel's time every ``PERIOD_S`` while it is active.

    Use as a context manager around the passes to be rescaled; a burst of
    samples on entry makes sure every interval has neighbours.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.kernels: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.kernels.append(t1 - t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        for _ in range(BURST):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BURST):
            self._sample()
        return False

    def _local_kernel(self, i: int) -> float:
        lo = max(0, i - WINDOW)
        hi = min(len(self.kernels), i + WINDOW)
        return statistics.median(self.kernels[lo:hi])

    def reference_seconds(self, start: float, end: float) -> float:
        """``[start, end]`` without the probe's own time, at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        total = 0.0
        t = start
        for i in range(lo, hi):
            total += (self.starts[i] - t) / self._local_kernel(i)
            t = self.ends[i]
        total += (end - t) / self._local_kernel(hi)
        return total * KERNEL_REF_S

    def probe_seconds(self, start: float, end: float) -> float:
        """Time the probe itself took inside ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

"""Host-speed calibration with a fixed reference kernel.

The benchmark shares a small machine with other tenants, and their load
slows every instruction of this process, by up to about 2x, for stretches
of seconds to minutes. CPU time slows with wall time, so neither clock
can tell the program's cost from the host's load.

While a run measures, a timer interrupts the process every
``INTERVAL_S`` and times one call of a tiny fixed kernel. A stage's time
at the reference speed is its wall time minus the kernel calls inside it,
times ``REF_KERNEL_S`` over the mean kernel time during the stage.
``REF_KERNEL_S`` only sets the unit: the ratio of two runs' times does not
depend on it. The raw wall times and each stage's scale factor (reference
time / wall time) are printed with every result.

The kernel mixes interpreter-bound work with small numpy operations of
the sizes the taggers use, and calls no pipeline code, so a change to the
program never changes its cost.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# About the 5th percentile of the kernel's time in back-to-back calls in a
# fresh process (0.41 ms over 17000 calls) on a 2-core x86_64 host with
# Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31 pinned to 1 thread.
# Sampled calls run with colder caches, so scale factors sit below 1 there.
REF_KERNEL_S = 0.00044
INTERVAL_S = 0.02
# Windows with fewer samples borrow the nearest ones.
MIN_SAMPLES = 5

_A = np.linspace(-1.0, 1.0, 192).reshape(3, 64)
_W = np.linspace(-0.5, 0.5, 64 * 64).reshape(64, 64)


def kernel() -> float:
    d: dict[int, int] = {}
    for i in range(2000):
        k = i % 257
        d[k] = d.get(k, 0) + (i ^ k)
    h = np.zeros(64)
    for _ in range(30):
        h = np.tanh(_W @ h + _A[1])
        np.log(np.exp(_A[:, :3]).sum(axis=0))
    return len(d) + float(h[0])


class HostSpeed:
    """Samples the kernel on a timer for as long as the context is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def ref_s(self, start: float, end: float) -> float:
        """Seconds the window [start, end] would take at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.seconds[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if hi == lo:
            return end - start
        mean_s = statistics.fmean(self.seconds[lo:hi])
        return (end - start - inside) * REF_KERNEL_S / mean_s

"""How fast the machine runs while the benchmark does.

The benchmark was tuned on a shared two-core virtual machine (Xeon,
2.1 GHz) whose other tenants slow it by up to 2x, for seconds to minutes at
a time: CPU time grows as much as wall time and steal time does not move,
so the slowdown cannot be subtracted, and a run that falls in a slow period
reads up to 2x slower whatever statistic it takes over its passes.

``SpeedProbe`` pins the process to one CPU and, from a thread, times a fixed
kernel every 0.1 s: a batch of 1024 3x3 Hermitian eigendecompositions and
exponentials and a Python loop of matrix-vector products, the mix of a
Magnus block but independent of the package.  It counts the thread's CPU
time, so time slices of the workload in between do not count and
contention does.  A unit of work timed between ``start`` and ``end`` is
scaled by ``REFERENCE_S`` over the median kernel time inside that
interval.  Over runs on five seeds each, the scaled times spread by
0.02-0.07 of their median where the raw ones spread by 0.05-0.34.  The
kernel takes about 3% of the workload's CPU.

The unit of every scaled time is therefore "seconds at the tuning machine's
idle speed", since ``REFERENCE_S`` was measured there.  On another host the
figures are off its seconds by a constant factor, which cancels when two
commits are compared on that host.  The kernel runs beside the workload on
its CPU (its GIL waits are not CPU time, so they do not count), and a
program change that alters its cache traffic could shift its own factor;
perfbench/README.md records how well scaled figures followed known changes
to a copy of the package.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
# kernel time on the tuning machine with its tenants idle (1st percentile)
REFERENCE_S = 2.7e-3

_rng = np.random.default_rng(20040)
_a = _rng.standard_normal((1024, 3, 3)) + 1j * _rng.standard_normal((1024, 3, 3))
_HERMITIAN = _a + _a.conj().transpose(0, 2, 1)


def kernel() -> None:
    w, v = np.linalg.eigh(_HERMITIAN)
    u = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    psi = np.ones(3, dtype=complex)
    for k in range(100):
        psi = u[k] @ psi


class SpeedProbe:
    """Samples the kernel's duration in a thread; use as a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            started, cpu = time.perf_counter(), time.thread_time()
            kernel()
            self.durations.append(time.thread_time() - cpu)
            self.starts.append(started)

    def __enter__(self):
        # the kernel must share the workload's CPU to see the same contention
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time in [start, end] (>= 5 samples)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = max(bisect.bisect_right(self.starts, end), lo + 5)
        lo = max(0, min(lo, hi - 5))
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

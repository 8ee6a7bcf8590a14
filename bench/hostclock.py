"""Host-speed reference: rescale measured times to a nominal host speed.

On a shared host, other tenants slow the whole virtual CPU down, often by
half or more, in phases that last from under a second to many minutes.  A wall time taken
in a slow phase says more about the neighbours than about the program.  So a
timed pass also samples a fixed reference kernel, owned by the benchmark,
about every ``INTERVAL_S`` seconds: at task boundaries, and from a
``SIGALRM`` handler while a task runs.  The handler runs between Python
bytecodes, so it never splits a C call; it installs nothing in the package.

Each stretch of program time between two samples is scaled by
``NOMINAL_S / r``, where ``r`` is the mean duration of the reference kernel
in the samples at its two ends.  The sum is the time the work would have
taken on a host where the kernel takes ``NOMINAL_S``.  The kernel's own time
is never part of a task's time.  A faster program needs fewer seconds
between samples, so its rescaled time drops in proportion; only the host's
speed is divided out.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: The speed rescaled times are quoted at: a round figure for the duration
#: of :func:`reference_kernel` on a 2-core Xeon VM, where 600 runs took 8 to
#: 13 ms.  Only ratios of rescaled times carry meaning.
NOMINAL_S = 0.010
INTERVAL_S = 0.25            # program time between samples while a task runs



@functools.cache
def _operands():
    rng = np.random.default_rng(20240811)
    m = rng.standard_normal((96, 96))
    return m @ m.T + 96.0 * np.eye(96), rng.standard_normal(64)


def reference_kernel() -> float:
    """A fixed mix like the program's own: Python scalar loops, small numpy
    calls and dense LAPACK/BLAS.  Returns a checksum so nothing is skipped."""
    spd, x = _operands()
    acc = 0.0
    for i in range(30000):
        acc += (i * 0.5) % 7.0
    for k in range(300):
        acc += float(np.dot(np.sin(x * k), x))
    for _ in range(8):
        chol = np.linalg.cholesky(spd)
        acc += float(np.linalg.inv(chol)[0, 0] + (spd @ spd)[1, 1])
    return acc


def rescale_factor(samples: int = 5) -> float:
    """``NOMINAL_S`` over the median of ``samples`` kernel runs, after one
    warm-up run: the factor that rescales a time just measured."""
    reference_kernel()
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return NOMINAL_S / statistics.median(times)


class HostClock:
    """Reference samples ``(start, end)`` and the tasks they rescale."""

    def __init__(self):
        self.samples = []
        self._pending = []           # (start, end, index of the sample before)
        self._armed = False

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter()))

    def _due(self) -> float:
        """Seconds until the next sample is due."""
        return INTERVAL_S - (time.perf_counter() - self.samples[-1][1])

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextmanager
    def task(self):
        """Time one task.  Samples are taken when the last one is older than
        ``INTERVAL_S``: before the task, inside it and after it."""
        if not self.samples or self._due() <= 0:
            self.sample()
        first = len(self.samples) - 1
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, max(self._due(), 1e-3))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._pending.append((start, end, first))
            if self._due() <= 0:
                self.sample()

    def resolve(self) -> list:
        """``(raw_s, rescaled_s)`` of each task since the last call, in order."""
        if self._pending and self.samples[-1][0] < self._pending[-1][1]:
            self.sample()
        times = [self.rescale(*pending) for pending in self._pending]
        self._pending = []
        return times

    def rescale(self, start: float, end: float, first: int) -> tuple:
        """Raw and rescaled program time in ``[start, end]``.

        ``first`` indexes the last sample taken before ``start``; the samples
        after it up to the first one taken after ``end`` cut the interval
        into stretches of program time.
        """
        marks = self.samples[first:]
        raw = rescaled = 0.0
        edge = start
        for (s0, e0), (s1, e1) in zip(marks, marks[1:]):
            stretch = min(s1, end) - edge
            raw += stretch
            rescaled += stretch * NOMINAL_S / (0.5 * ((e0 - s0) + (e1 - s1)))
            edge = e1
            if s1 >= end:
                break
        return raw, rescaled

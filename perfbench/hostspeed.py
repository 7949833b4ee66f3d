"""Host-speed calibration, so timings are comparable across runs.

On a shared host two things swing a call's wall time by tens of percent from
one second to the next: the CPU a thread runs on changes speed (by up to
1.8x, each CPU on its own), and the thread is kept off the CPU for a share
of the time. So a timed call is measured in thread CPU time, which leaves
out the time off the CPU, and that time is scaled to a reference speed: a
fixed pure-Python kernel is timed (also in thread CPU time) before and after
the call and, from a SIGALRM handler, every ``EVERY_S`` seconds during it,
and the call's CPU time, less the handler's, is multiplied by ``REF_S`` over
the mean kernel time of those samples. A speed change hits the library and
the kernel alike, so the scaled time stays within a few percent while the
wall time does not. The library is single-threaded and waits for nothing, so
on an idle host the scaled time is its wall time at the reference speed.
Wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

EVERY_S = 0.05
# A round value near the kernel's time on a 2-core x86-64 VM with CPython 3.11;
# a constant, so it only sets the unit of the scaled times.
REF_S = 0.0005

_Q = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 3) for j in range(6)] for i in range(6)]
_G = [[(5 * i * i + 3 * j + 1) % 7 for j in range(9)] for i in range(9)]


def _eliminate(a, inv, reduce):
    a = [list(r) for r in a]
    n = len(a)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        f0 = inv(a[k][k])
        for i in range(k + 1, n):
            f = reduce(a[i][k] * f0)
            a[i] = [reduce(x - f * y) for x, y in zip(a[i], a[k])]
    return a


def kernel() -> None:
    """Fixed work in the library's style: Fraction and mod-p elimination."""
    _eliminate(_Q, lambda x: 1 / x, lambda x: x)
    _eliminate(_G, lambda x: pow(x, 5, 7), lambda x: x % 7)


def kernel_time() -> float:
    """Median thread CPU time of three kernel runs, in seconds."""
    reps = []
    for _ in range(3):
        t0 = time.thread_time()
        kernel()
        reps.append(time.thread_time() - t0)
    return statistics.median(reps)


class HostSpeed:
    def __init__(self):
        self.samples = []  # kernel times taken between calls
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        self.samples.append(kernel_time())
        self._last = time.perf_counter()

    def call(self, fn, *args):
        """(fn(*args), thread CPU seconds, wall seconds, token for ``scale``);
        both times leave out the handler's."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()
        inside, handler = [], [0.0, 0.0]

        def on_alarm(signum, frame):
            t0, c0 = time.perf_counter(), time.thread_time()
            inside.append(kernel_time())
            handler[0] += time.thread_time() - c0
            handler[1] += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            out = fn(*args)
        finally:
            cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return out, cpu - handler[0], wall - handler[1], (len(self.samples) - 1, inside)

    def scale(self, token) -> float:
        """Factor to the reference speed for a call; needs the sample after
        it, so call ``sample()`` once after the last timed call."""
        idx, inside = token
        return REF_S / statistics.fmean(self.samples[idx:idx + 2] + inside)

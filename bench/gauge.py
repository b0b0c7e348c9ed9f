"""Gauge of the machine's speed while an operation runs.

On a shared virtual machine the same talex operation's wall time shifts by
30-40% over seconds to minutes, with the load of other tenants, and no
estimator over a run's operations removes a shift that lasts the whole
run.  So while an operation runs, a SIGALRM handler in its own thread
times a small fixed reference computation every INTERVAL_S of wall time;
the operation's wall time, less the time those samples took, is scaled by
NOMINAL_S over the mean sample.  The result is the operation's time on a
machine that runs the reference in NOMINAL_S.  Samples are also taken
right before and right after, so that an operation shorter than the
interval still has a gauge.  The samples cost about 1-2% of the
operation's wall time and run inside whatever talex call was interrupted,
so traced self times include them.

The reference does the kinds of work talex does (exact Fraction
elimination, complex float arithmetic over small tuples, small numpy
solves, dicts keyed by exponent tuples) but calls no talex code, so a
change to talex cannot move it.  Do not change it, NOMINAL_S or
INTERVAL_S without measuring the baseline again.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Time of one reference() on the benchmark's machine when other tenants
# do not slow it (the fastest of a few thousand calls).
NOMINAL_S = 0.0012
INTERVAL_S = 0.1


def _bareiss(n: int) -> Fraction:
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5)
          for j in range(n)] for i in range(n)]
    prev = Fraction(1)
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k] or Fraction(1)
    return m[n - 1][n - 1]


def _matrix_walk(steps: int) -> complex:
    a = (0.6 + 0.1j, 0.2j, -0.3, 0.7 - 0.2j)
    x = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    for _ in range(steps):
        x = (a[0] * x[0] + a[1] * x[2], a[0] * x[1] + a[1] * x[3],
             a[2] * x[0] + a[3] * x[2], a[2] * x[1] + a[3] * x[3])
        s = abs(x[0]) + abs(x[3]) or 1.0
        x = tuple(v / s for v in x)
    return x[0] + x[3]


def _small_solves(count: int) -> float:
    rng = np.random.default_rng(7)
    total = 0.0
    for _ in range(count):
        mat = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        rhs = np.ones(6, dtype=complex)
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        total += float(np.linalg.norm(mat @ sol - rhs))
    return total


def _poly_dicts(terms: int) -> int:
    acc: dict[tuple[int, int], int] = {}
    for i in range(terms):
        key = (i % 17, (i * 7) % 13)
        acc[key] = acc.get(key, 0) + i * i
    return len(acc)


def reference() -> tuple:
    return _bareiss(6), _matrix_walk(250), _small_solves(8), _poly_dicts(1000)


class Gauge:
    """``with Gauge() as g:`` times the block and samples reference()
    `edge` times before and after it and every `interval_s` within it;
    ``g.wall`` is the block's wall time and ``g.scaled()`` the same less
    the samples taken within, at the nominal speed.  A zero interval
    samples only at the edges, for a block that waits on a child process."""

    def __init__(self, interval_s: float = INTERVAL_S, edge: int = 1):
        self.interval_s = interval_s
        self.edge = edge
        self.samples: list[float] = []
        self.inside = 0.0
        self.wall = 0.0
        self._armed = False

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        if self._armed:
            self.inside += dt

    def __enter__(self) -> "Gauge":
        for _ in range(self.edge):
            self._sample()
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                             self.interval_s)
        self._armed = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        self._armed = False
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(self.edge):
            self._sample()

    def scaled(self) -> float:
        return ((self.wall - self.inside) * NOMINAL_S
                / statistics.fmean(self.samples))


if __name__ == "__main__":
    times = []
    for _ in range(3000):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    q = statistics.quantiles(times, n=20)
    print("reference(): min %.6f s, 5th percentile %.6f s, median %.6f s"
          % (min(times), q[0], statistics.median(times)))

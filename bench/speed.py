"""Host-speed probes, and op times scaled to a fixed reference speed.

The CPU speed a process gets on a shared host is not steady. On the
2-vCPU VM this benchmark was written on, a fixed Python loop ran at one
speed for 10-20 s and then 1.5x slower for the next 10-20 s, in both wall
and CPU time. Wall times of runs a few minutes apart then spread by a
third, far past any useful bound, and medians over repetitions inside one
run do not help, because the repetitions share the slow stretch.

A probe is a short fixed piece of work of the same kinds as the program's
own: numpy ops on 65-element vectors inside a Python loop and a small
symmetric eigensolve, as in the polynomial layers, and scalar, dict and
Fraction arithmetic in plain Python, as in the LP oracle. Either kind
alone tracked one of those layers less well. A pass runs one probe before
an op whenever PROBE_EVERY_S has passed since the last one. Each op's time
is then multiplied by REF_PROBE_S over the median of the probes around
it. The result reads as seconds at the speed at which one probe takes
REF_PROBE_S, about this VM's fast speed. The probes themselves are not
counted in any op's time.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

import numpy as np

PROBE_EVERY_S = 0.03  # at most this long between two probes in a pass
WINDOW = 5  # probes on each side of an op whose median sets its speed
REF_PROBE_S = 1.2e-3  # one probe's time at the reference speed
WARM_UP = 20  # untimed probes first: a fresh process's first calls are slow
SETUP_PROBES = 9

_X = np.linspace(-1.0, 1.0, 65)
_W = np.full(65, 1.0 / 65)
_M = (np.diag(np.linspace(0.0, 1.0, 24)) + np.diag(np.full(23, 0.3), 1)
      + np.diag(np.full(23, 0.3), -1))


def _numpy_kernel():
    prev, cur = np.zeros_like(_X), np.ones_like(_X)
    for _ in range(30):
        b = float(np.dot(_W, _X * cur * cur))
        resid = (_X - b) * cur - 0.5 * prev
        prev, cur = cur, resid / (math.sqrt(float(np.dot(_W, resid * resid))) or 1.0)
    np.linalg.eigvalsh(_M)


def _python_kernel():
    acc, counts = 0.0, {}
    for i in range(600):
        acc += math.sqrt(i + 1.0) * (i % 7)
        counts[i % 37] = counts.get(i % 37, 0) + i
    frac = Fraction(0)
    for i in range(1, 40):
        frac += Fraction(i, i + 3)
    sorted((i * 7919) % 101 for i in range(300))
    return acc, frac


def probe() -> float:
    """Seconds one probe takes now."""
    t0 = time.perf_counter()
    for _ in range(2):
        _numpy_kernel()
        _python_kernel()
    return time.perf_counter() - t0


class SpeedLog:
    """The probes of one process, and the scale factors they give."""

    def __init__(self):
        self.starts = []
        self.times = []
        self._last = -math.inf
        for _ in range(WARM_UP):
            probe()

    def maybe_probe(self):
        """Run a probe if the last one is more than PROBE_EVERY_S old."""
        now = time.perf_counter()
        if now - self._last > PROBE_EVERY_S:
            self.starts.append(now)
            self.times.append(probe())
            self._last = time.perf_counter()

    def setup_factor(self) -> float:
        """Scale factor for work done just before this log was made."""
        return REF_PROBE_S / statistics.median(probe() for _ in range(SETUP_PROBES))

    def factor_at(self, t: float) -> float:
        """Scale factor for an op that started at perf_counter() time t."""
        j = bisect.bisect_right(self.starts, t)
        return REF_PROBE_S / statistics.median(self.times[max(0, j - WINDOW):j + WINDOW])

    def scale(self, starts, latencies):
        """Op times at the reference speed, indexed like the arguments."""
        return [lat * self.factor_at(t) for t, lat in zip(starts, latencies)]

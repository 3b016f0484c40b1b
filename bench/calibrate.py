"""Machine-speed calibration of the benchmark's end-to-end timings.

The benchmark runs on shared hosts whose speed changes by a factor of up
to two within seconds and drifts over minutes, while CPU time tracks wall
time: the program keeps the processor but gets less done per second.  So
while a run is timed, a fixed kernel is timed too, every ``INTERVAL_S``
seconds, from a SIGALRM handler in the benchmark's one thread; its samples
fall inside jobs as well as between them.  Each timing is then reported as

    calibrated seconds = seconds * REFERENCE_S / mean kernel seconds

over the kernel samples from ``WINDOW_S`` before the timing starts to
``WINDOW_S`` after it ends: the seconds it would have taken at the speed
where the kernel takes ``REFERENCE_S``.  The time the samples themselves
take is left out of every timing.  The kernel does the kinds of work the
program and its import do (Fraction and modular row reduction, building
sets and index maps of faces, composing permutations, making a dataclass)
and uses nothing from ``hyperhomology``, so a change to the package leaves
it as it is.
"""

from __future__ import annotations

import bisect
import dataclasses
import signal
import statistics
import time
from fractions import Fraction
from itertools import combinations

# About the kernel's mean time on the 2-core x86-64 host, CPython 3.11, that
# the benchmark was tuned on.  Only a scale: every calibrated time is
# proportional to it.
REFERENCE_S = 0.003

# The kernel runs once every INTERVAL_S seconds of wall time; a timing is
# calibrated with the samples from WINDOW_S before it to WINDOW_S after it.
INTERVAL_S = 0.05
WINDOW_S = 0.1

_P = 32003
_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7)] for i in range(6)]
_PERM = tuple((5 * i + 3) % 12 for i in range(12))


def _rank_q(rows) -> int:
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0])
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rank_p(rows) -> int:
    rows = [[int(x.numerator * pow(x.denominator, -1, _P)) % _P for x in r] for r in rows]
    rank, ncols = 0, len(rows[0])
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, _P)
        rows[rank] = [x * inv % _P for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _faces() -> int:
    edges = {frozenset(c) for k in (1, 2, 3) for c in combinations(range(9), k)}
    index = {e: n for n, e in enumerate(sorted(edges, key=lambda e: (len(e), sorted(e))))}
    boundary = {}
    for e in edges:
        if len(e) > 1:
            boundary[e] = [(index[e - {v}], (-1) ** k) for k, v in enumerate(sorted(e))]
    return len(boundary)


def _compose() -> tuple:
    p = _PERM
    for _ in range(300):
        p = tuple(_PERM[i] for i in p)
    return p


def _define() -> type:
    # the bulk of importing the package: making dataclasses, which compiles code
    return dataclasses.make_dataclass("K", [("a", int), ("b", tuple, dataclasses.field(default=()))], frozen=True)


def kernel() -> None:
    if _rank_q(_MATRIX) != _rank_p(_MATRIX):
        raise ArithmeticError("the two row reductions of the kernel disagree")
    _faces()
    _compose()
    _define()


class Calibration:
    """The kernel samples of one run."""

    def __init__(self):
        self.times = []  # perf_counter() at the start of each sample
        self.seconds = []  # the kernel's time in each sample
        self.spent = 0.0  # the samples' time, which callers leave out
        self._in_handler = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._in_handler:
            return
        self._in_handler = True
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.times.append(start)
        self.seconds.append(seconds)
        self.spent += seconds
        self._in_handler = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def calibrate(self, start: float, end: float, seconds: float) -> float:
        """``seconds``, timed from ``start`` to ``end``, in calibrated seconds."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # the process stalled past the window: take the nearest samples
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return seconds * REFERENCE_S / statistics.fmean(self.seconds[lo:hi])

    def summary(self) -> dict:
        return {
            "samples": len(self.seconds),
            "kernel_mean_s": round(statistics.fmean(self.seconds), 7),
            "kernel_min_s": round(min(self.seconds), 7),
            "kernel_max_s": round(max(self.seconds), 7),
            "spent_s": round(self.spent, 4),
        }

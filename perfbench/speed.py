"""Host-speed gauge: rescale wall times to a fixed reference speed.

The benchmark shares a few cores of a host whose speed changes by up to
1.8x, in spells that last from well under a second to minutes; CPU time
slows with wall time, so the change is in the cores' speed, not in
scheduling.  Timed alone, the same work therefore spreads by 10-25% from one
run to the next.

A gauge samples the speed *during* each timed unit of work (an operation or
a recipe call): a wall-clock interval timer interrupts the unit every
``SAMPLE_INTERVAL_S`` and times one fixed calibration slice.  The unit's
time, less the time spent in the slices, is scaled by ``REF_SLICE_S`` over
the mean slice time: the seconds the unit would have taken at the reference
speed.  The slice is the benchmark's own code, a mix like hoeg's hot path:
small dense solves, products and norms through numpy, and Python float
arithmetic.  A change to hoeg therefore moves the scaled times in full,
while a change in host speed slows the slices and the unit together.

The original ``numpy.linalg.solve`` is bound here, so a traced run does not
count the slices' solves; traced passes do not sample at all (``sample=False``),
so the slices do not enter the traced self times either.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# the slice's time at the reference speed: the slower of the two speed
# levels of a 2-core Xeon host (see README.md), where most slices fall
REF_SLICE_S = 0.0045
SAMPLE_INTERVAL_S = 0.1
SLICE_STEPS = 200
SLICE_FLOPS = 40
SLICES_PER_READING = 5

_solve = np.linalg.solve
_norm = np.linalg.norm
_A = np.array([[2.0, 0.3], [0.1, 1.5]])
_B = np.array([1.0, 2.0])


def calibration_slice() -> float:
    """Wall time of one fixed slice of small numpy calls and Python float arithmetic."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(SLICE_STEPS):
        x = _solve(_A, _B)
        acc += float(_norm(_A @ x + _B))
        for j in range(SLICE_FLOPS):
            acc += (j * 0.5 + acc * 1e-9) ** 0.5
    if acc != acc:  # uses the result, so the arithmetic is never dead code
        raise AssertionError("calibration slice produced NaN")
    return time.perf_counter() - start


def scaled(wall: float, slice_s: float) -> float:
    """``wall`` seconds measured while a slice took ``slice_s``, at the reference speed."""
    return wall * REF_SLICE_S / slice_s


class Unit:
    """One timed unit: its wall time without the slices, and that time at the reference speed."""

    wall = 0.0
    seconds = 0.0

    @property
    def scale(self) -> float:
        return self.seconds / self.wall if self.wall > 0 else 1.0


class Gauge:
    """Times units of work and samples the host speed while they run."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.slices = []        # every slice time taken, for the run's report
        self._paused = 0.0      # total time spent in slices
        self._unit_slices = None  # the running unit's slices; None outside a unit
        self._last_reading = None
        if sample:
            # installed once and never restored: a signal still pending when a
            # unit ends then runs this handler, which ignores it
            signal.signal(signal.SIGALRM, self._on_alarm)

    def clock(self) -> float:
        """A clock that stands still while a slice runs, for timing parts of a unit."""
        return time.perf_counter() - self._paused

    def read(self) -> float:
        """Median of a few slices taken now, outside any unit."""
        value = statistics.median(calibration_slice() for _ in range(SLICES_PER_READING))
        self.slices.append(value)
        return value

    @contextmanager
    def bracketed(self):
        """Time the body as a unit without interrupting it: the speed is read before and after.

        For a body that waits on a child process, which a slice would compete with.
        """
        unit = Unit()
        before = self._last_reading if self._last_reading is not None else self.read()
        start = time.perf_counter()
        try:
            yield unit
        finally:
            unit.wall = time.perf_counter() - start
            self._last_reading = self.read()
            unit.seconds = scaled(unit.wall, 0.5 * (before + self._last_reading))

    def _on_alarm(self, signum, frame) -> None:
        if self._unit_slices is None:
            return
        start = time.perf_counter()
        self._unit_slices.append(calibration_slice())
        self._paused += time.perf_counter() - start

    @contextmanager
    def unit(self):
        """Time the body as one unit; the Unit is filled in when the body ends, also by an exception."""
        unit = Unit()
        slices = self._unit_slices = []
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = self.clock()
        try:
            yield unit
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            unit.wall = self.clock() - start
            self._unit_slices = None
            if self.sample:
                if not slices:  # a unit shorter than one interval
                    slices.append(calibration_slice())
                self.slices.extend(slices)
                unit.seconds = scaled(unit.wall, statistics.fmean(slices))
            else:
                unit.seconds = unit.wall

"""
Step timing in reference seconds, which the host's changing speed does not move.

The benchmark runs on a few cores of a shared host whose speed swings by up
to about 2x within seconds, as other tenants come and go.  The slowdown
shows in CPU time as much as in wall time, so neither clock alone measures
the program.  A fixed slice of pure-Python work that does not touch
permbij (drawing and checking 321-avoiders with inputs.py) is timed right
before and right after each step, and the step's wall time is scaled by
REF_SLICE_S over the mean of the two slices.  The result is how long the
step takes on a host where one slice takes REF_SLICE_S, about this host's
uncontended speed.  Steps last well under two seconds, so that the host's
speed seldom changes between a step's two slices.
"""
from __future__ import annotations

import random
import time
from contextlib import contextmanager

import inputs

SLICE_DRAWS, SLICE_N = 80, 60
#: one slice's wall time on the reference host, in seconds
REF_SLICE_S = 0.008
#: a slice that ended this recently still speaks for the host's speed
FRESH_S = 0.02


def slice_seconds() -> float:
    """Wall time of one fixed slice of work."""
    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(SLICE_DRAWS):
        inputs.avoids_132(inputs.uniform_321_avoider(SLICE_N, rng))
    return time.perf_counter() - start


class Clock:
    """
    Times named steps: ``steps`` holds reference seconds and ``raw`` wall
    seconds.  With ``calibrate`` false no slice runs and the two agree.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.steps: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        #: wall seconds spent in slices, which callers leave out of their own totals
        self.spent = 0.0
        self._last: tuple[float, float] | None = None
        if calibrate:
            self._reading()  # warm-up

    def _reading(self) -> float:
        if self._last is None or time.perf_counter() - self._last[0] > FRESH_S:
            took = slice_seconds()
            self.spent += took
            self._last = (time.perf_counter(), took)
        return self._last[1]

    @contextmanager
    def step(self, name: str):
        before = self._reading() if self.calibrate else REF_SLICE_S
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            after = self._reading() if self.calibrate else REF_SLICE_S
            self.raw[name] = took
            self.steps[name] = took * 2 * REF_SLICE_S / (before + after)

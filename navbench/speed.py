"""Host time rescaled to a fixed reference speed of this host.

On a shared host the same work can take up to half as long again while
other tenants load the cores, and the slow spells come and go within a
second and drift over minutes. A reference burst, fixed work that touches
no dualnav code, is timed every INTERVAL_S of measured work, between loop
ticks or between MP queries. Each stretch of work between two bursts is
divided by the local burst time (the median of the WINDOW bursts on either
side) and multiplied by REF_BURST_S: the result is the time the stretch
would have taken at the reference speed, at which one burst takes
REF_BURST_S. A change that makes dualnav faster or slower moves the work
time and leaves the bursts alone, so the rescaled time moves with it.

The burst mixes the three kinds of work dualnav's loops and searches are
made of: interpreter work on small objects, floats and dicts; a Python loop
over the rows of a point array with small numpy operations on each; and
whole-array numpy calls on a few hundred points. A pure integer loop
followed the slow spells less closely.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import time

import numpy as np

from dualnav import runtime

REF_BURST_S = 2e-3       # one burst at the reference speed
INTERVAL_S = 0.05        # work between two bursts
WINDOW = 3               # bursts on either side that set the local speed

_CLOUD = np.random.default_rng(0).uniform(-5.0, 5.0, (400, 3))
_ORIGIN = np.array([0.1, 0.2, 0.3])


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def norm(self):
        return math.hypot(self.x, self.y)


def _burst() -> float:
    acc = 0.0
    counts, keys = {}, []
    for i in range(500):
        acc += _Point(0.5 * i, 0.25 * (i % 13)).norm()
        key = (i % 31, i % 7)
        counts[key] = counts.get(key, 0.0) + 1e-6 * acc
        keys.append(key)
    keys.sort()
    cells = {}
    for p in _CLOUD[:200]:
        d = p - _ORIGIN
        az = math.atan2(d[1], d[0])
        el = math.atan2(d[2], math.hypot(d[0], d[1]))
        cells.setdefault((math.floor(az / 0.1), math.floor(el / 0.1)),
                         []).append(p)
    for k in range(2):
        pts = _CLOUD + 0.01 * k
        r = np.linalg.norm(pts, axis=1)
        cells = np.floor(pts[r < 4.0] / 0.5).astype(np.int64)
        acc += float(r.sum()) + len(np.unique(cells, axis=0))
    return acc + len(counts) + len(cells)


def _timed_burst() -> float:
    tic = time.perf_counter()
    _burst()
    return time.perf_counter() - tic


class SpeedClock:
    """Measures work between bursts. start(), then tick() between units of
    work (it bursts when INTERVAL_S have passed), then stop()."""

    def __init__(self):
        self.segments = []   # (work seconds, index of the burst before it)
        self.bursts = []     # seconds of each burst
        self._since = None

    def _cut(self) -> None:
        now = time.perf_counter()
        if self._since is not None:
            self.segments.append((now - self._since, len(self.bursts) - 1))
        self.bursts.append(_timed_burst())
        self._since = time.perf_counter()

    def start(self) -> None:
        self._cut()

    def tick(self) -> None:
        if time.perf_counter() - self._since >= INTERVAL_S:
            self._cut()

    def stop(self) -> None:
        self._cut()

    def work_s(self) -> float:
        """Host seconds of work, bursts left out."""
        return sum(s for s, _ in self.segments)

    def ref_s(self) -> float:
        """Work seconds rescaled to the reference speed."""
        total = 0.0
        for seconds, before in self.segments:
            near = self.bursts[max(0, before + 1 - WINDOW):before + 1 + WINDOW]
            total += seconds * REF_BURST_S / statistics.median(near)
        return total

    @contextlib.contextmanager
    def between_ticks(self):
        """Ticks the clock before each event of the runtime's virtual
        schedule, outside the runtime's own per-tick timer."""
        orig = runtime.virtual_schedule
        clock = self

        def schedule(rates, duration):
            for event in orig(rates, duration):
                clock.tick()
                yield event

        runtime.virtual_schedule = schedule
        try:
            yield self
        finally:
            runtime.virtual_schedule = orig

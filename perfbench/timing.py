"""Clocks for the benchmark: CPU time, and a probe of the host's speed.

The benchmark runs on shared hosts whose speed drifts by 10-25% over tens of
seconds (other tenants share the cores, caches and memory bus). Two things
keep the figures steady:

- durations are taken in CPU time of the process (user + system, all
  threads), which time the host gives to other tenants does not inflate.
  The workload computes on one thread, so on a core of its own CPU time and
  wall time agree;
- a fixed probe (numpy GEMM, softmax-style elementwise work, a Python loop
  and a 16 MB allocation and fill; it uses nothing from ``fot``) runs before
  every operation and once after the last. Against ``PROBE_NOMINAL_S`` it
  gives the host's speed, and each operation's CPU time is scaled to the
  nominal speed by the mean of the probes around and inside it (or of a
  whole region of them). Long operations run the probe inside too, because
  two probes seconds apart say little about the seconds in between; the
  probes' own time is taken out of the operation's. Over 30 s windows of
  decode calls this took the spread of the mean from 7.0% to 1.3%
  (coefficient of variation, 7 windows).
"""

from __future__ import annotations

import resource
import time

import numpy as np

WALL, CPU, NORM = 0, 1, 2     # columns of ``SpeedProbe.views``

# CPU seconds of one probe on the host the benchmark was written on
# (2-core x86-64, OpenBLAS on one thread); fixed, so normalised figures from
# different runs and commits compare directly.
PROBE_NOMINAL_S = 0.023


def stamp() -> np.ndarray:
    """(wall, process CPU) seconds. Wall time steers the loops; the metrics
    are taken in CPU time."""
    return np.array([time.perf_counter(), time.process_time()])


def another(elapsed: np.ndarray, last: np.ndarray, seconds: float) -> bool:
    """Start another operation if, lasting as long as the last one, it would
    end no more than half of it past the wall budget: a run then overshoots
    by at most half an operation and never loses most of one to the rule."""
    return elapsed[WALL] + last[WALL] / 2 <= seconds


class SpeedProbe:
    """Times a fixed mix of work between operations."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 256), dtype=np.float32)
        self._b = rng.random((256, 1024), dtype=np.float32)
        self._x = rng.random((4, 256, 288), dtype=np.float32)
        self.samples: list[float] = []
        self.cost: list[np.ndarray] = []     # stamp difference of each probe
        self.faults: list[int] = []          # minor page faults of each probe

    def __call__(self) -> int:
        """Run the probe; returns its index, which the next operation keeps."""
        s0 = stamp()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.process_time()
        for _ in range(8):
            self._a @ self._b
        for _ in range(6):
            y = np.exp(self._x - self._x.max(axis=-1, keepdims=True))
            y /= y.sum(axis=-1, keepdims=True)
        total = 0
        for i in range(40000):
            total += i
        fresh = np.ones(4 << 20, dtype=np.float32)
        fresh *= 2
        self.samples.append(time.process_time() - t0)
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        self.cost.append(stamp() - s0)
        return len(self.samples) - 1

    def op(self) -> "_Op":
        """Context for one operation: probe before it, time it, and note
        which probes ran inside it (the one after is the next one run)."""
        return _Op(self)

    def views(self, timed: list[tuple[np.ndarray, int, int]],
              region: tuple[int, int] | None = None) -> np.ndarray:
        """[n, 3] wall, CPU and normalised CPU seconds of operations given as
        (stamp difference, index of the probe before, index of the probe
        after). Probes inside an operation are taken out of its time. The
        speed is the mean of the probes from before to after, or of probes
        ``region[0]:region[1]`` when given."""
        out = np.empty((len(timed), 3))
        for row, (dt, i, j) in zip(out, timed):
            dt = dt - sum(self.cost[i + 1:j], np.zeros(2))
            lo, hi = region if region is not None else (i, j + 1)
            speed = float(np.mean(self.samples[lo:hi]))
            row[:] = dt[WALL], dt[CPU], dt[CPU] * PROBE_NOMINAL_S / speed
        return out

    def host_speed(self) -> float:
        """Nominal over measured probe time for the whole run (< 1: slow host)."""
        return PROBE_NOMINAL_S / float(np.mean(self.samples))


class _Op:
    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.timed: tuple[np.ndarray, int, int] | None = None

    def __enter__(self) -> "_Op":
        self._before = self.probe()
        self._t0 = stamp()
        return self

    def __exit__(self, *exc) -> None:
        self.timed = (stamp() - self._t0, self._before, len(self.probe.samples))


class SetupClock:
    """Times ``build`` half the repeats before the timed region and half
    after it, so the median covers the same stretch of host load as the run."""

    def __init__(self, build, repeats: int, probe: SpeedProbe):
        self.build, self.repeats, self.probe = build, repeats, probe
        self.times: list[tuple[np.ndarray, int, int]] = []

    def run(self):
        state = None
        for _ in range(self.repeats // 2):
            with self.probe.op() as op:
                state = self.build()
            self.times.append(op.timed)
        self.probe()
        return state

    def median(self) -> np.ndarray:
        return np.median(self.probe.views(self.times), axis=0)

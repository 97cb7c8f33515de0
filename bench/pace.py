"""The machine's pace during the timed loop, probed from inside the worker.

The shared VM this benchmark runs on changes speed in phases that last from
seconds to minutes: the same round of states took from 0.8 to 1.6 times
its usual time within two minutes, and a whole run can fall inside one
phase. A wall
clock alone then measures the phase as much as the program.

`PaceProbe` times a fixed plain-numpy kernel every PERIOD_S seconds of the
timed loop, from a SIGALRM handler. Python runs the handler between
bytecodes of the main thread, so probes fall between the program's numpy
calls, never inside one. The kernel is batched qubit-grid work of the kind
the workloads do (an einsum building conditional blocks, then a batched
`eigvalsh`), so it slows down and speeds up with the machine much as they
do. It never changes: the program's code does not run in it.

`normalised_s(start, end)` is the program's time between two instants, with
the probes' own time taken out and every stretch between probes scaled by
REFERENCE_S over the duration of the probe that bounds it: the seconds the
stretch would have taken at the pace where the kernel takes REFERENCE_S.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.05
# about the kernel's median duration inside the timed loop on the reference
# machine (README.md); it sets the scale of the normalised seconds, so that
# they read close to wall-clock seconds there, and cancels in any comparison
REFERENCE_S = 0.0075
_SEED = 2011


class PaceProbe:
    def __init__(self):
        rng = np.random.default_rng(_SEED)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = g @ g.conj().T
        self._view = (rho / np.trace(rho).real).reshape(2, 8, 2, 8)
        self._vecs = rng.standard_normal((256, 2, 2)) + 1j * rng.standard_normal((256, 2, 2))
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def kernel(self) -> float:
        blocks = np.einsum("nia,abcd,nic->nibd", self._vecs.conj(), self._view, self._vecs)
        return float(np.linalg.eigvalsh(blocks).sum())

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        for _ in range(20):  # warm the kernel's code paths before the first probe
            self.kernel()
        self._probe(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe(None, None)
        return False

    def normalised_s(self, start: float, end: float) -> float:
        """Program time in [start, end] at the reference pace (see the module doc).

        The probes that began inside the window split it into stretches.
        Each stretch is paced by the mean duration of the two probes around
        it: the last one before it and the first one after it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        total, t = 0.0, start
        for j in range(lo, hi + 1):
            stop = self.starts[j] if j < hi else end
            total += max(stop - t, 0.0) * REFERENCE_S / self._pace(j)
            if j < hi:
                t = self.ends[j]
        return total

    def _pace(self, j: int) -> float:
        """Mean duration of probes j - 1 and j, the two around a stretch."""
        j = min(max(j, 1), len(self.starts) - 1)
        return (self.ends[j] - self.starts[j] + self.ends[j - 1] - self.starts[j - 1]) / 2

    def median_s(self) -> float:
        d = sorted(e - s for s, e in zip(self.starts, self.ends))
        return d[len(d) // 2]

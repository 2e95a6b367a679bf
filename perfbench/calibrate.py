"""Machine-speed calibration of the end-to-end timings.

The benchmark runs on shared machines whose speed drifts within minutes by
far more than a change to the program should be judged by. On the 2-core VM
of the baseline one formula-oracle item took 65 ms in one 20-second window
and 101 ms two minutes later, while its ratio to the time of KERNEL, a fixed
numpy computation of the same kind, stayed within 5 %: whatever slows the
program slows the kernel as much. Over three minutes the window medians of a
crossval item, a formula call and a cli call spread by 8-11 % (quartile
distance over median) in wall time and by 2-3 % as ratios to the kernel.
The speed also changes within seconds, so the kernel timings just before
and just after an item track it better than a median of several.

So the untraced run takes every timing in *reference seconds*. The kernel
is timed again between items once INTERVAL_S have passed since its last
run, which splits the run into intervals, and the wall seconds of each
interval are multiplied by the mean of ``NOMINAL_S / t`` over the kernel's
timings ``t`` at its start and at its end. A reference second is a wall
second on a machine on which the kernel takes NOMINAL_S. The kernel calls
numpy only, never the program, so a change to the program moves the
figures in full; the time spent calibrating is left out of every figure.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's time on the baseline machine (2-core VM, numpy 2.4.6 with
#: scipy-openblas 0.3.31, BLAS threads left at their default).
NOMINAL_S = 0.025
INTERVAL_S = 0.25
#: Set-up is rescaled by the median of this many kernel timings.
SETUP_SAMPLES = 3

_QUBITS = 8
# a fixed dense complex matrix; numpy.random is not imported, to keep the
# kernel's memory out of the workloads' peak resident set
_STATE = np.exp(1j * np.arange(4**_QUBITS, dtype=float)).reshape(2**_QUBITS, 2**_QUBITS)
_OP = np.array([[0.6, 0.8j], [-0.8j, 0.6]])


def kernel() -> float:
    """Conjugate a 256x256 state by a 2x2 operator on each of its qubits.

    The same reshaped matmuls as the program's ``conjugate_on_qubit``, which
    does most of the work of every workload, but written here so that a
    change to the program cannot change the kernel.
    """
    d = _STATE.shape[0]
    total = 0.0
    for qubit in range(_QUBITS):
        left = 2**qubit
        out = np.matmul(_OP, _STATE.reshape(left, 2, -1)).reshape(d, d)
        out = np.matmul(_OP.conj(), out.reshape(d * left, 2, -1)).reshape(d, d)
        total += float(np.sum(out * _STATE.T).real)
    return total


class WallClock:
    """Wall seconds; what the traced run and the reference recording use.

    Times are recorded as *stamps*, (wall seconds, calibration interval), and
    turned into clock seconds by ``seconds()`` once the run is over, so that
    a calibrated clock can rescale each interval by the kernel timings on
    both sides of it.
    """

    def __init__(self):
        self.factors = [1.0]  # the speed factor measured at the start of each interval
        self.segments = []  # stamps of the time between checkpoints
        self.mark = time.perf_counter()

    def stamp(self, seconds: float) -> tuple:
        """Tag an item's wall seconds with the calibration interval it ran in."""
        return seconds, len(self.factors) - 1

    def checkpoint(self) -> int:
        """Record the time since the last checkpoint; return the segment count.

        Workloads call it before each item and ``run.py`` around each round,
        so a round's time is the sum of its segments.
        """
        now = time.perf_counter()
        self.segments.append(self.stamp(now - self.mark))
        self.mark = now
        return len(self.segments)

    def close(self) -> None:
        """End the last interval; call it before ``seconds()``."""

    def seconds(self, stamps) -> float:
        """Clock seconds of stamped wall seconds: each interval is rescaled
        by the mean of the factors measured at its start and at its end."""
        last = len(self.factors) - 1
        return sum(wall * (self.factors[k] + self.factors[min(k + 1, last)]) / 2
                   for wall, k in stamps)


class CalibratedClock(WallClock):
    """Reference seconds: wall seconds rescaled by the machine's current speed."""

    def __init__(self):
        kernel()  # first call pays page faults and BLAS start-up
        super().__init__()
        self.factors = [self.sample() for _ in range(SETUP_SAMPLES)]
        #: the factor by which set-up, timed just before this clock, is rescaled
        self.setup_factor = statistics.median(self.factors)
        self.mark = time.perf_counter()

    def sample(self) -> float:
        """Time the kernel once; return the speed factor that timing gives."""
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        return NOMINAL_S / (self.last - start)

    def checkpoint(self) -> int:
        count = super().checkpoint()
        if self.mark - self.last >= INTERVAL_S:
            self.close()
        return count

    def close(self) -> None:
        self.factors.append(self.sample())
        self.mark = time.perf_counter()

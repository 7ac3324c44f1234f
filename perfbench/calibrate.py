"""Host-speed calibration of the end-to-end timings.

The reference machine (2 vCPUs shared with other tenants) changes
speed by up to a factor of 1.6 over minutes, inside the guest's own
CPU time: a fixed loop takes longer per CPU second, and no steal time
is reported.  A run cannot outlast such a phase, so its raw timings
read the host as much as the program.

Each run therefore interleaves a fixed reference kernel with its work
and reports every end-to-end time divided by the host's slowdown: the
mean kernel time over the run, over the kernel's time on the
reference machine.  The kernel is the program's kind of work — a
Python loop of small ``numpy`` gate applications on a 6-qubit state, a
batched 10-qubit tensor step and a dict of counts — and uses nothing
from ``src/``, so a change to the program cannot move it.  In 20
alternating 20-second runs over 7.5 minutes in which the host sped up
by half, dividing by it cut the spread of the runs' raw throughput
(IQR/median) from 0.21 to 0.09 for ``split_compile`` and from 0.27 to
0.12 for ``table1``.

The slowdown is the mean, not the median, of the samples: kernel times
are bimodal (each core flips between two speeds within seconds), and a
median jumps between the modes where a mean weighs them by time, as
the run's own timings do; the median made both spreads worse.  The
flips are per core (two cores' kernel times correlated at r = 0.08),
so the kernel must run where the work does: in the closed loops' own
thread, and on every core for the service's workers.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

# a typical kernel time on the reference machine (a run's mean ranged
# 4.7-8.7 ms across the host's phases); calibrated values read as
# seconds on that machine at that speed
REFERENCE_S = 0.0065

PACE_S = 0.5  # run seconds per kernel sample in the closed loops

_rng = np.random.default_rng(0)
_GATES = [
    (int(_rng.integers(6)),
     np.linalg.qr(_rng.normal(size=(2, 2)) + 1j * _rng.normal(size=(2, 2)))[0])
    for _ in range(120)
]
_OUTCOMES = _rng.integers(64, size=2000).tolist()
_STEP = np.eye(2) * 0.7


def reference_work() -> float:
    """One fixed unit of simulator-like work; returns a checksum."""
    psi = np.zeros((2,) * 6, dtype=complex)
    psi[(0,) * 6] = 1.0
    for qubit, matrix in _GATES:
        psi = np.moveaxis(np.tensordot(matrix, psi, axes=([1], [qubit])),
                          0, qubit)
    checksum = float((np.abs(psi) ** 2).sum())
    shots = np.ones((64,) + (2,) * 10)
    for axis in range(1, 11):
        shots = np.moveaxis(
            np.tensordot(_STEP, shots, axes=([1], [axis])), 0, axis
        )
        weights = np.arange(64.0)
        checksum += float((weights * weights + 1).sum())
    counts = {}
    for outcome in _OUTCOMES:
        key = format(outcome, "06b")
        counts[key] = counts.get(key, 0) + 1
    return checksum + len(counts)


class Calibration:
    """Reference-kernel samples taken between units of a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        reference_work()  # first call pays numpy's lazy set-up
        self._started = time.perf_counter()

    def keep_pace(self) -> float:
        """Sample until there is one sample per ``PACE_S`` of the run.

        Called between units, so a long unit is followed by several
        samples and the slowdown weighs the host's speed by time, as
        the run's own timings do.  Returns the seconds spent sampling.
        """
        spent = 0.0
        while len(self.samples) * PACE_S < time.perf_counter() - self._started:
            spent += self.sample()
        return spent

    def sample(self) -> float:
        """Time one kernel call; returns the seconds it took."""
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self) -> float:
        """Mean kernel time over the reference machine's; 1 unsampled."""
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / REFERENCE_S

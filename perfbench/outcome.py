"""What one measured run of a workload hands back to ``run.py``."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile by nearest rank; 0.0 for no samples.

    Nearest rank returns a measured value, never an interpolation
    across the gap between two kinds of unit.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


@dataclass
class Sweep:
    """One pass of a closed loop over the workload's inputs."""

    wall_s: float
    latencies: List[float]


@dataclass
class Outcome:
    """Units attempted, failures, and the timings of completed units.

    Closed loops record their ``sweeps``; the open loop records in
    ``wall_s`` its workers' busy seconds per worker, so its throughput
    is the rate the service sustains while busy, not the offered rate.
    ``layer`` carries per-layer metrics only the workload can compute
    (per-benchmark row times, service-side figures).  ``slowdown`` is
    the host's, from :mod:`perfbench.calibrate`.
    """

    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    sweeps: List[Sweep] = field(default_factory=list)
    wall_s: float = 0.0
    problems: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    cpu_per_wall: float = 0.0
    slowdown: float = 1.0
    kernel_samples: int = 0

    @property
    def completed(self) -> int:
        return len(self.latencies)

    def fail(self, unit: str, problems: List[str]) -> None:
        """Count one failed unit; keep the first few reasons."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{unit}: {'; '.join(problems)}")

    def add_sweep(self, wall_s: float, latencies: List[float]) -> None:
        self.sweeps.append(Sweep(wall_s, latencies))
        self.latencies.extend(latencies)
        self.wall_s += wall_s

    def end_to_end(self) -> Dict[str, float]:
        """Throughput and latency percentiles at the reference speed.

        The raw figures of :meth:`raw_end_to_end`, with the host's
        slowdown taken out.
        """
        raw = self.raw_end_to_end()
        return {
            "throughput_per_s": raw["throughput_per_s"] * self.slowdown,
            "latency_p50_s": raw["latency_p50_s"] / self.slowdown,
            "latency_p90_s": raw["latency_p90_s"] / self.slowdown,
        }

    def raw_end_to_end(self) -> Dict[str, float]:
        """Throughput and latency percentiles as timed on this host.

        The open loop's latencies are its jobs'.  A closed loop's unit
        times are a fixed mixture of circuits whose percentiles would
        each be one circuit's time, so its latency is the sweep's: the
        time to one evaluation of every Table I row, or to protecting
        every library circuit once.  Its throughput is the median over
        sweeps of each sweep's rate: the shared machine's speed drifts
        over seconds, and a median is not set by one slow stretch.
        """
        if not self.sweeps:
            return {
                "throughput_per_s": self.completed / self.wall_s,
                "latency_p50_s": nearest_rank(self.latencies, 50),
                "latency_p90_s": nearest_rank(self.latencies, 90),
            }
        sweep_s = [sweep.wall_s for sweep in self.sweeps]
        return {
            "throughput_per_s": statistics.median(
                len(s.latencies) / s.wall_s for s in self.sweeps
            ),
            "latency_p50_s": nearest_rank(sweep_s, 50),
            "latency_p90_s": nearest_rank(sweep_s, 90),
        }

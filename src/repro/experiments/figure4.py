"""Experiment E2: regenerate Figure 4.

Distribution of the Total Variation Distance against the theoretical
output, per benchmark, for (a) the obfuscated circuit ``RC`` — whose
TVD should be large, approaching 1 for the bigger rd circuits — and
(b) the restored circuit after split compilation — whose TVD should be
small (it equals 1 - accuracy, so only residual hardware noise
remains).

The paper shows boxplot-style distributions over iterations; this
harness reports min / quartiles / max per series and renders a text
boxplot.  As a framework spec it shares Table I's cell grid and task —
same (benchmark, iteration) cells, same seeding — with its own
aggregator building the TVD series.

Run as a script (thin wrapper over ``repro experiment run figure4``)::

    python -m repro.experiments.figure4 [--iterations N] [--shots S]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.pipeline import EvaluationResult
from .framework import ExperimentSpec, register, run_experiment
from .table1 import (
    TABLE1_SPEC,
    AggregateResult,
    aggregate_table,
    table_cells,
    table_task,
)

__all__ = ["TvdSeries", "generate_figure4", "render_figure4", "main",
           "FIGURE4_SPEC"]


@dataclass
class TvdSeries:
    """Five-number summary of one TVD distribution."""

    label: str
    values: List[float]

    @property
    def minimum(self) -> float:
        return float(np.min(self.values))

    @property
    def q1(self) -> float:
        return float(np.percentile(self.values, 25))

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    @property
    def q3(self) -> float:
        return float(np.percentile(self.values, 75))

    @property
    def maximum(self) -> float:
        return float(np.max(self.values))

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def ascii_box(self, width: int = 40) -> str:
        """Render the five-number summary on a [0, 1] axis."""
        def pos(v: float) -> int:
            return min(int(round(v * (width - 1))), width - 1)

        line = [" "] * width
        lo, hi = pos(self.minimum), pos(self.maximum)
        for i in range(lo, hi + 1):
            line[i] = "-"
        for i in range(pos(self.q1), pos(self.q3) + 1):
            line[i] = "="
        line[pos(self.median)] = "#"
        return "".join(line)


def _series_from_aggregates(
    results: Dict[str, AggregateResult],
) -> Dict[str, Dict[str, TvdSeries]]:
    figure: Dict[str, Dict[str, TvdSeries]] = {}
    for name, aggregate in results.items():
        figure[name] = {
            "obfuscated": TvdSeries(
                f"{name}/obfuscated", aggregate.tvd_obfuscated_values
            ),
            "restored": TvdSeries(
                f"{name}/restored", aggregate.tvd_restored_values
            ),
        }
    return figure


def _aggregate_figure4(
    config: Dict[str, Any], results: Dict[str, Any]
) -> Dict[str, Dict[str, TvdSeries]]:
    return _series_from_aggregates(aggregate_table(config, results))


FIGURE4_SPEC = register(
    ExperimentSpec(
        name="figure4",
        description="Figure 4: TVD distributions of obfuscated vs "
        "restored circuits (Sec. V)",
        defaults=dict(TABLE1_SPEC.defaults),
        make_cells=table_cells,
        task=table_task,
        aggregate=_aggregate_figure4,
        render=lambda figure: render_figure4(figure),
        encode=lambda result: result.to_dict(),
        decode=EvaluationResult.from_dict,
        # same cells, task, and defaults as table1 -> share its
        # checkpoints: a finished table1 run renders figure4 for free
        store_as="table1",
    )
)


def generate_figure4(
    iterations: int = 20,
    shots: int = 1000,
    seed: Optional[int] = 2025,
    benchmarks: Optional[Sequence[str]] = None,
    results: Optional[Dict[str, AggregateResult]] = None,
    jobs: int = 1,
) -> Dict[str, Dict[str, TvdSeries]]:
    """Compute TVD distributions; reuses Table I results when given."""
    if results is not None:
        return _series_from_aggregates(results)
    report = run_experiment(
        "figure4",
        {
            "iterations": iterations,
            "shots": shots,
            "seed": seed,
            "benchmarks": list(benchmarks) if benchmarks else None,
        },
        jobs=jobs,
    )
    return report.result


def render_figure4(figure: Dict[str, Dict[str, TvdSeries]]) -> str:
    """Text rendering: per-benchmark boxplots on a shared [0,1] axis."""
    width = 40
    lines = [
        "TVD vs theoretical output            0" + " " * (width - 8) + "1",
        "-" * (38 + width),
    ]
    for name, series in figure.items():
        for kind in ("obfuscated", "restored"):
            s = series[kind]
            lines.append(
                f"{name:>14s} {kind:>10s} "
                f"[{s.ascii_box(width)}] med={s.median:.3f}"
            )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate Figure 4",
        epilog="thin wrapper over `repro experiment run figure4` — use "
        "that for checkpointed / resumable / sharded runs",
    )
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--benchmarks", nargs="*")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers (deterministic for a fixed seed)",
    )
    args = parser.parse_args(argv)
    figure = generate_figure4(
        iterations=args.iterations,
        shots=args.shots,
        seed=args.seed,
        benchmarks=args.benchmarks,
        jobs=args.jobs,
    )
    print(render_figure4(figure))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Table I workloads: seeded pipeline evaluations, as in Sec. V.

One unit is one ``TetrisLockPipeline.evaluate`` call — a noisy
reference run, then obfuscate, split, two untrusted compiles,
recombine and noisy re-runs.  Units are seeded like
``repro.experiments.table1.table_task``: the run seed's
``SeedSequence`` spawns one child per evaluation, which seeds a fresh
``default_rng`` for the pipeline.  Evaluations run in whole sweeps over
the workload's rows, so every run measures the same mixture.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np

from repro.core.pipeline import EvaluationResult, TetrisLockPipeline
from repro.revlib.benchmarks import TABLE1_PAPER_VALUES, load_benchmark

from .calibrate import Calibration
from .outcome import Outcome
from .spans import Tracer

PAPER_SHOTS = 1000
ACCURACY_CHANGE_LIMIT = 0.2
# below the paper's shot count the accuracy change carries binomial
# sampling noise; the limit widens by this many standard errors so a
# correct program does not fail the check by chance
SAMPLING_Z = 4.0
WARMUP_SEED = 2**40


def accuracy_change_limit(result: EvaluationResult, shots: int) -> float:
    if shots >= PAPER_SHOTS:
        return ACCURACY_CHANGE_LIMIT
    a, b = result.accuracy_original, result.accuracy_restored
    stderr = math.sqrt((a * (1 - a) + b * (1 - b)) / shots)
    return ACCURACY_CHANGE_LIMIT + SAMPLING_Z * stderr


def check_evaluation(
    result: EvaluationResult, record, shots: int
) -> List[str]:
    """Every way *result* disagrees with Table I or with its own shots."""
    paper = TABLE1_PAPER_VALUES[record.name]
    problems = []
    if result.depth_original != paper["depth"]:
        problems.append(f"depth {result.depth_original} != {paper['depth']}")
    if result.depth_obfuscated != paper["depth_obf"]:
        problems.append(
            f"obfuscated depth {result.depth_obfuscated} != "
            f"{paper['depth_obf']}"
        )
    if result.gates_original != paper["gates"]:
        problems.append(f"gates {result.gates_original} != {paper['gates']}")
    if not result.depth_preserved:
        problems.append("depth not preserved")
    if not 1 <= result.inserted_gates <= 4:
        problems.append(f"{result.inserted_gates} inserted gates")
    if result.gates_obfuscated != result.gates_original + result.inserted_gates:
        problems.append("obfuscated gate count != original + inserted")
    if result.expected_bitstring != record.expected_output_bits():
        problems.append("wrong expected output bits")
    for label, counts in (
        ("original", result.counts_original),
        ("obfuscated", result.counts_obfuscated),
        ("restored", result.counts_restored),
    ):
        if sum(counts.values()) != shots:
            problems.append(f"{label} counts sum to {sum(counts.values())}")
    limit = accuracy_change_limit(result, shots)
    if not result.accuracy_change < limit:
        problems.append(
            f"accuracy change {result.accuracy_change:.3f} >= {limit:.3f}"
        )
    return problems


# The Table I rows with <=7 qubits at the paper's shots, where states
# are small and per-call fixed costs show, then rd73 (10 qubits) at
# reduced shots, where general-Kraus channel steps on a 2^10-amplitude
# shot tensor dominate.  The per-row times (core.pipeline.evaluate_s.*)
# separate a change that helps large states from one that costs small.
TABLE1_SWEEP = (
    ("mini_alu", PAPER_SHOTS),
    ("4mod5", PAPER_SHOTS),
    ("one_bit_adder", PAPER_SHOTS),
    ("4gt11", PAPER_SHOTS),
    ("4gt13", PAPER_SHOTS),
    ("rd53", PAPER_SHOTS),
    ("rd73", 50),
)


class Table1Workload:
    """Seeded evaluations of each ``(name, shots)`` row, in whole sweeps."""

    layers_in_process = True
    sweep = TABLE1_SWEEP

    def setup(self) -> None:
        """Warm-up: one single-shot evaluation per circuit.

        It runs every first-use path and fills what the first of the
        paper's 20 iterations per row fills — the original circuit's
        compile and its noise plan — which every later iteration of a
        Table I row reuses.
        """
        self.records = {name: load_benchmark(name) for name, _ in self.sweep}
        for record in self.records.values():
            self._evaluate(
                record, record.circuit(), 1,
                np.random.SeedSequence(WARMUP_SEED), Tracer(enabled=False),
            )

    def close(self) -> None:
        pass

    def _evaluate(
        self, record, circuit, shots: int, seed, tracer: Tracer
    ) -> EvaluationResult:
        pipeline = TetrisLockPipeline(
            shots=shots, gate_limit=4, seed=np.random.default_rng(seed)
        )
        with tracer.span("core.pipeline.evaluate", tag=record.name):
            return pipeline.evaluate(
                circuit,
                name=record.name,
                output_qubits=record.output_qubits,
            )

    def run(
        self, seed: int, seconds: float, tracer: Tracer,
        calibration: Calibration,
    ) -> Outcome:
        root = np.random.SeedSequence(seed)
        outcome = Outcome()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            sweep_start = time.perf_counter()
            calibrating_s = 0.0  # kept out of the sweep's wall time
            latencies = []
            for name, shots in self.sweep:
                child = root.spawn(1)[0]
                outcome.attempted += 1
                record = self.records[name]
                circuit = record.circuit()
                began = time.perf_counter()
                try:
                    result = self._evaluate(
                        record, circuit, shots, child, tracer
                    )
                except Exception as exc:  # counted, reported, run goes on
                    outcome.fail(name, [f"{type(exc).__name__}: {exc}"])
                    continue
                latencies.append(time.perf_counter() - began)
                problems = check_evaluation(result, record, shots)
                if problems:
                    outcome.fail(name, problems)
                calibrating_s += calibration.keep_pace()
            outcome.add_sweep(
                time.perf_counter() - sweep_start - calibrating_s, latencies
            )
        for name, durations in tracer.tagged_totals(
            "core.pipeline.evaluate"
        ).items():
            outcome.layer[f"core.pipeline.evaluate_s.{name}"] = (
                sum(durations) / len(durations)
            )
        return outcome

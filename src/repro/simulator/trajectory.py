"""Shot-based simulation with optional noise (quantum trajectories).

For noiseless circuits with only terminal measurements, a single
statevector evolution through the cached execution plan plus
multinomial sampling is used (identical statistics).  With a
:class:`~repro.noise.model.NoiseModel` attached, the shots run as an
ensemble of trajectories through the noise-bound plan executor
(:mod:`repro.simulator.noisy`): bound Kraus channels are sampled after
each gate, measurements collapse the state, and readout errors flip
the recorded classical bits.

``trajectories="legacy"`` keeps the original per-shot Python loop, one
statevector per shot.  It is the exact-in-distribution reference the
tests check the batched executor against, not a production path;
*chunk_size* likewise exists for the chunk-independence tests.

This mirrors how Qiskit Aer's statevector method executes the paper's
``FakeValencia`` experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from .counts import Counts, counts_from_outcomes, remap_bits
from .statevector import Statevector, format_bitstring

__all__ = [
    "TRAJECTORY_MODES",
    "TrajectorySimulator",
    "measures_are_terminal",
    "run_counts",
    "terminal_distribution",
    "sample_terminal_counts",
]

# trajectory-ensemble implementations: "batched" evolves all shots in
# chunked tensors through the noise-bound plan executor
# (:mod:`repro.simulator.noisy`); "legacy" is the per-shot reference
# loop the tests compare it with
TRAJECTORY_MODES = ("batched", "legacy")


def terminal_distribution(
    circuit: QuantumCircuit, *, fuse: str = "full"
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Final-state outcome distribution of a noiseless circuit.

    Evolves the statevector once (measures and barriers skipped) and
    returns the little-endian probability vector together with the
    ``(qubit, clbit)`` map of the terminal measurements.  This is the
    expensive half of the noiseless fast path; :func:`sample_terminal_counts`
    is the cheap half, so one evolution can serve many samplings —
    the service layer's request coalescer relies on exactly that split.

    The circuit runs through the cached, fused execution plan (see
    :mod:`repro.execution.plan`); ``fuse="none"`` applies one op per
    gate with the per-instruction kernel's arithmetic.
    """
    from ..execution.plan_cache import get_plan

    compiled = get_plan(circuit, fuse)
    n = circuit.num_qubits
    batch = np.zeros((1,) + (2,) * n, dtype=complex)
    batch[(0,) * (n + 1)] = 1.0
    tensor = compiled.execute(batch)[0]
    # same little-endian flatten + |amp|^2 as
    # ``Statevector.probabilities``
    vec = tensor.transpose(tuple(reversed(range(n)))).reshape(-1)
    return (vec.conj() * vec).real.copy(), list(compiled.measured)


def sample_terminal_counts(
    probs: np.ndarray,
    measured: List[Tuple[int, int]],
    num_qubits: int,
    num_clbits: int,
    shots: int,
    rng: np.random.Generator,
) -> Counts:
    """Sample a :class:`Counts` histogram from a final distribution.

    Draws are bit-identical to ``TrajectorySimulator._run_fast`` for
    the same *rng* state: same normalisation, same ``rng.choice`` call,
    same vectorised bit gather.
    """
    outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    if not measured:
        # measure-all semantics: every qubit reported
        return counts_from_outcomes(outcomes, num_qubits, shots=shots)
    mapped = remap_bits(outcomes, measured)
    return counts_from_outcomes(mapped, max(num_clbits, 1), shots=shots)


class TrajectorySimulator:
    """Noisy (or ideal) shot sampler for quantum circuits."""

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        seed: Optional[Union[int, np.random.Generator]] = None,
        *,
        fuse: str = "full",
        trajectories: str = "batched",
        chunk_size: Optional[int] = None,
    ) -> None:
        """*fuse* sets the plan fusion level (see
        :mod:`repro.execution.plan`): the noiseless fast path uses fused
        noiseless plans, and the default ``trajectories="batched"``
        ensemble runs through cached noise-bound plans
        (:mod:`repro.execution.noise_plan`) in chunks of *chunk_size*
        shots (default: whole batch, memory-capped; counts do not
        depend on it).  ``trajectories="legacy"`` selects the per-shot
        reference loop, where noise channels and collapses anchor to
        individual gates.
        """
        if trajectories not in TRAJECTORY_MODES:
            raise ValueError(
                f"unknown trajectories mode {trajectories!r}; expected "
                f"one of {', '.join(TRAJECTORY_MODES)}"
            )
        if chunk_size is not None and int(chunk_size) <= 0:
            raise ValueError("chunk_size must be positive")
        self.noise_model = noise_model
        self.fuse = fuse
        self.trajectories = trajectories
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, shots: int = 1000) -> Counts:
        """Execute *circuit* for *shots* and return the histogram.

        Circuits without measurements are treated as measure-all: the
        returned bitstrings cover every qubit.  Circuits with explicit
        measures report their classical register.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        noiseless = self.noise_model is None or self.noise_model.is_trivial()
        if noiseless and measures_are_terminal(circuit):
            return self._run_fast(circuit, shots)
        return self._run_trajectories(circuit, shots)

    # ------------------------------------------------------------------
    def _run_fast(self, circuit: QuantumCircuit, shots: int) -> Counts:
        probs, measured = terminal_distribution(circuit, fuse=self.fuse)
        return sample_terminal_counts(
            probs,
            measured,
            circuit.num_qubits,
            circuit.num_clbits,
            shots,
            self._rng,
        )

    # ------------------------------------------------------------------
    def _run_trajectories(self, circuit: QuantumCircuit, shots: int) -> Counts:
        if self.trajectories == "batched":
            return self._run_batched(circuit, shots)
        from .noisy import record_trajectory_mode

        record_trajectory_mode("legacy")
        histogram: Dict[str, int] = {}
        explicit_measures = circuit.has_measurements()
        num_clbits = (
            max(circuit.num_clbits, 1) if explicit_measures else circuit.num_qubits
        )
        for _ in range(shots):
            key = self._single_trajectory(
                circuit, explicit_measures, num_clbits
            )
            histogram[key] = histogram.get(key, 0) + 1
        return Counts(histogram, shots=shots)

    def _run_batched(self, circuit: QuantumCircuit, shots: int) -> Counts:
        """Chunked tensor ensemble through the noise-bound plan tier.

        Statistically equivalent to the per-shot loop (every channel
        family and mid-circuit collapse included), but with different
        per-site seeding — at a fixed seed the counts differ from
        ``trajectories="legacy"`` while both converge to the same
        distribution.  Derives one entropy integer from the simulator's
        generator so repeated ``run`` calls stay independent.
        """
        from ..execution.plan_cache import get_noise_plan
        from .noisy import record_trajectory_mode, run_noise_plan

        noise_plan = get_noise_plan(circuit, self.noise_model, self.fuse)
        record_trajectory_mode("batched")
        entropy = int(self._rng.integers(0, 2 ** 63))
        return run_noise_plan(
            noise_plan,
            shots,
            entropy=entropy,
            dtype=np.complex128,
            chunk_size=self.chunk_size,
        )

    def _single_trajectory(
        self,
        circuit: QuantumCircuit,
        explicit_measures: bool,
        num_clbits: int,
    ) -> str:
        state = Statevector(circuit.num_qubits)
        clbits = 0
        for inst in circuit:
            if inst.is_barrier:
                continue
            if inst.is_measure:
                qubit, clbit = inst.qubits[0], inst.clbits[0]
                outcome = state.measure_qubit(qubit, self._rng)
                outcome = self._apply_readout(qubit, outcome)
                clbits = (clbits & ~(1 << clbit)) | (outcome << clbit)
                continue
            state.apply_matrix(inst.operation.matrix, inst.qubits)
            self._apply_noise(state, inst)
        if explicit_measures:
            return format_bitstring(clbits, num_clbits)
        # measure-all semantics for unmeasured circuits
        bits = 0
        for qubit in range(circuit.num_qubits):
            outcome = state.measure_qubit(qubit, self._rng)
            outcome = self._apply_readout(qubit, outcome)
            bits |= outcome << qubit
        return format_bitstring(bits, num_clbits)

    # ------------------------------------------------------------------
    def _apply_noise(self, state: Statevector, inst) -> None:
        if self.noise_model is None:
            return
        for bound in self.noise_model.errors_for(inst):
            qubits = bound.resolve(inst)
            self._apply_channel(state, bound.channel, qubits)

    def _apply_channel(self, state: Statevector, channel, qubits) -> None:
        """Sample one Kraus branch and renormalise (trajectory step)."""
        operators = channel.kraus_operators
        if len(operators) == 1:
            state.apply_matrix(operators[0], qubits)
            return
        mixed_probs = getattr(channel, "mixed_unitary_probs", None)
        if mixed_probs is not None:
            # mixed-unitary fast path: state-independent probabilities.
            # The cumulative table and pre-scaled branch matrices are
            # cached on the channel (same expressions, so the draws and
            # applied operators are bit-identical to recomputing them)
            cumulative = getattr(channel, "mixed_unitary_cumulative", None)
            if cumulative is None:
                cumulative = np.cumsum(mixed_probs)
            index = int(np.searchsorted(cumulative, self._rng.random()))
            index = min(index, len(operators) - 1)
            scaled = getattr(channel, "mixed_unitary_scaled", None)
            if scaled is not None:
                op = scaled[index]
                if op is not None:
                    state.apply_matrix(op, qubits)
                return
            weight = mixed_probs[index]
            if weight > 0:
                state.apply_matrix(
                    operators[index] / np.sqrt(weight), qubits
                )
            return
        draw = self._rng.random()
        cumulative = 0.0
        saved = state.copy()
        last = len(operators) - 1
        positive = None  # last branch with positive weight so far
        for index, op in enumerate(operators):
            state.apply_matrix(op, qubits)
            weight = state.norm() ** 2
            cumulative += weight
            if weight > 0:
                positive = index
            if draw < cumulative or index == last:
                if positive is not None and positive != index:
                    # a draw above the rounded cumulative total fell
                    # through to a zero-weight last operator: clamp to
                    # the last branch with positive weight
                    state._tensor = saved._tensor.copy()
                    state.apply_matrix(operators[positive], qubits)
                state._tensor = state._tensor / state.norm()
                return
            state._tensor = saved._tensor.copy()

    def _apply_readout(self, qubit: int, outcome: int) -> int:
        if self.noise_model is None:
            return outcome
        error = self.noise_model.readout_error(qubit)
        if error is None:
            return outcome
        return error.apply(outcome, self._rng)


def measures_are_terminal(circuit: QuantumCircuit) -> bool:
    """True when no gate follows a measurement on any qubit.

    The execution layer's dispatch rule: terminal-measure circuits can
    be sampled from one final state (statevector / batched engines);
    mid-circuit measurement forces per-shot collapse.
    """
    measured = set()
    for inst in circuit:
        if inst.is_measure:
            measured.add(inst.qubits[0])
        elif inst.is_gate and measured.intersection(inst.qubits):
            return False
    return True


def run_counts(
    circuit: QuantumCircuit,
    shots: int = 1000,
    noise_model: Optional[NoiseModel] = None,
    seed: Optional[Union[int, np.random.Generator]] = None,
) -> Counts:
    """One-call helper: simulate *circuit* and return its counts."""
    return TrajectorySimulator(noise_model, seed).run(circuit, shots)

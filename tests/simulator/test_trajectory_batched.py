"""Batched trajectory ensembles vs the legacy per-shot reference.

The contract under test (see ``repro/simulator/noisy.py``):

* ``trajectories="legacy"`` is bit-identical to the pre-plan per-shot
  engine at pinned seeds (the hard-coded dicts below were captured on
  the pre-refactor implementation), and clamps a uniform above the
  rounded cumulative total like the batched executor does;
* the batched ensemble is statistically equivalent to legacy for every
  channel family (mixed-unitary, general Kraus, mid-circuit measures);
* counts are independent of the chunk size for a fixed seed —
  ``chunk_size=1`` and ``chunk_size=64`` are bit-identical;
* the one-qubit general-Kraus kernel agrees with legacy on the
  fake-backend model, on a dense dominant operator (the fallback) and
  never samples a zero Kraus operator;
* knobs validate: ``trajectories``/``chunk_size`` live on
  :class:`TrajectorySimulator` only (``run()`` takes neither), and the
  per-mode counters record which implementation ran.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.execution import ChannelBinding, run
from repro.metrics import tvd_counts
from repro.noise import (
    NoiseModel,
    QuantumChannel,
    ReadoutError,
    amplitude_damping,
    bit_flip,
    depolarizing,
    fake_valencia,
    tensor_channel,
    thermal_relaxation,
)
from repro.simulator.noisy import (
    _apply_channel_chunk,
    _sample_branches,
    default_chunk_size,
    reset_trajectory_mode_counts,
    trajectory_mode_counts,
)
from repro.simulator.statevector import Statevector
from repro.simulator.trajectory import TrajectorySimulator


def _circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).rz(0.3, 1).cx(1, 2).x(2)
    for q in range(3):
        qc.measure(q, q)
    return qc


def _mixed_model():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing(0.02), ["h", "x", "rz"])
    model.add_all_qubit_quantum_error(
        depolarizing(0.05, num_qubits=2), ["cx"]
    )
    model.add_readout_error(ReadoutError(0.03, 0.06), 0)
    model.add_readout_error(ReadoutError(0.02, 0.01), 2)
    return model


def _kraus_model():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(amplitude_damping(0.08), ["h", "x"])
    model.add_all_qubit_quantum_error(
        thermal_relaxation(50.0, 70.0, 2.0), ["cx"]
    )
    return model


def _mid_circuit():
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.x(0)
    qc.cx(0, 1)
    qc.measure(1, 1)
    return qc


def _mid_model():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(bit_flip(0.1), ["x", "h"])
    model.add_readout_error(ReadoutError(0.05, 0.05), 0)
    return model


def _valencia_circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).x(2).cx(1, 2).h(1)
    for q in range(3):
        qc.measure(q, q)
    return qc


def _rotated_amplitude_damping(gamma):
    """Amplitude damping towards |+>: the dominant operator is dense."""
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return QuantumChannel(
        [
            hadamard @ op @ hadamard
            for op in amplitude_damping(gamma).kraus_operators
        ],
        name="rotated_amplitude_damping",
    )


class _FixedUniform:
    """Stand-in generator whose every uniform draw is *value*."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _random_qubit_states(shots, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(shots, 2)) + 1j * rng.normal(size=(shots, 2))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


class TestLegacyBitIdentity:
    """Pinned pre-refactor outputs — the legacy path must not move."""

    def test_mixed_unitary_with_readout(self):
        sim = TrajectorySimulator(_mixed_model(), 123, trajectories="legacy")
        assert dict(sim.run(_circuit(), 400)) == {
            "100": 171, "011": 182, "010": 16, "000": 9,
            "101": 14, "001": 2, "110": 2, "111": 4,
        }

    def test_general_kraus(self):
        sim = TrajectorySimulator(_kraus_model(), 7, trajectories="legacy")
        assert dict(sim.run(_circuit(), 300)) == {
            "011": 115, "100": 150, "010": 5, "000": 12,
            "001": 5, "101": 8, "111": 5,
        }

    def test_mid_circuit_measurement(self):
        sim = TrajectorySimulator(_mid_model(), 42, trajectories="legacy")
        assert dict(sim.run(_mid_circuit(), 300)) == {
            "01": 127, "10": 134, "00": 21, "11": 18,
        }

    def test_backend_noise_model(self):
        model = fake_valencia().noise_model()
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure(0, 0)
        qc.measure(1, 1)
        sim = TrajectorySimulator(model, 99, trajectories="legacy")
        assert dict(sim.run(qc, 200)) == {
            "00": 100, "11": 92, "01": 4, "10": 4,
        }

    def test_unmeasured_circuit(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        sim = TrajectorySimulator(_mid_model(), 5, trajectories="legacy")
        assert dict(sim.run(qc, 200)) == {
            "00": 86, "11": 104, "10": 6, "01": 4,
        }


class TestLegacyClamp:
    def test_top_uniform_takes_last_positive_branch(self):
        # thermal relaxation's last Kraus operator (PD1 * AD1) is exactly
        # zero; a uniform above the rounded cumulative total must take
        # the last branch with positive weight, never leave the state
        # unperturbed (which is no branch of the channel)
        channel = thermal_relaxation(50e-6, 70e-6, 1e-6)
        operators = channel.kraus_operators
        assert not operators[-1].any()
        sim = TrajectorySimulator(None, 0, trajectories="legacy")
        sim._rng = _FixedUniform(np.nextafter(1.0, 0.0))
        for psi in _random_qubit_states(2000, 5):
            state = Statevector(1, psi)
            sim._apply_channel(state, channel, [0])
            branches = [op @ psi for op in operators]
            last = max(
                i for i, b in enumerate(branches) if np.linalg.norm(b) > 0
            )
            expected = branches[last] / np.linalg.norm(branches[last])
            np.testing.assert_allclose(
                state.to_vector(), expected, atol=1e-12
            )


class TestBatchedEquivalence:
    """TVD(batched, legacy) within shot noise per channel family."""

    @pytest.mark.parametrize(
        "circuit,model",
        [
            (_circuit(), _mixed_model()),
            (_circuit(), _kraus_model()),
            (_mid_circuit(), _mid_model()),
        ],
        ids=["mixed-readout", "general-kraus", "mid-circuit"],
    )
    def test_distributions_agree(self, circuit, model):
        shots = 8000
        legacy = TrajectorySimulator(
            model, 11, trajectories="legacy"
        ).run(circuit, shots)
        batched = TrajectorySimulator(
            model, 22, trajectories="batched"
        ).run(circuit, shots)
        assert tvd_counts(legacy, batched) < 0.035

    def test_trivial_model_matches_noiseless_exactly(self):
        qc = _circuit()
        trivial = run(qc, 500, noise_model=NoiseModel(), seed=9)
        noiseless = run(qc, 500, seed=9)
        assert trivial == noiseless


class TestChunkInvariance:
    def test_chunk_sizes_are_bit_identical(self):
        reference = None
        for chunk in (1, 7, 64, None):
            sim = TrajectorySimulator(
                _mixed_model(), 123, trajectories="batched", chunk_size=chunk
            )
            counts = dict(sim.run(_circuit(), 400))
            if reference is None:
                reference = counts
            assert counts == reference, f"chunk_size={chunk} diverged"

    def test_kraus_chunk_invariance(self):
        reference = None
        for chunk in (1, 64):
            sim = TrajectorySimulator(
                _kraus_model(), 3, trajectories="batched", chunk_size=chunk
            )
            counts = dict(sim.run(_circuit(), 300))
            if reference is None:
                reference = counts
            assert counts == reference

    def test_default_chunk_size_caps_memory(self):
        assert default_chunk_size(100, 2) == 100  # whole batch
        assert default_chunk_size(10 ** 9, 21) == 1
        assert default_chunk_size(4096, 12) == min(4096, 1 << 9)


class TestKnobsAndRouting:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="trajectories"):
            TrajectorySimulator(None, 0, trajectories="vectorised")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            TrajectorySimulator(None, 0, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            TrajectorySimulator(None, 0, chunk_size=-1)

    def test_run_takes_no_ensemble_knobs(self):
        with pytest.raises(TypeError, match="trajectories"):
            run(_circuit(), 10, trajectories="legacy")
        with pytest.raises(TypeError, match="chunk_size"):
            run(_circuit(), 10, chunk_size=13)

    def test_legacy_reference_records_its_mode(self):
        reset_trajectory_mode_counts()
        TrajectorySimulator(_mixed_model(), 1, trajectories="legacy").run(
            _circuit(), 50
        )
        assert trajectory_mode_counts()["legacy"] == 1

    def test_default_noisy_dispatch_is_batched(self):
        reset_trajectory_mode_counts()
        run(_circuit(), 50, noise_model=_mixed_model(), seed=1)
        counts = trajectory_mode_counts()
        assert counts["batched"] == 1 and counts["legacy"] == 0

    def test_seed_determinism_across_runs(self):
        a = run(
            _circuit(), 300, noise_model=_mixed_model(), seed=17
        )
        b = run(
            _circuit(), 300, noise_model=_mixed_model(), seed=17
        )
        assert a == b

    def test_chunk_size_invariant_on_simulator(self):
        base = TrajectorySimulator(_mixed_model(), 17).run(_circuit(), 300)
        chunked = TrajectorySimulator(
            _mixed_model(), 17, chunk_size=13
        ).run(_circuit(), 300)
        assert chunked == base


class TestGeneralKrausKernel:
    """The dominant-branch kernel for one-qubit general-Kraus channels."""

    def test_fake_backend_chunk_sizes_are_bit_identical(self):
        model = fake_valencia().noise_model()
        counts = [
            dict(
                TrajectorySimulator(
                    model, 31, trajectories="batched", chunk_size=chunk
                ).run(_valencia_circuit(), 500)
            )
            for chunk in (1, 64)
        ]
        assert counts[0] == counts[1]

    def test_fake_backend_matches_legacy(self):
        model = fake_valencia().noise_model()
        shots = 8000
        legacy = TrajectorySimulator(
            model, 11, trajectories="legacy"
        ).run(_valencia_circuit(), shots)
        batched = TrajectorySimulator(
            model, 22, trajectories="batched"
        ).run(_valencia_circuit(), shots)
        assert tvd_counts(legacy, batched) < 0.035

    def test_non_diagonal_dominant_operator_falls_back(self):
        channel = _rotated_amplitude_damping(0.15)
        assert channel.branch_table.dominant_diag is None
        model = NoiseModel()
        model.add_all_qubit_quantum_error(channel, ["h", "x", "rz"])
        shots = 8000
        legacy = TrajectorySimulator(
            model, 11, trajectories="legacy"
        ).run(_circuit(), shots)
        batched = TrajectorySimulator(
            model, 22, trajectories="batched"
        ).run(_circuit(), shots)
        assert tvd_counts(legacy, batched) < 0.035

    def test_two_qubit_general_kraus_channel_runs(self):
        channel = tensor_channel(
            amplitude_damping(0.1), thermal_relaxation(50.0, 70.0, 5.0)
        )
        assert channel.branch_table.kind == "kraus"
        model = NoiseModel()
        model.add_all_qubit_quantum_error(channel, ["cx"])
        shots = 8000
        legacy = TrajectorySimulator(
            model, 11, trajectories="legacy"
        ).run(_circuit(), shots)
        batched = TrajectorySimulator(
            model, 22, trajectories="batched"
        ).run(_circuit(), shots)
        assert sum(batched.values()) == shots
        assert tvd_counts(legacy, batched) < 0.035

    def test_zero_kraus_operators_are_dropped(self):
        relax = thermal_relaxation(50.0, 70.0, 2.0)
        assert len(relax.kraus_operators) == 4
        assert len(relax.branch_table.operators) == 3
        gate_error = fake_valencia().noise_model().errors_for(
            QuantumCircuit(1).h(0).instructions[0]
        )[0].channel
        assert len(gate_error.kraus_operators) == 16
        assert len(gate_error.branch_table.operators) == 12

    @pytest.mark.parametrize(
        "channel",
        [
            thermal_relaxation(50.0, 70.0, 2.0),
            depolarizing(0.01).compose(thermal_relaxation(80.0, 60.0, 0.5)),
        ],
        ids=["thermal-relaxation", "composed-gate-error"],
    )
    def test_top_uniform_never_zeroes_a_trajectory(self, channel):
        # a uniform just below 1 exceeds the rounded cumulative total on
        # some states; it must not select a zero Kraus operator
        binding = ChannelBinding(channel, (0,))
        states = _random_qubit_states(2000, 5)
        uniforms = np.full(len(states), np.nextafter(1.0, 0.0))
        out = _apply_channel_chunk(states.copy(), binding, uniforms)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), 1.0, atol=1e-12
        )

    def test_top_uniform_takes_last_positive_branch(self):
        norms = np.array([[0.07], [0.08], [0.0]])
        uniforms = np.array([np.nextafter(1.0, 0.0)])
        assert np.cumsum(norms / norms.sum())[-1] < uniforms[0]
        branches, scale = _sample_branches(norms, uniforms)
        assert branches.tolist() == [1]
        np.testing.assert_allclose(scale, [1.0 / np.sqrt(0.08)])

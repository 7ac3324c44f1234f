"""Tests for the composable pass-manager subsystem."""

import pytest

from repro.circuits import QuantumCircuit
from repro.noise import fake_valencia
from repro.transpiler import (
    CouplingMap,
    Layout,
    PassManager,
    PropertySet,
    optimization_passes,
    optimize_circuit,
    preset_schedule,
    routed_equivalent,
    translate_to_basis,
    transpile,
)
from repro.transpiler.passmanager import (
    AnalysisPass,
    CancelInversePairsPass,
    FullLayout,
    GreedyLayoutPass,
    PadToDevice,
    RemoveIdentitiesPass,
    RoutePass,
    SetLayout,
    TransformationPass,
    TranslateToBasis,
    TrivialLayoutPass,
)


def _bell_plus_junk():
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).x(2).x(2).i(1)
    return qc


class TestPropertySet:
    def test_attribute_access(self):
        props = PropertySet(coupling="c")
        assert props.coupling == "c"
        props["layout"] = "l"
        assert props.layout == "l"

    def test_missing_attribute(self):
        with pytest.raises(AttributeError):
            PropertySet().nothing


class TestPassManager:
    def test_transformation_passes_rewrite(self):
        qc = _bell_plus_junk()
        pm = PassManager([RemoveIdentitiesPass(), CancelInversePairsPass()])
        out, props = pm.run(qc)
        assert out.size() == 2  # h + cx survive, x/x pair and id dropped
        assert qc.size() == 5  # input untouched

    def test_analysis_pass_leaves_circuit_alone(self):
        qc = _bell_plus_junk()
        props = PropertySet(coupling=CouplingMap.full(3))
        out, props = PassManager([GreedyLayoutPass()]).run(qc, props)
        assert out is qc
        assert sorted(props["layout"].virtual_qubits) == [0, 1, 2]

    def test_pass_timings_recorded_in_order(self):
        qc = _bell_plus_junk()
        pm = PassManager([RemoveIdentitiesPass(), CancelInversePairsPass()])
        _, props = pm.run(qc)
        timings = props["pass_timings"]
        assert list(timings) == ["RemoveIdentities", "CancelInversePairs"]
        assert all(t >= 0.0 for t in timings.values())

    def test_repeated_pass_accumulates_one_entry(self):
        qc = _bell_plus_junk()
        pm = PassManager(
            [CancelInversePairsPass(), CancelInversePairsPass()]
        )
        _, props = pm.run(qc)
        assert list(props["pass_timings"]) == ["CancelInversePairs"]

    def test_append_chains(self):
        pm = PassManager().append(RemoveIdentitiesPass())
        assert len(pm) == 1

    def test_custom_pass_classification(self):
        assert GreedyLayoutPass().is_analysis
        assert not TranslateToBasis().is_analysis
        assert isinstance(FullLayout(), AnalysisPass)
        assert isinstance(PadToDevice(), TransformationPass)


class TestPresetSchedule:
    def test_schedule_structure_by_level(self):
        names = [p.name for p in preset_schedule(optimization_level=0)]
        assert names == [
            "TranslateToBasis",
            "GreedyLayout",
            "PadToDevice",
            "FullLayout",
            "Route",
            "TranslateToBasis",
        ]
        level2 = [p.name for p in preset_schedule(optimization_level=2)]
        assert level2[6:] == [
            "RemoveIdentities",
            "CancelInversePairs",
            "FuseSingleQubitRuns",
            "CancelInversePairs",
        ]

    def test_layout_method_selection(self):
        assert any(
            isinstance(p, TrivialLayoutPass)
            for p in preset_schedule(layout_method="trivial")
        )
        pinned = preset_schedule(initial_layout=Layout({0: 1}))
        assert any(isinstance(p, SetLayout) for p in pinned)

    def test_unknown_layout_method_rejected(self):
        with pytest.raises(ValueError):
            preset_schedule(layout_method="sabre")

    def test_manual_schedule_matches_transpile(self, transpile_cache_off):
        """Running the preset schedule by hand reproduces transpile()."""
        qc = _bell_plus_junk()
        backend = fake_valencia()
        coupling = CouplingMap(
            backend.coupling_edges, num_qubits=backend.num_qubits
        )
        props = PropertySet(coupling=coupling)
        circuit, props = PassManager(
            preset_schedule(optimization_level=2)
        ).run(qc, props)
        result = transpile(qc, backend=backend, optimization_level=2)
        assert circuit == result.circuit
        assert props["initial_layout"] == result.initial_layout
        assert props["final_layout"] == result.final_layout
        assert props["swap_count"] == result.swap_count

    def test_route_pass_records_layout_properties(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        coupling = CouplingMap.line(3)
        props = PropertySet(coupling=coupling)
        circuit, props = PassManager(
            [TranslateToBasis(), TrivialLayoutPass(), PadToDevice(),
             FullLayout(), RoutePass()]
        ).run(qc, props)
        assert props["swap_count"] >= 1
        assert props["initial_layout"] == Layout({0: 0, 1: 1, 2: 2})
        assert circuit.num_qubits == 3


class TestTranspileResultTimings:
    def test_transpile_surfaces_pass_timings(self, transpile_cache_off):
        result = transpile(_bell_plus_junk())
        assert "TranslateToBasis" in result.pass_timings
        assert "Route" in result.pass_timings
        assert result.compile_seconds == pytest.approx(
            sum(result.pass_timings.values())
        )
        assert not result.from_cache

    def test_level_controls_optimization_passes(self, transpile_cache_off):
        level0 = transpile(_bell_plus_junk(), optimization_level=0)
        assert "RemoveIdentities" not in level0.pass_timings
        level2 = transpile(_bell_plus_junk(), optimization_level=2)
        assert "FuseSingleQubitRuns" in level2.pass_timings


class TestOptimizeCircuitWrapper:
    def test_level_zero_is_identity(self):
        qc = _bell_plus_junk()
        assert optimize_circuit(qc, level=0) is qc

    def test_matches_pass_sequence(self):
        qc = translate_to_basis(_bell_plus_junk())
        by_wrapper = optimize_circuit(qc, level=2)
        by_manager, _ = PassManager(optimization_passes(2)).run(qc)
        assert by_wrapper == by_manager

    def test_transpile_still_equivalent_end_to_end(self, transpile_cache_off):
        qc = _bell_plus_junk()
        for level in (0, 1, 2, 3):
            result = transpile(
                qc, coupling=CouplingMap.line(3), optimization_level=level
            )
            assert routed_equivalent(qc, result)

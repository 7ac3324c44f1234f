"""Tests for structural hashing and the transpile cache."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.noise import fake_valencia
from repro.transpiler import (
    CouplingMap,
    Layout,
    TranspileCache,
    circuit_structural_hash,
    get_transpile_cache,
    transpile,
)
from repro.transpiler.cache import coupling_cache_key, layout_cache_key


@pytest.fixture(autouse=True)
def _clean_global_cache():
    get_transpile_cache().clear()
    yield
    get_transpile_cache().clear()


def _circuit():
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).rz(0.25, 2).ccx(0, 1, 2)
    return qc


class TestStructuralHash:
    def test_equal_circuits_hash_equal(self):
        assert circuit_structural_hash(_circuit()) == circuit_structural_hash(
            _circuit()
        )

    def test_gate_order_matters(self):
        a = QuantumCircuit(2)
        a.h(0).x(1)
        b = QuantumCircuit(2)
        b.x(1).h(0)
        assert circuit_structural_hash(a) != circuit_structural_hash(b)

    def test_parameters_matter(self):
        a = QuantumCircuit(1)
        a.rz(0.1, 0)
        b = QuantumCircuit(1)
        b.rz(0.2, 0)
        assert circuit_structural_hash(a) != circuit_structural_hash(b)

    def test_register_sizes_matter(self):
        a = QuantumCircuit(2)
        b = QuantumCircuit(3)
        assert circuit_structural_hash(a) != circuit_structural_hash(b)

    def test_unitary_matrix_hashes_content(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        a = QuantumCircuit(1)
        a.unitary(x, [0], label="mystery")
        b = QuantumCircuit(1)
        b.unitary(z, [0], label="mystery")
        assert circuit_structural_hash(a) != circuit_structural_hash(b)

    def test_measure_clbits_matter(self):
        a = QuantumCircuit(1, 2)
        a.measure(0, 0)
        b = QuantumCircuit(1, 2)
        b.measure(0, 1)
        assert circuit_structural_hash(a) != circuit_structural_hash(b)

    def test_key_helpers(self):
        assert coupling_cache_key(CouplingMap.line(3)) == (
            3,
            ((0, 1), (1, 2)),
        )
        assert layout_cache_key(None) is None
        assert layout_cache_key(Layout({1: 0, 0: 2})) == ((0, 2), (1, 0))


class TestTranspileCacheHits:
    def test_second_compile_is_a_hit(self):
        backend = fake_valencia()
        fresh = transpile(_circuit(), backend=backend, optimization_level=2)
        cached = transpile(_circuit(), backend=backend, optimization_level=2)
        assert not fresh.from_cache
        assert cached.from_cache
        stats = get_transpile_cache().stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_cached_result_bit_identical(self, transpile_cache_off):
        """A hit must be indistinguishable from a fresh compile."""
        backend = fake_valencia()
        uncached = transpile(_circuit(), backend=backend, optimization_level=2)
        transpile_cache_off.enabled = True
        fresh = transpile(_circuit(), backend=backend, optimization_level=2)
        cached = transpile(_circuit(), backend=backend, optimization_level=2)
        assert not uncached.from_cache and cached.from_cache
        for other in (cached, uncached):
            assert other.circuit == fresh.circuit
            assert other.initial_layout == fresh.initial_layout
            assert other.final_layout == fresh.final_layout
            assert other.swap_count == fresh.swap_count
            assert other.source_num_qubits == fresh.source_num_qubits
        # the hit reports the original compile's timings
        assert cached.pass_timings == fresh.pass_timings

    def test_hit_carries_the_callers_circuit_name(self):
        """Structurally identical circuits share a cache entry, but the
        returned circuit must be named after the request, not whichever
        circuit populated the cache first."""
        backend = fake_valencia()
        foo = _circuit()
        foo.name = "foo"
        bar = _circuit()
        bar.name = "bar"
        transpile(foo, backend=backend)
        hit = transpile(bar, backend=backend)
        assert hit.from_cache
        assert hit.circuit.name == "bar"

    def test_hit_is_mutation_isolated(self):
        backend = fake_valencia()
        first = transpile(_circuit(), backend=backend)
        first.circuit.measure_all()
        first.final_layout.swap_physical(0, 1)
        second = transpile(_circuit(), backend=backend)
        assert not second.circuit.has_measurements()
        assert second.final_layout != first.final_layout

    def test_key_discriminates_level_layout_and_device(self):
        backend = fake_valencia()
        transpile(_circuit(), backend=backend, optimization_level=1)
        variants = [
            transpile(_circuit(), backend=backend, optimization_level=2),
            transpile(_circuit(), backend=backend, layout_method="trivial"),
            transpile(
                _circuit(), backend=backend, initial_layout=[2, 1, 0]
            ),
            transpile(_circuit(), coupling=CouplingMap.line(5)),
        ]
        assert not any(v.from_cache for v in variants)

    def test_use_cache_false_bypasses(self, transpile_cache_off):
        """Switching the cache off bypasses entries it already holds."""
        backend = fake_valencia()
        transpile_cache_off.enabled = True
        transpile(_circuit(), backend=backend)
        transpile_cache_off.enabled = False
        again = transpile(_circuit(), backend=backend)
        assert not again.from_cache
        assert len(transpile_cache_off) == 1

    def test_globally_disabled_cache(self):
        cache = get_transpile_cache()
        cache.enabled = False
        try:
            backend = fake_valencia()
            transpile(_circuit(), backend=backend)
            again = transpile(_circuit(), backend=backend)
            assert not again.from_cache
            assert len(cache) == 0
        finally:
            cache.enabled = True


class TestTranspileCacheContainer:
    def test_lru_eviction(self, transpile_cache_off):
        cache = TranspileCache(maxsize=2)
        backend = fake_valencia()
        results = {}
        for i in range(3):
            qc = QuantumCircuit(2)
            qc.rz(0.1 * (i + 1), 0)
            results[i] = transpile(qc, backend=backend)
            cache.store(("k", i), results[i])
        assert cache.lookup(("k", 0)) is None  # evicted
        assert cache.lookup(("k", 2)).circuit == results[2].circuit
        assert len(cache) == 2

    def test_clear_resets_stats(self):
        cache = TranspileCache()
        cache.lookup("missing")
        cache.clear()
        stats = cache.stats()
        assert stats.hits == stats.misses == stats.size == 0
        assert stats.hit_rate == 0.0

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            TranspileCache(maxsize=0)

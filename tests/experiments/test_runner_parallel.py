"""Parallel suite mode: jobs-independent, bit-identical aggregates."""

import pytest

from repro.experiments import run_experiment

_NAMES = ["4gt13", "one_bit_adder"]


def _table1(names, iterations, shots, seed, jobs=1):
    report = run_experiment(
        "table1",
        {"benchmarks": names, "iterations": iterations, "shots": shots,
         "seed": seed},
        jobs=jobs,
    )
    return report.result


def _fingerprint(results):
    """Every per-iteration histogram and metric, in deterministic order."""
    out = []
    for name in sorted(results):
        for it in results[name].iterations:
            out.append(
                (
                    name,
                    sorted(it.counts_original.items()),
                    sorted(it.counts_obfuscated.items()),
                    sorted(it.counts_restored.items()),
                    it.expected_bitstring,
                    it.inserted_gates,
                )
            )
    return out


class TestParallelSuite:
    def test_jobs_do_not_change_results(self):
        sequential = _table1(_NAMES, iterations=2, shots=150, seed=13, jobs=1)
        parallel = _table1(_NAMES, iterations=2, shots=150, seed=13, jobs=2)
        assert _fingerprint(sequential) == _fingerprint(parallel)

    def test_fixed_seed_is_reproducible(self):
        one = _table1(_NAMES[:1], iterations=2, shots=100, seed=3)
        two = _table1(_NAMES[:1], iterations=2, shots=100, seed=3)
        assert _fingerprint(one) == _fingerprint(two)

    def test_different_seeds_differ(self):
        one = _table1(_NAMES[:1], iterations=2, shots=100, seed=3)
        two = _table1(_NAMES[:1], iterations=2, shots=100, seed=4)
        assert _fingerprint(one) != _fingerprint(two)

    def test_iteration_count_and_names(self):
        results = _table1(_NAMES, iterations=3, shots=50, seed=1, jobs=2)
        assert set(results) == set(_NAMES)
        for aggregate in results.values():
            assert len(aggregate.iterations) == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="iterations must be positive"):
            _table1(_NAMES, iterations=0, shots=10, seed=1)
        with pytest.raises(ValueError, match="jobs must be positive"):
            _table1(_NAMES, iterations=1, shots=10, seed=1, jobs=0)


class TestCompilationKnobs:
    """The transpile cache never changes any result."""

    def test_transpile_cache_does_not_change_results(
        self, transpile_cache_off
    ):
        transpile_cache_off.clear()
        uncached = _table1(_NAMES, iterations=2, shots=100, seed=21)
        assert len(transpile_cache_off) == 0
        transpile_cache_off.enabled = True
        transpile_cache_off.clear()
        cached = _table1(_NAMES, iterations=2, shots=100, seed=21)
        assert transpile_cache_off.stats().hits > 0
        assert _fingerprint(cached) == _fingerprint(uncached)

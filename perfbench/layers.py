"""Layer boundaries the traced run records, and their counters.

Spans come from wrapping the names the program's own callers resolve
(see :func:`install_wrappers`); counters come from public APIs only —
deltas of the three per-process caches' ``stats()``, the trajectory
mode counters, and ``TranspileResult.pass_timings`` of compiles that
missed the transpile cache.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from .spans import Tracer

# pass names of the preset transpile schedule; a pass outside this list
# is summed into transpiler.pass.other_s
PASS_NAMES = (
    "TranslateToBasis",
    "GreedyLayout",
    "TrivialLayout",
    "SetLayout",
    "PadToDevice",
    "FullLayout",
    "Route",
    "RemoveIdentities",
    "CancelInversePairs",
    "FuseSingleQubitRuns",
)

# span name -> self-time metric; calls are "<span name>_calls".  Two
# spans enclose other layers, so their metric names say "self".
LAYER_SPANS = {
    "execution.run": "execution.run_s",
    "execution.plan_trace": "execution.plan_trace_s",
    "execution.noise_plan_trace": "execution.noise_plan_trace_s",
    "noise.noise_model": "noise.noise_model_s",
    "transpiler.transpile": "transpiler.transpile_s",
    "core.obfuscate": "core.obfuscate_s",
    "core.split": "core.split_s",
    "core.protect": "core.protect_s",
    "core.compile_split": "core.compile_split_self_s",
    "core.pipeline.evaluate": "core.pipeline.evaluate_self_s",
    "service.submit": "service.submit_s",
}

ROOT_SPAN = "bench"


def install_wrappers(tracer: Tracer, pass_totals: Dict[str, float]) -> None:
    """Wrap every layer entry point the pipeline and the split flow call.

    ``repro.core.pipeline`` and ``repro.core.deobfuscate`` bind
    ``execute``/``transpile`` at import, so those module attributes are
    what the callers resolve; methods are wrapped on their classes.
    """
    import repro.core.deobfuscate as deobfuscate
    import repro.core.pipeline as pipeline
    import repro.core.protect as protect
    import repro.execution.plan_cache as plan_cache
    from repro.core.obfuscate import TetrisLockObfuscator
    from repro.noise.backend import Backend

    def record_passes(result) -> None:
        if not result.from_cache:
            for name, seconds in result.pass_timings.items():
                key = name if name in PASS_NAMES else "other"
                pass_totals[key] += seconds

    tracer.wrap(pipeline, "execute", "execution.run")
    tracer.wrap(pipeline, "transpile", "transpiler.transpile", record_passes)
    tracer.wrap(
        deobfuscate, "transpile", "transpiler.transpile", record_passes
    )
    tracer.wrap(pipeline, "interlocking_split", "core.split")
    tracer.wrap(protect, "interlocking_split", "core.split")
    tracer.wrap(TetrisLockObfuscator, "obfuscate", "core.obfuscate")
    tracer.wrap(
        deobfuscate.SplitCompilationFlow, "compile_split", "core.compile_split"
    )
    tracer.wrap(Backend, "noise_model", "noise.noise_model")
    tracer.wrap(plan_cache, "build_plan", "execution.plan_trace")
    tracer.wrap(plan_cache, "build_noise_plan", "execution.noise_plan_trace")


def _caches():
    from repro.execution import get_noise_plan_cache, get_plan_cache
    from repro.transpiler import get_transpile_cache

    return (
        ("transpile", get_transpile_cache()),
        ("plan", get_plan_cache()),
        ("noise_plan", get_noise_plan_cache()),
    )


# counts of caches emptied by clear_caches(); clear() also zeroes the
# cache's own counters, which would break the deltas taken around a run
_CLEARED: Dict[str, int] = defaultdict(int)


def counter_snapshot() -> Dict[str, int]:
    """Hit/miss counters of the per-process caches, and trajectory runs."""
    from repro.simulator.noisy import trajectory_mode_counts

    out: Dict[str, int] = {}
    for label, cache in _caches():
        stats = cache.stats()
        out[f"{label}.hits"] = stats.hits + _CLEARED[f"{label}.hits"]
        out[f"{label}.misses"] = stats.misses + _CLEARED[f"{label}.misses"]
    out["trajectory_runs"] = sum(trajectory_mode_counts().values())
    return out


def clear_caches() -> None:
    """Empty the per-process caches, keeping their counts cumulative."""
    for label, cache in _caches():
        stats = cache.stats()
        _CLEARED[f"{label}.hits"] += stats.hits
        _CLEARED[f"{label}.misses"] += stats.misses
        cache.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    before: Dict[str, int],
    after: Dict[str, int],
    pass_totals: Dict[str, float],
    units: int,
    overhead_per_span_s: float,
) -> Dict[str, float]:
    """Per-unit self times and counts of every in-process layer.

    Runs are time-boxed, so totals grow with speed; every ``_s`` and
    count metric is therefore divided by the completed units.  The
    root span's self time is the bench's own share (``trace.remainder_s``):
    the layer self times plus it add up to ``trace.wall_per_unit_s``.
    """
    per_unit = max(units, 1)
    times = tracer.self_times()
    metrics: Dict[str, float] = {}
    for span_name, self_metric in LAYER_SPANS.items():
        entry = times.get(span_name, {"self_s": 0.0, "calls": 0})
        metrics[self_metric] = entry["self_s"] / per_unit
        metrics[f"{span_name}_calls"] = entry["calls"] / per_unit
    delta = defaultdict(int, {k: after[k] - before[k] for k in after})
    metrics["execution.plan_traces"] = delta["plan.misses"] / per_unit
    metrics["execution.noise_plan_traces"] = (
        delta["noise_plan.misses"] / per_unit
    )
    metrics["execution.plan_cache_hit_ratio"] = _ratio(
        delta["plan.hits"], delta["plan.hits"] + delta["plan.misses"]
    )
    metrics["execution.noise_plan_cache_hit_ratio"] = _ratio(
        delta["noise_plan.hits"],
        delta["noise_plan.hits"] + delta["noise_plan.misses"],
    )
    metrics["execution.trajectory_runs"] = delta["trajectory_runs"] / per_unit
    metrics["transpiler.cache_hit_ratio"] = _ratio(
        delta["transpile.hits"],
        delta["transpile.hits"] + delta["transpile.misses"],
    )
    for name in (*PASS_NAMES, "other"):
        metrics[f"transpiler.pass.{name}_s"] = (
            pass_totals.get(name, 0.0) / per_unit
        )
    root = times.get(ROOT_SPAN, {"self_s": 0.0, "total_s": 0.0})
    metrics["trace.remainder_s"] = root["self_s"] / per_unit
    metrics["trace.wall_per_unit_s"] = root["total_s"] / per_unit
    metrics["trace.units"] = float(units)
    metrics["trace.overhead_ratio"] = _ratio(
        overhead_per_span_s * len(tracer.spans), root["total_s"]
    )
    return metrics

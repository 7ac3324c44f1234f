"""Repository benchmark: one command for every workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that records spans at every layer
boundary and prints the per-layer metrics instead (spans are written
to ``.perfbench-out/``).  The metric names and units printed are the
ones ``BENCHMARK.json`` declares; end-to-end times are divided by the
host's slowdown (see ``perfbench/calibrate.py``).  The last line of
standard output is the result object; the line before it records the
run environment and the raw, uncalibrated figures.
"""

import os
import time

_STARTED = time.perf_counter()  # set-up time counts from here

# One BLAS thread unless the caller chose otherwise: on the 2-core
# reference machine a second thread made no evaluation faster but let
# other load on the box stretch every BLAS call, and the service's
# worker processes already take one core each.  Set before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "table1": ("perfbench.table1", "Table1Workload"),
    "split_compile": ("perfbench.split_compile", "SplitCompileWorkload"),
    "service_mix": ("perfbench.service_mix", "ServiceMixWorkload"),
}
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median
SETUP_CALIBRATIONS = 5  # kernel samples right after each set-up
PROBE_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def probe_setup(workload: str) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(json.loads(completed.stdout.splitlines()[-1])["setup_s"])


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def environment(cpu_per_wall: float) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        # this process over the measured window; above 1 means native
        # code (BLAS) ran on several threads
        "cpu_per_wall": cpu_per_wall,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.calibrate import Calibration

    module_name, class_name = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module_name), class_name)()
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        calibration = Calibration()
        for _ in range(SETUP_CALIBRATIONS):
            calibration.sample()
        setup_s /= calibration.slowdown()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, args, Calibration())
    finally:
        workload.close()
    rss_mb = peak_rss_mb()
    setup_samples = [setup_s] + [
        probe_setup(args.workload) for _ in range(SETUP_PROBES)
    ]
    return report(args, result, setup_samples, rss_mb)


def measure(workload, args, calibration):
    from perfbench.layers import (
        ROOT_SPAN, counter_snapshot, install_wrappers, layer_metrics,
    )
    from perfbench.spans import Tracer, wrapper_overhead_s

    tracer = Tracer(enabled=bool(args.trace))
    pass_totals = defaultdict(float)
    overhead = 0.0
    # layers in pool workers are read from job views instead; there the
    # in-process counters would only count the output checks' own runs
    in_process = workload.layers_in_process
    if args.trace:
        overhead = wrapper_overhead_s()
        if in_process:
            install_wrappers(tracer, pass_totals)
    before = counter_snapshot() if in_process else {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    began = time.perf_counter()
    try:
        with tracer.span(ROOT_SPAN):
            outcome = workload.run(
                args.seed, args.seconds, tracer, calibration
            )
    finally:
        tracer.unwrap_all()
    cpu_s = _cpu_s(resource.getrusage(resource.RUSAGE_SELF)) - _cpu_s(usage)
    outcome.cpu_per_wall = cpu_s / (time.perf_counter() - began)
    outcome.slowdown = calibration.slowdown()
    outcome.kernel_samples = len(calibration.samples)
    after = counter_snapshot() if in_process else {}
    layer = {}
    if args.trace:
        layer = layer_metrics(
            tracer, before, after, pass_totals, outcome.completed, overhead
        )
        layer.update(outcome.layer)
        out = ROOT / ".perfbench-out" / (
            f"trace-{args.workload}-seed{args.seed}.json"
        )
        tracer.dump(out, layer)
    return outcome, layer


def report(args, result, setup_samples, rss_mb) -> int:
    outcome, layer = result
    end_to_end, per_layer = declared_metrics()
    if args.trace:
        declared = {m["name"] for m in per_layer}
        undeclared = sorted(set(layer) - declared)
        if undeclared:
            raise RuntimeError(f"undeclared per-layer metrics: {undeclared}")
        chosen, values = per_layer, layer
    else:
        chosen = end_to_end
        values = {
            **outcome.end_to_end(),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss_mb,
        }
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in chosen
    }
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "environment": environment(outcome.cpu_per_wall),
        "workload": args.workload,
        "seed": args.seed,
        "units": outcome.completed,
        "window_s": outcome.wall_s,
        "host_slowdown": outcome.slowdown,
        "kernel_samples": outcome.kernel_samples,
        "raw": outcome.raw_end_to_end(),
        "setup_samples_s": setup_samples,
    }))
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

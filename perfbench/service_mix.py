"""Open-loop traffic into an in-process ``JobService(workers=2)``.

One generator (the calling thread) submits seeded Poisson arrivals at
a fixed rate below capacity, whatever the service's speed; each job's
latency runs from when it was due to when the service finished it, so
a stall also charges the wait it imposes on later arrivals.  The mix
is fixed: noiseless and noisy ``simulate``, ``protect``, ``transpile``
(of protected segments), ``evaluate`` and mismatched-width ``attack``,
plus a stated share of exact repeats (result-cache hits) and seed-sweep
bursts of same-circuit noiseless simulates (the coalescer's case).
This is the only workload that runs the queue, the coalescer, the
result cache, pool IPC and ``repro.attacks``.

Worker-side figures come from job views and results (timestamps,
``cached``, ``coalesced``, attack fields): the caches live in the pool
processes, where the parent's ``JobService.stats()`` cannot see them.
"""

from __future__ import annotations

import bisect
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import from_qasm, to_qasm
from repro.core.protect import protect_circuit
from repro.execution import Counts, run as execute
from repro.noise.backend import valencia_like_backend
from repro.revlib.benchmarks import load_benchmark
from repro.service import JobService, ServiceClient

from .calibrate import Calibration
from .outcome import Outcome, nearest_rank
from .spans import Tracer

WORKERS = 2
RATE_PER_S = 12.0  # arrivals per second; a burst is one arrival
REPEAT_SHARE = 0.17  # arrivals that resubmit an earlier request verbatim
REPEAT_MIN_AGE_S = 1.0  # repeat only requests due at least this long ago
BURST_SIZE = 4
# The rate and shares here are unverified choices, not a model of real
# use: the repository has no recorded service traffic.
# Shares of the fresh arrivals.  Each reported percentile falls inside
# one compute-bound job class rather than on the edge between two or in
# the millisecond jobs, whose latency is mostly process wake-ups: about
# 30% of jobs are repeats (cache hits) and fast jobs, 40% noisy
# simulates (latency_p50_s), and the slowest 30% evaluations
# (latency_p90_s).
MIX = (
    ("simulate", 0.04),
    ("burst", 0.02),
    ("protect", 0.02),
    ("transpile", 0.02),
    ("attack", 0.02),
    ("simulate_noisy", 0.50),
    ("evaluate", 0.38),
)
JOB_CLASSES = (
    "simulate", "simulate_noisy", "protect", "transpile", "evaluate", "attack"
)
SIMULATE_NAMES = (
    "ham3", "4gt13", "one_bit_adder", "4mod5", "mini_alu", "4gt11",
    "graycode6", "rd53",
)
# noisy simulates and evaluations each use circuits of about equal cost
# and draw them in balanced rotation, so neither class is multimodal
NOISY_NAMES = ("4gt13", "one_bit_adder", "4mod5")
EVALUATE_NAMES = ("4gt13", "one_bit_adder")
ATTACK_NAMES = (
    "ham3", "4gt13", "one_bit_adder", "4mod5", "mini_alu", "graycode6"
)
NOISY_SHOTS = 200
EVALUATE_SHOTS = 200
CHECK_SAMPLES = 8  # simulate jobs re-run directly and compared per run
DRAIN_TIMEOUT_S = 120.0
# Kernel samples (perfbench.calibrate) on every core, CALIBRATIONS
# rounds before and after the window and, inside it, a round at most
# every CALIBRATION_EVERY_S while the service is idle and the next
# arrival is at least CALIBRATION_GAP_S away.
CALIBRATIONS = 3
CALIBRATION_EVERY_S = 0.25
CALIBRATION_GAP_S = 0.04

Request = Tuple[str, Dict]


@dataclass
class Arrival:
    due: float  # seconds after the window opens
    job_class: str
    requests: List[Request]


def _rotation(names, rng: np.random.Generator) -> Iterator[str]:
    """*names* in successive seeded shuffles: equal counts per name."""
    while True:
        yield from rng.permutation(names).tolist()


def _sample_each_core(calibration: Calibration) -> None:
    """One kernel sample pinned to each core this process may use.

    The host's slowdown is per core (two cores' kernel times
    correlated at r = 0.08, each flipping between two speeds), and the
    jobs run in workers on every core, while this thread would run on
    one.
    """
    cores = os.sched_getaffinity(0)
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            calibration.sample()
    finally:
        os.sched_setaffinity(0, cores)


def _superposed(name: str) -> QuantumCircuit:
    """The benchmark on a uniform superposition of its low inputs.

    Reversible circuits map a basis input to one basis output, which
    would make every count check trivial; the Hadamard prefix gives
    each simulate job a spread-out distribution to reproduce.
    """
    original = load_benchmark(name).circuit()
    circuit = QuantumCircuit(original.num_qubits, name=f"h_{name}")
    for qubit in range((original.num_qubits + 1) // 2):
        circuit.h(qubit)
    return circuit.compose(original)


class ServiceMixWorkload:
    """Seeded open-loop job traffic through one in-process service."""

    layers_in_process = False  # the service's layers run in pool workers

    def setup(self) -> None:
        names = set(SIMULATE_NAMES) | set(ATTACK_NAMES)
        self.circuits = {name: load_benchmark(name).circuit() for name in names}
        self.plain_qasm = {
            name: to_qasm(circuit) for name, circuit in self.circuits.items()
        }
        self.superposed_qasm = {
            name: to_qasm(_superposed(name)) for name in SIMULATE_NAMES
        }
        self.service = JobService(workers=WORKERS).start()
        self.client = ServiceClient(self.service)
        # warm-up: a job of every class per worker, so as a rule each
        # worker runs each handler's first-use path; warm-up seeds lie
        # above the run's
        warm = np.random.default_rng(0)
        self._rotations = {}
        job_ids = [
            self.client.submit(kind, params)
            for job_class in JOB_CLASSES
            for _ in range(WORKERS)
            for kind, params in self._requests(job_class, warm, 2**31)
        ]
        if not self.client.wait(job_ids, timeout=DRAIN_TIMEOUT_S):
            raise RuntimeError("warm-up jobs did not finish")
        self._idle()  # the first stats() call imports its helpers

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.shutdown(drain=True, timeout=DRAIN_TIMEOUT_S)

    # -- input generation ----------------------------------------------
    def _requests(
        self, job_class: str, rng: np.random.Generator, seed_base: int = 0
    ) -> List[Request]:
        def seed() -> int:
            return seed_base + int(rng.integers(2**31))

        def pick(names) -> str:
            if names not in self._rotations:
                self._rotations[names] = _rotation(names, rng)
            return next(self._rotations[names])

        if job_class in ("simulate", "burst"):
            qasm = self.superposed_qasm[pick(SIMULATE_NAMES)]
            size = BURST_SIZE if job_class == "burst" else 1
            return [
                ("simulate", {"qasm": qasm, "shots": 1000, "seed": seed()})
                for _ in range(size)
            ]
        if job_class == "simulate_noisy":
            return [("simulate", {
                "qasm": self.superposed_qasm[pick(NOISY_NAMES)],
                "shots": NOISY_SHOTS, "seed": seed(), "noisy": True,
            })]
        if job_class == "protect":
            return [("protect", {
                "qasm": self.plain_qasm[pick(SIMULATE_NAMES)], "seed": seed(),
            })]
        if job_class == "transpile":
            # what an untrusted compiler receives: one protected segment
            split = protect_circuit(
                self.circuits[pick(SIMULATE_NAMES)], seed=seed()
            ).split
            segment = split.segment1 if rng.random() < 0.5 else split.segment2
            return [("transpile", {"qasm": to_qasm(segment.compact), "level": 2})]
        if job_class == "evaluate":
            return [("evaluate", {
                "benchmark": pick(EVALUATE_NAMES), "shots": EVALUATE_SHOTS,
                "seed": seed(),
            })]
        if job_class == "attack":
            return [("attack", {
                "benchmark": pick(ATTACK_NAMES), "adversary": "mismatched",
                "seed": seed(),
            })]
        raise ValueError(f"unknown job class {job_class!r}")

    def _schedule(self, rng: np.random.Generator, seconds: float) -> List[Arrival]:
        """Seeded arrivals with the mix's exact shares, in random order.

        Due times are a Poisson process conditioned on its count (sorted
        uniforms), so every run offers the same load; a repeat copies a
        request due at least ``REPEAT_MIN_AGE_S`` earlier, which has
        normally finished and so hits the result cache.
        """
        self._rotations = {}
        total = round(RATE_PER_S * seconds)
        dues = np.sort(rng.uniform(0.0, seconds, total))
        repeats = round(REPEAT_SHARE * total)
        fresh = total - repeats
        shares = np.array([share for _, share in MIX])
        counts = np.floor(shares / shares.sum() * fresh).astype(int)
        for index in np.argsort(-shares)[: fresh - counts.sum()]:
            counts[index] += 1
        plan = ["repeat"] * repeats + [
            job_class for (job_class, _), count in zip(MIX, counts)
            for _ in range(count)
        ]
        rng.shuffle(plan)
        arrivals: List[Arrival] = []
        history: List[Arrival] = []  # repeatable arrivals, by due time
        history_dues: List[float] = []
        for due, job_class in zip(dues.tolist(), plan):
            if job_class == "repeat":
                old = bisect.bisect_right(history_dues, due - REPEAT_MIN_AGE_S)
                if old:
                    source = history[int(rng.integers(old))]
                    arrivals.append(
                        Arrival(due, source.job_class, source.requests)
                    )
                    continue
                job_class = "simulate"  # nothing old enough to repeat yet
            arrival = Arrival(
                due,
                "simulate" if job_class == "burst" else job_class,
                self._requests(job_class, rng),
            )
            arrivals.append(arrival)
            if job_class != "burst":
                history.append(arrival)
                history_dues.append(due)
        return arrivals

    # -- the measured window -------------------------------------------
    def run(
        self, seed: int, seconds: float, tracer: Tracer,
        calibration: Calibration,
    ) -> Outcome:
        rng = np.random.default_rng(seed)
        arrivals = self._schedule(rng, seconds)
        submitted = []  # (job id, class, due, request)
        lag_max = 0.0
        for _ in range(CALIBRATIONS):
            _sample_each_core(calibration)
        last_sample = -CALIBRATION_EVERY_S
        start_perf = time.perf_counter()
        start_wall = time.time()
        for arrival in arrivals:
            now = time.perf_counter() - start_perf
            if (arrival.due - now > CALIBRATION_GAP_S
                    and now - last_sample >= CALIBRATION_EVERY_S):
                # only this thread submits, so a service idle just
                # before the next arrival stays idle until it is sent
                time.sleep(arrival.due - now - CALIBRATION_GAP_S)
                if self._idle():
                    _sample_each_core(calibration)
                    last_sample = time.perf_counter() - start_perf
            delay = arrival.due - (time.perf_counter() - start_perf)
            if delay > 0:
                time.sleep(delay)
            lag_max = max(
                lag_max, time.perf_counter() - start_perf - arrival.due
            )
            for kind, params in arrival.requests:
                with tracer.span("service.submit"):
                    job_id = self.client.submit(kind, params)
                submitted.append((job_id, arrival.job_class, arrival.due,
                                  (kind, params)))
        outcome = Outcome(attempted=len(submitted))
        job_ids = [job_id for job_id, *_ in submitted]
        if not self.client.wait(job_ids, timeout=DRAIN_TIMEOUT_S):
            outcome.problems.append("jobs still pending after the drain")
        views = [self.client.status(job_id) for job_id in job_ids]
        for _ in range(CALIBRATIONS):
            _sample_each_core(calibration)
        # a coalesced batch of n jobs is one dispatch: each job carries
        # 1/n of its busy time
        busy_s = sum(
            (v["finished_at"] - v["started_at"]) / v["coalesced"]
            for v in views if v["state"] == "done" and not v["cached"]
        )
        outcome.wall_s = busy_s / WORKERS
        for (job_id, job_class, due, _), view in zip(submitted, views):
            if view["state"] != "done":
                outcome.fail(job_id, [f"{job_class} {view['state']}: "
                                      f"{view['error']}"])
                continue
            outcome.latencies.append(
                view["finished_at"] - (start_wall + due)
            )
        self._check_counts(rng, submitted, views, outcome)
        outcome.layer.update(self._service_metrics(submitted, views))
        outcome.layer["loadgen.lag_max_s"] = lag_max
        return outcome

    def _idle(self) -> bool:
        """No job queued or running, so no worker is using a core."""
        jobs = self.service.stats()["jobs"]
        return jobs["queued"] == 0 and jobs["running"] == 0

    def _check_counts(self, rng, submitted, views, outcome: Outcome) -> None:
        """Seeded sample of simulate jobs against a direct ``run``."""
        candidates = [
            index for index, (_, _, _, (kind, _)) in enumerate(submitted)
            if kind == "simulate" and views[index]["state"] == "done"
        ]
        if not candidates:
            return
        picks = rng.choice(
            len(candidates), size=min(CHECK_SAMPLES, len(candidates)),
            replace=False,
        )
        for pick in picks:
            index = candidates[int(pick)]
            job_id, _, _, (_, params) = submitted[index]
            circuit = from_qasm(params["qasm"])
            if not circuit.has_measurements():
                circuit = circuit.copy().measure_all()
            noise_model = None
            if params.get("noisy"):
                noise_model = valencia_like_backend(
                    max(circuit.num_qubits, 2)
                ).noise_model()
            direct = execute(
                circuit, params["shots"], noise_model=noise_model,
                seed=params["seed"],
            )
            served = Counts.from_dict(views[index]["result"]["counts"])
            if dict(served) != dict(direct):
                outcome.fail(job_id, ["served counts differ from a direct run"])

    @staticmethod
    def _service_metrics(submitted, views) -> Dict[str, float]:
        done = [
            (job_class, kind, view)
            for (_, job_class, _, (kind, _)), view in zip(submitted, views)
            if view["state"] == "done"
        ]
        executed = [item for item in done if not item[2]["cached"]]
        waits = [v["started_at"] - v["submitted_at"] for _, _, v in executed]
        metrics = {
            "service.queue_wait_p50_s": nearest_rank(waits, 50),
            "service.queue_wait_p90_s": nearest_rank(waits, 90),
            "service.result_cache_hit_ratio": (
                (len(done) - len(executed)) / len(done) if done else 0.0
            ),
            "service.coalesced_share": (
                sum(1 for _, _, v in executed if v["coalesced"] > 1)
                / len(executed) if executed else 0.0
            ),
        }
        for job_class in JOB_CLASSES:
            runs = [
                v["finished_at"] - v["started_at"]
                for c, _, v in executed if c == job_class
            ]
            metrics[f"service.run_p50_s.{job_class}"] = nearest_rank(runs, 50)
        attacks = [v["result"] for _, kind, v in executed if kind == "attack"]
        tried = sum(result["candidates_tried"] for result in attacks)
        pruned = sum(result["pruned"] for result in attacks)
        metrics["attacks.candidates_tried"] = (
            tried / len(attacks) if attacks else 0.0
        )
        metrics["attacks.pruned_ratio"] = (
            pruned / (tried + pruned) if tried + pruned else 0.0
        )
        return metrics


"""Chunked batched executor for noise-bound plans.

Runs a :class:`~repro.execution.noise_plan.NoisePlan` for ``shots``
trajectories, evolving the shots in chunks of ``W`` as one
``(W, 2, ..., 2)`` tensor:

* fused noiseless spans execute through span programs compiled for the
  chunk layout: diagonals are one broadcast in-place multiply, monomial
  gates (X, CX, SWAP, CCX, ...) are strided slice copies, dense 1q
  gates are four elementwise axpy passes over the two sub-lattices —
  none of which pays the transpose-copy sandwich of the GEMM route;
* mixed-unitary channels draw all branch indices of a chunk with one
  ``searchsorted`` against the precomputed cumulative table, gather the
  shots on non-identity branches by index and apply each shot's
  pre-scaled branch matrix in one stacked matmul;
* one-qubit general-Kraus channels (every fake-backend gate error and
  thermal relaxation step) run the dominant-branch kernel.  Branch
  norms come from each shot's |0>/|1> sub-lattice weights and the Gram
  diagonals; the overlap term is computed only when a Gram matrix is
  not diagonal.  Shots that take the dominant branch (largest mean
  weight) are rescaled in place, one per-shot coefficient pair when
  that operator is diagonal; the few jump shots are gathered by index
  and get a per-shot ``2 x 2`` ``mul1`` multiply-add.  A non-diagonal
  dominant operator takes the per-shot multiply-add on every shot;
* multi-qubit general-Kraus channels evaluate every branch norm via
  the cached Gram matrices and one reduced-density pass, then apply
  each sampled branch to its masked sub-batch;
* both general-Kraus paths sample with one cumulative rule
  (:func:`_sample_branches`); exactly-zero Kraus operators are dropped
  at bind time, and a draw above the rounded cumulative total takes
  the last branch with positive weight, so no trajectory is zeroed;
* measurements collapse the chunk with vectorised probability gathers;
  terminal measurement is one joint sample of the final distribution
  (deferred-measurement equivalence: nothing touches a terminally
  measured qubit afterwards, so the statistics are identical).

Determinism
-----------
Randomness is drawn per *site*, not per chunk: the executor spawns one
``SeedSequence`` child per stochastic site of the plan (every channel
anchor, measurement and readout entry) and pre-draws that site's full
``(shots,)`` uniform array; a chunk consumes ``[lo:hi)`` slices.  The
draws are therefore exactly independent of the chunk size.  Span op
routes are chosen by matrix structure, never by batch size, and all of
them are elementwise or slice-wise — so span arithmetic is bit-exact
across chunk widths too.  So are the mixed-unitary step and the
one-qubit Kraus kernel: each shot's product and weights are computed
on their own.  The only size-dependent arithmetic left is the kernel
route inside multi-qubit general-Kraus branch applications: above the
GEMM crossover the BLAS blocking is equal only to ~1 ulp, so a count
can differ across chunk sizes iff a *later* draw lands within ~1e-16
of a branch boundary.  Below that crossover ``chunk_size=1`` and
``chunk_size=64`` are bit-identical.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from .counts import Counts, counts_from_outcomes
from .kernels import apply_matrix_batch

__all__ = [
    "default_chunk_size",
    "run_noise_plan",
    "record_trajectory_mode",
    "trajectory_mode_counts",
    "reset_trajectory_mode_counts",
]

# how many trajectory-ensemble runs went through each implementation,
# surfaced by the service /stats endpoint and the experiment-runner
# summary next to the plan-cache stats
_MODE_COUNTS: Dict[str, int] = {"batched": 0, "legacy": 0}
_MODE_LOCK = threading.Lock()


def record_trajectory_mode(mode: str) -> None:
    """Count one trajectory-ensemble run through *mode*."""
    with _MODE_LOCK:
        _MODE_COUNTS[mode] = _MODE_COUNTS.get(mode, 0) + 1


def trajectory_mode_counts() -> Dict[str, int]:
    """Snapshot of the per-mode run counters."""
    with _MODE_LOCK:
        return dict(_MODE_COUNTS)


def reset_trajectory_mode_counts() -> None:
    with _MODE_LOCK:
        for key in _MODE_COUNTS:
            _MODE_COUNTS[key] = 0


# chunk sizing: cap the working tensor near 2^21 complex entries
# (~32 MB at complex128) so deep circuits stay cache-friendly while
# small circuits still run every shot in one chunk
_CHUNK_BUDGET = 1 << 21


def default_chunk_size(shots: int, num_qubits: int) -> int:
    """The executor's default ``W``: whole batch, capped by memory."""
    return min(shots, max(1, _CHUNK_BUDGET >> num_qubits))


def run_noise_plan(
    plan,
    shots: int,
    *,
    entropy: int,
    dtype=np.complex128,
    chunk_size: Optional[int] = None,
) -> Counts:
    """Execute *plan* for *shots* trajectories and return the counts.

    *entropy* seeds the per-site ``SeedSequence`` spawn; two runs with
    the same entropy produce identical counts for any *chunk_size*.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    dtype = np.dtype(dtype)
    if chunk_size is None:
        chunk_size = default_chunk_size(shots, plan.num_qubits)
    chunk_size = max(1, int(chunk_size))
    children = np.random.SeedSequence(entropy).spawn(max(plan.num_sites, 1))
    draws = [
        np.random.default_rng(child).random(shots) for child in children
    ]
    values = np.empty(shots, dtype=np.int64)
    for lo in range(0, shots, chunk_size):
        hi = min(shots, lo + chunk_size)
        values[lo:hi] = _run_chunk(plan, draws, lo, hi, dtype)
    return counts_from_outcomes(values, plan.width, shots=shots)


def _run_chunk(
    plan, draws: List[np.ndarray], lo: int, hi: int, dtype
) -> np.ndarray:
    width = hi - lo
    n = plan.num_qubits
    batch = np.zeros((width,) + (2,) * n, dtype=dtype)
    batch[(slice(None),) + (0,) * n] = 1.0
    steps = plan.compiled_steps(dtype)

    clbits = np.zeros(width, dtype=np.int64)
    for step in steps:
        kind = step[0]
        if kind == "span":
            batch = _execute_span(batch, step[1])
        elif kind == "channel":
            batch = _apply_channel_chunk(
                batch, step[1], draws[step[2]][lo:hi]
            )
        else:  # "measure"
            _, qubit, clbit, site, readout, readout_site = step
            outcome = _collapse_measure(
                batch, qubit, draws[site][lo:hi]
            )
            bits = outcome.astype(np.int64)
            if readout is not None:
                flips = draws[readout_site][lo:hi] < np.where(
                    outcome, readout.prob_0_given_1, readout.prob_1_given_0
                )
                bits ^= flips.astype(np.int64)
            clbits = (clbits & ~(1 << clbit)) | (bits << clbit)
    if not plan.terminal:
        return clbits
    outcomes = _sample_joint(batch, draws[plan.sample_site][lo:hi])
    values = np.zeros(width, dtype=np.int64)
    for qubit, clbit, readout, readout_site in plan.entries:
        bits = (outcomes >> qubit) & 1
        if readout is not None:
            flips = draws[readout_site][lo:hi] < np.where(
                bits == 1, readout.prob_0_given_1, readout.prob_1_given_0
            )
            bits = bits ^ flips.astype(np.int64)
        values = (values & ~(1 << clbit)) | (bits << clbit)
    return values


def _execute_span(batch: np.ndarray, ops) -> np.ndarray:
    """Run one compiled span program over a ``(W, 2, ..., 2)`` chunk.

    Op forms come from :func:`repro.execution.noise_plan._compile_span`
    and are all memory-lean: no route here materialises the
    transpose-copy sandwich the GEMM kernels pay, which dominated the
    profile of noisy circuits (every gate anchors a channel, so spans
    are short and per-op overhead is the whole game).
    """
    for op in ops:
        tag = op[0]
        if tag == "diag":
            # in place: the executor owns the chunk tensor
            batch *= op[1]
        elif tag == "perm":
            out = np.empty_like(batch)
            for out_sel, in_sel, phase in op[1]:
                if phase is None:
                    out[out_sel] = batch[in_sel]
                else:
                    np.multiply(batch[in_sel], phase, out=out[out_sel])
            batch = out
        elif tag == "mul1":
            _, matrix, qubit = op
            n = batch.ndim - 1
            left = batch.shape[0] << qubit
            right = 1 << (n - 1 - qubit)
            view = batch.reshape(left, 2, right)
            # C-order allocation guarantees the reshape below is a view
            out = np.empty(batch.shape, dtype=batch.dtype)
            result = out.reshape(left, 2, right)
            v0 = view[:, 0, :]
            v1 = view[:, 1, :]
            np.multiply(v0, matrix[0, 0], out=result[:, 0, :])
            result[:, 0, :] += matrix[0, 1] * v1
            np.multiply(v0, matrix[1, 0], out=result[:, 1, :])
            result[:, 1, :] += matrix[1, 1] * v1
            batch = out
        else:  # "gen"
            batch = apply_matrix_batch(batch, op[1], op[2])
    return batch


def _apply_channel_chunk(
    batch: np.ndarray, binding, uniforms: np.ndarray
) -> np.ndarray:
    """One stochastic channel on a whole chunk."""
    qubits = binding.qubits
    if binding.kind == "mixed":
        branches = np.searchsorted(
            binding.cumulative, uniforms, side="right"
        )
        np.minimum(branches, binding.num_branches - 1, out=branches)
        # only shots on a non-identity branch move; gather them by index
        moving = np.flatnonzero(~binding.identity_flags[branches])
        if moving.size == 0:
            return batch
        matrices = binding.scaled_ops[branches[moving]]
        batch[moving] = _apply_per_shot(batch[moving], matrices, qubits)
        return batch
    if len(qubits) == 1:
        return _apply_kraus1(batch, binding.table, qubits[0], uniforms)
    # multi-qubit general Kraus: ||K psi||^2 = Tr(gram rho) for every
    # branch in one reduced-density pass, then one masked application
    # per sampled branch
    rho = _reduced_density_batch(batch, qubits)
    norms = np.empty((binding.num_branches, batch.shape[0]))
    for i, gram in enumerate(binding.grams):
        norms[i] = np.einsum("ij,sji->s", gram, rho).real
    branches, scale = _sample_branches(norms, uniforms)
    scale = scale.reshape((-1,) + (1,) * (batch.ndim - 1))
    unique_branches = np.unique(branches)
    if len(unique_branches) == 1:
        index = int(unique_branches[0])
        out = apply_matrix_batch(batch, binding.operators[index], qubits)
        if out is batch:
            out = batch * scale
        else:
            out *= scale
        return out
    out = np.empty_like(batch)
    for index in unique_branches:
        mask = branches == index
        out[mask] = apply_matrix_batch(
            batch[mask], binding.operators[index], qubits
        )
    out *= scale
    return out


def _apply_per_shot(
    sub: np.ndarray, matrices: np.ndarray, qubits
) -> np.ndarray:
    """Apply one ``2^k x 2^k`` matrix per shot to *qubits* of *sub*.

    One stacked matmul over all shots, whatever branch each took; each
    shot's product is computed on its own, so the result does not
    depend on how many shots are gathered.
    """
    k = len(qubits)
    axes = [q + 1 for q in qubits]
    moved = np.moveaxis(sub, axes, range(1, k + 1))
    flat = moved.reshape(len(sub), 1 << k, -1)
    out = np.matmul(matrices.astype(sub.dtype), flat)
    return np.moveaxis(out.reshape(moved.shape), range(1, k + 1), axes)


def _reduced_density_batch(
    batch: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Per-shot reduced density matrix on *qubits*: shape (shots, d, d).

    Index ordering matches the gate-matrix convention (first listed
    qubit most significant).
    """
    shots = batch.shape[0]
    k = len(qubits)
    target_axes = [q + 1 for q in qubits]
    moved = np.moveaxis(batch, target_axes, range(1, k + 1))
    flat = moved.reshape(shots, 2 ** k, -1)
    return np.einsum("sir,sjr->sij", flat, flat.conj())


def _sample_branches(norms: np.ndarray, uniforms: np.ndarray):
    """Per-shot branch indices and ``1 / sqrt(norm)`` renormalisers.

    *norms* is ``(branches, shots)``.  Shot ``s`` takes the first branch
    whose cumulative normalised weight reaches its uniform.  A uniform
    above the rounded total takes the last branch with positive weight,
    never a zero-weight one, which would zero the trajectory.
    """
    norms = np.maximum(norms, 0.0)
    totals = np.maximum(norms.sum(axis=0), 1e-300)
    cumulative = np.cumsum(norms / totals, axis=0)
    branches = (uniforms[None, :] > cumulative).sum(axis=0)
    last = len(norms) - 1
    over = np.flatnonzero(branches > last)
    if over.size:
        positive = norms[::-1, over] > 0
        branches[over] = last - positive.argmax(axis=0)
    chosen = norms[branches, np.arange(len(uniforms))]
    return branches, 1.0 / np.sqrt(np.maximum(chosen, 1e-300))


def _apply_kraus1(
    batch: np.ndarray, table, qubit: int, uniforms: np.ndarray
) -> np.ndarray:
    """A one-qubit general-Kraus channel: the dominant-branch kernel.

    Branch weights come from the per-shot squared norms of the qubit's
    |0> and |1> sub-lattices (plus their overlap when a Gram matrix is
    not diagonal).  Most shots take the dominant branch; with a
    diagonal dominant operator they are rescaled in place by one
    per-shot coefficient pair.  The few jump shots are gathered by
    index and get their own per-shot ``2 x 2`` multiply-add.  A
    non-diagonal dominant operator takes the multiply-add on every shot.
    """
    shots = batch.shape[0]
    left = 1 << qubit
    right = batch.size // (shots * left * 2)
    view = batch.reshape(shots, left, 2, right)
    weights = _sublattice_weights(batch, left, right)
    norms = (
        table.gram_diag[0][:, None] * weights[0]
        + table.gram_diag[1][:, None] * weights[1]
    )
    if table.gram_cross is not None:
        overlap = np.einsum(
            "slr,slr->s", view[:, :, 0, :], view[:, :, 1, :].conj()
        )
        norms += 2.0 * (table.gram_cross[:, None] * overlap.conj()).real
    branches, scale = _sample_branches(norms, uniforms)
    if table.dominant_diag is None:
        coeffs = table.stack[branches] * scale[:, None, None]
        return _mul1_per_shot(view, coeffs).reshape(batch.shape)
    jumps = np.flatnonzero(branches != table.dominant)
    if jumps.size:
        coeffs = table.stack[branches[jumps]] * scale[jumps, None, None]
        jumped = _mul1_per_shot(view[jumps], coeffs)
    coeffs = (table.dominant_diag[None, :] * scale[:, None]).astype(
        batch.dtype
    )
    if right >= left:
        view *= coeffs[:, None, :, None]
    else:  # long loops over the left axis instead of the short right
        view[:, :, 0, :] *= coeffs[:, 0, None, None]
        view[:, :, 1, :] *= coeffs[:, 1, None, None]
    if jumps.size:
        view[jumps] = jumped
    return batch


def _sublattice_weights(
    batch: np.ndarray, left: int, right: int
) -> np.ndarray:
    """``(2, shots)`` squared norms of a qubit's |0> and |1> halves.

    *batch* viewed as ``(shots, left, 2, right)`` puts the qubit on
    axis 2.  Both routes reduce each shot on its own, in an order
    fixed by the layout alone, so the weights do not depend on the
    chunk width.
    """
    shots = batch.shape[0]
    real = batch.view(batch.real.dtype)
    if right >= left:
        halves = real.reshape(shots, left, 2, 2 * right)
        return np.stack(
            [
                np.einsum("slr,slr->s", halves[:, :, h], halves[:, :, h])
                for h in (0, 1)
            ]
        )
    rows = real.reshape(shots, left, 4 * right)
    partial = np.einsum("slk,slk->sk", rows, rows)
    return partial.reshape(shots, 2, 2 * right).sum(axis=2).T


def _mul1_per_shot(view: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The ``mul1`` span op with one ``2 x 2`` matrix per shot.

    *view* is ``(shots, left, 2, right)`` with the qubit on axis 2;
    *coeffs* is ``(shots, 2, 2)``.  Returns a new array.
    """
    coeffs = coeffs.astype(view.dtype)[:, :, :, None, None]
    v0 = view[:, :, 0, :]
    v1 = view[:, :, 1, :]
    out = np.empty(view.shape, dtype=view.dtype)
    for row in (0, 1):
        target = out[:, :, row, :]
        np.multiply(v0, coeffs[:, row, 0], out=target)
        target += coeffs[:, row, 1] * v1
    return out


def _collapse_measure(
    batch: np.ndarray, qubit: int, uniforms: np.ndarray
) -> np.ndarray:
    """Measure *qubit* on every shot of the chunk, collapsing in place.

    Returns the boolean outcome array.  Convention matches
    :meth:`Statevector.measure_qubit`: outcome 1 iff ``u < P(1)``.
    """
    shots = batch.shape[0]
    view = np.moveaxis(batch, qubit + 1, 1)
    prob1 = (
        (np.abs(view[:, 1]) ** 2).reshape(shots, -1).sum(axis=1)
    )
    outcome = uniforms < prob1
    ones = np.nonzero(outcome)[0]
    zeros = np.nonzero(~outcome)[0]
    view[ones, 0] = 0
    view[zeros, 1] = 0
    kept = np.where(outcome, prob1, 1.0 - prob1)
    batch /= np.sqrt(np.maximum(kept, 1e-300)).reshape(
        (-1,) + (1,) * (batch.ndim - 1)
    )
    return outcome


def _sample_joint(batch: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One little-endian basis index per shot from the final state."""
    shots = batch.shape[0]
    n = batch.ndim - 1
    axes = (0,) + tuple(range(n, 0, -1))
    probs = np.abs(batch.transpose(axes).reshape(shots, -1)) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probs, axis=1)
    outcomes = (uniforms[:, None] > cumulative).sum(axis=1)
    return np.minimum(outcomes, probs.shape[1] - 1)

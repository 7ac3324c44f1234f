"""De-obfuscation: recombining split-compiled segments.

The trusted user holds both compiled segments plus the layout metadata
each compiler returned.  Stitching works by *layout pinning*: segment 2
is compiled with its initial layout pinned to segment 1's final layout,
so the two physical circuits concatenate directly — no stitching swap
network, no extra depth (this is the practical mechanism behind the
paper's "combine both segments and eliminate redundancies" step; the
pinned layout reveals nothing about segment 1's contents to compiler 2).

Two paths are provided:

* :func:`recombine_physical` — concatenate two compiled segments and
  return the runnable physical circuit plus the output layout;
* :class:`SplitCompilationFlow` — the full TetrisLock round trip:
  obfuscate -> split -> compile both segments with two independent
  "untrusted" compiler configurations -> recombine -> (optionally)
  verify functional equivalence with the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.backend import Backend
from ..transpiler.layout import Layout
from ..transpiler.transpile import TranspileResult, transpile
from .obfuscate import TetrisLockObfuscator
from .split import SplitResult, interlocking_split

__all__ = [
    "recombine_physical",
    "CompiledSplit",
    "SplitCompilationFlow",
]


def recombine_physical(
    compiled1: TranspileResult, compiled2: TranspileResult
) -> Tuple[QuantumCircuit, Layout]:
    """Concatenate two layout-pinned compiled segments.

    Requires ``compiled2.initial_layout == compiled1.final_layout``;
    returns the combined physical circuit and the final layout mapping
    each virtual qubit to its output wire.
    """
    if compiled2.initial_layout != compiled1.final_layout:
        raise ValueError(
            "segment 2 was not compiled with its initial layout pinned "
            "to segment 1's final layout; stitching would be incorrect"
        )
    if compiled1.coupling.num_qubits != compiled2.coupling.num_qubits:
        raise ValueError("segments target different devices")
    combined = compiled1.circuit.copy(
        name=f"{compiled1.circuit.name}+{compiled2.circuit.name}"
    )
    combined.extend(compiled2.circuit.instructions)
    return combined, compiled2.final_layout


@dataclass
class CompiledSplit:
    """Everything the user gets back from the two untrusted compilers."""

    split: SplitResult
    compiled1: TranspileResult
    compiled2: TranspileResult
    restored: QuantumCircuit  # physical, runnable
    output_layout: Layout  # virtual -> physical at circuit end

    def measured_circuit(self) -> QuantumCircuit:
        """The restored circuit with measure-all in *virtual* order.

        Physical wire ``output_layout[v]`` is measured into classical
        bit ``v``, so count bitstrings read exactly like the logical
        circuit's (qubit 0 right-most).
        """
        num_virtual = self.split.insertion.original.num_qubits
        circuit = self.restored.copy()
        circuit.num_clbits = max(circuit.num_clbits, num_virtual)
        for v in range(num_virtual):
            circuit.measure(self.output_layout.physical(v), v)
        return circuit


class SplitCompilationFlow:
    """End-to-end TetrisLock split compilation.

    Parameters
    ----------
    backend:
        Target device (provides topology for both compilers).
    obfuscator:
        Configured :class:`TetrisLockObfuscator`; a default X/CX
        obfuscator with ``gate_limit=4`` is built when omitted.
    compiler1_level / compiler2_level:
        Optimisation levels of the two untrusted compilers — they are
        deliberately independent; neither can cancel the inserted
        random gates because each holds only half of every pair.
    """

    def __init__(
        self,
        backend: Backend,
        obfuscator: Optional[TetrisLockObfuscator] = None,
        compiler1_level: int = 2,
        compiler2_level: int = 1,
        seed: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        self.backend = backend
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            self._rng = np.random.default_rng(seed)
        self.obfuscator = obfuscator or TetrisLockObfuscator(seed=self._rng)
        self.compiler1_level = compiler1_level
        self.compiler2_level = compiler2_level

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit) -> CompiledSplit:
        """Protect, split-compile and restore *circuit*."""
        insertion = self.obfuscator.obfuscate(circuit)
        split = interlocking_split(insertion, seed=self._rng)
        return self.compile_split(split)

    def compile_split(self, split: SplitResult) -> CompiledSplit:
        """Compile an existing split and stitch the results."""
        compiled1 = transpile(
            split.segment1.full,
            backend=self.backend,
            optimization_level=self.compiler1_level,
        )
        # the user pins segment 2's placement to where segment 1 left
        # the wires; the pinned layout leaks no circuit content
        compiled2 = transpile(
            split.segment2.full,
            backend=self.backend,
            initial_layout=compiled1.final_layout,
            optimization_level=self.compiler2_level,
        )
        restored, output_layout = recombine_physical(compiled1, compiled2)
        return CompiledSplit(
            split=split,
            compiled1=compiled1,
            compiled2=compiled2,
            restored=restored,
            output_layout=output_layout,
        )

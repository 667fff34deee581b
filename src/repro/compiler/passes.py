"""The transpile pipeline: lower -> layout -> route -> lower -> cleanup.

Mirrors Qiskit's ``transpile(optimization_level=...)`` levels used in the
paper (level 2 for the main experiments, level 3 -- noise-adaptive layout
-- for Table 7):

* level 0: lowering + trivial layout + routing, no cleanup
* level 1: + peephole cleanup
* level 2: + cleanup to fixpoint (default in this library, as in paper)
* level 3: noise-adaptive layout instead of trivial, + cleanup

The result is a :class:`CompiledCircuit`: a basis-gate circuit *compacted*
onto its used qubits (unused physical qubits are simulated away), plus
the mapping back to physical ids (for noise lookup) and to logical qubits
(for measurement).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.compiler.cleanup import cleanup
from repro.compiler.decompositions import BASIS_GATES, lower_to_basis
from repro.compiler.optimize import optimize_circuit
from repro.compiler.layout import (
    apply_layout,
    noise_adaptive_layout,
    trivial_layout,
)
from repro.compiler.routing import route
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.noise.devices import Device


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit compiled for a device.

    Attributes
    ----------
    circuit:
        Basis-gate circuit on a *compact* register (one qubit per used
        physical qubit, relabeled 0..k-1).
    physical_qubits:
        ``physical_qubits[i]`` is the physical id of compact qubit ``i``.
    layout:
        Logical -> physical mapping chosen by the layout pass.
    measure_qubits:
        ``measure_qubits[q]`` is the *compact* index holding logical qubit
        ``q`` -- measurement results must be gathered in this order.
    device_name:
        Name of the device this was compiled for.
    """

    circuit: Circuit
    physical_qubits: "tuple[int, ...]"
    layout: "dict[int, int]"
    measure_qubits: "tuple[int, ...]"
    device_name: str

    @property
    def n_logical(self) -> int:
        return len(self.layout)

    @property
    def bind_plan(self):
        """The circuit's bind plan (constant gates bound exactly once).

        Delegates to :func:`~repro.sim.statevector.bind_plan_for`, which
        keeps the plan in the circuit's :func:`~repro.utils.cache
        .circuit_cache` -- so every bind path over this circuit shares
        one plan, dropped when the gates change.  Executors re-evaluate
        only weight/input-dependent gates per training step.
        """
        from repro.sim.statevector import bind_plan_for

        return bind_plan_for(self.circuit)

    def readout_matrices(self, noise_model) -> np.ndarray:
        """Readout confusion matrices in *logical* qubit order."""
        return np.stack(
            [
                noise_model.readout_for(self.layout[q])
                for q in range(self.n_logical)
            ]
        )


def _compact(
    circuit: Circuit, layout: "dict[int, int]"
) -> "tuple[Circuit, tuple[int, ...], tuple[int, ...]]":
    """Drop untouched physical qubits and relabel to 0..k-1."""
    used = sorted({q for g in circuit.gates for q in g.qubits} | set(layout.values()))
    to_compact = {phys: i for i, phys in enumerate(used)}
    compact = Circuit(len(used))
    for gate in circuit.gates:
        compact.gates.append(gate.remapped(to_compact))
    measure = tuple(to_compact[layout[q]] for q in sorted(layout))
    return compact, tuple(used), measure


def transpile(
    circuit: Circuit,
    device: Device,
    optimization_level: int = 2,
) -> CompiledCircuit:
    """Compile a logical circuit for a device.

    The paper sets Qiskit's optimization level to 2 for all main
    experiments and to 3 (noise-adaptive) for Table 7.
    """
    if not 0 <= optimization_level <= 3:
        raise ValueError(f"optimization level must be 0..3, got {optimization_level}")

    lowered = lower_to_basis(circuit)
    if optimization_level >= 3:
        layout = noise_adaptive_layout(
            circuit.n_qubits, device.coupling, device.noise_model
        )
    else:
        layout = trivial_layout(circuit.n_qubits, device.n_qubits)
    placed = apply_layout(lowered, layout, device.n_qubits)
    routed = route(placed, device.coupling)
    # Routing may introduce `swap` gates; lower those to CX triples.
    final = lower_to_basis(routed)
    if optimization_level >= 1:
        final = cleanup(final)
    if optimization_level >= 2:
        # Commutation-aware cancellation/merging on top of the peephole
        # pass; a final cleanup re-normalizes any freshly adjacent pairs.
        final = optimize_circuit(final)
        final = cleanup(final)

    unknown = {g.name for g in final.gates} - BASIS_GATES
    if unknown:
        raise RuntimeError(f"non-basis gates survived transpilation: {unknown}")

    compact, physical, measure = _compact(final, layout)
    return CompiledCircuit(compact, physical, layout, measure, device.name)

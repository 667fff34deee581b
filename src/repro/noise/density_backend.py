"""Exact noisy inference via the density-matrix simulator.

This is the "evaluation with noise model" backend of paper Table 11:
every compiled gate applies as a unitary followed by the noise model's
Pauli channel, its exact thermal-relaxation (amplitude/phase-damping)
channel when the model carries T1/T2, and the coherent miscalibration
on its operand qubits; readout confusion mixes the final joint
probabilities.  Exact (no sampling), but cost grows as 4**n_qubits, so
it is reserved for the <= ~8-qubit compact circuits.

:func:`run_noisy_density` runs the stream compiled by
:mod:`repro.compiler.superop`: each gate site's unitary, Pauli and
relaxation channel(s) and coherent miscalibration collapse into one
cached superoperator, adjacent sites fuse into segment operators, and
every fused operator applies in a single transpose + GEMM pass
(:func:`repro.sim.density.apply_superop_to_density`).
:func:`run_noisy_density_reference` retains the original per-Kraus loop
(two passes per Kraus operator, eight per Pauli channel site) as the
numerical baseline -- the equivalence suite and the perf harness hold
the two to < 1e-10.  Both end in the measurement tail the trajectory
engine ends in too (:func:`repro.noise.readout.measured_expectations`).
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.passes import CompiledCircuit
from repro.noise.model import NoiseModel
from repro.noise.readout import measured_expectations
# Shared cached miscalibration rotation: one lru_cache entry per (ey, ez)
# pair process-wide, instead of rebuilding RZ @ RY per gate per call.
from repro.noise.trajectory import _check_counts, _coherent_unitary
from repro.sim.density import (
    apply_kraus_to_density,
    apply_superop_to_density,
    apply_unitary_to_density,
    density_probabilities,
    zero_density,
)
from repro.sim.kraus import pauli_channel

#: Above this compact width, refuse and let the caller use trajectories.
MAX_DENSITY_QUBITS = 8


def _check_width(compiled: "CompiledCircuit") -> int:
    n = compiled.circuit.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(
            f"{n}-qubit density simulation too large; use trajectories"
        )
    return n


def run_noisy_density(
    compiled: "CompiledCircuit",
    noise_model: NoiseModel,
    weights: "np.ndarray | None" = None,
    inputs: "np.ndarray | None" = None,
    batch: int = 1,
    noise_factor: float = 1.0,
    shots: "int | None" = None,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Exact noisy per-qubit <Z> in logical order (optionally shot-sampled).

    Executes the compiled superoperator stream, then the shared
    measurement tail.  ``shots`` below 1 is refused before any sweep, as
    the trajectory engine refuses it.
    """
    _check_counts(shots=shots)
    from repro.compiler.superop import superop_plan_for

    n = _check_width(compiled)
    if inputs is not None:
        batch = np.asarray(inputs).shape[0]
    plan = superop_plan_for(compiled, noise_model, noise_factor)
    rho = zero_density(n, batch)
    for op in plan.superops(weights, inputs, batch):
        rho = apply_superop_to_density(
            rho, op.matrix, op.qubits, n, diagonal=op.diagonal
        )
    probs = density_probabilities(rho)
    return measured_expectations(probs, compiled, noise_model, shots, rng)


def run_noisy_density_reference(
    compiled: "CompiledCircuit",
    noise_model: NoiseModel,
    weights: "np.ndarray | None" = None,
    inputs: "np.ndarray | None" = None,
    batch: int = 1,
    noise_factor: float = 1.0,
    shots: "int | None" = None,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """The original per-Kraus density sweep (numerical baseline).

    Applies every gate as ``U rho U^dag``, then each operand qubit's
    Pauli channel Kraus-by-Kraus, the exact thermal-relaxation channel
    (models carrying T1/T2) and the coherent miscalibration as a
    separate unitary -- the pre-compiled-engine implementation, retained
    for the equivalence suite and perf-harness baselines.
    """
    from repro.noise.model import UNDRIVEN_GATES, VIRTUAL_GATES

    _check_counts(shots=shots)
    n = _check_width(compiled)
    scaled = noise_model.scaled(noise_factor) if noise_factor != 1.0 else noise_model
    if inputs is not None:
        batch = np.asarray(inputs).shape[0]
    ops = compiled.bind_plan.bind(weights, inputs, batch)
    rho = zero_density(n, batch)
    for op in ops:
        rho = apply_unitary_to_density(rho, op.matrix, op.qubits, n)
        phys = tuple(compiled.physical_qubits[q] for q in op.qubits)
        for local_q, (_phys_q, error) in zip(
            op.qubits, scaled.gate_errors(op.gate.name, phys)
        ):
            if error.total <= 0:
                continue
            kraus = pauli_channel(error.px, error.py, error.pz)
            rho = apply_kraus_to_density(rho, kraus, (local_q,), n)
        if op.gate.name not in VIRTUAL_GATES:
            for local_q, phys_q in zip(op.qubits, phys):
                kraus = scaled.relaxation_kraus_for(phys_q, len(op.qubits))
                if kraus is not None:
                    rho = apply_kraus_to_density(rho, kraus, (local_q,), n)
        if op.gate.name not in UNDRIVEN_GATES:
            for local_q, phys_q in zip(op.qubits, phys):
                coherent = scaled.coherent_for(phys_q)
                if coherent is not None:
                    rho = apply_unitary_to_density(
                        rho, _coherent_unitary(*coherent), (local_q,), n
                    )
    probs = density_probabilities(rho)
    return measured_expectations(probs, compiled, noise_model, shots, rng)

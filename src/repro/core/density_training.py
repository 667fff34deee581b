"""Exact-channel noisy training: adjoint gradients on superoperators.

Noise-injection training (paper Section 3.2) samples one concrete error
realization per step; its gradient is therefore a stochastic estimate of
the gradient under the *channel*.  This module computes that channel
gradient exactly: the forward pass evolves the density matrix through
the per-site superoperators compiled by :mod:`repro.compiler.superop`
(gate unitary x Pauli x relaxation x coherent channel per site), and the
backward pass runs the adjoint sweep *in superoperator space*.

The math is the linear-map analogue of the statevector adjoint
(:func:`repro.core.gradients.adjoint_backward`).  With the vectorized
density ``vec(rho)`` and per-site superoperators ``S_i``, the measured
loss is linear in the final state, ``L = a^T S_K ... S_1 vec(rho_0)``
(``a`` encodes the upstream dL/dprobs on the diagonal).  Propagating the
covector ``lam_{i-1} = S_i^T lam_i`` backward gives every parameter
gradient as

    dL/dtheta_i = Re[ lam_i^T (C_i dV_i) vec(rho_{i-1}) ],

where ``C_i`` is the site's constant noise channel and
``dV_i = kron(dU, U*) + kron(U, dU*)`` the derivative of the unitary
superoperator -- exact for every affine parameter expression (no
two-term shift-rule restrictions), noise channels included.  Unlike the
statevector adjoint, channels are not invertible, so the forward pass
stores the pre-site density at each differentiable site (k <= 8 qubits
keeps this cheap).

The executor wrapper lives in :class:`repro.core.executors.
DensityTrainExecutor`; ``TrainConfig(engine="density")`` switches a
training run onto this backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.circuits.parameters import INPUT, WEIGHT
from repro.sim.density import (
    apply_superop_to_density,
    density_probabilities,
    zero_density,
)
from repro.sim.statevector import z_signs

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.passes import CompiledCircuit
    from repro.noise.model import NoiseModel


@dataclass
class _Site:
    """One step of a density tape.

    ``op`` is None for fused constant segments (runs of
    constant-parameter sites merged into one superoperator by
    :meth:`repro.compiler.superop.SuperopPlan.training_stream`): no
    gradient flows through them, so forward and backward each apply a
    single merged matrix.
    """

    op: object  # BoundOp, or None for a fused constant segment
    superop: object  # SuperOp (gate x channel, ready to apply)
    channel: "np.ndarray | None"  # the constant channel factor alone
    rho_pre: "np.ndarray | None"  # pre-site density (differentiable sites)


@dataclass
class DensityTape:
    """Everything a density forward saves for the superop adjoint sweep."""

    sites: "list[_Site]"
    n_qubits: int
    n_weights: int
    n_inputs: int
    batch: int


def _unitary_superop_derivative(
    matrix: np.ndarray, dmatrix: np.ndarray
) -> np.ndarray:
    """d/dtheta of ``kron(U, U*)``: ``kron(dU, U*) + kron(U, dU*)``.

    Shared ``(d, d)`` or per-sample ``(batch, d, d)`` matrices, matching
    :func:`repro.sim.density.unitary_superop`'s conventions.
    """
    if matrix.ndim == 2:
        return np.kron(dmatrix, matrix.conj()) + np.kron(matrix, dmatrix.conj())
    batch, d = matrix.shape[0], matrix.shape[-1]
    full = np.einsum("bij,buv->biujv", dmatrix, matrix.conj())
    full = full + np.einsum("bij,buv->biujv", matrix, dmatrix.conj())
    return np.ascontiguousarray(full.reshape(batch, d * d, d * d))


def density_forward_with_tape(
    compiled: "CompiledCircuit",
    noise_model: "NoiseModel",
    weights: "np.ndarray | None",
    inputs: "np.ndarray | None",
    noise_factor: float = 1.0,
    batch: int = 1,
    n_weights: "int | None" = None,
    n_inputs: "int | None" = None,
) -> "tuple[np.ndarray, DensityTape]":
    """Exact noisy forward keeping the superoperator tape.

    Returns per-qubit Z expectations ``(batch, n_qubits)`` of the exact
    channel (readout excluded -- the executor applies it as an affine
    map, like the gate-insertion backend) and the tape for
    :func:`density_adjoint_backward`.
    """
    from repro.compiler.superop import superop_plan_for
    from repro.noise.density_backend import MAX_DENSITY_QUBITS

    circuit = compiled.circuit
    n = circuit.n_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(
            f"{n}-qubit density training too large; use gate insertion "
            "(with the Pauli-twirled noise model if this one carries "
            "exact relaxation channels)"
        )
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=float)
        batch = inputs.shape[0]
    plan = superop_plan_for(compiled, noise_model, noise_factor)
    rho = zero_density(n, batch)
    sites: "list[_Site]" = []
    # Constant-parameter runs arrive pre-fused into segment superops
    # (built once per plan, reused across every minibatch and weight
    # vector); differentiable sites are bound and built every step.
    for entry in plan.training_stream(weights, inputs, batch):
        if entry[0] == "segment":
            superop = entry[1]
            sites.append(_Site(None, superop, None, None))
        else:
            _, op, superop, index = entry
            sites.append(
                _Site(
                    op,
                    superop,
                    plan.channel(index) if op.grad_params else None,
                    rho if op.grad_params else None,
                )
            )
        rho = apply_superop_to_density(
            rho, superop.matrix, superop.qubits, n, diagonal=superop.diagonal
        )
    probs = density_probabilities(rho)
    expectations = probs @ z_signs(n).T
    table = circuit.parameter_table
    tape = DensityTape(
        sites,
        n,
        n_weights if n_weights is not None else table.num_weights,
        n_inputs if n_inputs is not None else table.num_inputs,
        batch,
    )
    return expectations, tape


def density_adjoint_backward(
    tape: DensityTape, grad_expectations: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Backpropagate dL/dE through the exact channel in one adjoint sweep.

    ``grad_expectations`` is ``(batch, n_qubits)`` upstream dL/dE_q.
    Returns ``(weight_grad summed over batch, per-sample input_grad)`` --
    the same contract as :func:`repro.core.gradients.adjoint_backward`,
    but exact under the full noise channel.
    """
    n = tape.n_qubits
    batch = tape.batch
    grad_expectations = np.asarray(grad_expectations, dtype=float)
    if grad_expectations.shape != (batch, n):
        raise ValueError(
            f"grad shape {grad_expectations.shape} != ({batch}, {n})"
        )
    dim = 2**n
    # L = sum_i dL/dprobs[i] * rho[i, i]: the covector starts as the
    # diagonal observable, stored matrix-shaped so superop kernels apply.
    dprobs = grad_expectations @ z_signs(n)  # (batch, dim)
    lam = np.zeros((batch, dim, dim), dtype=complex)
    lam[:, np.arange(dim), np.arange(dim)] = dprobs

    weight_grad = np.zeros(tape.n_weights)
    input_grad = np.zeros((batch, tape.n_inputs))

    for site in reversed(tape.sites):
        op, superop = site.op, site.superop
        if op is not None and op.grad_params:
            for which, expr in op.grad_params:
                dv = _unitary_superop_derivative(op.matrix, op.dmatrix(which))
                if site.channel is not None:
                    dv = np.matmul(site.channel, dv)
                drho = apply_superop_to_density(
                    site.rho_pre, dv, op.qubits, n, diagonal=False
                )
                # Plain (non-conjugated) pairing lam^T vec(drho).
                g = np.real(np.einsum("bij,bij->b", lam, drho))
                for kind, index, coeff in expr.terms:
                    if kind == WEIGHT:
                        weight_grad[index] += coeff * g.sum()
                    elif kind == INPUT:
                        input_grad[:, index] += coeff * g
        # lam_{i-1} = S_i^T lam_i: the transposed channel applies through
        # the same kernel (the embedding permutation is orthogonal, so
        # transposing the local matrix transposes the full superop).
        matrix = superop.matrix
        transposed = (
            matrix.transpose(0, 2, 1) if superop.batched else matrix.T
        )
        lam = apply_superop_to_density(
            lam, transposed, superop.qubits, n, diagonal=superop.diagonal
        )

    return weight_grad, input_grad

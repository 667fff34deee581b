"""Readout (measurement) error emulation -- paper Section 3.2.

The noise model gives each qubit a 2x2 confusion matrix
``M[true, measured]``.  For an outcome distribution ``P``, the noisy
distribution is ``P'(m) = sum_t P(t) M[t, m]``.  The paper's example:
``P(0)=0.3, P(1)=0.7`` on Santiago qubit 0 becomes ``P'(0)=0.31``.

Because QuantumNAT's QNN only consumes per-qubit Pauli-Z expectations,
the readout map acts on each expectation as an affine function

    E' = a * E + b,   a = (M00 - M01 + M11 - M10) / 2,
                      b = (M00 + M01 - M11 - M10) / 2 ... (derived below)

which keeps it exactly differentiable for noise-injected training.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.statevector import batched_multinomial, z_signs
from repro.utils.rng import as_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.passes import CompiledCircuit
    from repro.noise.model import NoiseModel


def readout_affine(matrix: np.ndarray) -> "tuple[float, float]":
    """Coefficients (a, b) with E' = a * E + b for one readout matrix.

    Derivation: with P0 = (1+E)/2 and P1 = (1-E)/2,
    E' = P0' - P1' = P0 (M00 - M01) + P1 (M10 - M11), hence
    a = ((M00 - M01) - (M10 - M11)) / 2 and
    b = ((M00 - M01) + (M10 - M11)) / 2.
    """
    m = np.asarray(matrix, dtype=float)
    d0 = m[0, 0] - m[0, 1]
    d1 = m[1, 0] - m[1, 1]
    return (d0 - d1) / 2.0, (d0 + d1) / 2.0


def apply_readout_to_expectations(
    expectations: np.ndarray, readout: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Apply per-qubit readout error to <Z> values.

    Parameters
    ----------
    expectations:
        ``(batch, n_qubits)`` noiseless expectations.
    readout:
        ``(n_qubits, 2, 2)`` confusion matrices aligned with the columns.

    Returns
    -------
    (noisy expectations, scale vector ``a``) -- the scale is needed by the
    backward pass (dE'/dE = a).
    """
    expectations = np.asarray(expectations, dtype=float)
    n_qubits = expectations.shape[1]
    scales = np.empty(n_qubits)
    shifts = np.empty(n_qubits)
    for q in range(n_qubits):
        scales[q], shifts[q] = readout_affine(readout[q])
    return expectations * scales[None, :] + shifts[None, :], scales


def apply_readout_to_joint_probabilities(
    probs: np.ndarray, readout: np.ndarray
) -> np.ndarray:
    """Apply per-qubit readout confusion to a joint distribution.

    ``probs`` is ``(batch, 2**n)``; each qubit's bit is mixed independently
    according to its confusion matrix.  Used before shot sampling so that
    sampled counts include readout noise.
    """
    probs = np.asarray(probs, dtype=float)
    batch, dim = probs.shape
    n_qubits = dim.bit_length() - 1
    if 2**n_qubits != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    out = probs
    for q in range(n_qubits):
        m = readout[q]
        reshaped = out.reshape(batch, dim // (2 ** (q + 1)), 2, 2**q)
        p_true0 = reshaped[:, :, 0, :]
        p_true1 = reshaped[:, :, 1, :]
        mixed = np.empty_like(reshaped)
        mixed[:, :, 0, :] = m[0, 0] * p_true0 + m[1, 0] * p_true1
        mixed[:, :, 1, :] = m[0, 1] * p_true0 + m[1, 1] * p_true1
        out = mixed.reshape(batch, dim)
    return out


def measured_expectations(
    probs: np.ndarray,
    compiled: "CompiledCircuit",
    noise_model: "NoiseModel",
    shots: "int | None",
    rng: "int | np.random.Generator | None",
) -> np.ndarray:
    """Readout confusion + (optional) shot sampling, in logical order.

    The one measurement tail of the density and trajectory engines:
    joint ``probs`` over the compact circuit's basis states are mixed by
    each physical qubit's confusion matrix
    (:func:`apply_readout_to_joint_probabilities`) and become per-qubit
    <Z> of the measured qubits.  ``shots`` draws one batched multinomial
    off the caller's stream (:func:`~repro.utils.rng.as_rng`), so seeded
    callers get reproducible counts.
    """
    n = compiled.circuit.n_qubits
    readout = np.stack(
        [noise_model.readout_for(p) for p in compiled.physical_qubits]
    )
    probs = apply_readout_to_joint_probabilities(probs, readout)
    if shots is None:
        expectations = probs @ z_signs(n).T
    else:
        rng = as_rng(rng)
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum(axis=1, keepdims=True)
        counts = batched_multinomial(rng, shots, probs)
        expectations = (counts / shots) @ z_signs(n).T
    return expectations[:, list(compiled.measure_qubits)]


def noisy_probability_pair(p0: float, matrix: np.ndarray) -> "tuple[float, float]":
    """The paper's worked example, for a single qubit.

    ``P'(0) = P(0) M00 + P(1) M10`` and ``P'(1) = P(1) M11 + P(0) M01``.
    """
    p1 = 1.0 - p0
    m = np.asarray(matrix, dtype=float)
    return p0 * m[0, 0] + p1 * m[1, 0], p1 * m[1, 1] + p0 * m[0, 1]

"""Quantum gate library with analytic parameter derivatives.

Every gate used by the paper's five design spaces is defined here:

* fixed gates -- ``id, x, y, z, h, sx, sxdg, s, sdg, t, tdg, sh`` (sqrt-H),
  ``cx, cz, cy, swap, sqswap``
* parameterized gates -- ``rx, ry, rz, u1, u3, cu3, crx, cry, crz,
  rzz, rxx, ryy, rzx``

Conventions
-----------
* Little-endian: for a k-qubit gate applied to ``qubits = (q0, q1, ...)``
  the gate-matrix index is ``sum(bit(q_i) << i)``, i.e. ``qubits[0]`` is
  the least-significant bit of the gate's own basis index.  For controlled
  gates the *first* listed qubit is the control.
* Rotation gates follow ``R_P(theta) = exp(-i * theta / 2 * P)``.
* Matrix builders broadcast over parameter arrays: a parameter of shape
  ``(batch,)`` yields matrices of shape ``(batch, d, d)``.  This is what
  lets the statevector engine run a whole training batch (whose encoder
  angles differ per sample) in single vectorized numpy calls.
* ``GateDef.dmatrix(params, which)`` returns the elementwise derivative
  of the gate matrix with respect to parameter ``which``.
* The single-parameter rotations (``rx, ry, rz, rxx, ryy, rzz, rzx, crx,
  cry, crz, u1``) also declare their generator: the Hermitian ``G`` with
  ``dU/dtheta = -(i/2) G U``.  The adjoint engine
  (``repro.core.gradients``) reads their gradients off the post-gate
  state with ``G`` and needs no derivative matrix; ``u3``/``cu3`` have
  three parameters and keep ``dmatrix``.
* Fixed gate matrices, like every constant the simulator shares between
  calls, are read-only: writing into one raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# ---------------------------------------------------------------------------
# Constant matrices
# ---------------------------------------------------------------------------


def frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it (shared constants only)."""
    array.flags.writeable = False
    return array


I2 = frozen(np.eye(2, dtype=complex))
PAULI_X = frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = frozen(np.array([[1, 0], [0, -1]], dtype=complex))
HADAMARD = frozen(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
SX_MATRIX = frozen(
    0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
)
S_MATRIX = frozen(np.array([[1, 0], [0, 1j]], dtype=complex))
T_MATRIX = frozen(np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex))

PAULI_BY_NAME = {"i": I2, "x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def _sqrtm_2x2(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 normal matrix via eigendecomposition."""
    values, vectors = np.linalg.eig(matrix)
    return vectors @ np.diag(np.sqrt(values.astype(complex))) @ np.linalg.inv(vectors)


SH_MATRIX = frozen(_sqrtm_2x2(HADAMARD))  # sqrt(H), used by the 'rxyz' design space

# Two-qubit constants (index = bit(q0) + 2 * bit(q1); q0 = control for CX)
CX_MATRIX = frozen(np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
))
CZ_MATRIX = frozen(np.diag([1, 1, 1, -1]).astype(complex))
CY_MATRIX = frozen(np.array(
    [[1, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1, 0], [0, 1j, 0, 0]], dtype=complex
))
SWAP_MATRIX = frozen(np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
))
_s = 0.5 * (1 + 1j)
SQSWAP_MATRIX = frozen(np.array(
    [
        [1, 0, 0, 0],
        [0, _s, _s.conjugate(), 0],
        [0, _s.conjugate(), _s, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
))

# Kronecker products in our index convention: operator on qubit 1 is the
# *left* factor because it owns the more-significant bit.
XX_KRON = frozen(np.kron(PAULI_X, PAULI_X))
YY_KRON = frozen(np.kron(PAULI_Y, PAULI_Y))
ZZ_KRON = frozen(np.kron(PAULI_Z, PAULI_Z))
XZ_KRON = frozen(np.kron(PAULI_X, PAULI_Z))  # Z on qubits[0], X on qubits[1]


# ---------------------------------------------------------------------------
# Broadcast-friendly matrix builders
# ---------------------------------------------------------------------------


def _broadcast_fixed(matrix: np.ndarray) -> Callable[[tuple], np.ndarray]:
    def build(params: tuple) -> np.ndarray:
        return matrix

    return build


def _rotation_builder(generator: np.ndarray) -> Callable[[tuple], np.ndarray]:
    """exp(-i theta/2 G) for an involutory generator (G^2 = I)."""
    eye = np.eye(generator.shape[0], dtype=complex)
    neg_i_generator = -1j * generator

    def build(params: tuple) -> np.ndarray:
        theta = params[0]
        if not isinstance(theta, np.ndarray):
            # Scalar fast path: math.cos/sin skip the ufunc machinery.
            half = float(theta) * 0.5
            return math.cos(half) * eye + math.sin(half) * neg_i_generator
        theta = np.asarray(theta, dtype=float)
        cos = np.cos(theta / 2)[..., None, None]
        sin = np.sin(theta / 2)[..., None, None]
        return cos * eye + sin * neg_i_generator

    return build


def _rotation_deriv(generator: np.ndarray) -> Callable[[tuple, int], np.ndarray]:
    eye = np.eye(generator.shape[0], dtype=complex)
    neg_half_i_generator = -0.5j * generator

    def deriv(params: tuple, which: int) -> np.ndarray:
        theta = np.asarray(params[0], dtype=float)
        cos = np.cos(theta / 2)[..., None, None]
        sin = np.sin(theta / 2)[..., None, None]
        return (-0.5 * sin) * eye + cos * neg_half_i_generator

    return deriv


def _u1_matrix(params: tuple) -> np.ndarray:
    lam = np.asarray(params[0], dtype=float)
    shape = lam.shape + (2, 2)
    out = np.zeros(shape, dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = np.exp(1j * lam)
    return out


def _u1_deriv(params: tuple, which: int) -> np.ndarray:
    lam = np.asarray(params[0], dtype=float)
    out = np.zeros(lam.shape + (2, 2), dtype=complex)
    out[..., 1, 1] = 1j * np.exp(1j * lam)
    return out


def _u3_matrix(params: tuple) -> np.ndarray:
    theta, phi, lam = (np.asarray(p, dtype=float) for p in params)
    theta, phi, lam = np.broadcast_arrays(theta, phi, lam)
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    out = np.zeros(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cos
    out[..., 0, 1] = -np.exp(1j * lam) * sin
    out[..., 1, 0] = np.exp(1j * phi) * sin
    out[..., 1, 1] = np.exp(1j * (phi + lam)) * cos
    return out


def _u3_deriv(params: tuple, which: int) -> np.ndarray:
    theta, phi, lam = (np.asarray(p, dtype=float) for p in params)
    theta, phi, lam = np.broadcast_arrays(theta, phi, lam)
    cos, sin = np.cos(theta / 2), np.sin(theta / 2)
    out = np.zeros(theta.shape + (2, 2), dtype=complex)
    if which == 0:
        out[..., 0, 0] = -0.5 * sin
        out[..., 0, 1] = -0.5 * np.exp(1j * lam) * cos
        out[..., 1, 0] = 0.5 * np.exp(1j * phi) * cos
        out[..., 1, 1] = -0.5 * np.exp(1j * (phi + lam)) * sin
    elif which == 1:
        out[..., 1, 0] = 1j * np.exp(1j * phi) * sin
        out[..., 1, 1] = 1j * np.exp(1j * (phi + lam)) * cos
    elif which == 2:
        out[..., 0, 1] = -1j * np.exp(1j * lam) * sin
        out[..., 1, 1] = 1j * np.exp(1j * (phi + lam)) * cos
    else:
        raise ValueError(f"u3 has 3 parameters, got index {which}")
    return out


def _controlled(block_fn: Callable[[tuple], np.ndarray]) -> Callable[[tuple], np.ndarray]:
    """Lift a 1q matrix builder to its controlled 2q version.

    Control is qubits[0] (gate-index bit 0), so the control=1 subspace is
    indices {1, 3} with the target bit selecting between them.
    """

    def build(params: tuple) -> np.ndarray:
        block = block_fn(params)
        lead = block.shape[:-2]
        out = np.zeros(lead + (4, 4), dtype=complex)
        out[..., 0, 0] = 1.0
        out[..., 2, 2] = 1.0
        out[..., 1, 1] = block[..., 0, 0]
        out[..., 1, 3] = block[..., 0, 1]
        out[..., 3, 1] = block[..., 1, 0]
        out[..., 3, 3] = block[..., 1, 1]
        return out

    return build


def _control_projected(matrix: np.ndarray) -> np.ndarray:
    """``|1><1| (x) matrix`` with the control on ``qubits[0]`` (bit 0)."""
    out = np.zeros((4, 4), dtype=complex)
    out[1::2, 1::2] = matrix
    return frozen(out)


def _controlled_deriv(
    deriv_fn: Callable[[tuple, int], np.ndarray]
) -> Callable[[tuple, int], np.ndarray]:
    def deriv(params: tuple, which: int) -> np.ndarray:
        block = deriv_fn(params, which)
        lead = block.shape[:-2]
        out = np.zeros(lead + (4, 4), dtype=complex)
        out[..., 1, 1] = block[..., 0, 0]
        out[..., 1, 3] = block[..., 0, 1]
        out[..., 3, 1] = block[..., 1, 0]
        out[..., 3, 3] = block[..., 1, 1]
        return out

    return deriv


# ---------------------------------------------------------------------------
# Gate registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateDef:
    """Definition of a gate: arity, parameter count and matrix builders."""

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Callable[[tuple], np.ndarray] = field(repr=False)
    deriv_fn: "Callable[[tuple, int], np.ndarray] | None" = field(
        default=None, repr=False
    )
    #: Hermitian ``G`` with ``dU/dtheta = -(i/2) G U`` (single-parameter
    #: rotations only; ``None`` elsewhere).
    generator: "np.ndarray | None" = field(default=None, repr=False)

    def matrix(self, params: tuple = ()) -> np.ndarray:
        """Gate matrix; broadcasts over array-valued parameters."""
        if len(params) != self.num_params:
            raise ValueError(
                f"{self.name} expects {self.num_params} params, got {len(params)}"
            )
        return self.matrix_fn(tuple(params))

    def dmatrix(self, params: tuple, which: int) -> np.ndarray:
        """Derivative of the gate matrix w.r.t. parameter ``which``."""
        if self.deriv_fn is None:
            raise ValueError(f"{self.name} has no parameters to differentiate")
        if not 0 <= which < self.num_params:
            raise ValueError(f"{self.name}: bad parameter index {which}")
        return self.deriv_fn(tuple(params), which)


def _build_registry() -> "dict[str, GateDef]":
    registry: dict[str, GateDef] = {}

    def fixed(name: str, matrix: np.ndarray, nq: int) -> None:
        registry[name] = GateDef(name, nq, 0, _broadcast_fixed(frozen(matrix)))

    def rot(name: str, generator: np.ndarray, nq: int) -> None:
        registry[name] = GateDef(
            name, nq, 1, _rotation_builder(generator),
            _rotation_deriv(generator), generator,
        )

    fixed("id", I2, 1)
    fixed("x", PAULI_X, 1)
    fixed("y", PAULI_Y, 1)
    fixed("z", PAULI_Z, 1)
    fixed("h", HADAMARD, 1)
    fixed("sx", SX_MATRIX, 1)
    fixed("sxdg", SX_MATRIX.conj().T, 1)
    fixed("s", S_MATRIX, 1)
    fixed("sdg", S_MATRIX.conj().T, 1)
    fixed("t", T_MATRIX, 1)
    fixed("tdg", T_MATRIX.conj().T, 1)
    fixed("sh", SH_MATRIX, 1)
    fixed("shdg", SH_MATRIX.conj().T, 1)
    fixed("cx", CX_MATRIX, 2)
    fixed("cz", CZ_MATRIX, 2)
    fixed("cy", CY_MATRIX, 2)
    fixed("swap", SWAP_MATRIX, 2)
    fixed("sqswap", SQSWAP_MATRIX, 2)

    rot("rx", PAULI_X, 1)
    rot("ry", PAULI_Y, 1)
    rot("rz", PAULI_Z, 1)
    rot("rxx", XX_KRON, 2)
    rot("ryy", YY_KRON, 2)
    rot("rzz", ZZ_KRON, 2)
    rot("rzx", XZ_KRON, 2)  # Z on qubits[0], X on qubits[1]

    # u1(l) = diag(1, e^{il}) = e^{il/2} rz(l): dU/dl = -(i/2) diag(0, -2) U.
    registry["u1"] = GateDef(
        "u1", 1, 1, _u1_matrix, _u1_deriv,
        frozen(np.diag([0.0, -2.0]).astype(complex)),
    )
    registry["u3"] = GateDef("u3", 1, 3, _u3_matrix, _u3_deriv)
    registry["cu3"] = GateDef(
        "cu3", 2, 3, _controlled(_u3_matrix), _controlled_deriv(_u3_deriv)
    )
    for axis in "xyz":
        base = registry[f"r{axis}"]
        registry[f"cr{axis}"] = GateDef(
            f"cr{axis}",
            2,
            1,
            _controlled(base.matrix_fn),
            _controlled_deriv(base.deriv_fn),
            _control_projected(base.generator),
        )
    return registry


GATES: "dict[str, GateDef]" = _build_registry()


def gate_def(name: str) -> GateDef:
    """Look up a gate definition by (case-insensitive) name."""
    try:
        return GATES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown gate {name!r}; available: {sorted(GATES)}"
        ) from None


def gate_matrix(name: str, params: tuple = ()) -> np.ndarray:
    """Convenience: matrix of gate ``name`` with ``params``."""
    return gate_def(name).matrix(params)

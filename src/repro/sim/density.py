"""Batched density-matrix simulator with Kraus channels.

Used as the *exact* noisy-inference backend ("evaluation with noise
model", paper Table 11): gates apply as ``rho -> U rho U^dag`` and each
noise channel as ``rho -> sum_k O_k rho O_k^dag``.  Densities are stored
as ``(batch, dim, dim)`` arrays; practical up to ~8 qubits, which covers
all 4-qubit benchmarks.  Wider (10-qubit) models fall back to the
Pauli-trajectory estimator in :mod:`repro.noise.trajectory`.

Superoperator kernels
---------------------
The fast density engine works in *superoperator* form: a k-qubit channel
is one ``(4**k, 4**k)`` matrix acting on the vectorized density.  The
convention here pairs row and column indices C-order style -- a density
``rho[r, c]`` flattens to index ``r * 2**k + c``, so the superoperator of
a unitary is ``kron(U, U.conj())`` and of a Kraus set
``sum_k kron(O_k, O_k.conj())`` (one stacked einsum, see
:func:`kraus_superop`).  :func:`apply_superop_to_density` then applies a
whole channel in a *single* transpose + GEMM pass over the density --
where the per-Kraus route pays two passes per operator (eight for the
4-Kraus Pauli channel) -- with a structured fast path for diagonal
superoperators (dephasing-type channels, rz/cz sites) that skips the
GEMM entirely.  The kernels are channel-agnostic: the compiled engine
feeds them Pauli channels, exact thermal-relaxation (amplitude/phase
damping) Kraus sets and coherent rotations alike, and the
adjoint-on-superops training backend reuses them with transposed
matrices for its backward sweep.  The per-operator route is retained as
``apply_kraus_to_density`` / ``apply_unitary_to_density`` and doubles as
the numerical reference for the compiled engine
(:mod:`repro.compiler.superop`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.sim.statevector import z_signs


def zero_density(n_qubits: int, batch: int = 1) -> np.ndarray:
    """|0...0><0...0| replicated over the batch: (batch, dim, dim)."""
    dim = 2**n_qubits
    rho = np.zeros((batch, dim, dim), dtype=complex)
    rho[:, 0, 0] = 1.0
    return rho


def density_from_state(state: np.ndarray) -> np.ndarray:
    """Outer product |psi><psi| per batch entry."""
    return np.einsum("bi,bj->bij", state, state.conj())


def _move_qubits_last(
    rho: np.ndarray, qubits: "tuple[int, ...]", n_qubits: int, side: str
) -> "tuple[np.ndarray, tuple[int, ...], tuple]":
    """Reshape rho so the given qubits' bits (row or column) are last."""
    batch = rho.shape[0]
    k = len(qubits)
    # Layout: (batch, row bits n-1..0, col bits n-1..0)
    tensor = rho.reshape((batch,) + (2,) * (2 * n_qubits))
    offset = 1 if side == "row" else 1 + n_qubits
    axes = [offset + (n_qubits - 1 - q) for q in qubits]
    kept = [a for a in range(1, 1 + 2 * n_qubits) if a not in axes]
    perm = (0, *kept, *(axes[i] for i in reversed(range(k))))
    reshaped = tensor.transpose(perm).reshape(batch, -1, 2**k)
    return reshaped, perm, tensor.shape


def _restore(out: np.ndarray, perm: tuple, shape: tuple) -> np.ndarray:
    batch = shape[0]
    dim = int(np.sqrt(np.prod(shape[1:])))
    out = out.reshape([shape[p] for p in perm])
    return out.transpose(np.argsort(perm)).reshape(batch, dim, dim)


def apply_unitary_to_density(
    rho: np.ndarray,
    matrix: np.ndarray,
    qubits: "tuple[int, ...]",
    n_qubits: int,
) -> np.ndarray:
    """rho -> U rho U^dag on the given qubits (U shared or per-sample)."""
    # Left multiply on row indices.
    reshaped, perm, shape = _move_qubits_last(rho, qubits, n_qubits, "row")
    if matrix.ndim == 2:
        out = np.einsum("ij,brj->bri", matrix, reshaped, optimize=True)
    else:
        out = np.einsum("bij,brj->bri", matrix, reshaped, optimize=True)
    rho = _restore(out, perm, shape)
    # Right multiply U^dag on column indices: (U rho)_col contraction with conj.
    reshaped, perm, shape = _move_qubits_last(rho, qubits, n_qubits, "col")
    if matrix.ndim == 2:
        out = np.einsum("ij,brj->bri", matrix.conj(), reshaped, optimize=True)
    else:
        out = np.einsum("bij,brj->bri", matrix.conj(), reshaped, optimize=True)
    return _restore(out, perm, shape)


def apply_kraus_to_density(
    rho: np.ndarray,
    kraus_ops: "list[np.ndarray]",
    qubits: "tuple[int, ...]",
    n_qubits: int,
) -> np.ndarray:
    """rho -> sum_k O_k rho O_k^dag on the given qubits."""
    total = np.zeros_like(rho)
    for op in kraus_ops:
        total += apply_unitary_to_density(rho, op, qubits, n_qubits)
    return total


def unitary_superop(matrix: np.ndarray) -> np.ndarray:
    """Superoperator of ``rho -> U rho U^dag``: ``kron(U, U.conj())``.

    Accepts a shared ``(d, d)`` matrix or per-sample ``(batch, d, d)``
    matrices (returning ``(batch, d*d, d*d)``).
    """
    if matrix.ndim == 2:
        return np.kron(matrix, matrix.conj())
    batch, d = matrix.shape[0], matrix.shape[-1]
    full = np.einsum("bij,buv->biujv", matrix, matrix.conj())
    return np.ascontiguousarray(full.reshape(batch, d * d, d * d))


def kraus_superop(kraus_ops: "list[np.ndarray] | np.ndarray") -> np.ndarray:
    """Superoperator of ``rho -> sum_k O_k rho O_k^dag``.

    One stacked einsum over the ``(n_kraus, d, d)`` operator stack --
    this is how the compiled density engine turns the 4-Kraus Pauli
    channel into a single matrix instead of four U.rho.U^dag round trips.
    """
    stack = np.asarray(kraus_ops, dtype=complex)
    d = stack.shape[-1]
    full = np.einsum("kij,kuv->iujv", stack, stack.conj())
    return np.ascontiguousarray(full.reshape(d * d, d * d))


def superop_is_diagonal(superop: np.ndarray) -> bool:
    """True when a shared superoperator is diagonal (structured path)."""
    if superop.ndim != 2:
        return False
    off = superop[~np.eye(superop.shape[0], dtype=bool)]
    return not np.any(off)


@functools.lru_cache(maxsize=1024)
def _superop_plan(n_qubits: int, qubits: "tuple[int, ...]"):
    """Cached transpose layout exposing a qubit set's row AND col bits.

    The returned permutation moves the target qubits' row bits then
    column bits to the end (each group ordered so ``qubits[0]`` is the
    least significant), which makes the flattened trailing axis exactly
    the superoperator index ``r * 2**k + c``.
    """
    k = len(qubits)
    # Layout: (batch, row bits n-1..0, col bits n-1..0).
    row_axes = [1 + (n_qubits - 1 - q) for q in qubits]
    col_axes = [1 + n_qubits + (n_qubits - 1 - q) for q in qubits]
    targets = (
        [row_axes[i] for i in reversed(range(k))]
        + [col_axes[i] for i in reversed(range(k))]
    )
    kept = [a for a in range(1, 1 + 2 * n_qubits) if a not in targets]
    perm = (0, *kept, *targets)
    inverse = tuple(int(i) for i in np.argsort(perm))
    return perm, inverse


def apply_superop_to_density(
    rho: np.ndarray,
    superop: np.ndarray,
    qubits: "tuple[int, ...]",
    n_qubits: int,
    diagonal: "bool | None" = None,
) -> np.ndarray:
    """Apply a compiled channel to the density in one fused pass.

    ``superop`` is ``(4**k, 4**k)`` (shared) or ``(batch, 4**k, 4**k)``
    (per-sample) in the :func:`unitary_superop` index convention.  One
    cached transpose exposes the target qubits' row and column bits
    together, one GEMM contracts the whole channel, one transpose
    restores the layout.  ``diagonal`` short-circuits the structure
    check for callers that precomputed it (the compiled superop plan).
    """
    batch = rho.shape[0]
    k = len(qubits)
    dim_super = 4**k
    if superop.shape[-2:] != (dim_super, dim_super):
        raise ValueError(
            f"superop shape {superop.shape} does not match {k}-qubit channel"
        )
    perm, inverse = _superop_plan(n_qubits, tuple(qubits))
    tensor = rho.reshape((batch,) + (2,) * (2 * n_qubits))
    tensor = tensor.transpose(perm).reshape(batch, -1, dim_super)
    if superop.ndim == 2:
        if diagonal is None:
            diagonal = superop_is_diagonal(superop)
        if diagonal:
            # Diagonal channel (dephasing-type, rz/cz sites): elementwise
            # scaling of the exposed axis, no GEMM.
            out = tensor * np.diagonal(superop)[None, None, :]
        else:
            # Shared superop: one flat GEMM over all (batch * rest) rows.
            out = (tensor.reshape(-1, dim_super) @ superop.T).reshape(tensor.shape)
    else:
        out = np.matmul(tensor, superop.transpose(0, 2, 1))
    out = out.reshape((batch,) + (2,) * (2 * n_qubits)).transpose(inverse)
    dim = 2**n_qubits
    return out.reshape(batch, dim, dim)


def density_probabilities(rho: np.ndarray) -> np.ndarray:
    """Diagonal of rho: joint basis probabilities (batch, dim)."""
    return np.real(np.einsum("bii->bi", rho))


def density_z_expectations(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    """Per-qubit <Z> = tr(Z_q rho): shape (batch, n_qubits)."""
    return density_probabilities(rho) @ z_signs(n_qubits).T


def purity(rho: np.ndarray) -> np.ndarray:
    """tr(rho^2) per batch entry -- 1 for pure states, < 1 when noisy."""
    return np.real(np.einsum("bij,bji->b", rho, rho))

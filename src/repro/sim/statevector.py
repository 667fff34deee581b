"""Batched statevector simulator with a cached fast gate-apply engine.

States are ``(batch, 2**n)`` complex arrays (little-endian indices).  Gate
application reshapes the state so the target qubits' bit-axes are exposed,
then contracts with the gate matrix -- either a shared ``(d, d)`` matrix
or per-sample ``(batch, d, d)`` matrices (needed when a gate angle encodes
an input feature that differs across the batch).

Running a whole training batch through numpy in one shot is what makes a
pure-Python reproduction of QuantumNAT's training loop practical: a
4-qubit, ~100-gate QNN forward over a 64-sample batch is a handful of
einsum calls.

Fast-engine design
------------------
The hot path rests on five pieces:

* **Gate kernels** (:class:`Kernel`, :func:`gate_kernel`): a bound op's
  matrix is classified once, the first time a sweep applies the op, and
  the kernel is kept on the op.  A *diagonal* gate (rz, z, s, cz, rzz,
  per-row encoder rz...) becomes one phase per amplitude -- shared, or
  one row of phases per sample -- and applies as a single multiply; a
  *signed permutation* (x, y, cx, swap...) becomes one source index per
  amplitude plus optional phases, a ``take`` and at most one multiply;
  any other shared gate becomes its full-width ``(2**n, 2**n)`` matrix,
  one GEMM per block of rows small enough that OpenBLAS never threads
  it (:data:`_GEMM_BLOCK`), up to :data:`_DENSE_MAX_QUBITS` qubits, and
  keeps the raw route above that.  Each kernel also builds its
  conjugate transpose once (the inverse the adjoint sweep un-applies
  with).  Constant gates'
  kernels live in one process-wide memo (``sim.kernels``), keyed on the
  matrix bytes, so the freshly sampled noisy circuit of each
  gate-insertion step reuses them.  :func:`apply_matrix` accepts a
  kernel in place of a matrix; :func:`run_ops`, the banded and MCWF
  sweeps and the adjoint sweep pass kernels, so a gate costs one or two
  numpy calls.
* **Fused-run kernels** (:func:`fused_kernels`): the training sweep,
  trajectory tiles and fused inference apply merged gate runs of at
  most two qubits from one plan
  (:class:`repro.compiler.fusion.FusionPlan`), all of its runs
  materialized together, once per step or tile by its ``sweep`` or
  once per weight vector by its ``fused_ops``.  Their kernels come in
  one batch from the runs' zero-padded ``(runs, 4, 4)`` matrices: up to
  :data:`_DENSE_MAX_QUBITS` qubits one gather builds every full-width
  dense matrix and one more every conjugate transpose (memoized index
  tables, :func:`_padded_gather`); wider, each run keeps the raw route.
  A training step's kernel is never classified; ``fused_ops``, whose
  runs are reused per weight vector, gives a monomial run (rz, cx, x
  products) its diagonal or permutation kernel.
* **Raw-matrix route** (:func:`_apply_plan`): a plain matrix goes through
  the original kernels, keyed per ``(n_qubits, qubits)`` signature by a
  memoized reshape factorization / permutation.  1-qubit gates and
  *structured* 2-qubit gates (CX permutation, diagonals) never transpose
  the state -- they reshape (a view) so the target axes sit between
  untouched blocks and apply slice kernels in place.  Dense 2q matrices
  and 3+-qubit gates use the cached transpose route (move target axes
  last, one small matmul -- per row on wide states -- move back).  Pauli
  strings, ``circuit_unitary`` and the reference sweeps use this route,
  as do per-row kernels that are not diagonal, fused runs wider than
  :data:`_DENSE_MAX_QUBITS` and kernels wider than
  :data:`_KERNEL_MAX_QUBITS`.
* **Work buffers**: :func:`apply_matrix` accepts ``out=`` (distinct from
  the input; overlap raises); callers such as :func:`run_ops` and the
  adjoint backward sweep ping-pong between two preallocated ``(batch,
  2**n)`` buffers instead of allocating two fresh arrays per gate.
* **Bind plan** (:class:`BindPlan`): a circuit is classified once into
  constant / weight-dependent / input-dependent gates.  Constant gates --
  the vast majority after transpilation and error-gate insertion -- get
  their :class:`BoundOp` (matrix included) built exactly once and reused
  across every training step; constant matrices are additionally shared
  process-wide, read-only, through :func:`constant_gate_matrix`.  The
  plan itself lives in the circuit's :func:`~repro.utils.cache
  .circuit_cache`.  Parameterized gates are re-evaluated on every call
  -- the fused plans ask only for the ones they rebuild -- and
  per-sample values stay broadcast *views*, never materialized copies.

The original straightforward implementations are kept as
``*_reference`` functions; ``tests/test_fast_engine.py`` and the
``benchmarks/perf`` harness assert the fast paths agree with them to
1e-10.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.gates import CX_MATRIX, frozen, gate_def
from repro.utils.cache import Cache, circuit_cache
from repro.utils.rng import as_rng

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.circuits.circuit import Circuit, Gate


def zero_state(n_qubits: int, batch: int = 1) -> np.ndarray:
    """The |0...0> state replicated ``batch`` times: shape (batch, 2**n)."""
    state = np.zeros((batch, 2**n_qubits), dtype=complex)
    state[:, 0] = 1.0
    return state


# ---------------------------------------------------------------------------
# Apply-kernel cache
# ---------------------------------------------------------------------------


class _ApplyPlan:
    """Precomputed layout for applying a gate on a fixed qubit signature."""

    __slots__ = (
        "k", "left", "right", "blocks", "swap", "perm", "inverse",
        "layout", "dense",
    )


#: einsum signatures for the in-place 1-qubit contraction on the
#: ``(batch, left, 2, right)`` view of the state.
_SUB1_SHARED = "xu,baud->baxd"
_SUB1_BATCHED = "bxu,baud->baxd"


@functools.lru_cache(maxsize=4096)
def _apply_plan(n_qubits: int, qubits: "tuple[int, ...]") -> _ApplyPlan:
    """Layout plan for a ``(n_qubits, qubits)`` gate signature (memoized)."""
    plan = _ApplyPlan()
    k = len(qubits)
    plan.k = k
    plan.layout = plan.dense = None  # kernel operands, built on first use
    if k == 1:
        q = qubits[0]
        plan.left = 1 << (n_qubits - 1 - q)
        plan.right = 1 << q
    elif k == 2:
        q0, q1 = qubits
        qa, qb = (q0, q1) if q0 > q1 else (q1, q0)
        plan.blocks = (
            1 << (n_qubits - 1 - qa),  # A: bits above qa
            1 << (qa - qb - 1),        # C: bits between qa and qb
            1 << qb,                   # D: bits below qb
        )
        # The gate matrix index is bit(q0) + 2*bit(q1); when q0 > q1 the
        # gate's *low* bit sits on the more-significant state axis, so the
        # (2,2,2,2) gate view must swap its bit roles.
        plan.swap = q0 > q1
    if k >= 2:
        # Transpose route: move target axes last, contract, move back.
        # For k == 2 this doubles as the *general-matrix* path -- the
        # in-place 6-axis einsum only wins for structured (diagonal / CX)
        # matrices, so dense 2q gates (fused runs, cu3) go through here.
        axes = [1 + (n_qubits - 1 - q) for q in qubits]
        kept = [a for a in range(1, n_qubits + 1) if a not in axes]
        perm = (0, *kept, *(axes[i] for i in reversed(range(k))))
        plan.perm = perm
        plan.inverse = tuple(int(i) for i in np.argsort(perm))
    return plan


def _contract(sub: str, gate: np.ndarray, tensor: np.ndarray, out):
    # optimize=False dispatches straight to C einsum: for these fixed
    # two-operand contractions the path search (re-run internally on
    # *every* call, even when a precomputed path is passed) costs an order
    # of magnitude more than the contraction itself at QNN sizes.
    return np.einsum(sub, gate, tensor, out=out, optimize=False)


#: Above this many state entries the single-pass einsum kernel wins over
#: slice arithmetic (memory-bound regime); below it, minimizing the number
#: of numpy calls dominates.
_SLICE_CUTOFF = 1 << 17

#: From this many amplitudes per row, shared dense matrices on the
#: transpose route contract as one small GEMM per row instead of one
#: flat GEMM over the whole stack (see :func:`apply_matrix`).
_ROW_GEMM_MIN_DIM = 1 << 9


def _apply_1q(tensor, matrix, target):
    """1-qubit apply on a ``(batch, left, 2, right)`` view.

    Writes into ``target`` (same layout) when given, else allocates.
    At QNN sizes per-call overhead dominates, so the kernel is a handful
    of explicit scalar-broadcast ufunc calls on the two bit-slices rather
    than one broadcast ``matmul`` over thousands of 2x2 blocks.  Diagonal
    and anti-diagonal matrices (rz/z/s/t/u1, x/y, sampled Pauli errors)
    reduce to two scaled copies; general matrices fall back to a single
    C-einsum pass once the state is large enough to be memory-bound.
    """
    t0 = tensor[:, :, 0, :]
    t1 = tensor[:, :, 1, :]
    if matrix.ndim == 2:
        m00, m01 = matrix[0]
        m10, m11 = matrix[1]
        structured = (m01 == 0 and m10 == 0) or (m00 == 0 and m11 == 0)
    else:
        m = matrix[:, :, :, None, None]
        m00, m01 = m[:, 0, 0], m[:, 0, 1]
        m10, m11 = m[:, 1, 0], m[:, 1, 1]
        structured = not (
            matrix[:, 0, 1].any() or matrix[:, 1, 0].any()
        )
    if not structured and tensor.size > _SLICE_CUTOFF:
        sub = _SUB1_BATCHED if matrix.ndim == 3 else _SUB1_SHARED
        return _contract(sub, matrix, tensor, target)
    if target is None:
        target = np.empty_like(tensor)
    o0 = target[:, :, 0, :]
    o1 = target[:, :, 1, :]
    if structured:
        if matrix.ndim == 2 and m00 == 0 and m11 == 0:
            # Anti-diagonal (x, y): two swapped scaled copies.
            np.multiply(t1, m01, out=o0)
            np.multiply(t0, m10, out=o1)
        else:
            # Diagonal (rz, z, s, t, u1...): two scaled copies.
            np.multiply(t0, m00, out=o0)
            np.multiply(t1, m11, out=o1)
        return target
    np.multiply(t0, m00, out=o0)
    o0 += m01 * t1
    np.multiply(t0, m10, out=o1)
    o1 += m11 * t1
    return target


def apply_matrix(
    state: np.ndarray,
    matrix: "np.ndarray | Kernel",
    qubits: "tuple[int, ...]",
    n_qubits: int,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Apply a k-qubit gate to ``state`` on ``qubits``.

    ``matrix`` is ``(d, d)`` (shared across the batch), ``(batch, d, d)``
    (per-sample), or a :class:`Kernel` built for this gate signature by
    :func:`gate_kernel` (the bound-op sweeps pass ``op.kernel(n)``).
    When ``out`` (same shape as ``state``, distinct memory) is given the
    result is written there and ``out`` is returned; otherwise a new
    array is returned.  The input is never modified.
    """
    if out is not None and np.may_share_memory(state, out):
        raise ValueError("out must not overlap state")
    if state.dtype.kind != "c":
        # Real-dtype states (user-built basis vectors) must upcast before
        # the kernels write complex products into the output buffer.
        state = state.astype(complex)
    if isinstance(matrix, Kernel):
        if state.shape[-1] != 1 << matrix.n_qubits or (
            matrix.rows is not None and state.shape[0] % matrix.rows
        ):
            raise ValueError(
                f"state shape {state.shape} does not fit a {matrix.n_qubits}"
                f"-qubit kernel over {matrix.rows or 'any number of'} rows"
            )
        if out is None:
            out = np.empty_like(state)
        return matrix.apply(state, out)
    batch = state.shape[0]
    k = len(qubits)
    dim_gate = 2**k
    if matrix.shape[-2:] != (dim_gate, dim_gate):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k}-qubit gate"
        )
    if matrix.ndim == 3:
        if matrix.shape[0] != batch:
            raise ValueError(
                f"batched matrix has batch {matrix.shape[0]}, state has {batch}"
            )
    elif matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D or 3-D, got {matrix.ndim}-D")
    return _apply_raw(state, matrix, qubits, n_qubits, out)


def _apply_raw(state, matrix, qubits, n_qubits, out):
    """The raw-matrix route of :func:`apply_matrix` (arguments checked)."""
    batch = state.shape[0]
    dim_gate = matrix.shape[-1]
    plan = _apply_plan(n_qubits, tuple(qubits))
    if plan.k == 1:
        tensor = state.reshape(batch, plan.left, 2, plan.right)
        target = None if out is None else out.reshape(batch, plan.left, 2, plan.right)
        res = _apply_1q(tensor, matrix, target)
        if out is not None:
            return out
        return res.reshape(batch, -1)

    if plan.k == 2:
        a, c, d = plan.blocks
        tensor = state.reshape(batch, a, 2, c, 2, d)
        target = None if out is None else out.reshape(batch, a, 2, c, 2, d)
        if matrix.ndim == 2:
            if matrix is CX_MATRIX:
                # CX is a permutation: three strided copies, no arithmetic.
                # plan.swap <=> the control (qubits[0]) sits on the hi axis.
                if target is None:
                    target = np.empty_like(tensor)
                if plan.swap:
                    target[:, :, 0] = tensor[:, :, 0]
                    target[:, :, 1, :, 0, :] = tensor[:, :, 1, :, 1, :]
                    target[:, :, 1, :, 1, :] = tensor[:, :, 1, :, 0, :]
                else:
                    target[:, :, :, :, 0, :] = tensor[:, :, :, :, 0, :]
                    target[:, :, 0, :, 1, :] = tensor[:, :, 1, :, 1, :]
                    target[:, :, 1, :, 1, :] = tensor[:, :, 0, :, 1, :]
                if out is not None:
                    return out
                return target.reshape(batch, -1)
            gate = matrix.reshape(2, 2, 2, 2)
            if plan.swap:
                gate = gate.transpose(1, 0, 3, 2)
            flat = matrix.reshape(-1)
            if (
                flat[1] == 0 and flat[2] == 0 and flat[3] == 0
                and flat[4] == 0 and flat[6] == 0 and flat[7] == 0
                and flat[8] == 0 and flat[9] == 0 and flat[11] == 0
                and flat[12] == 0 and flat[13] == 0 and flat[14] == 0
            ):
                # Diagonal 2q gate (cz, rzz...): four scaled block copies.
                if target is None:
                    target = np.empty_like(tensor)
                for x in (0, 1):
                    for y in (0, 1):
                        np.multiply(
                            tensor[:, :, x, :, y, :],
                            gate[x, y, x, y],
                            out=target[:, :, x, :, y, :],
                        )
                if out is not None:
                    return out
                return target.reshape(batch, -1)
        # Dense 2q matrices (cu3, fused gate runs) fall through to the
        # cached transpose route below: the in-place 6-axis einsum kernel
        # loses to transpose + one small matmul once batch exceeds ~16.

    # Generic transpose route (dense 2q and all 3+-qubit gates): cached
    # permutation, transpose copies.  On narrow states shared matrices
    # contract as one flat 2-D GEMM over all (batch * row) vectors --
    # several times faster there than both broadcast matmul and einsum
    # (whose per-call path search this route must avoid).  On wide
    # states that flat GEMM is big enough for OpenBLAS to thread (a
    # 40-row 10-qubit tile already is), which oversubscribes the cores
    # under sharded worker threads; one small GEMM per row never
    # threads.  Measured on 2 vCPUs, the per-row route costs the same
    # serially (10-qubit exact training and trajectory sweeps) and lets
    # two shard threads scale 1.6-1.8x instead of 0.7x.
    tensor = state.reshape((batch,) + (2,) * n_qubits)
    tensor = tensor.transpose(plan.perm).reshape(batch, -1, dim_gate)
    if matrix.ndim == 2 and (1 << n_qubits) < _ROW_GEMM_MIN_DIM:
        res = (tensor.reshape(-1, dim_gate) @ matrix.T).reshape(tensor.shape)
    else:  # one GEMM per row, shared or per-row matrix
        res = np.matmul(tensor, matrix.swapaxes(-1, -2))
    res = res.reshape((batch,) + (2,) * n_qubits).transpose(plan.inverse)
    if out is not None:
        np.copyto(out.reshape((batch,) + (2,) * n_qubits), res)
        return out
    return res.reshape(batch, 2**n_qubits)


def apply_grouped_1q(
    state: np.ndarray,
    matrix: np.ndarray,
    qubit: int,
    n_qubits: int,
    out: np.ndarray,
    layout: str = "block",
) -> np.ndarray:
    """Apply per-group 1-qubit matrices without materializing ``(rows, 2, 2)``.

    ``state`` is ``(rows, 2**n)`` with ``rows`` a multiple of
    ``g = matrix.shape[0]``; ``matrix`` is ``(g, 2, 2)``.  Two row layouts:

    * ``"block"`` -- row ``r`` uses ``matrix[r // (rows // g)]``: one matrix
      per trajectory shared by the batch rows stacked inside it (sampled
      Pauli errors on a ``(n_traj x batch)`` stack);
    * ``"cycle"`` -- row ``r`` uses ``matrix[r % g]``: per-sample matrices
      repeating across stacked trajectories (batched encoder gates).

    Computes what expanding with ``np.repeat`` / ``np.tile`` and calling
    :func:`apply_matrix` computes, with the per-element multiply/add
    sequence of the :func:`_apply_1q` slice kernel, but the ``(rows, 2,
    2)`` matrix stack is never built and the coefficients broadcast as
    scalars per group.  Up to :data:`_SLICE_CUTOFF` state entries the
    results are identical; above it :func:`apply_matrix` contracts
    general matrices in one einsum pass instead, so they agree to
    rounding.  Always writes into ``out`` (same shape, distinct memory).
    """
    rows = state.shape[0]
    g = matrix.shape[0]
    if rows % g:
        raise ValueError(f"rows {rows} not a multiple of group count {g}")
    plan = _apply_plan(n_qubits, (qubit,))
    left, right = plan.left, plan.right
    if layout == "block":
        # (g, inner*left, 2, right): group index leads, coeffs are (g, 1, 1).
        shape = (g, (rows // g) * left, 2, right)
    elif layout == "cycle":
        # (outer, g, left, 2, right): coeffs (g, 1, 1) broadcast over outer.
        shape = (rows // g, g, left, 2, right)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    m00 = matrix[:, 0, 0, None, None]
    m01 = matrix[:, 0, 1, None, None]
    m10 = matrix[:, 1, 0, None, None]
    m11 = matrix[:, 1, 1, None, None]
    view = state.reshape(shape)
    target = out.reshape(shape)
    t0 = view[..., 0, :]
    t1 = view[..., 1, :]
    o0 = target[..., 0, :]
    o1 = target[..., 1, :]
    if not (m01.any() or m10.any()):
        # All-diagonal group (I/Z draws, rz encoders): two scaled copies.
        np.multiply(t0, m00, out=o0)
        np.multiply(t1, m11, out=o1)
    elif not (m00.any() or m11.any()):
        # All-anti-diagonal group (X/Y draws): two swapped scaled copies.
        np.multiply(t1, m01, out=o0)
        np.multiply(t0, m10, out=o1)
    else:
        np.multiply(t0, m00, out=o0)
        o0 += m01 * t1
        np.multiply(t0, m10, out=o1)
        o1 += m11 * t1
    return out


def apply_matrix_reference(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: "tuple[int, ...]",
    n_qubits: int,
) -> np.ndarray:
    """The original (uncached, transpose-based) gate apply.

    Kept as the numerical reference for the fast kernels; used by the
    equivalence tests and the ``benchmarks/perf`` harness baselines.
    """
    batch = state.shape[0]
    k = len(qubits)
    dim_gate = 2**k
    if matrix.shape[-2:] != (dim_gate, dim_gate):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k}-qubit gate"
        )

    tensor = state.reshape((batch,) + (2,) * n_qubits)
    # Axis of qubit q in the (batch, b_{n-1}, ..., b_0) layout:
    axes = [1 + (n_qubits - 1 - q) for q in qubits]
    kept = [a for a in range(1, n_qubits + 1) if a not in axes]
    # Last axis must be qubits[0] (the gate matrix's least-significant bit).
    perm = (0, *kept, *(axes[i] for i in reversed(range(k))))
    tensor = tensor.transpose(perm).reshape(batch, -1, dim_gate)

    if matrix.ndim == 2:
        out = np.einsum("ij,brj->bri", matrix, tensor, optimize=True)
    elif matrix.ndim == 3:
        if matrix.shape[0] != batch:
            raise ValueError(
                f"batched matrix has batch {matrix.shape[0]}, state has {batch}"
            )
        out = np.einsum("bij,brj->bri", matrix, tensor, optimize=True)
    else:
        raise ValueError(f"matrix must be 2-D or 3-D, got {matrix.ndim}-D")

    out = out.reshape((batch,) + (2,) * n_qubits)
    inverse = np.argsort(perm)
    return out.transpose(inverse).reshape(batch, 2**n_qubits)


# ---------------------------------------------------------------------------
# Gate kernels
# ---------------------------------------------------------------------------

#: Kernels work on full-width operands (a phase or index per amplitude,
#: 8-16 B each) up to this many qubits; wider gates keep the raw-matrix
#: route.  From 8 to 12 qubits diagonal and permutation kernels ran 2-4x
#: faster than the raw route on a 2-vCPU host (16 and 64 rows), but every
#: op kernel a bind plan's weight cache retains grows with ``2**n``: at
#: 10 qubits, the widest paper model, an op and its inverse hold 32 KB.
_KERNEL_MAX_QUBITS = 10

#: Shared dense gates contract as one full-width ``(2**n, 2**n)`` GEMM up
#: to this many qubits.  On a 2-vCPU host, over 16-128 rows, the GEMM took
#: 4-19 us at 4-5 qubits against 13-83 us for the slice / transpose route;
#: at 6 qubits it still won 1.1-2x but reached the sizes OpenBLAS threads,
#: at 7 it broke even and at 8 it lost.
_DENSE_MAX_QUBITS = 5

#: A dense kernel's GEMM runs in row blocks of at most this many
#: ``rows x 2**n x 2**n`` multiply-adds, below the size at which OpenBLAS
#: threads a GEMM.  On a 2-vCPU host a complex ``(256, 16) @ (16, 16)``
#: GEMM took 15 us alone but 0.7-8 ms a call on average when two
#: processes ran it at once (at 128 and 224 rows: 12-24 us), so
#: unblocked dense kernels stalled the chunks of a process pool.
_GEMM_BLOCK = 1 << 15

#: Process-wide memo of constant gates' kernels and of the rotation
#: generators' kernels.  Keys carry the qubit signature and width;
#: constant gates key on their matrix bytes, so a freshly sampled noisy
#: circuit reuses every kernel built for the circuits before it.
_KERNEL_MEMO = Cache("sim.kernels", 1024)


def _layout(n_qubits: int, qubits: "tuple[int, ...]"):
    """``(gate_index, rest, place, groups)`` for a gate signature.

    ``gate_index[a]`` is amplitude ``a``'s row in the gate matrix (its
    target bits, ``qubits[0]`` lowest), ``rest[a]`` is ``a`` with the
    target bits cleared, and ``place[j]`` is gate row ``j``'s offset in
    the amplitude index, so ``rest[a] + place[gate_index[a]] == a``.
    ``groups[s, j]`` lists the amplitudes gate by gate: row ``s`` holds
    the ``d`` amplitudes one assignment of the other qubits spans.
    Built once per signature and kept on its :func:`_apply_plan`.
    """
    plan = _apply_plan(n_qubits, qubits)
    if plan.layout is None:
        amps = np.arange(1 << n_qubits)
        rows = np.arange(1 << len(qubits))
        gate_index = np.zeros_like(amps)
        place = np.zeros_like(rows)
        for bit, q in enumerate(qubits):
            gate_index |= ((amps >> q) & 1) << bit
            place |= ((rows >> bit) & 1) << q
        rest = amps - place[gate_index]
        groups = rest[gate_index == 0][:, None] + place
        plan.layout = tuple(
            frozen(a) for a in (gate_index, rest, place, groups)
        )
    return plan.layout


def _dense_gather(n_qubits: int, qubits: "tuple[int, ...]"):
    """``(take, mask)``: ``where(mask, matrix.ravel()[take], 0)`` is the
    gate's full-width matrix, transposed (kept on the apply plan)."""
    plan = _apply_plan(n_qubits, qubits)
    if plan.dense is None:
        gate_index, rest, _place, _groups = _layout(n_qubits, qubits)
        d = 1 << len(qubits)
        plan.dense = (
            frozen(gate_index[None, :] * d + gate_index[:, None]),
            frozen(rest[:, None] == rest[None, :]),
        )
    return plan.dense


def gate_groups(n_qubits: int, qubits: "tuple[int, ...]") -> np.ndarray:
    """``(2**n // d, d)`` amplitude indices, one row per gate block.

    ``state[:, gate_groups(n, qubits)]`` views every row as its
    ``2**n // d`` copies of the gate's ``d``-dimensional space.
    """
    return _layout(n_qubits, tuple(qubits))[3]


class Kernel:
    """How one gate applies to ``(rows, 2**n)`` stacks, decided once.

    Built by :func:`gate_kernel` from the gate's matrix (a fused run's by
    :func:`fused_kernels`, dense or raw, unclassified) and accepted by
    :func:`apply_matrix` in its place.  ``kind`` names the class --
    ``"diagonal"`` (a phase per amplitude), ``"permutation"`` (an index
    per amplitude plus optional phases), ``"dense"`` (a full-width
    matrix) or ``"raw"`` (today's matrix route) -- and ``rows`` is
    ``None`` for a gate shared by every row, else the per-row count: a
    per-row kernel also applies to stacks of several such row blocks
    (the adjoint sweep's stacked ket and bra).  Kernel operands are
    read-only and a kernel never changes once built, so memoized ones
    are shared across ops and threads.
    """

    __slots__ = ("matrix", "qubits", "n_qubits", "rows", "_adjoint")
    kind = ""

    def __init__(self, matrix, qubits, n_qubits):
        self.matrix = matrix
        self.qubits = qubits
        self.n_qubits = n_qubits
        self.rows = matrix.shape[0] if matrix.ndim == 3 else None
        self._adjoint = None

    def apply(self, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the gate applied to ``state`` into ``out`` (checked)."""
        raise NotImplementedError

    def adjoint(self) -> "Kernel":
        """The conjugate-transpose kernel: the inverse of a unitary gate,
        the covector map of a non-unitary one (built once)."""
        if self._adjoint is None:
            self._adjoint = self._build_adjoint()
        return self._adjoint

    def _build_adjoint(self) -> "Kernel":
        return gate_kernel(
            self.matrix.conj().swapaxes(-1, -2), self.qubits, self.n_qubits
        )

    def _blocks(self, array: np.ndarray) -> np.ndarray:
        """``array`` viewed as ``(blocks, rows, 2**n)`` for a per-row kernel."""
        return array.reshape(-1, self.rows, array.shape[-1])


class _DiagonalKernel(Kernel):
    __slots__ = ("phases",)
    kind = "diagonal"

    def __init__(self, matrix, qubits, n_qubits, phases):
        super().__init__(matrix, qubits, n_qubits)
        self.phases = frozen(phases)

    def apply(self, state, out):
        if self.rows is None or state.shape[0] == self.rows:
            return np.multiply(state, self.phases, out=out)
        np.multiply(self._blocks(state), self.phases, out=self._blocks(out))
        return out

    def _build_adjoint(self):
        return _DiagonalKernel(
            self.matrix.conj().swapaxes(-1, -2), self.qubits, self.n_qubits,
            self.phases.conj(),
        )

    def band(self, lo: int, hi: int) -> "Kernel":
        """This per-row kernel restricted to rows ``lo:hi`` (views)."""
        return _DiagonalKernel(
            self.matrix[lo:hi], self.qubits, self.n_qubits, self.phases[lo:hi]
        )


class _PermutationKernel(Kernel):
    __slots__ = ("index", "phases")
    kind = "permutation"

    def __init__(self, matrix, qubits, n_qubits, index, phases):
        super().__init__(matrix, qubits, n_qubits)
        self.index = frozen(index)
        self.phases = None if phases is None else frozen(phases)

    def apply(self, state, out):
        # mode="clip" skips take's bounds-checking buffer (indices are valid).
        np.take(state, self.index, axis=1, out=out, mode="clip")
        if self.phases is not None:
            np.multiply(out, self.phases, out=out)
        return out


class _DenseKernel(Kernel):
    __slots__ = ("columns",)
    kind = "dense"

    def __init__(self, matrix, qubits, n_qubits, columns):
        super().__init__(matrix, qubits, n_qubits)
        # The transposed full-width matrix: state @ columns applies the
        # gate to every row in one GEMM.
        self.columns = frozen(columns)

    def apply(self, state, out):
        step = max(1, _GEMM_BLOCK // self.columns.size)
        if state.shape[0] <= step:
            return np.matmul(state, self.columns, out=out)
        for lo in range(0, state.shape[0], step):
            np.matmul(state[lo:lo + step], self.columns, out=out[lo:lo + step])
        return out

    def _build_adjoint(self):
        return _DenseKernel(
            self.matrix.conj().T, self.qubits, self.n_qubits,
            np.ascontiguousarray(self.columns.T.conj()),
        )


class _RawKernel(Kernel):
    __slots__ = ()
    kind = "raw"

    def apply(self, state, out):
        if self.rows is None or state.shape[0] == self.rows:
            return _apply_raw(state, self.matrix, self.qubits, self.n_qubits, out)
        for block, target in zip(self._blocks(state), self._blocks(out)):
            _apply_raw(block, self.matrix, self.qubits, self.n_qubits, target)
        return out

    def band(self, lo: int, hi: int) -> "Kernel":
        """This per-row kernel restricted to rows ``lo:hi`` (views)."""
        return _RawKernel(self.matrix[lo:hi], self.qubits, self.n_qubits)

    def _build_adjoint(self):
        # A matrix that is neither diagonal nor a permutation stays so
        # under the conjugate transpose: no need to classify it again.
        return _RawKernel(
            self.matrix.conj().swapaxes(-1, -2), self.qubits, self.n_qubits
        )


def _dense_kernel(matrix, qubits, n_qubits, columns, adjoint=None) -> _DenseKernel:
    """A dense kernel over read-only ``columns``, built without checks."""
    kernel = _DenseKernel.__new__(_DenseKernel)
    kernel.matrix = matrix
    kernel.qubits = qubits
    kernel.n_qubits = n_qubits
    kernel.rows = None
    kernel.columns = columns
    kernel._adjoint = adjoint
    return kernel


@functools.lru_cache(maxsize=1024)
def _padded_gather(n_qubits: int, qubits: "tuple[int, ...]", width: int):
    """``(take, adjoint_take)`` for a gate given as a padded matrix.

    The gate's matrix sits in the top-left block of a ``(width, width)``
    zero-padded one, flattened with one zero appended (index
    ``width**2``).  ``take`` gathers the transposed full-width matrix a
    :class:`_DenseKernel` holds (as :func:`_dense_gather` does from the
    bare matrix); ``adjoint_take``, its transpose, gathers the adjoint
    kernel's columns from the conjugated flat matrix.
    """
    gate_index, rest, _place, _groups = _layout(n_qubits, qubits)
    take = np.where(
        rest[:, None] == rest[None, :],
        gate_index[None, :] * width + gate_index[:, None],
        width * width,
    )
    return frozen(take), frozen(np.ascontiguousarray(take.T))


def fused_kernels(
    padded: np.ndarray, qubits: list, n_qubits: int
) -> "list[Kernel]":
    """Kernels, adjoints included, of shared gates given as one padded stack.

    ``padded`` is ``(count, w, w)``: gate ``i`` acts on ``qubits[i]`` and
    its ``d x d`` matrix (``d = 2**len(qubits[i])``) is the top-left block
    of ``padded[i]``, the rest zero.  Up to :data:`_DENSE_MAX_QUBITS`
    every kernel is dense, and one gather each builds all full-width
    matrices and all their conjugate transposes; wider states get raw
    kernels.  Fused gate runs are built this way, all of a plan's runs in
    one call.
    """
    count, width = padded.shape[0], padded.shape[-1]
    dims = [1 << len(q) for q in qubits]
    if n_qubits > _DENSE_MAX_QUBITS:
        return [
            _RawKernel(padded[i, :d, :d], q, n_qubits)
            for i, (d, q) in enumerate(zip(dims, qubits))
        ]
    size = width * width + 1
    flat = np.zeros((count, size), dtype=complex)
    flat[:, :-1] = padded.reshape(count, -1)
    conj = flat.conj()
    offsets = (np.arange(count) * size)[:, None, None]
    gathers = [_padded_gather(n_qubits, q, width) for q in qubits]
    columns = flat.ravel()[np.stack([g[0] for g in gathers]) + offsets]
    adjoints = conj.ravel()[np.stack([g[1] for g in gathers]) + offsets]
    columns.flags.writeable = adjoints.flags.writeable = False
    daggers = conj[:, :-1].reshape(count, width, width).swapaxes(1, 2)
    kernels = []
    for i, (d, q) in enumerate(zip(dims, qubits)):
        inverse = _dense_kernel(daggers[i, :d, :d], q, n_qubits, adjoints[i])
        kernel = _dense_kernel(padded[i, :d, :d], q, n_qubits, columns[i], inverse)
        inverse._adjoint = kernel
        kernels.append(kernel)
    return kernels


def gate_kernel(
    matrix: np.ndarray, qubits: "tuple[int, ...]", n_qubits: int
) -> Kernel:
    """Classify a gate matrix on ``qubits`` of an ``n_qubits`` state.

    Shared ``(d, d)`` matrices become diagonal kernels (rz, z, s, t, cz,
    rzz, u1...), permutation kernels when every row holds at most one
    nonzero, in distinct columns (x, y, cx, cy, swap, the rotation
    generators), dense full-width kernels up to
    :data:`_DENSE_MAX_QUBITS` and raw kernels otherwise.  Per-row
    ``(rows, d, d)`` stacks become diagonal kernels when every row is
    diagonal (encoder rz, sampled I/Z draws), else raw.  Diagonal and
    permutation kernels compute exactly the raw slice kernels' products
    (one per amplitude); dense kernels sum the same products in BLAS
    order.  Wider than :data:`_KERNEL_MAX_QUBITS`, every kernel is raw.
    """
    qubits = tuple(qubits)
    if n_qubits > _KERNEL_MAX_QUBITS:
        return _RawKernel(matrix, qubits, n_qubits)
    gate_index, rest, place, _groups = _layout(n_qubits, qubits)
    if matrix.ndim == 3:
        diagonal = np.diagonal(matrix, axis1=1, axis2=2)
        if np.count_nonzero(matrix) != np.count_nonzero(diagonal):
            return _RawKernel(matrix, qubits, n_qubits)
        return _DiagonalKernel(matrix, qubits, n_qubits, diagonal[:, gate_index])
    # Gate matrices are tiny: classify them on Python scalars.
    entries = matrix.tolist()
    source = []
    for i, row in enumerate(entries):
        columns = [j for j, value in enumerate(row) if value]
        if len(columns) > 1:
            break
        source.append(columns[0] if columns else i)
    else:
        if source == list(range(len(entries))):
            return _DiagonalKernel(
                matrix, qubits, n_qubits, np.diagonal(matrix)[gate_index]
            )
        if len(set(source)) == len(source):
            # Row j's nonzero sits in column source[j] (an all-zero row
            # keeps phase 0): amplitude a reads rest[a] + place[source].
            phases = [row[j] for row, j in zip(entries, source)]
            source = np.array(source)[gate_index]
            return _PermutationKernel(
                matrix, qubits, n_qubits, rest + place[source],
                None if all(p == 1 for p in phases)
                else np.array(phases)[gate_index],
            )
    if n_qubits <= _DENSE_MAX_QUBITS:
        take, mask = _dense_gather(n_qubits, qubits)
        return _DenseKernel(
            matrix, qubits, n_qubits, np.where(mask, matrix.ravel()[take], 0)
        )
    return _RawKernel(matrix, qubits, n_qubits)


def constant_kernel(
    matrix: np.ndarray, qubits: "tuple[int, ...]", n_qubits: int
) -> Kernel:
    """:func:`gate_kernel` of a shared constant matrix, memoized process-wide.

    The memo keys on the matrix dtype and bytes and keeps a read-only
    copy of a writable matrix, so no caller can change a kernel under its
    key.
    """

    def build() -> Kernel:
        stored = frozen(matrix.copy()) if matrix.flags.writeable else matrix
        return gate_kernel(stored, qubits, n_qubits)

    key = (matrix.dtype.char, matrix.tobytes(), qubits, n_qubits)
    return _KERNEL_MEMO.get_or_build(key, build)


def generator_kernel(name: str, qubits: "tuple[int, ...]", n_qubits: int):
    """Kernel of ``-i G`` for rotation gate ``name``'s generator ``G``.

    ``dU/dtheta = -(i/2) G U``, so ``-i G`` applied to the post-gate state
    gives twice the derivative of the pre-gate state; ``None`` for gates
    without a declared generator (u3, cu3).  Memoized process-wide.
    """
    generator = gate_def(name).generator
    if generator is None:
        return None
    return _KERNEL_MEMO.get_or_build(
        ("generator", name, qubits, n_qubits),
        lambda: gate_kernel(-1j * generator, qubits, n_qubits),
    )


# ---------------------------------------------------------------------------
# Observables and sampling
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def z_signs(n_qubits: int) -> np.ndarray:
    """Sign table: ``signs[q, i] = +1`` if bit q of index i is 0, else -1.

    Rows are the diagonals of the single-qubit Pauli-Z observables, so
    ``probs @ signs.T`` gives all per-qubit <Z> expectations at once.
    """
    indices = np.arange(2**n_qubits)
    signs = np.empty((n_qubits, 2**n_qubits), dtype=float)
    for q in range(n_qubits):
        signs[q] = 1.0 - 2.0 * ((indices >> q) & 1)
    return frozen(signs)


def z_expectations(state: np.ndarray, n_qubits: int) -> np.ndarray:
    """Per-qubit Pauli-Z expectation values: shape (batch, n_qubits)."""
    probs = np.abs(state) ** 2
    return probs @ z_signs(n_qubits).T


def joint_probabilities(state: np.ndarray) -> np.ndarray:
    """Joint computational-basis probabilities, shape (batch, 2**n)."""
    return np.abs(state) ** 2


def batched_multinomial(
    rng: np.random.Generator, shots: int, probs: np.ndarray
) -> np.ndarray:
    """Multinomial shot counts for a whole batch in one generator call.

    ``probs`` is ``(batch, dim)`` with rows summing to 1;
    ``Generator.multinomial`` broadcasts over the leading axis, replacing
    the previous per-sample Python loops.
    """
    return rng.multinomial(shots, np.ascontiguousarray(probs, dtype=np.float64))


def sample_counts(
    state: np.ndarray,
    shots: int,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Sample measurement shot counts per basis state: (batch, 2**n) ints."""
    rng = as_rng(rng)
    probs = joint_probabilities(state)
    probs /= probs.sum(axis=1, keepdims=True)
    return batched_multinomial(rng, shots, probs)


def expectations_from_counts(counts: np.ndarray, n_qubits: int) -> np.ndarray:
    """Per-qubit <Z> estimated from shot counts: (batch, n_qubits)."""
    shots = counts.sum(axis=1, keepdims=True).astype(float)
    return (counts / shots) @ z_signs(n_qubits).T


# ---------------------------------------------------------------------------
# Binding circuits to concrete parameters
# ---------------------------------------------------------------------------


class BoundOp:
    """A gate bound to concrete parameter values, ready to apply.

    Stores everything the adjoint backward pass needs: the matrix, the
    original parameter expressions and the evaluated parameter values
    (scalars, or ``(batch,)`` arrays for input-dependent angles).
    ``grad_params`` lists the differentiable parameters up front.  The
    op's :class:`Kernel` (and through it the adjoint) is built the first
    time a sweep applies the op and kept on it; a shared op without
    differentiable parameters takes its kernel from the process-wide
    memo (:func:`constant_kernel`), so the constant gates of every
    freshly sampled noisy circuit reuse kernels built once per process.
    """

    __slots__ = ("gate", "qubits", "matrix", "values", "batched",
                 "grad_params", "_kernel")

    def __init__(self, gate: Gate, matrix: np.ndarray, values: tuple):
        self.gate = gate
        self.qubits = gate.qubits
        self.matrix = matrix
        self.values = values
        self.batched = matrix.ndim == 3
        self.grad_params = tuple(
            (which, expr)
            for which, expr in enumerate(gate.params)
            if not expr.is_constant
        )
        self._kernel = None

    def kernel(self, n_qubits: int) -> Kernel:
        """The op's kernel on an ``n_qubits``-qubit state (built once)."""
        kernel = self._kernel
        if kernel is None or kernel.n_qubits != n_qubits:
            build = (
                gate_kernel if self.batched or self.grad_params
                else constant_kernel
            )
            kernel = self._kernel = build(self.matrix, self.qubits, n_qubits)
        return kernel

    def dmatrix(self, which: int) -> np.ndarray:
        """Derivative of the bound matrix w.r.t. bound parameter ``which``."""
        return self.gate.definition.dmatrix(self.values, which)


@functools.lru_cache(maxsize=16384)
def constant_gate_matrix(name: str, values: "tuple[float, ...]") -> np.ndarray:
    """Process-wide cache of constant gate matrices.

    Error-insertion circuits are resampled every training step but are
    built almost entirely from constant gates (Paulis, fixed-angle
    miscalibration rotations, basis-gate constants); sharing their
    matrices makes rebinding a fresh noisy circuit nearly free.  The
    shared matrices are read-only.
    """
    return frozen(gate_def(name).matrix(values))


def weights_key(weights: "np.ndarray | None") -> bytes:
    """Cache key for a weight vector: its float64 bytes (b"" for None)."""
    if weights is None:
        return b""
    return np.asarray(weights, dtype=float).tobytes()


class BindPlan:
    """One-time classification of a circuit's gates for fast rebinding.

    Constant gates (no free parameters) are bound exactly once at plan
    construction; each :meth:`bind` call only re-evaluates gates that
    actually depend on weights or inputs.  Input-dependent values keep
    whatever shape :meth:`ParamExpr.evaluate` returns -- ``(batch,)``
    views for input terms, plain scalars otherwise -- instead of being
    broadcast into materialized per-sample arrays.
    """

    __slots__ = ("_entries", "n_constant")

    def __init__(self, circuit: Circuit):
        entries = []
        n_constant = 0
        for gate in circuit.gates:
            if all(expr.is_constant for expr in gate.params):
                values = tuple(expr.const for expr in gate.params)
                matrix = constant_gate_matrix(gate.name, values)
                entries.append(BoundOp(gate, matrix, values))
                n_constant += 1
            else:
                input_dep = any(
                    expr.depends_on_input for expr in gate.params
                )
                entries.append((gate, input_dep))
        self._entries = entries
        self.n_constant = n_constant

    def constant_ops(self) -> "dict[int, BoundOp]":
        """Gate index -> bound op of every constant gate (bound at construction)."""
        return {
            i: entry for i, entry in enumerate(self._entries)
            if type(entry) is BoundOp
        }

    @staticmethod
    def _bound(entry, weights, inputs) -> BoundOp:
        """A parameterized entry bound afresh (input terms need ``inputs``)."""
        gate, input_dep = entry
        if input_dep and inputs is None:
            raise ValueError("input-dependent gate but no inputs given")
        values = tuple(expr.evaluate(weights, inputs) for expr in gate.params)
        return BoundOp(gate, gate.definition.matrix(values), values)

    def bind(
        self,
        weights: "np.ndarray | None" = None,
        inputs: "np.ndarray | None" = None,
        batch: "int | None" = None,
        gates: "list[int] | None" = None,
    ) -> "list[BoundOp]":
        """Bound ops of every gate, or of the gates at indices ``gates``.

        Constant gates come from the plan; every other gate is bound
        afresh, so the fused plans ask only for the gates they rebuild.
        """
        if inputs is not None:
            inputs = np.asarray(inputs, dtype=float)
            if batch is not None and inputs.shape[0] != batch:
                raise ValueError("batch does not match inputs")
            batch = inputs.shape[0]
        entries = self._entries if gates is None else [self._entries[i] for i in gates]
        return [
            entry if type(entry) is BoundOp
            else self._bound(entry, weights, inputs)
            for entry in entries
        ]


def bind_plan_for(circuit: Circuit) -> BindPlan:
    """The circuit's :class:`BindPlan`, built once per gate list."""
    return circuit_cache(circuit, "bind.plan", 1).get_or_build(
        None, lambda: BindPlan(circuit)
    )


def bind_circuit(
    circuit: Circuit,
    weights: "np.ndarray | None" = None,
    inputs: "np.ndarray | None" = None,
    batch: "int | None" = None,
) -> "list[BoundOp]":
    """Evaluate every gate's parameter expressions and build matrices.

    ``inputs`` is ``(batch, n_features)``.  Gates whose angles depend on
    inputs get per-sample ``(batch, d, d)`` matrices; all others get a
    shared matrix.  Constant gates are served from the circuit's cached
    :class:`BindPlan`, so repeated binds only pay for the parameterized
    gates, which are bound afresh on every call.  The engines' fused
    plans call :meth:`BindPlan.bind` with ``gates`` instead, binding only
    the gates they rebuild.
    """
    return bind_plan_for(circuit).bind(weights, inputs, batch)


def bind_circuit_reference(
    circuit: Circuit,
    weights: "np.ndarray | None" = None,
    inputs: "np.ndarray | None" = None,
    batch: "int | None" = None,
) -> "list[BoundOp]":
    """The original uncached bind: every matrix rebuilt on every call.

    Numerical reference for :func:`bind_circuit` (equivalence tests and
    perf-harness baselines).
    """
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=float)
        if batch is not None and inputs.shape[0] != batch:
            raise ValueError("batch does not match inputs")
        batch = inputs.shape[0]
    ops: "list[BoundOp]" = []
    for gate in circuit.gates:
        values = tuple(expr.evaluate(weights, inputs) for expr in gate.params)
        per_sample = any(isinstance(v, np.ndarray) and v.ndim for v in values)
        if per_sample:
            if batch is None:
                raise ValueError("input-dependent gate but no inputs given")
            values = tuple(
                np.broadcast_to(np.asarray(v, dtype=float), (batch,))
                for v in values
            )
        matrix = gate.definition.matrix(values)
        ops.append(BoundOp(gate, matrix, values))
    return ops


# ---------------------------------------------------------------------------
# Executing bound circuits
# ---------------------------------------------------------------------------


def run_ops(
    ops: "list[BoundOp]", n_qubits: int, batch: int
) -> np.ndarray:
    """Apply bound ops to |0...0> and return the final state.

    Each op runs through its :class:`Kernel`, between two ping-pong work
    buffers, so no per-gate allocation happens.
    """
    state = zero_state(n_qubits, batch)
    scratch = np.empty_like(state)
    for op in ops:
        apply_matrix(state, op.kernel(n_qubits), op.qubits, n_qubits, out=scratch)
        state, scratch = scratch, state
    return state


def run_ops_reference(
    ops: "list[BoundOp]", n_qubits: int, batch: int
) -> np.ndarray:
    """Original allocate-per-gate sweep over the reference apply kernel."""
    state = zero_state(n_qubits, batch)
    for op in ops:
        state = apply_matrix_reference(state, op.matrix, op.qubits, n_qubits)
    return state


def run_circuit(
    circuit: Circuit,
    weights: "np.ndarray | None" = None,
    inputs: "np.ndarray | None" = None,
    batch: int = 1,
) -> "tuple[np.ndarray, list[BoundOp]]":
    """Bind and execute a circuit; returns (final state, bound ops).

    The bound-op list is reusable by the adjoint backward pass.
    """
    if inputs is not None:
        batch = np.asarray(inputs).shape[0]
    ops = bind_circuit(circuit, weights, inputs, batch)
    return run_ops(ops, circuit.n_qubits, batch), ops

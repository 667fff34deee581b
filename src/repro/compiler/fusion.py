"""Inference-only gate fusion: merge adjacent gate runs into one matrix.

A transpiled QNN block is dominated by long single-qubit basis-gate runs
(``rz sx rz sx rz`` from every U3) punctuated by CXs.  For *inference*
sweeps -- no gradient tape, no per-gate error insertion sites -- adjacent
gates whose combined qubit support fits in ``max_qubits`` can be merged
into a single matrix before the statevector sweep, cutting the number of
gate applications by 3-5x.  The merged matrices are exact matrix
products, so fused and unfused sweeps agree to machine precision.

Fusion must NOT be used for:

* differentiable forwards -- the adjoint backward pass needs the
  per-gate tape (and per-parameter derivative matrices);
* noisy sweeps *across error-insertion points* -- error gates are
  sampled per original gate site, so a fused run may never swallow a
  stochastic insertion point.  Runs that stop exactly at each site are
  fine: the trajectory engine's segment plan
  (:class:`repro.noise.trajectory._SegmentPlan`) partitions the gate
  stream at Pauli sites and feeds each constant segment -- including
  the deterministic coherent-miscalibration rotations, wrapped via
  :func:`constant_op` -- through :func:`fuse_bound_ops`.

:class:`FusionPlan` adds a per-circuit cache layer for repeated
inference over the same weights (evaluation loops, SPSA/parameter-shift
objective calls): gate runs that depend only on weights and constants
are fused once per weight vector (a small :class:`~repro.utils.cache
.Cache` keyed on the weight bytes), while input-dependent encoder gates
-- whose matrices change with every batch -- pass through unfused.  The
plan itself lives in the circuit's :func:`~repro.utils.cache
.circuit_cache`, so it is rebuilt whenever the circuit's gates change.
"""

from __future__ import annotations

import numpy as np

from repro.sim.statevector import bind_plan_for, gate_kernel, weights_key
from repro.utils.cache import Cache, circuit_cache

_EYE2 = np.eye(2, dtype=complex)


class FusedOp:
    """A merged gate run, ready for ``apply_matrix``/``run_ops``.

    Quacks like :class:`~repro.sim.statevector.BoundOp` for execution
    (``matrix``, ``qubits``, ``batched``, ``kernel``) but is
    inference-only: it has no parameter bookkeeping.
    """

    __slots__ = ("qubits", "matrix", "batched", "n_merged", "_kernel")

    def __init__(self, qubits, matrix, n_merged):
        self.qubits = qubits
        self.matrix = matrix
        self.batched = matrix.ndim == 3
        self.n_merged = n_merged
        self._kernel = None

    def kernel(self, n_qubits: int):
        """The merged run's kernel on an ``n_qubits``-qubit state (built once)."""
        kernel = self._kernel
        if kernel is None or kernel.n_qubits != n_qubits:
            kernel = self._kernel = gate_kernel(self.matrix, self.qubits, n_qubits)
        return kernel


def constant_op(qubits: "tuple[int, ...]", matrix: np.ndarray) -> FusedOp:
    """Wrap a constant matrix as a fusable op with no gate bookkeeping.

    Lets callers splice fixed unitaries that are not circuit gates --
    e.g. the noise model's deterministic coherent-miscalibration
    rotations -- into a run handed to :func:`fuse_bound_ops`.
    """
    return FusedOp(tuple(qubits), matrix, 1)


def _embed(matrix: np.ndarray, qubits, support) -> np.ndarray:
    """Expand a gate matrix onto ``support`` (ascending qubit tuple).

    Follows the engine's index convention: ``qubits[0]`` is the least
    significant bit of the gate matrix index.  Handles shared ``(d, d)``
    and per-sample ``(batch, d, d)`` matrices.
    """
    if tuple(qubits) == tuple(support):
        return matrix
    batched = matrix.ndim == 3
    if len(qubits) == 2:
        # Same pair, reversed order: swap the bit roles of both indices.
        if batched:
            m = matrix.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3)
            return np.ascontiguousarray(m.reshape(-1, 4, 4))
        return matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    (q,) = qubits
    if batched:
        if q == support[0]:  # gate on the low bit of the pair
            full = np.einsum("kl,bij->bkilj", _EYE2, matrix)
        else:  # gate on the high bit
            full = np.einsum("bij,kl->bikjl", matrix, _EYE2)
        return np.ascontiguousarray(full.reshape(-1, 4, 4))
    if q == support[0]:
        return np.kron(_EYE2, matrix)
    return np.kron(matrix, _EYE2)


def _materialize(run: list, support: "tuple[int, ...]"):
    """Collapse a gate run into one op on its combined support."""
    if len(run) == 1:
        # Preserve the original op: structured kernels (CX permutation,
        # diagonal slicing) key on the untouched matrix object.
        return run[0]
    matrix = _embed(run[0].matrix, run[0].qubits, support)
    for op in run[1:]:
        # The later gate acts after, i.e. multiplies from the left.
        matrix = _embed(op.matrix, op.qubits, support) @ matrix
    return FusedOp(support, matrix, len(run))


def fuse_bound_ops(ops: list, max_qubits: int = 2) -> list:
    """Greedy left-to-right fusion of adjacent gate runs.

    Consecutive ops whose combined qubit support has at most
    ``max_qubits`` qubits are merged into a single :class:`FusedOp`
    (single-op runs keep their original :class:`BoundOp`).  The output
    list applies the exact same unitary as ``ops``.

    ``max_qubits`` is capped at 2: :func:`_embed` only knows how to
    expand onto 1- and 2-qubit supports (and wider fused matrices lose
    to the engine's structured kernels anyway).
    """
    if not 1 <= max_qubits <= 2:
        raise ValueError("max_qubits must be 1 or 2")
    fused: list = []
    run: list = []
    support: "set[int]" = set()
    for op in ops:
        qubits = set(op.qubits)
        if run and len(support | qubits) <= max_qubits:
            run.append(op)
            support |= qubits
            continue
        if run:
            fused.append(_materialize(run, tuple(sorted(support))))
        if len(qubits) > max_qubits:
            fused.append(op)  # too wide to ever merge; pass through
            run, support = [], set()
        else:
            run, support = [op], qubits
    if run:
        fused.append(_materialize(run, tuple(sorted(support))))
    return fused


#: Fused static segments retained per circuit, keyed on the weight bytes.
_FUSION_CACHE_SIZE = 4


def static_dynamic_layout(circuit) -> "list[tuple]":
    """Partition a circuit into fusable spans and per-call singletons.

    Returns ``("static", start, end)`` spans (constant or weight-only
    gates -- cacheable per weight vector) and ``("dynamic", i, i + 1)``
    singletons (input-dependent encoder gates -- re-bound per call), in
    circuit order.  Shared by :class:`FusionPlan` and the superoperator
    plan (:class:`repro.compiler.superop.SuperopPlan`) so the two passes
    can never disagree on what is cacheable.
    """
    layout: "list[tuple]" = []
    start = None
    for i, gate in enumerate(circuit.gates):
        input_dep = any(expr.depends_on_input for expr in gate.params)
        if input_dep:
            if start is not None:
                layout.append(("static", start, i))
                start = None
            layout.append(("dynamic", i, i + 1))
        elif start is None:
            start = i
    if start is not None:
        layout.append(("static", start, len(circuit.gates)))
    return layout


class FusionPlan:
    """Per-circuit fusion with caching of the weight-static structure.

    The circuit's gates are partitioned once into *static* spans
    (constant or weight-only parameters) and *dynamic* gates
    (input-dependent encoder rotations).  :meth:`fused_ops` fuses each
    static span and caches the result per weight vector; dynamic gates
    are re-bound per call and emitted unfused, so the per-call work is
    one bind (itself mostly cache hits) plus the encoder gates.
    """

    __slots__ = ("bind_plan", "_layout", "_cache")

    def __init__(self, circuit):
        self.bind_plan = bind_plan_for(circuit)
        self._layout = static_dynamic_layout(circuit)
        # weight bytes -> fused ops per static span, in layout order.
        self._cache = Cache("fusion.segments", _FUSION_CACHE_SIZE)

    def fused_ops(
        self,
        weights: "np.ndarray | None" = None,
        inputs: "np.ndarray | None" = None,
        batch: "int | None" = None,
    ) -> list:
        """Bind and fuse the circuit for one inference call."""
        ops = self.bind_plan.bind(weights, inputs, batch)
        segments = iter(self._cache.get_or_build(
            weights_key(weights),
            lambda: [
                fuse_bound_ops(ops[start:end])
                for kind, start, end in self._layout
                if kind == "static"
            ],
        ))
        out: list = []
        for kind, start, end in self._layout:
            if kind == "static":
                out.extend(next(segments))
            else:
                out.extend(ops[start:end])
        return out


def fusion_plan_for(circuit) -> FusionPlan:
    """The circuit's :class:`FusionPlan`, built once per gate list."""
    return circuit_cache(circuit, "fusion.plan", 1).get_or_build(
        None, lambda: FusionPlan(circuit)
    )

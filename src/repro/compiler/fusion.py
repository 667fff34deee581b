"""Gate fusion: the one pass that merges adjacent gate runs into one matrix.

A transpiled QNN block is dominated by long single-qubit basis-gate runs
(``rz sx rz sx rz`` from every U3) punctuated by CXs.  Adjacent gates
whose combined qubit support fits in ``max_qubits`` can be merged into a
single matrix before a sweep, cutting the number of gate applications by
3-5x.  The merged matrices are exact matrix products, so fused and
unfused sweeps agree to machine precision.

Every fused stream -- noiseless inference, the trajectory engine and the
density engine's superoperators -- is built from the two pieces here:

* :func:`fusion_layout`, the one cut: which gates may merge (a
  ``fusable`` predicate) and what follows each gate (``after``): a
  constant op joins the open run, anything else -- a stochastic error
  site, a quantum-jump site -- ends it and passes through;
* :func:`fuse_runs`, the one greedy left-to-right merge, shared by
  statevector ops (:func:`fuse_bound_ops`) and superoperators
  (:func:`repro.compiler.superop.fuse_superops`).  It materializes a
  run by expanding each op onto the run's support and multiplying; the
  expansion is one precomputed index gather (:func:`gather_embed`),
  which copies the entries a ``np.kron`` or ``np.einsum`` with the
  identity would place, without their multiplications.

Fusion must NOT be used for differentiable forwards: the adjoint
backward pass needs the per-gate tape (and per-parameter derivative
matrices), so the training sweeps cut at every differentiable gate.

:class:`FusionPlan` is the statevector consumer: gate runs that depend
only on weights and constants are fused once per weight vector (a small
:class:`~repro.utils.cache.Cache` keyed on the weight bytes), while
input-dependent encoder gates -- whose matrices change with every batch
-- pass through unfused.  With ``after`` it is the trajectory engine's
segment plan (:class:`repro.noise.trajectory._SegmentPlan`), whose
breaks are the noise model's error sites.  The noiseless plan lives in
the circuit's :func:`~repro.utils.cache.circuit_cache`, so it is rebuilt
whenever the circuit's gates change.
"""

from __future__ import annotations

import numpy as np

from repro.sim.statevector import bind_plan_for, gate_kernel, weights_key
from repro.utils.cache import Cache, circuit_cache

_EYE2 = np.eye(2, dtype=complex)
_ZERO = np.zeros(1, dtype=complex)


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
    rotations -- into a run: in a :func:`fusion_layout` ``after`` list
    it joins the open run.
    """
    return FusedOp(tuple(qubits), matrix, 1)


def gather_index(expand, n: int) -> np.ndarray:
    """The gather that replays ``expand`` on any ``(n, n)`` matrix.

    ``expand`` embeds a matrix by copying its entries and filling zeros,
    as the kron, einsum and transpose expansions that fusion needs do.
    Run once on a probe holding ``1 .. n*n``, it shows where each entry
    lands; index ``n*n`` reads an appended zero.
    """
    probe = np.arange(1.0, n * n + 1).reshape(n, n)
    full = np.asarray(expand(probe)).real
    return np.where(full == 0, n * n, full - 1).astype(np.intp)


def gather_embed(gathers, matrix: np.ndarray, qubits, support) -> np.ndarray:
    """Expand ``matrix`` from ``qubits`` onto the pair ``support``.

    ``gathers`` holds the :func:`gather_index` of a 1-qubit matrix on the
    low and on the high bit of the pair, and of a pair matrix in
    reversed order.  Entries are copied, never multiplied, so the result
    equals the expansion it replays under ``np.array_equal``, for shared
    ``(d, d)`` and per-sample ``(batch, d, d)`` matrices alike.
    """
    if tuple(qubits) == tuple(support):
        return matrix
    low, high, reversed_pair = gathers
    if len(qubits) == 2:
        index = reversed_pair
    else:
        index = low if qubits[0] == support[0] else high
    if matrix.ndim == 2:
        return np.concatenate((matrix.ravel(), _ZERO))[index]
    flat = matrix.reshape(len(matrix), -1)
    zero = np.zeros((len(matrix), 1), dtype=complex)
    return np.concatenate((flat, zero), axis=1)[:, index]


#: Gate-matrix gathers, in the engine's index convention (``qubits[0]``
#: is the least significant bit of the matrix index): a 1-qubit gate on
#: the low bit is ``kron(I, m)``, on the high bit ``kron(m, I)``, and a
#: reversed pair swaps the bit roles of both indices.
_GATE_GATHERS = (
    gather_index(lambda m: np.kron(_EYE2, m), 2),
    gather_index(lambda m: np.kron(m, _EYE2), 2),
    gather_index(
        lambda m: m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4), 4
    ),
)


def _embed(matrix: np.ndarray, qubits, support) -> np.ndarray:
    """Expand a gate matrix onto ``support`` (ascending qubit tuple)."""
    return gather_embed(_GATE_GATHERS, matrix, qubits, support)


def fuse_runs(ops: list, embed, make, max_qubits: int = 2) -> list:
    """Greedy left-to-right fusion of adjacent runs: the one fusion loop.

    Consecutive ops whose combined qubit support has at most
    ``max_qubits`` qubits merge into ``make(support, matrix, n_merged)``:
    ``matrix`` multiplies each op's ``embed(matrix, qubits, support)``,
    the later op from the left, and ``n_merged`` sums the ops' own
    ``n_merged`` (1 for an op without one).  A run of one keeps its
    original op -- structured kernels (CX permutation, diagonal slicing)
    key on the untouched matrix -- and so does an op wider than
    ``max_qubits``, which never merges.

    ``max_qubits`` is capped at 2: the embeddings (:func:`_embed`,
    :func:`~repro.compiler.superop.embed_superop`) only expand onto 1-
    and 2-qubit supports, and wider fused matrices lose to the engine's
    structured kernels anyway.
    """
    if not 1 <= max_qubits <= 2:
        raise ValueError("max_qubits must be 1 or 2")
    runs: "list[tuple[list, set[int]]]" = []
    for op in ops:
        qubits = set(op.qubits)
        if runs and len(runs[-1][1] | qubits) <= max_qubits:
            runs[-1][0].append(op)
            runs[-1][1].update(qubits)
        else:
            runs.append(([op], qubits))
    fused: list = []
    for run, qubits in runs:
        if len(run) == 1:
            fused.append(run[0])
            continue
        support = tuple(sorted(qubits))
        matrix = embed(run[0].matrix, run[0].qubits, support)
        for op in run[1:]:
            matrix = embed(op.matrix, op.qubits, support) @ matrix
        n_merged = sum(getattr(op, "n_merged", 1) for op in run)
        fused.append(make(support, matrix, n_merged))
    return fused


def fuse_bound_ops(ops: list, max_qubits: int = 2) -> list:
    """:func:`fuse_runs` over statevector ops: runs become :class:`FusedOp`.

    Single-op runs keep their original :class:`BoundOp`; the output list
    applies the exact same unitary as ``ops``.
    """
    return fuse_runs(ops, _embed, FusedOp, max_qubits)


def input_free(gate) -> bool:
    """Whether no parameter of ``gate`` reads the input.

    Such a gate's bound matrix is fixed for a weight vector, so runs of
    them are fused once per weight vector; input-dependent encoder gates
    are re-bound every call.
    """
    return not any(expr.depends_on_input for expr in gate.params)


def fusion_layout(circuit, fusable, after=None) -> list:
    """Cut a circuit's gate stream into runs, singletons and breaks.

    The one cut every fused stream uses.  Returns, in sweep order:

    * a ``list`` per run: the gate indices ``fusable(gate)`` admits, with
      the constant :class:`FusedOp` entries of ``after`` that joined them;
    * an ``int`` per gate ``fusable`` refuses, which stands alone;
    * every other entry of ``after`` as it is, a break.

    ``after[i]`` lists what follows gate ``i``, in order.  A constant
    :class:`FusedOp` joins the open run (after a refused gate it opens
    the next one); anything else ends the run and passes through, so a
    break keeps its gate in the run before it.
    """
    layout: list = []
    run: list = []

    def cut(entry) -> None:
        nonlocal run
        if run:
            layout.append(run)
            run = []
        layout.append(entry)

    for i, gate in enumerate(circuit.gates):
        if fusable(gate):
            run.append(i)
        else:
            cut(i)
        for entry in after[i] if after is not None else ():
            if isinstance(entry, FusedOp):
                run.append(entry)
            else:
                cut(entry)
    if run:
        layout.append(run)
    return layout


#: Fused runs retained per plan, keyed on the weight bytes.
_FUSION_CACHE_SIZE = 4


class FusionPlan:
    """Per-circuit fusion with caching of the weight-static runs.

    The circuit is cut once by :func:`fusion_layout` at its
    input-dependent encoder gates and at the breaks of ``after``.
    :meth:`fused_ops` fuses every run and caches the result per weight
    vector; encoder gates are re-bound per call and emitted unfused, so
    the per-call work is one bind (itself mostly cache hits) plus the
    encoder gates.
    """

    __slots__ = ("bind_plan", "_layout", "_cache")

    #: Counter row of the per-weight-vector run cache.
    _cache_name = "fusion.segments"

    def __init__(self, circuit, after=None):
        self.bind_plan = bind_plan_for(circuit)
        self._layout = fusion_layout(circuit, input_free, after)
        # weight bytes -> fused ops per run, in layout order.
        self._cache = Cache(self._cache_name, _FUSION_CACHE_SIZE)

    def fused_ops(
        self,
        weights: "np.ndarray | None" = None,
        inputs: "np.ndarray | None" = None,
        batch: "int | None" = None,
    ) -> list:
        """Bind and fuse the circuit for one call: ops, plus any breaks."""
        ops = self.bind_plan.bind(weights, inputs, batch)
        runs = iter(self._cache.get_or_build(
            weights_key(weights),
            lambda: [
                fuse_bound_ops([ops[t] if isinstance(t, int) else t for t in entry])
                for entry in self._layout
                if isinstance(entry, list)
            ],
        ))
        out: list = []
        for entry in self._layout:
            if isinstance(entry, list):
                out.extend(next(runs))
            else:
                out.append(ops[entry] if isinstance(entry, int) else entry)
        return out


def fusion_plan_for(circuit) -> FusionPlan:
    """The circuit's :class:`FusionPlan`, built once per gate list."""
    return circuit_cache(circuit, "fusion.plan", 1).get_or_build(
        None, lambda: FusionPlan(circuit)
    )

"""Gate fusion: the one pass that merges adjacent gate runs into one matrix.

A transpiled QNN block is dominated by long single-qubit basis-gate runs
(``rz sx rz sx rz`` from every U3) punctuated by CXs.  Adjacent gates
whose combined qubit support fits in :data:`RUN_QUBITS` qubits merge
into a single matrix before a sweep, cutting the number of gate
applications by 3-6x.  The merged matrices are exact matrix products, so
fused and unfused sweeps agree to machine precision.

Every fused stream is built from the pieces here:

* :func:`fusion_layout`, the one cut: which gates may merge (a
  ``fusable`` predicate) and what follows each gate (``after``): a
  constant op joins the open run, anything else -- a stochastic error
  site, a quantum-jump site -- ends it and passes through;
* :func:`greedy_runs`, the one left-to-right grouping of a cut stretch
  into runs of at most :data:`RUN_QUBITS` qubits;
* :func:`fuse_runs`, the one greedy merge of ops, shared by statevector
  ops (:func:`fuse_bound_ops`) and superoperators
  (:func:`repro.compiler.superop.fuse_superops`).  It expands each op
  onto the run's support by one precomputed index gather
  (:func:`gather_embed`), which copies the entries a ``np.kron`` or
  ``np.einsum`` with the identity would place, without their
  multiplications;
* :class:`RunStack`, the one statevector materializer: all of a plan's
  runs as one zero-padded ``(runs, L, w, w)`` slot stack whose constant
  slots are filled once.  Per call it writes each rotation slot in
  closed form (``cos(t/2) I - i sin(t/2) G`` from the gate's generator,
  every angle from one affine table ``t = C w + c``), multiplies the
  prefix products of every run with ``L`` batched matmuls, and builds
  every run's kernel, adjoint included, with one gather
  (:func:`repro.sim.statevector.fused_kernels`).

Two plans consume it.  :class:`FusionPlan` is the tape-free one: gate
runs that depend only on weights and constants are fused once per weight
vector (a small :class:`~repro.utils.cache.Cache` keyed on the weight
bytes), while input-dependent encoder gates -- whose matrices change
with every batch -- pass through unfused.  With ``after`` it is the
trajectory engine's segment plan
(:class:`repro.noise.trajectory._SegmentPlan`), whose breaks are the
noise model's error sites.

:class:`TrainingPlan` is the differentiable one: every statevector
training forward and the one adjoint run on its fused runs.  Gates
shared by every row -- constants and weight-only rotations with a
closed form -- join runs; per-row gates (encoders, rotations without a
generator, such as u3 and cu3) stand alone.  Row-shared errors take
slots of their own right after their gate, and a per-row error or a
jump splits its run into pieces read off the prefix products.  The
adjoint records each piece's reduced transition operator ``N`` at its
output and un-applies it with one kernel call; afterwards every fused
rotation's gradient is ``Im tr(G_k Q_k N Q_k^dag)`` with ``Q_k = P_k
P_end^dag`` (:meth:`FusedSweep.chain`), a few batched calls per block.

Plans live in the circuit's :func:`~repro.utils.cache.circuit_cache`, so
they are rebuilt whenever the circuit's gates change.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.circuits.parameters import WEIGHT
from repro.sim.gates import gate_def
from repro.sim.statevector import (
    bind_plan_for,
    fused_kernels,
    gate_groups,
    gate_kernel,
    weights_key,
)
from repro.utils.cache import Cache, circuit_cache

_EYE2 = np.eye(2, dtype=complex)
_ZERO = np.zeros(1, dtype=complex)

#: The widest fused run, in qubits.  The embeds (:func:`_embed`,
#: :func:`~repro.compiler.superop.embed_superop`) expand onto 1- and
#: 2-qubit supports only, and wider fused matrices lose to the engine's
#: structured kernels anyway.
RUN_QUBITS = 2


class FusedOp:
    """A merged gate run, ready for ``apply_matrix``/``run_ops``.

    Quacks like :class:`~repro.sim.statevector.BoundOp` for execution
    (``matrix``, ``qubits``, ``batched``, ``kernel``) but has no
    parameter bookkeeping: a training sweep reads its runs' gradients
    off the plan's prefix products (:class:`FusedSweep`).
    """

    __slots__ = ("qubits", "matrix", "batched", "n_merged", "_kernel")

    def __init__(self, qubits, matrix, n_merged, kernel=None):
        self.qubits = qubits
        self.matrix = matrix
        self.batched = matrix.ndim == 3
        self.n_merged = n_merged
        self._kernel = kernel

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


def greedy_runs(supports) -> "list[list[int]]":
    """Positions of consecutive qubit ``supports`` grouped into runs.

    Left to right, a position joins the open run while the run's qubits
    and its own number at most :data:`RUN_QUBITS`, and opens the next
    run otherwise; a support wider than that is a run of its own.
    """
    runs: "list[list[int]]" = []
    union: "set[int]" = set()
    for i, qubits in enumerate(supports):
        if runs and len(union.union(qubits)) <= RUN_QUBITS:
            runs[-1].append(i)
            union.update(qubits)
        else:
            runs.append([i])
            union = set(qubits)
    return runs


def fuse_runs(ops: list, embed, make) -> list:
    """Greedy left-to-right fusion of adjacent ops: the one fusion loop.

    Each run of :func:`greedy_runs` merges into ``make(support, matrix,
    n_merged)``: ``matrix`` multiplies each op's ``embed(matrix, qubits,
    support)``, the later op from the left, and ``n_merged`` sums the
    ops' own ``n_merged`` (1 for an op without one).  A run of one keeps
    its original op -- structured kernels (CX permutation, diagonal
    slicing) key on the untouched matrix -- and so does an op wider than
    :data:`RUN_QUBITS`, which never merges.
    """
    fused: list = []
    for run in greedy_runs([op.qubits for op in ops]):
        if len(run) == 1:
            fused.append(ops[run[0]])
            continue
        members = [ops[i] for i in run]
        support = tuple(sorted(set().union(*(op.qubits for op in members))))
        matrix = embed(members[0].matrix, members[0].qubits, support)
        for op in members[1:]:
            matrix = embed(op.matrix, op.qubits, support) @ matrix
        n_merged = sum(getattr(op, "n_merged", 1) for op in members)
        fused.append(make(support, matrix, n_merged))
    return fused


def fuse_bound_ops(ops: list) -> list:
    """:func:`fuse_runs` over statevector ops: runs become :class:`FusedOp`.

    Single-op runs keep their original :class:`BoundOp`; the output list
    applies the exact same unitary as ``ops``.
    """
    return fuse_runs(ops, _embed, FusedOp)


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


@functools.lru_cache(maxsize=None)
def _rotation_form(name: str):
    """``(E, F, H, G)`` with ``exp(-i t/2 G) = E + cos(t/2) F + sin(t/2) H``.

    Holds for a generator whose eigenvalues are 0 and +-1 (``G^3 = G``):
    ``F = G^2``, ``E = I - G^2`` and ``H = -iG``, so the Pauli rotations
    (``E = 0``, ``F = I``) and the controlled ones share one form.
    ``None`` for gates without a generator (u3, cu3) and for u1, whose
    generator ``diag(0, -2)`` has none.
    """
    g = gate_def(name).generator
    if g is None:
        return None
    g2 = g @ g
    if not np.allclose(g2 @ g, g):
        return None
    return np.eye(len(g)) - g2, g2, -1j * g, g


def _slot_qubits(gates, slot) -> "tuple[int, ...]":
    """The qubits a run slot acts on (none for an identity placeholder)."""
    if slot is None:
        return ()
    return gates[slot].qubits if isinstance(slot, int) else slot.qubits


class RunStack:
    """A plan's fused runs, materialized together from one padded stack.

    Run ``r`` multiplies its slots ``runs[r]`` in sweep order; a slot is
    a gate index of the circuit, a constant :class:`FusedOp`, or None,
    an identity placeholder a caller may overwrite per call.  Every slot
    is a ``(w, w)`` matrix on the run's *pad*: its support, widened on a
    one-qubit run by an identity partner qubit on the high bit (``w =
    4`` from two qubits on).  Constant slots are filled once, in
    :attr:`base`; each call writes the rotation slots in closed form
    from the affine angle table (``coeffs``, ``consts``), embeds any
    ``bound`` slot (a weight-only gate with no closed form; the
    tape-free plan admits those) from the call's bound ops, and
    multiplies every run's prefix products at once (:meth:`prefixes`).
    """

    __slots__ = (
        "n_qubits", "qubits", "pads", "groups", "lengths", "base",
        "gen_run", "gen_slot", "gen_forms", "coeffs", "consts", "bound",
    )

    def __init__(self, circuit, runs: list, constants: dict):
        n = self.n_qubits = circuit.n_qubits
        gates = circuit.gates
        width = 1 << min(RUN_QUBITS, n)
        length = max((len(run) for run in runs), default=0)
        base = np.zeros((len(runs), length, width, width), dtype=complex)
        base[..., np.arange(width), np.arange(width)] = 1.0
        self.qubits, self.pads, self.groups, self.bound = [], [], [], []
        self.lengths = [len(run) for run in runs]
        rotations, forms, exprs = [], [], []
        for r, run in enumerate(runs):
            qubits = tuple(sorted(set().union(*(_slot_qubits(gates, s) for s in run))))
            pad = qubits
            if len(qubits) < RUN_QUBITS and n > 1:
                pad = (qubits[0], (qubits[0] + 1) % n)
            self.qubits.append(qubits)
            self.pads.append(pad)
            self.groups.append(gate_groups(n, pad))
            for slot, entry in enumerate(run):
                if entry is None:
                    continue
                if not isinstance(entry, int):
                    base[r, slot] = _embed(entry.matrix, entry.qubits, pad)
                    continue
                gate = gates[entry]
                if entry in constants:
                    base[r, slot] = _embed(constants[entry].matrix, gate.qubits, pad)
                    continue
                form = _rotation_form(gate.name) if input_free(gate) else None
                if form is None:
                    self.bound.append((r, slot, entry, gate.qubits, pad))
                    continue
                rotations.append((r, slot))
                forms.append([_embed(m, gate.qubits, pad) for m in form])
                exprs.append(gate.params[0])
        self.base = base
        self.gen_run = np.array([r for r, _ in rotations], dtype=np.intp)
        self.gen_slot = np.array([s for _, s in rotations], dtype=np.intp)
        # (E, F, H, G) stacks, each (rotations, w, w).
        self.gen_forms = np.array(forms, dtype=complex).reshape(
            len(forms), 4, width, width
        ).transpose(1, 0, 2, 3)
        n_weights = 1 + max(
            (i for expr in exprs for kind, i, _c in expr.terms if kind == WEIGHT),
            default=-1,
        )
        self.coeffs = np.zeros((len(exprs), n_weights))
        for k, expr in enumerate(exprs):
            for _kind, index, coeff in expr.terms:
                self.coeffs[k, index] += coeff
        self.consts = np.array([expr.const for expr in exprs], dtype=float)

    def prefixes(self, weights, ops=None, writes=()) -> np.ndarray:
        """Every run's prefix products, ``(runs, L + 1, w, w)``.

        ``[:, l]`` multiplies the first ``l`` slots: ``[:, 0]`` is the
        identity and ``[:, L]`` each run's matrix (identity padding
        past a run's end).  ``ops`` holds the call's bound ops by gate
        index (for the ``bound`` slots) and ``writes`` lists ``(run,
        slot, op)`` row-shared ops to place in identity slots.
        """
        stack = self.base.copy()
        if self.gen_run.size:
            if weights is None:
                raise ValueError("expression needs weights but none given")
            w = np.asarray(weights, dtype=float)[: self.coeffs.shape[1]]
            half = 0.5 * (self.coeffs @ w + self.consts)
            e, f, h, _g = self.gen_forms
            stack[self.gen_run, self.gen_slot] = (
                e + np.cos(half)[:, None, None] * f + np.sin(half)[:, None, None] * h
            )
        for r, slot, index, qubits, pad in self.bound:
            stack[r, slot] = _embed(ops[index].matrix, qubits, pad)
        for r, slot, op in writes:
            stack[r, slot] = _embed(op.matrix, op.qubits, self.pads[r])
        runs, length, width = stack.shape[:3]
        prefix = np.empty((runs, length + 1, width, width), dtype=complex)
        prefix[:, 0] = np.eye(width)
        if length:
            prefix[:, 1] = stack[:, 0]
        for slot in range(1, length):
            np.matmul(stack[:, slot], prefix[:, slot], out=prefix[:, slot + 1])
        return prefix

    def fused_ops(
        self, matrices: np.ndarray, runs, structured: bool = False
    ) -> "list[FusedOp]":
        """``matrices[i]`` (padded) as run ``runs[i]``'s op, kernel built.

        ``structured`` gives a run with one nonzero per row and column
        (products of rz, cx, x...) its diagonal or permutation kernel,
        cheaper per call than a GEMM: worth its classification only for
        runs a plan reuses, as the tape-free plan does.
        """
        if not len(runs):
            return []
        qubits = [self.qubits[r] for r in runs]
        kernels = fused_kernels(matrices, qubits, self.n_qubits)
        if structured:
            nonzero = matrices != 0
            monomial = (nonzero.sum(-1) == 1).all(-1) & (nonzero.sum(-2) == 1).all(-1)
            for i in np.flatnonzero(monomial).tolist():
                kernels[i] = gate_kernel(kernels[i].matrix, qubits[i], self.n_qubits)
        return [
            FusedOp(k.qubits, k.matrix, self.lengths[r], k)
            for k, r in zip(kernels, runs)
        ]


#: Step kinds of a plan's sweep program: a bound gate op, a fused run, an
#: object passed through as it is, and (training) an error slot after a
#: gate that stands alone.
_GATE, _RUN, _AS_IS, _SLOT = range(4)


#: Fused runs retained per plan, keyed on the weight bytes.
_FUSION_CACHE_SIZE = 4


class FusionPlan:
    """Per-circuit fusion with caching of the weight-static runs.

    The circuit is cut once by :func:`fusion_layout` at its
    input-dependent encoder gates and at the breaks of ``after``, and
    each stretch by :func:`greedy_runs`; a run of one keeps its own op.
    :meth:`fused_ops` materializes every run through the plan's
    :class:`RunStack` and caches the result per weight vector, with the
    bound ops of the weight-only gates it emits unfused; encoder gates
    are bound per call and emitted unfused, so a call with cached
    weights binds only the encoder gates.
    """

    __slots__ = ("bind_plan", "_layout", "_steps", "_stack", "_weight_gates",
                 "_input_gates", "_cache")

    #: Counter row of the per-weight-vector run cache.
    _cache_name = "fusion.segments"

    def __init__(self, circuit, after=None):
        self.bind_plan = bind_plan_for(circuit)
        self._layout = fusion_layout(circuit, input_free, after)
        constants = self.bind_plan.constant_ops()
        steps, runs = [], []

        def single(slot) -> None:
            if not isinstance(slot, int):
                steps.append((_AS_IS, slot))
            elif slot in constants:
                steps.append((_AS_IS, constants[slot]))
            else:
                steps.append((_GATE, slot))

        for entry in self._layout:
            if not isinstance(entry, list):
                single(entry)
                continue
            qubits = [_slot_qubits(circuit.gates, slot) for slot in entry]
            for run in greedy_runs(qubits):
                if len(run) > 1:
                    steps.append((_RUN, len(runs)))
                    runs.append([entry[j] for j in run])
                else:
                    single(entry[run[0]])
        self._steps = steps
        self._stack = RunStack(circuit, runs, constants)
        gates = {value for kind, value in steps if kind == _GATE}
        gates.update(index for _r, _s, index, _q, _p in self._stack.bound)
        self._input_gates = sorted(i for i in gates if not input_free(circuit.gates[i]))
        self._weight_gates = sorted(gates.difference(self._input_gates))
        # weight bytes -> (one fused op per run, weight-only gate -> op).
        self._cache = Cache(self._cache_name, _FUSION_CACHE_SIZE)

    def _fuse(self, weights) -> "tuple[list[FusedOp], dict]":
        stack, gates = self._stack, self._weight_gates
        ops = dict(zip(gates, self.bind_plan.bind(weights, None, None, gates)))
        prefix = stack.prefixes(weights, ops)
        return stack.fused_ops(prefix[:, -1], range(len(prefix)), True), ops

    def fused_ops(
        self,
        weights: "np.ndarray | None" = None,
        inputs: "np.ndarray | None" = None,
        batch: "int | None" = None,
    ) -> list:
        """Bind and fuse the circuit for one call: ops, plus any breaks."""
        runs, ops = self._cache.get_or_build(
            weights_key(weights), lambda: self._fuse(weights)
        )
        gates = self._input_gates
        if gates:
            bound = self.bind_plan.bind(weights, inputs, batch, gates)
            ops = {**ops, **dict(zip(gates, bound))}
        return [
            ops[value] if kind == _GATE else runs[value] if kind == _RUN else value
            for kind, value in self._steps
        ]


def fusion_plan_for(circuit) -> FusionPlan:
    """The circuit's :class:`FusionPlan`, built once per gate list."""
    return circuit_cache(circuit, "fusion.plan", 1).get_or_build(
        None, lambda: FusionPlan(circuit)
    )


def _is_slot(entry) -> bool:
    """Whether an ``after`` entry is an error slot ``("slot", qubit, key)``."""
    return isinstance(entry, tuple) and len(entry) == 3 and entry[0] == "slot"


class FusedSweep:
    """One training step's program on fused runs, and what its adjoint needs.

    ``ops`` is the program the forward applies: fused run pieces
    (:class:`FusedOp`, kernels built), bound gate ops, error ops and any
    jump sites for the caller to realize.  ``pieces`` maps the program
    index of every piece that holds a rotation to its index in the
    step's transition operators, and ``groups[p]`` gathers that piece's
    padded support out of a state.  The adjoint fills ``transitions[p]``
    with the sum over rows and the other qubits of ``|psi><bra|`` at the
    piece's output and then calls :meth:`chain`.
    """

    __slots__ = ("ops", "pieces", "groups", "width", "_stack", "_prefix",
                 "_gen_piece", "_gen_end")

    def __init__(self, ops, pieces, groups, stack, prefix, gen_piece, gen_end):
        self.ops = ops
        self.pieces = pieces
        self.groups = groups
        self.width = prefix.shape[-1]
        self._stack = stack
        self._prefix = prefix
        self._gen_piece = gen_piece
        self._gen_end = gen_end

    def chain(self, transitions: np.ndarray, weight_grad: np.ndarray) -> None:
        """Add every fused rotation's weight gradient to ``weight_grad``.

        Rotation ``k`` sits in slot ``l`` of a piece that ends at prefix
        ``P_end``; ``P_k`` is the prefix through ``l`` (the state right
        after the gate, before any error slot).  The piece applies ``U =
        P_end P_start^dag`` and ``dU/dt = -(i/2) Q_k^dag G_k Q_k U`` with
        ``Q_k = P_k P_end^dag``, so the gradient of the loss is ``Im
        tr(G_k Q_k N Q_k^dag)`` for the piece's transition operator
        ``N``.  All rotations at once, then chained onto the weights by
        the angle table.
        """
        stack = self._stack
        if not stack.gen_run.size:
            return
        prefix = self._prefix
        after = prefix[stack.gen_run, stack.gen_slot + 1]
        end = prefix[stack.gen_run, self._gen_end]
        q = after @ end.conj().swapaxes(-1, -2)
        x = q @ transitions[self._gen_piece] @ q.conj().swapaxes(-1, -2)
        g = np.einsum("kij,kji->k", stack.gen_forms[3], x).imag
        weight_grad[: stack.coeffs.shape[1]] += g @ stack.coeffs


class TrainingPlan:
    """A block's training sweep on fused runs, cut once per ``after`` table.

    Gates shared by every row -- constants, and weight-only rotations
    with a closed form (:func:`_rotation_form`) -- join runs, cut by
    :func:`greedy_runs`; every other gate stands alone and is bound per
    call (:attr:`standalone`), as is a run of one gate with nothing
    fused after it.  ``after[i]`` lists what follows gate ``i``, in
    order: a constant :class:`FusedOp` takes a slot of its own in the
    gate's run, an error slot ``("slot", qubit, key)`` an identity slot
    a call may fill, and anything else (a jump site) is a split mark.
    Everything after a gate that stands alone stands alone too.
    Entries act on their gate's qubits, so they never change the cut.

    :meth:`sweep` materializes one step: row-shared error ops fill their
    slots, while per-row ones and jump sites split their run into pieces
    ``P_b P_a^dag`` of the prefix products, the op or site between them.
    """

    __slots__ = ("standalone", "slot_qubits", "_steps", "_stack",
                 "_slots", "_marks")

    def __init__(self, circuit, after=None):
        gates = circuit.gates
        constants = bind_plan_for(circuit).constant_ops()
        self.standalone: "list[int]" = []
        self.slot_qubits: "dict" = {}
        steps, runs, stretch = [], [], []
        # Error slots inside runs: key -> (run, order, slot); split marks:
        # (run, order, boundary, site).  ``order`` sorts a run's splits.
        self._slots: "dict" = {}
        self._marks: "list[tuple]" = []

        def alone(i, entries) -> None:
            steps.append((_GATE, len(self.standalone)))
            self.standalone.append(i)
            for entry in entries:
                steps.append((_SLOT, entry[2]) if _is_slot(entry) else (_AS_IS, entry))

        def flush() -> None:
            for run in greedy_runs([gates[i].qubits for i, _ in stretch]):
                members = [stretch[j] for j in run]
                if len(members) == 1 and not any(
                    isinstance(e, FusedOp) or _is_slot(e) for e in members[0][1]
                ):
                    alone(*members[0])
                    continue
                r, slots = len(runs), []
                for i, entries in members:
                    slots.append(i)
                    for entry in entries:
                        order = len(self._marks) + len(self._slots)
                        if isinstance(entry, FusedOp):
                            slots.append(entry)
                        elif _is_slot(entry):
                            self._slots[entry[2]] = (r, order, len(slots))
                            slots.append(None)
                        else:
                            self._marks.append((r, order, len(slots), entry))
                steps.append((_RUN, r))
                runs.append(slots)
            stretch.clear()

        for i, gate in enumerate(gates):
            entries = after[i] if after is not None else ()
            for entry in entries:
                if _is_slot(entry):
                    self.slot_qubits[entry[2]] = entry[1]
            shared = i in constants or (
                input_free(gate) and _rotation_form(gate.name) is not None
            )
            if shared and len(gate.qubits) <= RUN_QUBITS:
                stretch.append((i, entries))
            else:
                flush()
                alone(i, entries)
        flush()
        self._steps = steps
        self._stack = RunStack(circuit, runs, constants)

    def sweep(self, ops: list, weights, errors: "dict | None" = None) -> FusedSweep:
        """The fused program of one step.

        ``ops`` are the bound ops of :attr:`standalone`, in order, and
        ``errors`` maps error-slot keys to the ops that fire there this
        step: a row-shared op fills its slot (or follows its lone gate),
        a per-row (batched) op splits its run and runs between the two
        pieces.  Jump sites always split their run.
        """
        errors = errors or {}
        stack = self._stack
        writes, cuts = [], {}
        for r, order, boundary, site in self._marks:
            cuts.setdefault(r, []).append((order, boundary, site))
        for key, op in errors.items():
            place = self._slots.get(key)
            if place is None:
                continue
            r, order, slot = place
            if op.batched:
                cuts.setdefault(r, []).append((order, slot + 1, op))
            else:
                writes.append((r, slot, op))
        prefix = stack.prefixes(weights, writes=writes)
        length = prefix.shape[1] - 1
        # Pieces as (run, start, end) prefix indices, in program order,
        # each run's followed by what runs after its pieces.
        pieces, between = [], {}
        for r in range(len(stack.lengths)):
            start = 0
            for _order, boundary, entry in sorted(cuts.get(r, ()), key=lambda c: c[0]):
                if boundary > start:
                    pieces.append((r, start, boundary))
                    start = boundary
                between.setdefault(len(pieces) - 1, []).append(entry)
            if start < stack.lengths[r]:
                pieces.append((r, start, length))
        piece_run = np.array([p[0] for p in pieces], dtype=np.intp)
        piece_end = np.array([p[2] for p in pieces], dtype=np.intp)
        matrices = prefix[piece_run, piece_end]
        starts = np.array([p[1] for p in pieces], dtype=np.intp)
        split = np.flatnonzero(starts)
        if split.size:
            opened = prefix[piece_run[split], starts[split]]
            matrices[split] = matrices[split] @ opened.conj().swapaxes(-1, -2)
        fused = stack.fused_ops(matrices, piece_run)
        if cuts:
            keys = piece_run * (length + 1) + piece_end
            gen_piece = np.searchsorted(
                keys, stack.gen_run * (length + 1) + stack.gen_slot + 1
            )
            gen_end = piece_end[gen_piece]
        else:
            gen_piece, gen_end = stack.gen_run, length
        # Only pieces that hold a rotation record a transition operator.
        holds = np.zeros(len(pieces), dtype=bool)
        holds[gen_piece] = True
        rows = np.cumsum(holds) - 1
        holds = holds.tolist()
        program, index, groups = [], {}, []
        p = 0
        for kind, value in self._steps:
            if kind == _RUN:
                while p < len(pieces) and pieces[p][0] == value:
                    if holds[p]:
                        index[len(program)] = len(groups)
                        groups.append(stack.groups[value])
                    program.append(fused[p])
                    program.extend(between.get(p, ()))
                    p += 1
            elif kind == _GATE:
                program.append(ops[value])
            elif kind == _SLOT:
                if value in errors:
                    program.append(errors[value])
            else:
                program.append(value)
        return FusedSweep(
            program, index, groups, stack, prefix, rows[gen_piece], gen_end
        )


#: Training plans retained per circuit: the noiseless one plus one per
#: (noise model, factor, layout).
_TRAINING_PLANS = 8


def training_plan_for(circuit, key=None, after=None) -> TrainingPlan:
    """The circuit's :class:`TrainingPlan` under ``key``, built on first use.

    ``key`` None is the noiseless plan; a noisy plan's ``after`` table is
    a callable, run only when the plan is built.
    """
    return circuit_cache(circuit, "fusion.training", _TRAINING_PLANS).get_or_build(
        key, lambda: TrainingPlan(circuit, after() if after is not None else None)
    )

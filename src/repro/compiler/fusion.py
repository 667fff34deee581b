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
  constant op joins the open run, an error slot joins it as an identity
  slot, anything else -- a quantum-jump site -- ends it and passes
  through;
* :func:`greedy_runs`, the one left-to-right grouping of a cut stretch
  into runs of at most :data:`RUN_QUBITS` qubits;
* :func:`gather_embed`, which expands a matrix onto a run's support by
  one precomputed index gather, copying the entries a ``np.kron`` or
  ``np.einsum`` with the identity would place, without their
  multiplications (gate matrices here, superoperators in
  :func:`repro.compiler.superop.fuse_superops`);
* :class:`RunStack`, the one statevector materializer: all of a plan's
  runs as one zero-padded ``(runs, L, w, w)`` slot stack whose constant
  slots are filled once.  Per call it writes each rotation slot in
  closed form (``cos(t/2) I - i sin(t/2) G`` from the gate's generator,
  every angle from one affine table ``t = C w + c``), multiplies the
  prefix products of every run with ``L`` batched matmuls, and builds
  every run's kernel, adjoint included, with one gather
  (:func:`repro.sim.statevector.fused_kernels`).

One statevector plan consumes them.  A :class:`FusionPlan` is cut once
per ``after`` table: constants and weight-only rotations with a closed
form join runs; encoders, u3/cu3, u1 and wider gates stand alone.  It
has two materializers over its one stack:

* :meth:`FusionPlan.fused_ops`, tape-free: the runs are fused once per
  weight vector (a small :class:`~repro.utils.cache.Cache` keyed on the
  weight bytes) and the encoder gates, whose matrices change with every
  batch, are bound per call.  Noiseless inference uses it;
* :meth:`FusionPlan.sweep`, per step: every statevector training
  forward and the one adjoint run on the runs it materializes, and so
  does every tile of a noisy trajectory chunk
  (:func:`repro.noise.trajectory._segment_chunk`), on the same noisy
  plan.  A row-shared error fills its slot; a per-row error splits its
  run into pieces read off the prefix products.  The adjoint records each
  piece's reduced transition operator ``N`` at its output and un-applies
  it with one kernel call; afterwards every fused rotation's gradient is
  ``Im tr(G_k Q_k N Q_k^dag)`` with ``Q_k = P_k P_end^dag``
  (:meth:`FusedSweep.chain`), a few batched calls per block.

Plans live in the circuit's :func:`~repro.utils.cache.circuit_cache`
(:func:`fusion_plan_for`), so they are rebuilt whenever the circuit's
gates change.
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
    """Expand the shared ``(d, d)`` ``matrix`` from ``qubits`` onto the
    pair ``support``.

    ``gathers`` holds the :func:`gather_index` of a 1-qubit matrix on the
    low and on the high bit of the pair, and of a pair matrix in
    reversed order.  Entries are copied, never multiplied, so the result
    equals the expansion it replays under ``np.array_equal``.
    """
    if tuple(qubits) == tuple(support):
        return matrix
    low, high, reversed_pair = gathers
    if len(qubits) == 2:
        index = reversed_pair
    else:
        index = low if qubits[0] == support[0] else high
    return np.concatenate((matrix.ravel(), _ZERO))[index]


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


def input_free(gate) -> bool:
    """Whether no parameter of ``gate`` reads the input.

    Such a gate's bound matrix is fixed for a weight vector, so runs of
    them are fused once per weight vector; input-dependent encoder gates
    are re-bound every call.
    """
    return not any(expr.depends_on_input for expr in gate.params)


def _is_slot(entry) -> bool:
    """Whether an ``after`` entry is an error slot ``("slot", qubit, key)``."""
    return isinstance(entry, tuple) and len(entry) == 3 and entry[0] == "slot"


def fusion_layout(circuit, fusable, after=None) -> list:
    """Cut a circuit's gate stream into runs, singletons and breaks.

    The one cut every fused stream uses.  Returns, in sweep order:

    * a ``list`` per run: the gate indices ``fusable(gate)`` admits, with
      the constant :class:`FusedOp` entries and error slots of ``after``
      that joined them;
    * an ``int`` per gate ``fusable`` refuses, which stands alone;
    * every other entry of ``after`` as it is: a break, or an error slot
      that stands alone.

    ``after[i]`` lists what follows gate ``i``, in order.  A constant
    :class:`FusedOp` joins the open run (after a refused gate it opens
    the next one).  An error slot ``("slot", qubit, key)`` joins the
    open run; after a refused gate there is none, and the slot stands
    alone too.  Anything else ends the run and passes through, so a
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
            if isinstance(entry, FusedOp) or (run and _is_slot(entry)):
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


def run_member(gate) -> bool:
    """Whether ``gate`` may join a statevector run: the one rule.

    Constants and weight-only rotations with a closed form
    (:func:`_rotation_form`) on at most :data:`RUN_QUBITS` qubits are
    shared by every row and written into the plan's stack; encoders,
    u3/cu3, u1 and wider gates stand alone, bound per call.
    """
    if len(gate.qubits) > RUN_QUBITS:
        return False
    if all(expr.is_constant for expr in gate.params):
        return True
    return input_free(gate) and _rotation_form(gate.name) is not None


def _member_qubits(gates, member) -> "tuple[int, ...]":
    """The qubits a run member acts on: a gate, constant op or error slot."""
    if isinstance(member, int):
        return gates[member].qubits
    return (member[1],) if _is_slot(member) else member.qubits


class RunStack:
    """A plan's fused runs, materialized together from one padded stack.

    Run ``r`` multiplies its slots ``runs[r]`` in sweep order; a slot is
    a gate index of the circuit (a constant, or a rotation with a closed
    form), a constant :class:`FusedOp`, or an error slot ``("slot",
    qubit, key)``, an identity a caller may overwrite per call.  Every
    slot is a ``(w, w)`` matrix on the run's *pad*: its support, widened
    on a one-qubit run by an identity partner qubit on the high bit
    (``w = 4`` from two qubits on).  Constant slots are filled once, in
    :attr:`base`; each call writes the rotation slots in closed form
    from the affine angle table (``coeffs``, ``consts``) and multiplies
    every run's prefix products at once (:meth:`prefixes`).
    """

    __slots__ = (
        "n_qubits", "qubits", "pads", "groups", "lengths", "base",
        "gen_run", "gen_slot", "gen_forms", "coeffs", "consts",
    )

    def __init__(self, circuit, runs: list, constants: dict):
        n = self.n_qubits = circuit.n_qubits
        gates = circuit.gates
        width = 1 << min(RUN_QUBITS, n)
        length = max((len(run) for run in runs), default=0)
        base = np.zeros((len(runs), length, width, width), dtype=complex)
        base[..., np.arange(width), np.arange(width)] = 1.0
        self.qubits, self.pads, self.groups = [], [], []
        self.lengths = [len(run) for run in runs]
        rotations, forms, exprs = [], [], []
        for r, run in enumerate(runs):
            members = (_member_qubits(gates, member) for member in run)
            qubits = tuple(sorted(set().union(*members)))
            pad = qubits
            if len(qubits) < RUN_QUBITS and n > 1:
                pad = (qubits[0], (qubits[0] + 1) % n)
            self.qubits.append(qubits)
            self.pads.append(pad)
            self.groups.append(gate_groups(n, pad))
            for slot, entry in enumerate(run):
                if _is_slot(entry):
                    continue
                if not isinstance(entry, int):
                    base[r, slot] = _embed(entry.matrix, entry.qubits, pad)
                    continue
                gate = gates[entry]
                if entry in constants:
                    base[r, slot] = _embed(constants[entry].matrix, gate.qubits, pad)
                    continue
                rotations.append((r, slot))
                form = _rotation_form(gate.name)
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

    def prefixes(self, weights, writes=()) -> np.ndarray:
        """Every run's prefix products, ``(runs, L + 1, w, w)``.

        ``[:, l]`` multiplies the first ``l`` slots: ``[:, 0]`` is the
        identity and ``[:, L]`` each run's matrix (identity padding
        past a run's end).  ``writes`` lists ``(run, slot, op)``
        row-shared ops to place in identity slots.
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
        runs a plan reuses, as :meth:`FusionPlan.fused_ops` does.
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


#: Step kinds of a plan's program: a gate that stands alone, a fused run,
#: an object passed through as it is, and an error slot that stands alone.
_GATE, _RUN, _AS_IS, _SLOT = range(4)


#: Fused runs retained per plan, keyed on the weight bytes.
_FUSION_CACHE_SIZE = 4


class FusionPlan:
    """A circuit's one statevector fusion plan, cut once per ``after`` table.

    :func:`fusion_layout` cuts the circuit under :func:`run_member`, and
    :func:`greedy_runs` each stretch; a run of one member keeps its own
    op, and a gate that stands alone (:attr:`standalone`) is bound per
    call.  ``after[i]`` lists what follows gate ``i``, in order: a
    constant :class:`FusedOp` takes a slot of its own in the open run,
    an error slot ``("slot", qubit, key)`` an identity slot a step may
    fill (:attr:`slot_qubits` maps keys to qubits), and anything else --
    a quantum-jump site -- ends the run and passes through.  Entries act
    on their gate's qubits, so they never widen a run.

    Two materializers share the plan's :class:`RunStack`:

    * :meth:`fused_ops` fuses the runs once per weight vector and caches
      them, with the weight-only gates that stand alone bound alongside;
      encoder gates are bound per call, so a call with cached weights
      binds only those;
    * :meth:`sweep` materializes one training step or trajectory tile:
      row-shared error ops fill their slots, while per-row ones split
      their run into pieces ``P_b P_a^dag`` of the prefix products, the
      op between them.
    """

    __slots__ = ("bind_plan", "standalone", "slot_qubits", "_layout", "_steps",
                 "_stack", "_slots", "_weight_gates", "_input_gates", "_cache")

    def __init__(self, circuit, after=None):
        gates = circuit.gates
        self.bind_plan = bind_plan_for(circuit)
        self._layout = fusion_layout(circuit, run_member, after)
        constants = self.bind_plan.constant_ops()
        self.standalone: "list[int]" = []
        self.slot_qubits = {
            entry[2]: entry[1]
            for entries in after or () for entry in entries if _is_slot(entry)
        }
        # Error slots inside runs: key -> (run, slot).
        self._slots: "dict" = {}
        steps, runs = [], []

        def single(member) -> None:
            if _is_slot(member):
                steps.append((_SLOT, member[2]))
            elif not isinstance(member, int):
                steps.append((_AS_IS, member))
            elif member in constants:
                steps.append((_AS_IS, constants[member]))
            else:
                steps.append((_GATE, member))
                self.standalone.append(member)

        for entry in self._layout:
            if not isinstance(entry, list):
                single(entry)
                continue
            for run in greedy_runs([_member_qubits(gates, m) for m in entry]):
                if len(run) == 1:
                    single(entry[run[0]])
                    continue
                slots = [entry[j] for j in run]
                for slot, member in enumerate(slots):
                    if _is_slot(member):
                        self._slots[member[2]] = (len(runs), slot)
                steps.append((_RUN, len(runs)))
                runs.append(slots)
        self._steps = steps
        self._stack = RunStack(circuit, runs, constants)
        self._input_gates = [i for i in self.standalone if not input_free(gates[i])]
        self._weight_gates = [i for i in self.standalone if input_free(gates[i])]
        # weight bytes -> (one fused op per run, weight-only gate -> op).
        self._cache = Cache("fusion.segments", _FUSION_CACHE_SIZE)

    def _fuse(self, weights) -> "tuple[list[FusedOp], dict]":
        stack, gates = self._stack, self._weight_gates
        ops = dict(zip(gates, self.bind_plan.bind(weights, None, None, gates)))
        prefix = stack.prefixes(weights)
        return stack.fused_ops(prefix[:, -1], range(len(prefix)), True), ops

    def fused_ops(
        self,
        weights: "np.ndarray | None" = None,
        inputs: "np.ndarray | None" = None,
        batch: "int | None" = None,
    ) -> list:
        """Bind and fuse the circuit for one call: ops, plus any breaks.

        Error slots stay identity: this is the noiseless program.
        """
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
            if kind != _SLOT
        ]

    def sweep(self, ops: list, weights, errors: "dict | None" = None) -> FusedSweep:
        """The fused program of one training step.

        ``ops`` are the bound ops of :attr:`standalone`, in order, and
        ``errors`` maps error-slot keys to the ops that fire there this
        step: a row-shared op fills its slot (or follows the gate that
        stands alone before it), a per-row (batched) op splits its run
        and runs between the two pieces.
        """
        errors = errors or {}
        ops = dict(zip(self.standalone, ops))
        stack = self._stack
        writes, cuts = [], {}
        for key, op in errors.items():
            place = self._slots.get(key)
            if place is None:
                continue
            r, slot = place
            if op.batched:
                cuts.setdefault(r, []).append((slot + 1, op))
            else:
                writes.append((r, slot, op))
        prefix = stack.prefixes(weights, writes)
        length = prefix.shape[1] - 1
        # Pieces as (run, start, end) prefix indices, in program order,
        # each run's followed by what runs after its pieces.
        pieces, between = [], {}
        for r in range(len(stack.lengths)):
            start = 0
            for boundary, op in sorted(cuts.get(r, ()), key=lambda c: c[0]):
                if boundary > start:
                    pieces.append((r, start, boundary))
                    start = boundary
                between.setdefault(len(pieces) - 1, []).append(op)
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


#: Plans retained per circuit: the noiseless one plus one training plan
#: per (noise model, factor, layout).
_PLANS = 8


def fusion_plan_for(circuit, key=None, after=None) -> FusionPlan:
    """The circuit's :class:`FusionPlan` under ``key``, built on first use.

    ``key`` None is the noiseless plan, which serves training and
    inference alike; a noisy plan's ``after`` table is a callable, run
    only when the plan is built.
    """
    return circuit_cache(circuit, "fusion.plan", _PLANS).get_or_build(
        key, lambda: FusionPlan(circuit, after() if after is not None else None)
    )

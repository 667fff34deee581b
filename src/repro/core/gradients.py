"""Gradients through quantum circuits: adjoint method + parameter shift.

The paper trains with PyTorch autograd through TorchQuantum's simulator.
This module provides the equivalent from scratch:

* :func:`adjoint_backward` -- exact reverse-mode gradients in a *single*
  backward sweep.  The trick: the upstream gradients dL/dE_q weight the
  per-qubit Pauli-Z observables into one per-sample *effective diagonal
  observable* ``O_eff = sum_q (dL/dE_q) Z_q``; a standard adjoint sweep
  against O_eff then yields dL/d(every bound gate parameter) at the cost
  of one extra pass over the circuit, batched over samples.  Parameter
  derivatives chain onto weights / inputs through the affine coefficients
  of each :class:`ParamExpr`.

  Forwards run on the block's one fusion plan
  (:meth:`repro.compiler.fusion.FusionPlan.sweep`, the plan tape-free
  inference reuses), so the sweep walks fused gate runs of at most two
  qubits and the gates that stand alone between them.  The ket and the
  bra ride stacked in one buffer, and every step is un-applied through
  its kernel's inverse (:class:`repro.sim.statevector.Kernel`), one
  call for the pair.  Before a fused run is un-applied, the sweep
  records its reduced transition operator ``N = sum over rows and the
  other qubits of |psi><bra|`` at the run's output; after the sweep
  every fused rotation's gradient is
  ``Im tr(G Q N Q^dag)`` in closed form off the run's prefix products
  (:meth:`repro.compiler.fusion.FusedSweep.chain`), a few batched calls
  for the whole block.  A gate that stands alone keeps the per-op
  gradient: a rotation with generator ``G`` (``dU/dtheta = -(i/2) G U``)
  contributes ``Im <bra|G|psi>`` read off the post-gate state -- one
  generator-kernel call and one contraction, per row for input angles --
  and u3 and cu3 contract bra and ket once into the op's reduced ``d x
  d`` transition operator and read each parameter off it with its
  ``dmatrix`` times ``U^dag``.

  The same sweep differentiates every statevector training tape:
  noiseless, sampled gate insertion and quantum jumps
  (:func:`repro.noise.trajectory.stacked_noisy_forward_with_tape`).  A
  jump operator is non-unitary, so at a tape's ``jump_ops`` the bra goes
  through the operator's adjoint while the ket is restored from the
  tape's checkpoints instead of un-applied.  The tape also carries its
  sweep one op per gate and per applied error (``QuantumTape.ops``), the
  form :func:`adjoint_backward_reference` walks.

* :class:`ParameterShiftEngine` -- the hardware-executable two-term rule
  ``dE/dt = (E(t + pi/2) - E(t - pi/2)) / 2`` used for the paper's
  on-QC training experiment (Table 3), valid for weights that enter the
  compiled circuit exactly once with coefficient +-1 (single-Pauli
  rotations).

Both are cross-validated against finite differences and against each
other in ``tests/test_gradients.py``.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.parameters import INPUT, WEIGHT
from repro.compiler.fusion import fusion_plan_for
from repro.sim.statevector import (
    BoundOp,
    apply_matrix,
    apply_matrix_reference,
    bind_circuit,
    bind_plan_for,
    gate_groups,
    generator_kernel,
    run_ops,
    z_signs,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.fusion import FusedSweep


class QuantumTape:
    """Everything saved by a forward pass that backward needs.

    ``sweep`` is the fused program the forward ran
    (:class:`~repro.compiler.fusion.FusedSweep`): its run pieces, bound
    gate ops, error ops and realized jumps, plus the prefix products the
    fused gradients are read from.  :attr:`program` is what the adjoint
    walks: the sweep's ops, or ``ops`` on a tape built by hand without a
    sweep.  ``ops`` is the same sweep one op per gate and per applied
    error -- given as a list, or as a function that builds it on first
    access -- so the reference oracles replay a fused tape gate by gate.

    A forward that realizes quantum jumps also records their program
    indices (``jump_ops``) and the state before every
    :data:`~repro.noise.trajectory._JUMP_CHECKPOINT_STRIDE`-th jump
    (``checkpoints``, keyed by program index); both stay empty on unitary
    tapes.
    """

    def __init__(
        self,
        circuit: Circuit,
        ops: "list[BoundOp] | Callable[[], list[BoundOp]]",
        state: np.ndarray,
        n_weights: int,
        n_inputs: int,
        checkpoints: "dict[int, np.ndarray] | None" = None,
        jump_ops: "frozenset[int]" = frozenset(),
        sweep: "FusedSweep | None" = None,
    ):
        self.circuit = circuit
        self._ops = ops
        self.state = state  # final statevector (batch, dim)
        self.n_weights = n_weights
        self.n_inputs = n_inputs
        self.checkpoints = {} if checkpoints is None else checkpoints
        self.jump_ops = jump_ops
        self.sweep = sweep

    @property
    def ops(self) -> "list[BoundOp]":
        if callable(self._ops):
            self._ops = self._ops()
        return self._ops

    @property
    def program(self) -> list:
        return self.ops if self.sweep is None else self.sweep.ops

    @property
    def batch(self) -> int:
        return self.state.shape[0]


def forward_with_tape(
    circuit: Circuit,
    weights: "np.ndarray | None",
    inputs: "np.ndarray | None",
    batch: "int | None" = None,
    n_weights: "int | None" = None,
    n_inputs: "int | None" = None,
) -> "tuple[np.ndarray, QuantumTape]":
    """Run a circuit's fused sweep (:func:`fusion_plan_for`) and keep the tape.

    Returns per-qubit Z expectations ``(batch, n_qubits)`` and the tape.
    """
    if inputs is not None:
        inputs = np.array(inputs, dtype=float)
        batch = inputs.shape[0]
    if batch is None:
        batch = 1
    if weights is not None:
        weights = np.array(weights, dtype=float)
    plan = fusion_plan_for(circuit)
    bound = bind_plan_for(circuit).bind(weights, inputs, batch, plan.standalone)
    sweep = plan.sweep(bound, weights)
    state = run_ops(sweep.ops, circuit.n_qubits, batch)
    if n_weights is None or n_inputs is None:
        table = circuit.parameter_table
        n_weights = table.num_weights if n_weights is None else n_weights
        n_inputs = table.num_inputs if n_inputs is None else n_inputs
    tape = QuantumTape(
        circuit,
        lambda: bind_circuit(circuit, weights, inputs, batch),
        state,
        n_weights,
        n_inputs,
        sweep=sweep,
    )
    probs = np.abs(state) ** 2
    expectations = probs @ z_signs(circuit.n_qubits).T
    return expectations, tape


def adjoint_backward(
    tape: QuantumTape, grad_expectations: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Backpropagate dL/dE through the circuit in one adjoint sweep.

    Parameters
    ----------
    tape:
        Output of :func:`forward_with_tape` or of a noisy training
        forward (sampled insertions and jumps are constant ops).
    grad_expectations:
        ``(batch, n_qubits)`` upstream gradients dL/dE_q (qubits indexed
        in the tape circuit's own ordering).

    Returns
    -------
    (weight_grad, input_grad):
        ``(n_weights,)`` summed over the batch, and ``(batch, n_inputs)``
        per-sample.
    """
    n = tape.circuit.n_qubits
    rows = tape.batch
    grad_expectations = np.asarray(grad_expectations, dtype=float)
    if grad_expectations.shape != (rows, n):
        raise ValueError(
            f"grad shape {grad_expectations.shape} != ({rows}, {n})"
        )
    # |psi> and O_eff|psi>, with O_eff = sum_q g_q Z_q the per-row
    # effective diagonal observable, share one (2 * rows, dim) buffer, so
    # one kernel call un-applies both; the scratch buffer makes the sweep
    # allocation-free.
    pair = np.empty((2 * rows, tape.state.shape[1]), dtype=complex)
    pair[:rows] = tape.state
    np.multiply(grad_expectations @ z_signs(n), tape.state, out=pair[rows:])
    scratch = np.empty_like(pair)
    weight_grad = np.zeros(tape.n_weights)
    input_grad = np.zeros((rows, tape.n_inputs))
    sweep, ops = tape.sweep, tape.program
    pieces = sweep.pieces if sweep is not None else {}
    if pieces:
        # Real and imaginary parts of |psi> and <bra| on each piece's
        # support, contracted by one real GEMM per piece.
        real = 2 * sweep.width
        products = np.empty((len(pieces), real, real))
    jump_ops, restore = tape.jump_ops, _jump_kets(tape)
    for k in range(len(ops) - 1, -1, -1):
        op = ops[k]
        inverse = op.kernel(n).adjoint()
        if k in jump_ops:
            # Non-unitary jump: adjoint the bra, restore the ket.
            apply_matrix(pair[rows:], inverse, op.qubits, n, out=scratch[rows:])
            scratch[:rows] = restore(k)
        else:
            # Gradients read off the post-gate psi, then one kernel call
            # un-applies the pair.
            p = pieces.get(k)
            if p is not None:
                # A fused piece keeps its transition operator (below).
                ends = np.take(pair, sweep.groups[p], axis=1)
                ends = ends.view(float).reshape(2, -1, real)
                np.matmul(ends[0].T, ends[1], out=products[p])
            elif getattr(op, "grad_params", None):
                _op_gradients(op, pair[:rows], pair[rows:], scratch[:rows],
                              n, weight_grad, input_grad)
            apply_matrix(pair, inverse, op.qubits, n, out=scratch)
        pair, scratch = scratch, pair
    if pieces:
        # transitions[p] = sum over rows and the other qubits of
        # |psi><bra| on piece p's support, from the real products.
        re, im = products[:, 0::2], products[:, 1::2]
        transitions = (re[..., 0::2] + im[..., 1::2]) + 1j * (
            im[..., 0::2] - re[..., 1::2]
        )
        sweep.chain(transitions, weight_grad)
    return weight_grad, input_grad


def _jump_kets(tape: QuantumTape) -> "Callable[[int], np.ndarray]":
    """``restore(k)``: the ket immediately before jump op ``k``.

    Stored checkpoints return directly.  Any other jump's state is
    re-derived by replaying the recorded program from the nearest
    checkpoint below it, caching the pre-op state of every jump in that
    window, which the reverse sweep consumes next.  Each window thus
    replays once.
    """
    n = tape.circuit.n_qubits
    stored = sorted(tape.checkpoints)
    window: "dict[int, np.ndarray]" = {}

    def restore(k: int) -> np.ndarray:
        state = tape.checkpoints.get(k)
        if state is None:
            state = window.pop(k, None)
        if state is not None:
            return state
        j = stored[bisect.bisect_right(stored, k) - 1]
        state = tape.checkpoints[j]
        ops = tape.program
        for i in range(j, k):
            if i != j and i in tape.jump_ops:
                window[i] = state
            op = ops[i]
            state = apply_matrix(state, op.kernel(n), op.qubits, n)
        return state

    return restore


def _op_gradients(op, psi, bra, work, n, weight_grad, input_grad) -> None:
    """Accumulate ``op``'s parameter gradients from the post-gate state.

    A rotation with generator ``G`` (``dU/dtheta = -(i/2) G U``) gives
    ``Im <bra|G|psi>``: one generator-kernel call into ``work`` and one
    contraction.  u3 and cu3 (three parameters, no single generator)
    contract bra and psi once into the op's reduced ``d x d`` transition
    operator and read each parameter off it with ``dU U^dag``, since
    ``dU psi_before = dU U^dag psi``.
    """
    generator = generator_kernel(op.gate.name, op.qubits, n)
    if generator is not None:
        (_which, expr), = op.grad_params
        # Re <bra| -iG |psi> = Im <bra|G|psi>, per row or batch-summed.
        dpsi = apply_matrix(psi, generator, op.qubits, n, out=work)
        if expr.depends_on_input:
            g = np.einsum("ij,ij->i", bra.view(float), dpsi.view(float))
        else:
            g = np.vdot(bra, dpsi).real
        _chain(expr, g, weight_grad, input_grad)
        return
    groups = gate_groups(n, op.qubits)
    # transition[r, i, j] = sum over the other qubits of bra* x psi.
    transition = np.einsum("rsi,rsj->rij", bra[:, groups].conj(), psi[:, groups])
    undo = op.matrix.conj().swapaxes(-1, -2)
    for which, expr in op.grad_params:
        dmat = op.dmatrix(which) @ undo
        sub = "ij,rij->r" if dmat.ndim == 2 else "rij,rij->r"
        _chain(expr, 2.0 * np.einsum(sub, dmat, transition).real,
               weight_grad, input_grad)


def _chain(expr, g, weight_grad: np.ndarray, input_grad: np.ndarray) -> None:
    """Chain a parameter's gradient onto its expression's terms.

    ``g`` is per row, or already summed over rows when the expression
    has no input terms.
    """
    total = g.sum() if np.ndim(g) else g
    for kind, index, coeff in expr.terms:
        if kind == WEIGHT:
            weight_grad[index] += coeff * total
        elif kind == INPUT:
            input_grad[:, index] += coeff * g


def adjoint_backward_reference(
    tape: QuantumTape, grad_expectations: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """The original adjoint sweep over the reference apply kernel.

    Re-derives every permutation and allocates fresh states per gate;
    kept as the numerical baseline for :func:`adjoint_backward` in the
    equivalence tests and the ``benchmarks/perf`` harness.  It walks the
    tape's gate-level ``ops``.  A tape with quantum jumps holds
    non-unitary ops, which an adjoint cannot un-apply, so there every
    pre-op ket comes from a forward replay of ``ops`` instead.
    """
    n = tape.circuit.n_qubits
    batch = tape.batch
    grad_expectations = np.asarray(grad_expectations, dtype=float)
    if grad_expectations.shape != (batch, n):
        raise ValueError(
            f"grad shape {grad_expectations.shape} != ({batch}, {n})"
        )

    diag = grad_expectations @ z_signs(n)
    psi = tape.state
    bra = diag * psi

    weight_grad = np.zeros(tape.n_weights)
    input_grad = np.zeros((batch, tape.n_inputs))

    kets = None
    if tape.jump_ops:
        kets = [np.zeros_like(psi)]
        kets[0][:, 0] = 1.0
        for op in tape.ops[:-1]:
            kets.append(apply_matrix_reference(kets[-1], op.matrix, op.qubits, n))

    for k in range(len(tape.ops) - 1, -1, -1):
        op = tape.ops[k]
        if op.batched:
            adj = op.matrix.conj().transpose(0, 2, 1)
        else:
            adj = op.matrix.conj().T
        if kets is None:
            psi = apply_matrix_reference(psi, adj, op.qubits, n)
        else:
            psi = kets[k]
        gate = op.gate
        if gate.params:
            for which, expr in enumerate(gate.params):
                if expr.is_constant:
                    continue
                dmat = op.dmatrix(which)
                dpsi = apply_matrix_reference(psi, dmat, op.qubits, n)
                inner = np.einsum("bi,bi->b", bra.conj(), dpsi)
                g = 2.0 * np.real(inner)
                for kind, index, coeff in expr.terms:
                    if kind == WEIGHT:
                        weight_grad[index] += coeff * g.sum()
                    elif kind == INPUT:
                        input_grad[:, index] += coeff * g
        bra = apply_matrix_reference(bra, adj, op.qubits, n)

    return weight_grad, input_grad


def finite_difference_gradients(
    f: "Callable[[np.ndarray], float]", x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central finite differences (testing reference)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        plus = x.copy()
        minus = x.copy()
        plus.flat[i] += eps
        minus.flat[i] -= eps
        grad.flat[i] = (f(plus) - f(minus)) / (2 * eps)
    return grad


class ParameterShiftEngine:
    """Two-term parameter-shift Jacobians through a black-box executor.

    ``executor`` is any callable ``(weights, inputs) -> (batch, n_qubits)``
    expectations -- including *noisy, shot-sampled hardware surrogates*,
    which is the whole point: this is how the paper trains directly on a
    quantum device (Table 3, "train the model with parameter shift").
    """

    SHIFT = np.pi / 2.0

    def __init__(
        self, executor: "Callable[[np.ndarray, np.ndarray], np.ndarray]"
    ):
        self.executor = executor

    @staticmethod
    def validate_shiftable(circuit: Circuit, n_weights: int) -> None:
        """Check each weight enters the circuit once with coefficient +-1.

        That is the condition under which the two-term rule is exact.
        """
        occurrences = np.zeros(n_weights, dtype=int)
        for gate in circuit.gates:
            for expr in gate.params:
                for kind, index, coeff in expr.terms:
                    if kind != WEIGHT:
                        continue
                    occurrences[index] += 1
                    if abs(abs(coeff) - 1.0) > 1e-12:
                        raise ValueError(
                            f"weight {index} has coefficient {coeff}; "
                            "two-term parameter shift requires +-1"
                        )
        multiple = np.nonzero(occurrences > 1)[0]
        if multiple.size:
            raise ValueError(
                f"weights {multiple.tolist()} appear multiple times; "
                "two-term parameter shift is not exact for them"
            )

    def weight_jacobian(
        self, weights: np.ndarray, inputs: np.ndarray
    ) -> np.ndarray:
        """d E[b, q] / d w[i] of shape (batch, n_qubits, n_weights)."""
        weights = np.asarray(weights, dtype=float)
        base = self.executor(weights, inputs)
        batch, n_qubits = base.shape
        jac = np.zeros((batch, n_qubits, weights.size))
        for i in range(weights.size):
            shifted = weights.copy()
            shifted[i] += self.SHIFT
            plus = self.executor(shifted, inputs)
            shifted[i] -= 2 * self.SHIFT
            minus = self.executor(shifted, inputs)
            jac[:, :, i] = (plus - minus) / 2.0
        return jac

    def input_jacobian(
        self, weights: np.ndarray, inputs: np.ndarray
    ) -> np.ndarray:
        """d E[b, q] / d x[b, j] of shape (batch, n_qubits, n_inputs)."""
        inputs = np.asarray(inputs, dtype=float)
        batch, n_inputs = inputs.shape
        sample = self.executor(weights, inputs)
        jac = np.zeros((batch, sample.shape[1], n_inputs))
        for j in range(n_inputs):
            shifted = inputs.copy()
            shifted[:, j] += self.SHIFT
            plus = self.executor(weights, shifted)
            shifted[:, j] -= 2 * self.SHIFT
            minus = self.executor(weights, shifted)
            jac[:, :, j] = (plus - minus) / 2.0
        return jac

    def backward(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        grad_expectations: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Chain upstream dL/dE through shift-rule Jacobians.

        Returns (weight_grad summed over batch, per-sample input_grad).
        """
        jac_w = self.weight_jacobian(weights, inputs)
        jac_x = self.input_jacobian(weights, inputs)
        weight_grad = np.einsum("bq,bqi->i", grad_expectations, jac_w)
        input_grad = np.einsum("bq,bqj->bj", grad_expectations, jac_x)
        return weight_grad, input_grad

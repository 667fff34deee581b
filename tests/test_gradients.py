"""Gradient engines: adjoint vs finite differences vs parameter shift."""

import numpy as np
import pytest

from repro.circuits import Circuit, ParamExpr
from repro.circuits.parameters import WEIGHT
from repro.compiler import transpile
from repro.compiler.passes import CompiledCircuit
from repro.core.gradients import (
    ParameterShiftEngine,
    adjoint_backward,
    adjoint_backward_reference,
    finite_difference_gradients,
    forward_with_tape,
)
from repro.noise import NoiseModel, PauliError, get_device, readout_matrix
from repro.noise.sampler import ErrorGateSampler
from repro.noise.trajectory import (
    stacked_noisy_backward,
    stacked_noisy_forward_with_tape,
)
from repro.qnn import paper_model
from repro.sim.gates import GATES
from repro.sim.statevector import apply_matrix_reference, z_signs, zero_state

RNG = np.random.default_rng(77)
EXACT = 1e-10


def _close(a, b, tol=EXACT):
    return np.allclose(a, b, rtol=0.0, atol=tol)


def _check_adjoint(circuit, n_weights, n_inputs, batch=3, atol=1e-6):
    weights = RNG.uniform(-1, 1, n_weights)
    inputs = RNG.uniform(-1, 1, (batch, n_inputs))
    upstream = RNG.normal(0, 1, (batch, circuit.n_qubits))
    _, tape = forward_with_tape(circuit, weights, inputs,
                                n_weights=n_weights, n_inputs=n_inputs)
    w_grad, x_grad = adjoint_backward(tape, upstream)
    w_ref, x_ref = adjoint_backward_reference(tape, upstream)
    assert _close(w_grad, w_ref) and _close(x_grad, x_ref)

    def loss_weights(w):
        exp, _ = forward_with_tape(circuit, w, inputs)
        return float((upstream * exp).sum())

    def loss_inputs(flat):
        exp, _ = forward_with_tape(circuit, weights, flat.reshape(batch, n_inputs))
        return float((upstream * exp).sum())

    fd_w = finite_difference_gradients(loss_weights, weights)
    fd_x = finite_difference_gradients(loss_inputs, inputs.ravel())
    assert np.allclose(w_grad, fd_w, atol=atol)
    assert np.allclose(x_grad.ravel(), fd_x, atol=atol)


@pytest.mark.parametrize(
    "design", ["u3cu3", "zz_ry", "rxyz", "zx_xx", "ry_cnot"]
)
def test_adjoint_matches_fd_across_design_spaces(design):
    qnn = paper_model(4, 1, 1, 16, 4, design=design)
    _check_adjoint(qnn.blocks[0], qnn.n_weights, 16)


def test_adjoint_matches_fd_rxyz_u1_cu3():
    qnn = paper_model(4, 1, 1, 16, 4, design="rxyz_u1_cu3")
    _check_adjoint(qnn.blocks[0], qnn.n_weights, 16)


def test_adjoint_through_compiled_circuit():
    qnn = paper_model(4, 1, 1, 16, 4)
    device = get_device("santiago")
    compiled = transpile(qnn.blocks[0], device, 2)
    # Compiled circuit has affine exprs (coeff != 1, shifted consts).
    _check_adjoint(compiled.circuit, qnn.n_weights, 16)


def test_adjoint_with_shared_weight_occurrences():
    # One weight used by two gates: gradient must accumulate both terms.
    c = Circuit(1)
    c.add("ry", 0, ParamExpr.weight(0))
    c.add("rz", 0, ParamExpr.weight(0, coeff=2.0))
    c.add("ry", 0, ParamExpr.weight(0, coeff=-0.5, const=0.3))
    _check_adjoint(c, 1, 0, batch=1)


def test_adjoint_constant_params_contribute_nothing():
    c = Circuit(1).add("ry", 0, 0.5)
    _, tape = forward_with_tape(c, np.zeros(0), None, batch=2,
                                n_weights=0, n_inputs=0)
    w_grad, x_grad = adjoint_backward(tape, np.ones((2, 1)))
    assert w_grad.size == 0 and x_grad.shape == (2, 0)


def test_adjoint_shape_validation():
    c = Circuit(2).add("ry", 0, ParamExpr.weight(0))
    _, tape = forward_with_tape(c, np.zeros(1), None, batch=1,
                                n_weights=1, n_inputs=0)
    with pytest.raises(ValueError):
        adjoint_backward(tape, np.ones((1, 5)))


def _spread_qubits(rng, n, k):
    """k distinct qubits including the top one, so wide layouts are hit."""
    rest = rng.choice(n - 1, size=k - 1, replace=False)
    return tuple(int(q) for q in rng.permutation([n - 1, *rest]))


def _every_gate_circuit(n, n_inputs=3):
    """Every gate in GATES; each parameterized one once per parameter kind.

    The kinds: a shared weight, a per-row input, a weight-plus-input sum
    (multi-term), and weight 0 again (repeated).  An input-encoded ``ry``
    on every qubit opens the circuit, so no gate sees a basis state.
    """
    rng = np.random.default_rng(n)
    circuit = Circuit(n)
    for q in range(n):
        circuit.add("ry", q, ParamExpr.input(q % n_inputs, 0.9, 0.3))
    n_weights = 1
    for kind in ("shared", "per-row", "multi-term", "repeated"):
        for name in sorted(GATES):
            gate = GATES[name]
            if not gate.num_params and kind != "shared":
                continue
            params = []
            for _ in range(gate.num_params):
                x = int(rng.integers(n_inputs))
                if kind == "shared":
                    params.append(ParamExpr.weight(n_weights, 0.8, 0.1))
                    n_weights += 1
                elif kind == "per-row":
                    params.append(ParamExpr.input(x, -1.1, 0.2))
                elif kind == "multi-term":
                    params.append(ParamExpr.weight(n_weights, 0.6)
                                  + ParamExpr.input(x, 0.5))
                    n_weights += 1
                else:
                    params.append(ParamExpr.weight(0, -1.3, 0.4))
            circuit.add(name, _spread_qubits(rng, n, gate.num_qubits), *params)
    return circuit, n_weights, n_inputs


@pytest.mark.parametrize("n", [4, 10])
def test_adjoint_every_gate_every_parameter_kind(n):
    circuit, n_weights, n_inputs = _every_gate_circuit(n)
    _check_adjoint(circuit, n_weights, n_inputs)


def _replay_gradients(ops, n, upstream, n_weights, n_inputs):
    """Oracle gradients of ``sum(upstream * <Z>)`` through any op list.

    Keeps every pre-op ket from a forward replay instead of un-applying
    ops, and differentiates every parameter through its ``dmatrix``, so
    it holds for the non-unitary MCWF jump ops too.
    """
    rows = upstream.shape[0]
    kets = [zero_state(n, rows)]
    for op in ops:
        kets.append(apply_matrix_reference(kets[-1], op.matrix, op.qubits, n))
    bra = (upstream @ z_signs(n)) * kets[-1]
    w_grad, x_grad = np.zeros(n_weights), np.zeros((rows, n_inputs))
    for op, ket in zip(reversed(ops), reversed(kets[:-1])):
        for which, expr in op.grad_params:
            dpsi = apply_matrix_reference(ket, op.dmatrix(which), op.qubits, n)
            g = 2.0 * np.real(np.einsum("bi,bi->b", bra.conj(), dpsi))
            for kind, index, coeff in expr.terms:
                if kind == WEIGHT:
                    w_grad[index] += coeff * g.sum()
                else:
                    x_grad[:, index] += coeff * g
        adjoint = op.matrix.conj().swapaxes(-1, -2)
        bra = apply_matrix_reference(bra, adjoint, op.qubits, n)
    return kets[-1], w_grad, x_grad


def _noise_model(n, relaxation):
    """Strong Pauli errors after every gate (so stacked rows draw mixed
    Paulis), coherent over-rotations and, optionally, exact relaxation."""
    error = PauliError(0.08, 0.06, 0.07)
    return NoiseModel(
        n,
        {(name, q): error for name, g in GATES.items() if g.num_qubits == 1
         for q in range(n)},
        {(a, b): error for a in range(n) for b in range(a + 1, n)},
        np.stack([readout_matrix(0.0, 0.0)] * n),
        coherent={q: (0.03, -0.02) for q in range(n)},
        relaxation={q: (30.0, 40.0) for q in range(n)} if relaxation else {},
        relaxation_durations=(0.5, 1.0),
    )


def _blocks():
    santiago = get_device("santiago")
    qnn = paper_model(4, 1, 1, 16, 4)
    yield transpile(qnn.blocks[0], santiago, 2), qnn.n_weights, 16
    melbourne = get_device("melbourne")
    qnn = paper_model(10, 1, 1, 36, 10)
    yield transpile(qnn.blocks[0], melbourne, 2), qnn.n_weights, 36
    circuit, n_weights, n_inputs = _every_gate_circuit(4)
    yield (CompiledCircuit(circuit, (0, 1, 2, 3), {q: q for q in range(4)},
                           (0, 1, 2, 3), "none"), n_weights, n_inputs)


@pytest.mark.parametrize("block", [0, 1], ids=["santiago", "melbourne"])
def test_adjoint_on_sampled_noisy_block(block):
    """The paper-default step (one realization): a freshly sampled noisy
    circuit per step, differentiated by the kernel adjoint."""
    compiled, n_weights, n_inputs = list(_blocks())[block]
    model = _noise_model(max(compiled.physical_qubits) + 1, relaxation=False)
    noisy, stats = ErrorGateSampler(model, 1.0).sample(
        compiled.circuit, compiled.physical_qubits, np.random.default_rng(3)
    )
    assert stats.n_inserted > 0
    _check_adjoint(noisy, n_weights, n_inputs, batch=2)


@pytest.mark.parametrize("engine", ["stacked", "mcwf"])
@pytest.mark.parametrize("block", [0, 1, 2], ids=["santiago", "melbourne",
                                                  "every-gate"])
def test_noisy_tapes_match_replay_oracle(block, engine):
    """Stacked R=3 gate-insertion and MCWF tapes against the oracle.

    The stacked sweep's backward runs the kernel adjoint with generator
    gradients over the realized ops (sampled Pauli stacks, coherent
    rotations and, under MCWF, the recorded jump operators); the oracle
    replays the same ops through the reference kernel.
    """
    compiled, n_weights, n_inputs = list(_blocks())[block]
    n, batch, realizations = compiled.circuit.n_qubits, 3, 3
    rng = np.random.default_rng(block)
    weights = rng.uniform(-1, 1, n_weights)
    inputs = rng.uniform(-1, 1, (batch, n_inputs))
    upstream = rng.normal(0, 1, (batch, n))
    mcwf = engine == "mcwf"
    model = _noise_model(max(compiled.physical_qubits) + 1, mcwf)
    sampler = ErrorGateSampler(model, 1.0, allow_exact=mcwf)
    _exp, tape, _n = stacked_noisy_forward_with_tape(
        compiled, sampler, weights, inputs, realizations,
        rng=5, n_weights=n_weights, n_inputs=n_inputs,
    )
    if mcwf:
        assert tape.jump_ops, "no jump recorded"
    w_grad, x_grad = stacked_noisy_backward(tape, upstream, realizations)
    stacked = np.tile(upstream / realizations, (realizations, 1))
    state, w_ref, x_ref = _replay_gradients(
        tape.ops, n, stacked, n_weights, n_inputs
    )
    x_ref = x_ref.reshape(realizations, batch, -1).sum(axis=0)
    assert _close(tape.state, state)
    assert _close(w_grad, w_ref) and _close(x_grad, x_ref)


# -- parameter shift -------------------------------------------------------------


def _expectation_executor(circuit, n_weights):
    def executor(weights, inputs):
        exp, _ = forward_with_tape(circuit, weights, inputs,
                                   n_weights=n_weights,
                                   n_inputs=inputs.shape[1])
        return exp

    return executor


def test_parameter_shift_matches_adjoint():
    qnn = paper_model(2, 1, 2, 2, 2, design="ry_cnot")
    circuit = qnn.blocks[0]
    weights = RNG.uniform(-1, 1, qnn.n_weights)
    inputs = RNG.uniform(-1, 1, (3, 2))
    upstream = RNG.normal(0, 1, (3, 2))

    engine = ParameterShiftEngine(_expectation_executor(circuit, qnn.n_weights))
    engine.validate_shiftable(circuit, qnn.n_weights)
    ps_w, ps_x = engine.backward(weights, inputs, upstream)

    _, tape = forward_with_tape(circuit, weights, inputs,
                                n_weights=qnn.n_weights, n_inputs=2)
    adj_w, adj_x = adjoint_backward(tape, upstream)
    assert np.allclose(ps_w, adj_w, atol=1e-9)
    assert np.allclose(ps_x, adj_x, atol=1e-9)


def test_parameter_shift_valid_through_compilation():
    """RY lowers to RZ(t + pi): coefficient 1, one occurrence -> exact."""
    qnn = paper_model(2, 1, 2, 2, 2, design="ry_cnot")
    device = get_device("bogota")
    compiled = transpile(qnn.blocks[0], device, 2)
    ParameterShiftEngine.validate_shiftable(compiled.circuit, qnn.n_weights)
    weights = RNG.uniform(-1, 1, qnn.n_weights)
    inputs = RNG.uniform(-1, 1, (2, 2))
    upstream = RNG.normal(0, 1, (2, compiled.circuit.n_qubits))
    engine = ParameterShiftEngine(
        _expectation_executor(compiled.circuit, qnn.n_weights)
    )
    ps_w, _ = engine.backward(weights, inputs, upstream)
    _, tape = forward_with_tape(compiled.circuit, weights, inputs,
                                n_weights=qnn.n_weights, n_inputs=2)
    adj_w, _ = adjoint_backward(tape, upstream)
    assert np.allclose(ps_w, adj_w, atol=1e-9)


def test_validate_shiftable_rejects_half_coefficients():
    c = Circuit(1).add("rz", 0, ParamExpr.weight(0, coeff=0.5))
    with pytest.raises(ValueError, match="coefficient"):
        ParameterShiftEngine.validate_shiftable(c, 1)


def test_validate_shiftable_rejects_repeated_weights():
    c = Circuit(1)
    c.add("ry", 0, ParamExpr.weight(0))
    c.add("rz", 0, ParamExpr.weight(0))
    with pytest.raises(ValueError, match="multiple"):
        ParameterShiftEngine.validate_shiftable(c, 1)


def test_finite_difference_on_quadratic():
    grad = finite_difference_gradients(lambda x: float((x**2).sum()),
                                       np.array([1.0, -2.0]))
    assert np.allclose(grad, [2.0, -4.0], atol=1e-5)

"""Fast execution engine vs the retained reference implementations.

The fast paths (cached apply kernels, bind plan, fused adjoint sweep,
fused trajectory batching, batched multinomial) must be numerically
indistinguishable from the original implementations: 1e-10 wherever the
math is exact, statistical tolerance where independent random streams
are involved.
"""

import numpy as np
import pytest

from repro.circuits import Circuit, ParamExpr
from repro.compiler import transpile
from repro.core.gradients import (
    QuantumTape,
    adjoint_backward,
    adjoint_backward_reference,
    finite_difference_gradients,
    forward_with_tape,
)
from repro.noise import (
    NoiseModel,
    PauliError,
    get_device,
    readout_matrix,
    run_noisy_density,
    run_noisy_trajectories,
    trajectory_probabilities,
    trajectory_probabilities_reference,
)
from repro.qnn import paper_model
from repro.sim import statevector as sv
from repro.sim.gates import GATES, gate_matrix
from repro.sim.statevector import (
    BindPlan,
    apply_grouped_1q,
    apply_matrix,
    apply_matrix_reference,
    batched_multinomial,
    bind_circuit,
    bind_circuit_reference,
    bind_plan_for,
    constant_gate_matrix,
    constant_kernel,
    gate_kernel,
    generator_kernel,
    run_ops,
    run_ops_reference,
    sample_counts,
    z_signs,
)

EXACT = 1e-10

#: A wide kernel input: 10 qubits (the MNIST-10 width) x 192 rows.
WIDE_N, WIDE_BATCH = 10, 192


def _random_state(rng, batch, n):
    state = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
    return state / np.linalg.norm(state, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# apply_matrix kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,params,qubits",
    [
        ("rz", (0.7,), (0,)),       # 1q diagonal kernel
        ("rz", (0.7,), (2,)),
        ("x", (), (1,)),            # 1q anti-diagonal kernel
        ("y", (), (3,)),
        ("sx", (), (0,)),           # 1q general kernel
        ("u3", (0.3, -0.8, 1.1), (2,)),
        ("cx", (), (0, 2)),         # cx permutation kernel
        ("cx", (), (2, 0)),
        ("cx", (), (3, 2)),
        ("cz", (), (1, 3)),         # 2q diagonal kernel
        ("rzz", (0.4,), (3, 0)),
        ("cu3", (0.5, 0.2, -0.3), (1, 2)),  # 2q general kernel
        ("cu3", (0.5, 0.2, -0.3), (2, 1)),
    ],
)
def test_apply_matrix_matches_reference(name, params, qubits):
    rng = np.random.default_rng(0)
    matrix = gate_matrix(name, params)
    # The wide input takes the kernels' wide-state routes (the einsum
    # 1q pass above the slice cutoff, one GEMM per row for dense gates),
    # on the low qubits and shifted onto the top ones.
    assert WIDE_BATCH * 2**WIDE_N > sv._SLICE_CUTOFF
    assert 2**WIDE_N >= sv._ROW_GEMM_MIN_DIM
    for n, batch, shift in ((4, 5, 0), (WIDE_N, WIDE_BATCH, 0),
                            (WIDE_N, WIDE_BATCH, WIDE_N - 4)):
        state = _random_state(rng, batch, n)
        on = tuple(q + shift for q in qubits)
        ref = apply_matrix_reference(state, matrix, on, n)
        fast = apply_matrix(state, matrix, on, n)
        assert np.abs(fast - ref).max() < EXACT, (n, on)
        # The same gate through its kernel, then back through its inverse.
        kernel = gate_kernel(matrix, on, n)
        fast = apply_matrix(state, kernel, on, n)
        assert np.abs(fast - ref).max() < EXACT, (n, on, kernel.kind)
        back = apply_matrix(fast, kernel.adjoint(), on, n)
        assert np.abs(back - state).max() < EXACT, (n, on, kernel.kind)


def _spread_qubits(rng, n, k):
    """k distinct qubits including the top one, so wide layouts are hit."""
    rest = rng.choice(n - 1, size=k - 1, replace=False)
    return tuple(int(q) for q in rng.permutation([n - 1, *rest]))


@pytest.mark.parametrize("n", [4, WIDE_N])
@pytest.mark.parametrize("name", sorted(GATES))
def test_every_gate_kernel_inverse_and_gradient_route(name, n):
    """Each gate's shared and per-row kernels, their inverses, and its
    generator kernel (u3/cu3's ``dmatrix`` route is checked through the
    adjoint in tests/test_gradients.py)."""
    rng = np.random.default_rng([sorted(GATES).index(name), n])
    gate = GATES[name]
    qubits = _spread_qubits(rng, n, gate.num_qubits)
    batch = 6
    state = _random_state(rng, batch, n)
    shared = tuple(rng.uniform(-3, 3, gate.num_params))
    per_row = tuple(rng.uniform(-3, 3, (gate.num_params, batch)))
    for params in (shared, per_row):
        matrix = gate.matrix(params)
        if matrix.ndim == 2 and params is per_row:
            matrix = np.repeat(matrix[None], batch, axis=0)
        kernel = gate_kernel(matrix, qubits, n)
        ref = apply_matrix_reference(state, matrix, qubits, n)
        out = apply_matrix(state, kernel, qubits, n)
        assert np.abs(out - ref).max() < EXACT, kernel.kind
        back = apply_matrix(out, kernel.adjoint(), qubits, n)
        assert np.abs(back - state).max() < EXACT, kernel.kind
        # A per-row kernel also sweeps stacked row blocks (ket + bra).
        pair = np.concatenate([state, out])
        both = apply_matrix(pair, kernel, qubits, n)
        assert np.abs(both[:batch] - ref).max() < EXACT
        second = apply_matrix_reference(out, matrix, qubits, n)
        assert np.abs(both[batch:] - second).max() < EXACT
        generator = generator_kernel(name, qubits, n)
        if generator is None:
            assert name in ("u3", "cu3") or not gate.num_params
            continue
        # -iG on the post-gate state is twice dU/dtheta on the pre-gate one.
        dpsi = apply_matrix_reference(state, gate.dmatrix(params, 0), qubits, n)
        assert np.abs(apply_matrix(out, generator, qubits, n) - 2 * dpsi).max() < EXACT


def test_kernel_classes_follow_gate_structure():
    kinds = {
        name: gate_kernel(gate_matrix(name, params), qubits, 4).kind
        for name, params, qubits in [
            ("rz", (0.3,), (1,)), ("cz", (), (0, 3)), ("u1", (0.2,), (2,)),
            ("x", (), (2,)), ("y", (), (0,)), ("cx", (), (3, 1)),
            ("swap", (), (0, 2)), ("sx", (), (1,)), ("cu3", (1, 2, 3), (1, 2)),
        ]
    }
    assert kinds == {
        "rz": "diagonal", "cz": "diagonal", "u1": "diagonal",
        "x": "permutation", "y": "permutation", "cx": "permutation",
        "swap": "permutation", "sx": "dense", "cu3": "dense",
    }
    # Wide dense gates keep the raw route; diagonal and permutation stay
    # up to the full-width operand cap, past which every kernel is raw.
    assert gate_kernel(gate_matrix("sx"), (1,), WIDE_N).kind == "raw"
    assert gate_kernel(gate_matrix("cx"), (0, 9), WIDE_N).kind == "permutation"
    assert gate_kernel(gate_matrix("z"), (0,), sv._KERNEL_MAX_QUBITS + 1).kind == "raw"
    # Per-row stacks: diagonal when every row is, else raw.
    rows = np.stack([gate_matrix("rz", (a,)) for a in (0.1, 0.2, 0.3)])
    assert gate_kernel(rows, (0,), 4).kind == "diagonal"
    mixed = np.stack([gate_matrix("id"), gate_matrix("x"), gate_matrix("z")])
    assert gate_kernel(mixed, (0,), 4).kind == "raw"
    # Constant kernels are shared process-wide.
    assert constant_kernel(gate_matrix("sx"), (2,), 4) is constant_kernel(
        gate_matrix("sx").copy(), (2,), 4
    )


def test_dense_kernel_applies_in_row_blocks():
    """Past one GEMM block of rows, a dense kernel applies block by block
    and still equals the one full-width product."""
    kernel = gate_kernel(gate_matrix("u3", (0.3, 0.5, 0.7)), (1,), 4)
    assert kernel.kind == "dense"
    rows = 3 * (sv._GEMM_BLOCK // kernel.columns.size) + 5
    state = _random_state(np.random.default_rng(4), rows, 4)
    out = apply_matrix(state, kernel, (1,), 4)
    assert np.abs(out - state @ kernel.columns).max() < 1e-13


def test_shared_constants_are_read_only():
    arrays = [gate_matrix(name) for name, g in GATES.items() if not g.num_params]
    arrays += [
        constant_gate_matrix("rz", (0.3,)), constant_gate_matrix("cu3", (1, 2, 3)),
        z_signs(3),
    ]
    for name, params, qubits in [("rz", (0.4,), (1,)), ("cx", (), (0, 2)),
                                 ("y", (), (3,)), ("sx", (), (0,))]:
        kernel = constant_kernel(gate_matrix(name, params), qubits, 4)
        arrays += [getattr(kernel, attr) for attr in ("phases", "index", "columns")
                   if getattr(kernel, attr, None) is not None]
        arrays += [kernel.matrix]
    arrays += [generator_kernel("rx", (1,), 4).index,
               generator_kernel("rx", (1,), 4).phases]
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 0.5


def test_apply_matrix_rejects_overlapping_out():
    rng = np.random.default_rng(3)
    state = _random_state(rng, 4, 4)
    sx = gate_matrix("sx")
    for matrix in (sx, gate_kernel(sx, (1,), 4)):
        with pytest.raises(ValueError, match="overlap"):
            apply_matrix(state, matrix, (1,), 4, out=state)
        with pytest.raises(ValueError, match="overlap"):
            apply_matrix(state[:2], matrix, (1,), 4, out=state[1:3])
    pair = np.concatenate([state, state])
    out = np.empty_like(pair)
    apply_matrix(pair[:4], sx, (1,), 4, out=out[4:])  # disjoint rows: fine


def test_apply_matrix_out_buffer_semantics():
    rng = np.random.default_rng(1)
    n = 3
    state = _random_state(rng, 4, n)
    before = state.copy()
    out = np.empty_like(state)
    for name, params, qubits in [
        ("rz", (0.3,), (1,)), ("sx", (), (0,)), ("cx", (), (0, 2)),
        ("cu3", (0.1, 0.2, 0.3), (2, 1)),
    ]:
        matrix = gate_matrix(name, params)
        res = apply_matrix(state, matrix, qubits, n, out=out)
        assert res is out
        assert np.abs(out - apply_matrix(state, matrix, qubits, n)).max() < EXACT
        assert np.array_equal(state, before), "input state was modified"


def test_apply_matrix_accepts_real_dtype_states():
    """Real-valued basis states (user-built) must upcast, not crash."""
    state = np.zeros((1, 4))
    state[0, 0] = 1.0
    for name, qubits in [("z", (0,)), ("x", (1,)), ("h", (0,)),
                         ("cx", (0, 1)), ("cz", (1, 0))]:
        matrix = gate_matrix(name)
        fast = apply_matrix(state, matrix, qubits, 2)
        ref = apply_matrix_reference(state, matrix, qubits, 2)
        assert np.iscomplexobj(fast)
        assert np.abs(fast - ref).max() < EXACT


def test_apply_matrix_batched_matches_reference():
    rng = np.random.default_rng(2)
    for n, batch in ((3, 6), (WIDE_N, WIDE_BATCH)):
        state = _random_state(rng, batch, n)
        thetas = rng.uniform(-2, 2, batch)
        for name, qubits in [("rz", (1,)), ("ry", (0,)), ("crx", (2, 0)),
                             ("ry", (n - 1,)), ("crx", (n - 1, 1))]:
            mats = gate_matrix(name, (thetas,))
            fast = apply_matrix(state, mats, qubits, n)
            ref = apply_matrix_reference(state, mats, qubits, n)
            assert np.abs(fast - ref).max() < EXACT, (n, name, qubits)


def _group_matrices(kind):
    """Three 1q matrices, all diagonal, all anti-diagonal, or mixed."""
    names = {
        "diagonal": [("rz", (0.3,)), ("z", ()), ("id", ())],
        "anti_diagonal": [("x", ()), ("y", ()), ("x", ())],
        "mixed": [("x", ()), ("rz", (-0.7,)), ("u3", (0.3, -0.8, 1.1))],
    }[kind]
    return np.stack([gate_matrix(name, params) for name, params in names])


@pytest.mark.parametrize("kind", ["diagonal", "anti_diagonal", "mixed"])
@pytest.mark.parametrize("layout", ["block", "cycle"])
def test_apply_grouped_1q_matches_expanded_reference(layout, kind):
    rng = np.random.default_rng(4)
    n, per_group = 4, 2
    matrix = _group_matrices(kind)
    g = matrix.shape[0]
    state = _random_state(rng, g * per_group, n)
    before = state.copy()
    if layout == "block":  # row r uses matrix[r // per_group]
        expanded = np.repeat(matrix, per_group, axis=0)
    else:  # row r uses matrix[r % g]
        expanded = np.tile(matrix, (per_group, 1, 1))
    for qubit in range(n):
        out = np.empty_like(state)
        res = apply_grouped_1q(state, matrix, qubit, n, out=out, layout=layout)
        assert res is out
        ref = apply_matrix_reference(state, expanded, (qubit,), n)
        assert np.abs(out - ref).max() < EXACT, qubit
        assert np.array_equal(state, before), "input state was modified"


def test_apply_grouped_1q_rejects_bad_groups():
    state = _random_state(np.random.default_rng(5), 5, 2)
    out = np.empty_like(state)
    with pytest.raises(ValueError, match="not a multiple"):
        apply_grouped_1q(state, _group_matrices("mixed")[:2], 0, 2, out=out)
    with pytest.raises(ValueError, match="layout"):
        apply_grouped_1q(state, _group_matrices("mixed")[:1], 0, 2, out=out,
                         layout="strided")


def test_apply_matrix_generic_three_qubit_path():
    rng = np.random.default_rng(3)
    n = 4
    state = _random_state(rng, 2, n)
    # Random 3-qubit unitary exercises the generic transpose route.
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    unitary, _ = np.linalg.qr(m)
    for qubits in [(0, 1, 2), (3, 1, 0), (2, 0, 3)]:
        fast = apply_matrix(state, unitary, qubits, n)
        ref = apply_matrix_reference(state, unitary, qubits, n)
        assert np.abs(fast - ref).max() < EXACT
        out = np.empty_like(state)
        res = apply_matrix(state, unitary, qubits, n, out=out)
        assert res is out and np.abs(out - ref).max() < EXACT


# ---------------------------------------------------------------------------
# bind cache
# ---------------------------------------------------------------------------


def _mixed_circuit():
    c = Circuit(2)
    c.add("h", 0)
    c.add("ry", 0, ParamExpr.input(0))
    c.add("rz", 1, ParamExpr.weight(0))
    c.add("cx", (0, 1))
    c.add("u3", 1, ParamExpr.weight(1), ParamExpr.constant(0.2), ParamExpr.input(1))
    c.add("rz", 0, 0.7)
    return c


def test_bind_circuit_matches_reference():
    c = _mixed_circuit()
    weights = np.array([0.3, -1.1])
    inputs = np.array([[0.1, 0.4], [0.9, -0.2], [0.0, 2.0]])
    fast = bind_circuit(c, weights, inputs)
    ref = bind_circuit_reference(c, weights, inputs)
    assert len(fast) == len(ref)
    for f, r in zip(fast, ref):
        assert f.batched == r.batched
        if f.batched:
            assert np.abs(f.matrix - r.matrix).max() < EXACT
        else:
            assert np.abs(f.matrix - r.matrix).max() < EXACT


def test_bind_plan_constant_ops_shared_across_binds():
    c = _mixed_circuit()
    weights = np.array([0.3, -1.1])
    inputs = np.array([[0.1, 0.4]])
    ops_a = bind_circuit(c, weights, inputs)
    ops_b = bind_circuit(c, weights, inputs)
    # h, cx and the constant rz are bound exactly once and shared.
    for i in (0, 3, 5):
        assert ops_a[i] is ops_b[i]
    # The weight-only rz is bound afresh, to the same matrix.
    assert ops_a[2] is not ops_b[2]
    assert np.array_equal(ops_a[2].matrix, ops_b[2].matrix)
    # Input-dependent gates are rebound per call.
    for i in (1, 4):
        assert ops_a[i] is not ops_b[i]


def test_bind_plan_weight_cache_invalidates_on_new_weights():
    c = _mixed_circuit()
    inputs = np.array([[0.1, 0.4]])
    w1 = np.array([0.3, -1.1])
    w2 = np.array([0.7, -1.1])
    ops_1 = bind_circuit(c, w1, inputs)
    ops_2 = bind_circuit(c, w2, inputs)
    # Different weights -> fresh weight-only ops with different matrices.
    assert ops_1[2] is not ops_2[2]
    assert np.abs(ops_1[2].matrix - ops_2[2].matrix).max() > 1e-3
    ref = bind_circuit_reference(c, w2, inputs)
    for f, r in zip(ops_2, ref):
        assert np.abs(f.matrix - r.matrix).max() < EXACT


def test_bind_plan_input_values_stay_views():
    c = Circuit(1).add("ry", 0, ParamExpr.input(0))
    inputs = np.arange(4.0)[:, None]
    ops = bind_circuit(c, None, inputs)
    # The evaluated (batch,) value must not be a broadcast-materialized
    # copy of per-sample data -- just the affine evaluation result.
    assert ops[0].batched
    assert np.allclose(np.asarray(ops[0].values[0]).ravel(), inputs[:, 0])


def test_bind_plan_goes_stale_on_circuit_mutation():
    c = Circuit(1).add("h", 0)
    plan = bind_plan_for(c)
    assert bind_plan_for(c) is plan
    c.add("x", 0)
    assert bind_plan_for(c) is not plan
    ops = bind_circuit(c)
    assert len(ops) == 2 and ops[1].gate.name == "x"
    # A new gate list of the same length is a different circuit too.
    replanned = bind_plan_for(c)
    c.gates = [c.gates[0], c.gates[0]]
    assert bind_plan_for(c) is not replanned


def test_bind_requires_inputs_for_input_exprs_via_plan():
    c = Circuit(1).add("ry", 0, ParamExpr.input(0))
    with pytest.raises(ValueError):
        bind_circuit(c, None, None, batch=None)


def test_bind_plan_counts_constants():
    plan = BindPlan(_mixed_circuit())
    assert plan.n_constant == 3


# ---------------------------------------------------------------------------
# full sweeps: forward and adjoint
# ---------------------------------------------------------------------------


def _compiled_block(seed=0):
    qnn = paper_model(4, 1, 2, 16, 4)
    device = get_device("santiago")
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(seed)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (5, 16))
    return compiled, weights, inputs


def test_forward_sweep_matches_reference_on_compiled_circuit():
    compiled, weights, inputs = _compiled_block()
    c = compiled.circuit
    fast = run_ops(bind_circuit(c, weights, inputs), c.n_qubits, 5)
    ref = run_ops_reference(
        bind_circuit_reference(c, weights, inputs), c.n_qubits, 5
    )
    assert np.abs(fast - ref).max() < EXACT


def test_adjoint_backward_matches_reference_and_finite_differences():
    compiled, weights, inputs = _compiled_block(1)
    c = compiled.circuit
    n_weights = c.parameter_table.num_weights
    rng = np.random.default_rng(7)
    grad = rng.normal(size=(5, c.n_qubits))

    _, tape = forward_with_tape(c, weights, inputs)
    w_fast, x_fast = adjoint_backward(tape, grad)

    ops = bind_circuit_reference(c, weights, inputs)
    state = run_ops_reference(ops, c.n_qubits, 5)
    ref_tape = QuantumTape(c, ops, state, tape.n_weights, tape.n_inputs)
    w_ref, x_ref = adjoint_backward_reference(ref_tape, grad)

    assert np.abs(w_fast - w_ref).max() < EXACT
    assert np.abs(x_fast - x_ref).max() < EXACT

    def loss(w):
        e, _ = forward_with_tape(c, w, inputs)
        return float((e * grad).sum())

    fd = finite_difference_gradients(loss, weights[:n_weights])
    assert np.abs(w_fast[:n_weights] - fd).max() < 1e-5


# ---------------------------------------------------------------------------
# fused trajectories
# ---------------------------------------------------------------------------


def _coherent_only_model(n_qubits):
    return NoiseModel(
        n_qubits,
        {("sx", q): PauliError(0.0, 0.0, 0.0) for q in range(n_qubits)},
        {},
        np.stack([readout_matrix(0.0, 0.0)] * n_qubits),
        coherent={q: (0.03 * (q + 1), -0.01 * (q + 1)) for q in range(n_qubits)},
    )


def test_fused_trajectories_exact_for_deterministic_noise():
    compiled, weights, inputs = _compiled_block(2)
    model = _coherent_only_model(get_device("santiago").n_qubits)
    fused = trajectory_probabilities(
        compiled, model, weights, inputs, 5, n_trajectories=3, rng=0
    )
    ref = trajectory_probabilities_reference(
        compiled, model, weights, inputs, 5, n_trajectories=3, rng=0
    )
    assert np.abs(fused - ref).max() < EXACT


def test_fused_trajectories_match_reference_statistically():
    compiled, weights, inputs = _compiled_block(3)
    hardware = get_device("santiago").hardware_model
    fused = trajectory_probabilities(
        compiled, hardware, weights, inputs, 5, n_trajectories=400, rng=1
    )
    ref = trajectory_probabilities_reference(
        compiled, hardware, weights, inputs, 5, n_trajectories=400, rng=2
    )
    assert np.abs(fused - ref).max() < 6.0 / np.sqrt(400)


def test_fused_trajectories_converge_to_density():
    device = get_device("santiago")
    qnn = paper_model(4, 1, 1, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(3)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (3, 16))
    exact = run_noisy_density(compiled, device.noise_model, weights, inputs)
    approx = run_noisy_trajectories(
        compiled, device.noise_model, weights, inputs,
        n_trajectories=300, shots=None, rng=7,
    )
    assert np.abs(exact - approx).max() < 0.05


def test_fused_trajectories_chunking_consistent():
    """Forcing tiny chunks must not change the sampled distribution."""
    import repro.noise.trajectory as traj

    compiled, weights, inputs = _compiled_block(4)
    model = _coherent_only_model(get_device("santiago").n_qubits)
    whole = trajectory_probabilities(
        compiled, model, weights, inputs, 5, n_trajectories=4, rng=0
    )
    old = traj._MAX_STACKED_ENTRIES
    traj._MAX_STACKED_ENTRIES = 1  # one trajectory per chunk
    try:
        chunked = trajectory_probabilities(
            compiled, model, weights, inputs, 5, n_trajectories=4, rng=0
        )
    finally:
        traj._MAX_STACKED_ENTRIES = old
    assert np.abs(whole - chunked).max() < EXACT


# ---------------------------------------------------------------------------
# batched shot sampling
# ---------------------------------------------------------------------------


def test_batched_multinomial_statistics():
    rng = np.random.default_rng(0)
    probs = np.array([[0.75, 0.25, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
    counts = batched_multinomial(rng, 20000, probs)
    assert counts.shape == probs.shape
    assert np.array_equal(counts.sum(axis=1), [20000, 20000])
    assert np.abs(counts / 20000 - probs).max() < 0.02


def test_sample_counts_vectorized_statistics():
    c = Circuit(2).add("h", 0).add("cx", (0, 1))
    state = run_ops(bind_circuit(c), 2, 1)
    state = np.vstack([state, state, state])
    counts = sample_counts(state, shots=20000, rng=3)
    assert counts.shape == (3, 4)
    assert np.array_equal(counts.sum(axis=1), [20000] * 3)
    # Bell state: only |00> and |11>, each ~0.5.
    assert counts[:, 1].max() == 0 and counts[:, 2].max() == 0
    assert np.abs(counts[:, 0] / 20000 - 0.5).max() < 0.02


def test_run_noisy_trajectories_shot_pipeline():
    compiled, weights, inputs = _compiled_block(5)
    device = get_device("santiago")
    exact = run_noisy_trajectories(
        compiled, device.noise_model, weights, inputs,
        n_trajectories=100, shots=None, rng=1,
    )
    sampled = run_noisy_trajectories(
        compiled, device.noise_model, weights, inputs,
        n_trajectories=100, shots=8192, rng=1,
    )
    assert sampled.shape == exact.shape
    assert np.abs(exact - sampled).max() < 0.15

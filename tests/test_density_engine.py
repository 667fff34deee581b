"""Compiled noisy-execution engine vs the retained references.

Covers the three layers of the fast noisy-evaluation engine:

* superoperator primitives and kernels (``sim/density.py``) against the
  per-Kraus reference application;
* the compiled density backend (``compiler/superop.py`` +
  ``run_noisy_density``) against ``run_noisy_density_reference`` --
  noiseless, per-gate channels, coherent errors, noise factors, batched
  inputs and the shots path;
* segment-fused trajectory sweeps and sharded execution -- convergence
  to the exact density result and bit-identical serial/sharded output.
"""

import numpy as np
import pytest

from repro.compiler import transpile
from repro.compiler.superop import (
    SuperOp,
    SuperopPlan,
    _site_channel,
    _site_superop,
    embed_superop,
    fuse_superops,
    superop_plan_for,
)
from repro.core.executors import DensityEvalExecutor, TrajectoryEvalExecutor
from repro.noise import (
    NoiseModel,
    PauliError,
    get_device,
    readout_matrix,
    run_noisy_density,
    run_noisy_density_reference,
    run_noisy_trajectories,
    trajectory_probabilities,
)
from repro.qnn import paper_model
from repro.sim.density import (
    apply_kraus_to_density,
    apply_superop_to_density,
    apply_unitary_to_density,
    kraus_superop,
    superop_is_diagonal,
    unitary_superop,
)
from repro.sim.gates import gate_matrix
from repro.sim.kraus import pauli_channel, amplitude_damping_channel
from repro.sim.statevector import run_circuit

EXACT = 1e-10


def _random_density(rng, batch, n):
    """Random valid densities: normalized A A^dag per batch entry."""
    dim = 2**n
    a = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    rho = np.einsum("bij,bkj->bik", a, a.conj())
    trace = np.einsum("bii->b", rho).real
    return rho / trace[:, None, None]


def _random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


# ---------------------------------------------------------------------------
# superoperator primitives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qubits", [(0,), (2,), (0, 2), (2, 0), (3, 1)])
def test_unitary_superop_matches_two_sided_apply(qubits):
    rng = np.random.default_rng(0)
    n = 4
    rho = _random_density(rng, 3, n)
    u = _random_unitary(rng, 2 ** len(qubits))
    fast = apply_superop_to_density(rho, unitary_superop(u), qubits, n)
    ref = apply_unitary_to_density(rho, u, qubits, n)
    assert np.abs(fast - ref).max() < EXACT


@pytest.mark.parametrize(
    "kraus", [
        pauli_channel(0.01, 0.02, 0.03),
        pauli_channel(0.0, 0.0, 0.25),
        amplitude_damping_channel(0.1),
    ],
)
def test_kraus_superop_matches_per_kraus_apply(kraus):
    rng = np.random.default_rng(1)
    n = 3
    rho = _random_density(rng, 2, n)
    for q in range(n):
        fast = apply_superop_to_density(rho, kraus_superop(kraus), (q,), n)
        ref = apply_kraus_to_density(rho, kraus, (q,), n)
        assert np.abs(fast - ref).max() < EXACT


def test_superop_diagonal_fast_path():
    """Dephasing-type channels take the no-GEMM path and stay exact."""
    rng = np.random.default_rng(2)
    n = 3
    rho = _random_density(rng, 2, n)
    dephasing = kraus_superop(pauli_channel(0.0, 0.0, 0.2))
    assert superop_is_diagonal(dephasing)
    rz = unitary_superop(gate_matrix("rz", (0.7,)))
    assert superop_is_diagonal(rz)
    for superop, ref_fn in [
        (dephasing, lambda r, q: apply_kraus_to_density(
            r, pauli_channel(0.0, 0.0, 0.2), (q,), n)),
        (rz, lambda r, q: apply_unitary_to_density(
            r, gate_matrix("rz", (0.7,)), (q,), n)),
    ]:
        for q in range(n):
            forced = apply_superop_to_density(rho, superop, (q,), n, diagonal=True)
            assert np.abs(forced - ref_fn(rho, q)).max() < EXACT
    assert not superop_is_diagonal(unitary_superop(gate_matrix("sx")))


def test_batched_superop_application():
    rng = np.random.default_rng(3)
    n, batch = 3, 4
    rho = _random_density(rng, batch, n)
    thetas = rng.uniform(-2, 2, batch)
    mats = gate_matrix("ry", (thetas,))
    fast = apply_superop_to_density(rho, unitary_superop(mats), (1,), n)
    ref = apply_unitary_to_density(rho, mats, (1,), n)
    assert np.abs(fast - ref).max() < EXACT


@pytest.mark.parametrize("target_q,support", [(0, (0, 1)), (1, (0, 1))])
def test_embed_superop_single_qubit(target_q, support):
    """Embedding a 1q channel into a 2q support leaves the other qubit alone."""
    rng = np.random.default_rng(4)
    n = 2
    rho = _random_density(rng, 2, n)
    kraus = pauli_channel(0.05, 0.1, 0.02)
    embedded = embed_superop(kraus_superop(kraus), (target_q,), support)
    fast = apply_superop_to_density(rho, embedded, support, n)
    ref = apply_kraus_to_density(rho, kraus, (target_q,), n)
    assert np.abs(fast - ref).max() < EXACT


def test_embed_superop_reversed_pair():
    rng = np.random.default_rng(5)
    n = 2
    rho = _random_density(rng, 2, n)
    u = _random_unitary(rng, 4)
    s = unitary_superop(u)
    reversed_s = embed_superop(s, (1, 0), (0, 1))
    fast = apply_superop_to_density(rho, reversed_s, (0, 1), n)
    ref = apply_unitary_to_density(rho, u, (1, 0), n)
    assert np.abs(fast - ref).max() < EXACT


def test_fuse_superops_preserves_channel():
    """A fused mixed unitary/channel run equals sequential application."""
    rng = np.random.default_rng(6)
    n = 3
    rho = _random_density(rng, 2, n)
    sites = [
        SuperOp((0,), unitary_superop(_random_unitary(rng, 2))),
        SuperOp((0,), kraus_superop(pauli_channel(0.02, 0.01, 0.03))),
        SuperOp((1, 0), unitary_superop(_random_unitary(rng, 4))),
        SuperOp((1,), kraus_superop(amplitude_damping_channel(0.2))),
        SuperOp((2,), unitary_superop(_random_unitary(rng, 2))),
        SuperOp((2,), unitary_superop(gate_matrix("rz", (0.4,)))),
    ]
    fused = fuse_superops(sites)
    assert len(fused) < len(sites)
    assert sum(op.n_merged for op in fused) == len(sites)
    sequential = rho
    for op in sites:
        sequential = apply_superop_to_density(sequential, op.matrix, op.qubits, n)
    merged = rho
    for op in fused:
        merged = apply_superop_to_density(merged, op.matrix, op.qubits, n)
    assert np.abs(sequential - merged).max() < EXACT


# ---------------------------------------------------------------------------
# compiled density backend vs reference
# ---------------------------------------------------------------------------


def _compiled_block(seed=0, batch=5):
    device = get_device("santiago")
    qnn = paper_model(4, 1, 2, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(seed)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (batch, 16))
    return device, compiled, weights, inputs


def _zero_noise_model(n_qubits):
    return NoiseModel(
        n_qubits, {}, {}, np.stack([readout_matrix(0.0, 0.0)] * n_qubits)
    )


def _coherent_model(n_qubits):
    return NoiseModel(
        n_qubits,
        {("sx", q): PauliError(1e-3, 2e-3, 5e-4) for q in range(n_qubits)},
        {(q, q + 1): PauliError(4e-3, 3e-3, 2e-3) for q in range(n_qubits - 1)},
        np.stack([readout_matrix(0.01, 0.02)] * n_qubits),
        coherent={q: (0.02 * (q + 1), -0.015 * (q + 1)) for q in range(n_qubits)},
    )


def test_noiseless_density_matches_statevector():
    device, compiled, weights, inputs = _compiled_block()
    model = _zero_noise_model(device.n_qubits)
    noisy = run_noisy_density(compiled, model, weights, inputs)
    state, _ = run_circuit(compiled.circuit, weights, inputs)
    probs = np.abs(state) ** 2
    from repro.sim.statevector import z_signs

    expectations = (probs @ z_signs(compiled.circuit.n_qubits).T)[
        :, list(compiled.measure_qubits)
    ]
    assert np.abs(noisy - expectations).max() < EXACT


def test_density_engine_matches_reference_published_model():
    device, compiled, weights, inputs = _compiled_block(1)
    fast = run_noisy_density(compiled, device.noise_model, weights, inputs)
    ref = run_noisy_density_reference(compiled, device.noise_model, weights, inputs)
    assert np.abs(fast - ref).max() < EXACT


def test_density_engine_matches_reference_coherent_and_hardware():
    device, compiled, weights, inputs = _compiled_block(2)
    for model in (_coherent_model(device.n_qubits), device.hardware_model):
        fast = run_noisy_density(compiled, model, weights, inputs)
        ref = run_noisy_density_reference(compiled, model, weights, inputs)
        assert np.abs(fast - ref).max() < EXACT


def test_density_engine_matches_reference_scaled_noise():
    device, compiled, weights, inputs = _compiled_block(3)
    for factor in (0.0, 0.5, 2.5):
        fast = run_noisy_density(
            compiled, device.noise_model, weights, inputs, noise_factor=factor
        )
        ref = run_noisy_density_reference(
            compiled, device.noise_model, weights, inputs, noise_factor=factor
        )
        assert np.abs(fast - ref).max() < EXACT


def test_density_engine_batched_inputs_and_weight_cache():
    device, compiled, weights, inputs = _compiled_block(4, batch=7)
    first = run_noisy_density(compiled, device.noise_model, weights, inputs)
    again = run_noisy_density(compiled, device.noise_model, weights, inputs)
    assert np.array_equal(first, again)
    other = run_noisy_density(compiled, device.noise_model, weights * 0.5, inputs)
    assert np.abs(first - other).max() > 1e-6
    ref = run_noisy_density_reference(
        compiled, device.noise_model, weights * 0.5, inputs
    )
    assert np.abs(other - ref).max() < EXACT


def test_density_shots_path_threads_rng():
    """Seeded shots runs are reproducible; int seeds are accepted."""
    device, compiled, weights, inputs = _compiled_block(5)
    a = run_noisy_density(
        compiled, device.noise_model, weights, inputs, shots=512, rng=7
    )
    b = run_noisy_density(
        compiled, device.noise_model, weights, inputs, shots=512, rng=7
    )
    assert np.array_equal(a, b)
    c = run_noisy_density(
        compiled, device.noise_model, weights, inputs, shots=512, rng=8
    )
    assert not np.array_equal(a, c)
    exact = run_noisy_density(compiled, device.noise_model, weights, inputs)
    sampled = run_noisy_density(
        compiled, device.noise_model, weights, inputs, shots=8192, rng=0
    )
    assert np.abs(exact - sampled).max() < 0.15
    # The reference engine threads the same rng plumbing.
    ra = run_noisy_density_reference(
        compiled, device.noise_model, weights, inputs, shots=512, rng=7
    )
    rb = run_noisy_density_reference(
        compiled, device.noise_model, weights, inputs, shots=512, rng=7
    )
    assert np.array_equal(ra, rb)


def test_density_executor_engines_agree():
    device, compiled, weights, inputs = _compiled_block(6)
    e_fast, _ = DensityEvalExecutor(device.noise_model).forward(
        compiled, weights, inputs
    )
    e_ref = run_noisy_density_reference(
        compiled, device.noise_model, weights, inputs
    )
    assert np.abs(e_fast - e_ref).max() < EXACT


def test_superop_plan_cached_per_model_and_invalidates():
    device, compiled, weights, inputs = _compiled_block(7)
    plan_a = superop_plan_for(compiled, device.noise_model)
    plan_b = superop_plan_for(compiled, device.noise_model)
    assert plan_a is plan_b
    plan_c = superop_plan_for(compiled, device.noise_model, noise_factor=2.0)
    assert plan_c is not plan_a
    plan_d = superop_plan_for(compiled, device.hardware_model)
    assert plan_d is not plan_a
    # Mutating the circuit stales every cached plan.
    compiled.circuit.add("x", 0)
    try:
        plan_e = superop_plan_for(compiled, device.noise_model)
        assert plan_e is not plan_a
    finally:
        compiled.circuit.gates.pop()


def test_superop_plan_segment_count_is_compact():
    """Fusion compresses the ~200-gate block into a few dozen channels."""
    device, compiled, weights, inputs = _compiled_block(8)
    plan = SuperopPlan(compiled, device.noise_model)
    ops = plan.superops(weights, inputs, inputs.shape[0])
    assert len(ops) < len(compiled.circuit.gates) / 3
    assert sum(op.n_merged for op in ops) == len(compiled.circuit.gates)


def test_density_predict_binds_only_the_gates_it_rebuilds(monkeypatch):
    """A new weight vector binds the fused runs' weight-only gates once;
    every call binds the encoder gates, and a cached weight vector binds
    nothing else."""
    from repro.compiler.fusion import input_free
    from repro.sim.statevector import BindPlan
    from repro.utils.cache import cache_stats

    device, compiled, weights, inputs = _compiled_block(23, batch=3)
    gates = compiled.circuit.gates
    constants = compiled.bind_plan.constant_ops()
    encoders = [i for i, gate in enumerate(gates) if not input_free(gate)]
    weight_only = [
        i for i, gate in enumerate(gates)
        if input_free(gate) and i not in constants
    ]
    calls = []
    bind = BindPlan.bind

    def spy(self, weights=None, inputs=None, batch=None, gates=None):
        calls.append(gates)
        return bind(self, weights, inputs, batch, gates)

    monkeypatch.setattr(BindPlan, "bind", spy)
    executor = DensityEvalExecutor(device.noise_model)
    first, _ = executor.forward(compiled, weights, inputs)
    assert sorted(calls) == sorted([weight_only, encoders])
    calls.clear()
    hits = cache_stats()["superop.segments"]["hits"]
    again, _ = executor.forward(compiled, weights, inputs)
    assert cache_stats()["superop.segments"]["hits"] == hits + 1
    assert calls == [encoders]
    assert np.array_equal(first, again)


# ---------------------------------------------------------------------------
# relaxation superops and the exact-channel training backend
# ---------------------------------------------------------------------------


def _relaxation_model(device):
    return device.hardware_model.with_relaxation(
        {q: (50.0 + 10 * q, 60.0 + 8 * q) for q in range(device.n_qubits)},
        (0.035, 0.30),
    )


def test_density_engine_matches_reference_with_relaxation():
    device, compiled, weights, inputs = _compiled_block(20)
    model = _relaxation_model(device)
    fast = run_noisy_density(compiled, model, weights, inputs)
    ref = run_noisy_density_reference(compiled, model, weights, inputs)
    assert np.abs(fast - ref).max() < EXACT
    # Relaxation genuinely changes the channel vs the Pauli-only model.
    plain = run_noisy_density(compiled, device.hardware_model, weights, inputs)
    assert np.abs(fast - plain).max() > 1e-3


def test_density_engine_relaxation_scaled_noise_factor():
    device, compiled, weights, inputs = _compiled_block(21, batch=3)
    model = _relaxation_model(device)
    for factor in (0.0, 0.5, 2.0):
        fast = run_noisy_density(
            compiled, model, weights, inputs, noise_factor=factor
        )
        ref = run_noisy_density_reference(
            compiled, model, weights, inputs, noise_factor=factor
        )
        assert np.abs(fast - ref).max() < EXACT


def test_compiled_readout_stage_matches_probability_mixing():
    """Readout mixes the compiled stream's joint probabilities in the
    shared tail; shot counts drawn after it stay reproducible."""
    device, compiled, weights, inputs = _compiled_block(22, batch=3)
    a = run_noisy_density(
        compiled, device.noise_model, weights, inputs, shots=256, rng=3
    )
    b = run_noisy_density(
        compiled, device.noise_model, weights, inputs, shots=256, rng=3
    )
    assert np.array_equal(a, b)


def test_density_training_gradients_match_finite_differences():
    from repro.core.density_training import (
        density_adjoint_backward,
        density_forward_with_tape,
    )
    from repro.core.gradients import finite_difference_gradients

    device = get_device("santiago")
    qnn = paper_model(4, 1, 1, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(23)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (2, 16))
    model = _relaxation_model(device)
    upstream = rng.normal(0, 1, (2, 4))

    _, tape = density_forward_with_tape(compiled, model, weights, inputs)
    weight_grad, input_grad = density_adjoint_backward(tape, upstream)

    def loss_of_weights(w):
        e, _ = density_forward_with_tape(compiled, model, w, inputs)
        return float((upstream * e).sum())

    fd = finite_difference_gradients(loss_of_weights, weights)
    assert np.abs(weight_grad - fd).max() < 1e-6

    def loss_of_inputs(flat):
        e, _ = density_forward_with_tape(
            compiled, model, weights, flat.reshape(2, 16)
        )
        return float((upstream * e).sum())

    fd_x = finite_difference_gradients(
        loss_of_inputs, inputs.ravel()
    ).reshape(2, 16)
    assert np.abs(input_grad - fd_x).max() < 1e-6


def test_density_train_executor_forward_matches_eval_executor():
    """Training forward (affine readout tail) == inference forward."""
    from repro.core.executors import DensityTrainExecutor

    device, compiled, weights, inputs = _compiled_block(24, batch=3)
    model = _relaxation_model(device)
    trained, cache = DensityTrainExecutor(model).forward(
        compiled, weights, inputs
    )
    evaluated, _ = DensityEvalExecutor(model).forward(compiled, weights, inputs)
    assert np.abs(trained - evaluated).max() < EXACT
    assert cache.readout_scales is not None


def test_density_train_executor_zero_noise_matches_adjoint():
    """With a zero-noise model the superop adjoint equals the statevector one."""
    from repro.core.executors import DensityTrainExecutor, NoiselessExecutor

    device, compiled, weights, inputs = _compiled_block(25, batch=3)
    model = _zero_noise_model(device.n_qubits)
    executor = DensityTrainExecutor(model)
    noiseless = NoiselessExecutor()
    logical_d, cache_d = executor.forward(compiled, weights, inputs)
    logical_s, cache_s = noiseless.forward(compiled, weights, inputs)
    assert np.abs(logical_d - logical_s).max() < EXACT
    upstream = np.random.default_rng(0).normal(0, 1, logical_d.shape)
    wg_d, xg_d = executor.backward(cache_d, upstream)
    wg_s, xg_s = noiseless.backward(cache_s, upstream)
    assert np.abs(wg_d - wg_s).max() < 1e-8
    assert np.abs(xg_d - xg_s).max() < 1e-8


def test_density_train_executor_validation():
    from repro.core.executors import DensityTrainExecutor

    device = get_device("santiago")
    with pytest.raises(ValueError, match="non-negative"):
        DensityTrainExecutor(device.noise_model, noise_factor=-1.0)


def test_density_eval_executor_validates_like_its_siblings():
    """A negative noise factor and zero shots are refused when the
    executor is built, by the rules the other executors apply.  The
    density executor used to build with both and fail in predict
    (shots=0 with numpy's "pvals ... NaNs") or not at all; the
    trajectory executor refused a negative factor only in predict."""
    from repro import QuantumNATConfig, QuantumNATModel, make_real_qc_executor
    from repro.core.engine import create_engine

    device = get_device("santiago")
    with pytest.raises(ValueError, match="non-negative"):
        DensityEvalExecutor(device.noise_model, noise_factor=-1.0)
    for engine in ("density", "trajectory"):
        with pytest.raises(ValueError, match="non-negative"):
            create_engine(engine, device.noise_model, noise_factor=-1.0)
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), device, QuantumNATConfig.baseline()
    )
    with pytest.raises(ValueError, match="shots must be >= 1"):
        make_real_qc_executor(model, shots=0)
    assert DensityEvalExecutor(device.noise_model, noise_factor=0.0, shots=1)


def test_superop_plan_tables_equal_per_gate_rebuilds():
    """Channels are built once per distinct (support, site payloads) and
    constant gates' site superoperators once per plan: each must equal
    its per-gate rebuild, on Pauli, coherent and relaxation models."""
    from repro.noise.sampler import noise_sites

    device, compiled, _weights, _inputs = _compiled_block(21)
    circuit = compiled.circuit
    for model in (device.noise_model, device.hardware_model,
                  _relaxation_model(device)):
        plan = SuperopPlan(compiled, model, 1.5)
        table = noise_sites(circuit, compiled.physical_qubits, model, 1.5)
        constants = plan.bind_plan.constant_ops()
        assert 0 < len(constants) < len(circuit.gates)
        for i, (gate, sites) in enumerate(zip(circuit.gates, table)):
            channel = _site_channel(gate, sites)
            assert np.array_equal(plan.channel(i), channel)
            if i in constants:
                superop = plan.site_superop(constants[i], i)
                rebuilt = _site_superop(constants[i], channel)
                assert superop.qubits == rebuilt.qubits
                assert np.array_equal(superop.matrix, rebuilt.matrix)
                assert superop.diagonal == rebuilt.diagonal
                assert plan.site_superop(constants[i], i) is superop


def test_train_config_density_engine():
    from repro.core.training import TrainConfig

    assert TrainConfig(engine="density").engine == "density"
    with pytest.raises(ValueError, match="engine"):
        TrainConfig(engine="bogus")


def test_density_engine_requires_gate_insertion_strategy():
    """engine='density' must not silently noise-train a baseline model."""
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
    from repro.core.training import TrainConfig, train

    device = get_device("santiago")
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), device,
        QuantumNATConfig.baseline(), rng=0,
    )
    x = np.zeros((4, 16))
    y = np.zeros(4, dtype=int)
    with pytest.raises(ValueError, match="gate-insertion"):
        train(model, x, y, x, y, TrainConfig(epochs=1, engine="density"))


def test_density_engine_rejects_wide_models_eagerly():
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
    from repro.core.training import TrainConfig, train

    model = QuantumNATModel(
        paper_model(10, 1, 1, 36, 4), get_device("melbourne"),
        QuantumNATConfig.full(0.5), rng=0,
    )
    x = np.zeros((4, 36))
    y = np.zeros(4, dtype=int)
    with pytest.raises(ValueError, match="density-matrix-bound"):
        train(model, x, y, x, y, TrainConfig(epochs=1, engine="density"))


def test_exact_channel_device_model_trains_via_density_executor():
    """A device whose published model carries exact channels is trainable.

    Gate insertion cannot sample general Kraus channels, so the model
    constructor must fall back to the exact-channel density trainer
    instead of crashing in the eagerly-built sampler.
    """
    from dataclasses import replace

    from repro.core.executors import DensityTrainExecutor
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel

    device = get_device("santiago")
    exact_device = replace(
        device, noise_model=_relaxation_model(device)
    )
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), exact_device,
        QuantumNATConfig.full(0.5), rng=0,
    )
    assert isinstance(model._train_executor, DensityTrainExecutor)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (6, 16))
    y = rng.integers(0, 4, 6)
    weights = model.qnn.init_weights(rng)
    loss, _acc, grad = model.loss_and_gradients(weights, x, y)
    assert np.isfinite(loss) and np.abs(grad).max() > 0


def test_wide_exact_channel_device_falls_back_to_mcwf_trainer():
    """Wide blocks + exact channels resolve to the quantum-jump trainer.

    Before the MCWF engine, this configuration was rejected outright
    (gate insertion cannot sample general Kraus channels and density
    training is width-bound); the registry now resolves it to the
    statevector-bound quantum-jump backend, and one training step runs.
    """
    from dataclasses import replace

    from repro.core.executors import MCWFTrainExecutor
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel

    device = get_device("melbourne")
    exact = device.noise_model.with_relaxation(
        {q: (60.0, 70.0) for q in range(device.n_qubits)}, (0.035, 0.3)
    )
    model = QuantumNATModel(
        paper_model(10, 1, 1, 36, 4),
        replace(device, noise_model=exact),
        QuantumNATConfig.full(0.5),
        rng=0,
    )
    assert isinstance(model._train_executor, MCWFTrainExecutor)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (2, 36))
    y = rng.integers(0, 4, 2)
    weights = model.qnn.init_weights(rng)
    loss, _acc, grad = model.loss_and_gradients(weights, x, y)
    assert np.isfinite(loss) and np.abs(grad).max() > 0


def test_training_with_density_engine_is_deterministic():
    """engine='density' trains, improves, restores the executor, repeats."""
    from repro.core.executors import GateInsertionExecutor
    from repro.core.training import TrainConfig, train
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel

    device = get_device("santiago")
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (16, 16))
    y = rng.integers(0, 4, 16)

    def run():
        model = QuantumNATModel(
            paper_model(4, 1, 1, 16, 4), device,
            QuantumNATConfig.full(0.5), rng=0,
        )
        result = train(
            model, x, y, x, y,
            TrainConfig(epochs=2, batch_size=8, engine="density", seed=0),
        )
        assert type(model._train_executor) is GateInsertionExecutor
        return result

    first, second = run(), run()
    assert np.array_equal(first.weights, second.weights)
    assert first.history[-1]["train_loss"] < first.history[0]["train_loss"]


# ---------------------------------------------------------------------------
# segment-fused trajectories: convergence and sharding
# ---------------------------------------------------------------------------


def test_trajectories_converge_to_density_with_coherent_noise():
    """Segment-fused sweeps converge to the exact channel, coherent included."""
    device, compiled, weights, inputs = _compiled_block(9, batch=3)
    model = _coherent_model(device.n_qubits)
    exact = run_noisy_density(compiled, model, weights, inputs)
    approx = run_noisy_trajectories(
        compiled, model, weights, inputs, n_trajectories=800, shots=None, rng=11
    )
    # Monte-Carlo bar: ~1/sqrt(800) with headroom so a chunk-layout (and
    # hence RNG-stream) change cannot flake the test.
    assert np.abs(exact - approx).max() < 0.06


def test_sharded_trajectories_bit_identical_to_serial():
    device, compiled, weights, inputs = _compiled_block(10, batch=4)
    hardware = device.hardware_model
    kwargs = dict(n_trajectories=32, shard_size=8)
    serial = trajectory_probabilities(
        compiled, hardware, weights, inputs, 4, rng=3, **kwargs
    )
    threaded = trajectory_probabilities(
        compiled, hardware, weights, inputs, 4, rng=3, n_workers=3, **kwargs
    )
    assert np.array_equal(serial, threaded)


def test_sharded_trajectories_process_backend_bit_identical():
    device, compiled, weights, inputs = _compiled_block(11, batch=2)
    hardware = device.hardware_model
    kwargs = dict(n_trajectories=16, shard_size=8)
    serial = trajectory_probabilities(
        compiled, hardware, weights, inputs, 2, rng=5, **kwargs
    )
    sharded = trajectory_probabilities(
        compiled, hardware, weights, inputs, 2, rng=5,
        n_workers=2, shard_backend="process", **kwargs
    )
    assert np.array_equal(serial, sharded)


def test_sharded_run_noisy_trajectories_full_pipeline():
    """Shot-sampled expectations stay bit-identical under sharding."""
    device, compiled, weights, inputs = _compiled_block(12, batch=3)
    kwargs = dict(n_trajectories=16, shots=256, shard_size=4)
    serial = run_noisy_trajectories(
        compiled, device.hardware_model, weights, inputs, rng=9, **kwargs
    )
    sharded = run_noisy_trajectories(
        compiled, device.hardware_model, weights, inputs, rng=9,
        n_workers=2, **kwargs
    )
    assert np.array_equal(serial, sharded)


def test_sharded_trajectory_executor():
    device, compiled, weights, inputs = _compiled_block(13, batch=3)
    serial = TrajectoryEvalExecutor(
        device.hardware_model, n_trajectories=16, shots=None,
        rng=4, shard_size=4,
    )
    sharded = TrajectoryEvalExecutor(
        device.hardware_model, n_trajectories=16, shots=None,
        rng=4, shard_size=4, n_workers=2,
    )
    e_serial, _ = serial.forward(compiled, weights, inputs)
    e_sharded, _ = sharded.forward(compiled, weights, inputs)
    assert np.array_equal(e_serial, e_sharded)


def test_invalid_shard_backend_raises():
    device, compiled, weights, inputs = _compiled_block(14, batch=2)
    with pytest.raises(ValueError):
        trajectory_probabilities(
            compiled, device.hardware_model, weights, inputs, 2,
            n_trajectories=8, rng=0, n_workers=2, shard_size=2,
            shard_backend="bogus",
        )
    # Eager: a single-chunk run (never reaching the pool) still raises,
    # and so does executor construction.
    with pytest.raises(ValueError):
        trajectory_probabilities(
            compiled, device.hardware_model, weights, inputs, 2,
            n_trajectories=2, rng=0, n_workers=2, shard_backend="bogus",
        )
    with pytest.raises(ValueError):
        TrajectoryEvalExecutor(device.hardware_model, shard_backend="proces")
    # shard_size must be positive, eagerly on both surfaces.
    with pytest.raises(ValueError):
        trajectory_probabilities(
            compiled, device.hardware_model, weights, inputs, 2,
            n_trajectories=8, rng=0, shard_size=0,
        )
    with pytest.raises(ValueError):
        TrajectoryEvalExecutor(device.hardware_model, shard_size=-4)


def test_train_config_trajectory_workers():
    from repro.core.training import TrainConfig

    assert TrainConfig().trajectory_workers == 0
    assert TrainConfig(trajectory_workers=4).trajectory_workers == 4
    with pytest.raises(ValueError):
        TrainConfig(trajectory_workers=-1)


def test_zne_cached_fold_reuses_folded_circuits():
    from repro.circuits import Circuit
    from repro.mitigation.zne import cached_fold, fold_circuit

    c = Circuit(2).add("h", 0).add("cx", (0, 1)).add("rz", 1, 0.3)
    first = cached_fold(c, 3.0)
    assert cached_fold(c, 3.0) is first
    assert cached_fold(c, 2.0) is not first
    assert len(first) == len(fold_circuit(c, 3.0))
    # Mutating the base circuit invalidates by length.
    c.add("x", 0)
    assert cached_fold(c, 3.0) is not first

"""Quantum-jump (MCWF) trajectory engine: convergence, gradients, pools.

The MCWF engine is the sampled backend for the *full* noise model:
exact relaxation Kraus sets become per-site jumps with non-unitary
no-jump evolution and per-row renormalization.  This suite pins

* large-N convergence of the jump unraveling to the compiled density
  channel under relaxation + readout (the property that makes it a
  legitimate noise-injection backend for the paper's training scheme),
* exact agreement with the Pauli unraveling when no stochastic or
  relaxation sites exist (deterministic coherent-only models), and of
  the jump sweep and the trainer with the per-trajectory reference
  when every channel outcome is deterministic (channel order),
* bit-identical sharded execution and the shot-sampling tail,
* frozen-trajectory gradient exactness of the adjoint through jump
  checkpoints (finite differences under a frozen jump sampler),
* bit-identity of the MCWF and gate-insertion trainers when the model
  has no jump sites,
* end-to-end training through ``TrainConfig(engine="mcwf")``,
* the persistent worker pool held by ``TrajectoryEvalExecutor``.
"""

import numpy as np
import pytest

import repro.noise.trajectory as trajectory_module
from repro.circuits import Circuit
from repro.compiler import transpile
from repro.compiler.passes import CompiledCircuit
from repro.core.executors import (
    GateInsertionExecutor,
    MCWFTrainExecutor,
    TrajectoryEvalExecutor,
)
from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
from repro.core.training import TrainConfig, train
from repro.noise import (
    NoiseModel,
    PauliError,
    get_device,
    readout_matrix,
    run_noisy_density,
)
from repro.noise.sampler import ErrorGateSampler
from repro.noise.trajectory import (
    mcwf_probabilities_reference,
    run_noisy_trajectories,
    stacked_noisy_backward,
    stacked_noisy_forward_with_tape,
    trajectory_probabilities,
)
from repro.qnn import paper_model
from repro.sim.statevector import run_circuit, z_signs


@pytest.fixture(scope="module")
def device():
    return get_device("santiago")


def _full_model(n_qubits: int) -> NoiseModel:
    """Pauli + coherent + readout + exact relaxation on every qubit."""
    return NoiseModel(
        n_qubits,
        {
            (gate, q): PauliError(3e-3, 2e-3, 1e-3)
            for q in range(n_qubits)
            for gate in ("sx", "x", "id")
        },
        {(q, q + 1): PauliError(6e-3, 5e-3, 4e-3) for q in range(n_qubits - 1)},
        np.stack(
            [readout_matrix(0.01 + 0.002 * q, 0.02) for q in range(n_qubits)]
        ),
        coherent={q: (0.02, -0.01) for q in range(n_qubits)},
        relaxation={q: (40.0 + 10 * q, 50.0 + 8 * q) for q in range(n_qubits)},
        relaxation_durations=(0.05, 0.4),
    )


def _relaxation_only_model(n_qubits: int) -> NoiseModel:
    return NoiseModel(
        n_qubits,
        {},
        {},
        np.stack([readout_matrix(0.0, 0.0)] * n_qubits),
        relaxation={q: (40.0, 50.0) for q in range(n_qubits)},
        relaxation_durations=(0.05, 0.4),
    )


def _case_circuit() -> Circuit:
    c = Circuit(3)
    c.add("h", 0)
    c.add("cx", (0, 1))
    c.add("rx", 2, 0.7)
    c.add("cx", (1, 2))
    c.add("ry", 0, -0.4)
    c.add("sx", 1)
    return c


# ---------------------------------------------------------------------------
# convergence to the exact channel
# ---------------------------------------------------------------------------


def test_mcwf_large_n_converges_to_density_under_full_noise(device):
    """Jump trajectories reproduce the compiled density channel
    (Pauli + coherent + exact relaxation + readout) at large N."""
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    model = _full_model(device.n_qubits)
    n_traj = 800
    exact = run_noisy_density(compiled, model)
    sampled = run_noisy_trajectories(
        compiled, model, n_trajectories=n_traj, shots=None, rng=1,
        unravel="jump",
    )
    assert np.abs(exact - sampled).max() < 6.0 / np.sqrt(n_traj)


def test_mcwf_reference_converges_to_density(device):
    """The per-trajectory reference implements the same channel."""
    from repro.noise.readout import apply_readout_to_joint_probabilities
    from repro.sim.statevector import z_signs

    compiled = transpile(_case_circuit(), device, optimization_level=1)
    model = _full_model(device.n_qubits)
    n_traj = 400
    exact = run_noisy_density(compiled, model)
    probs = mcwf_probabilities_reference(
        compiled, model, None, None, 1, n_trajectories=n_traj, rng=2
    )
    readout = np.stack(
        [model.readout_for(p) for p in compiled.physical_qubits]
    )
    probs = apply_readout_to_joint_probabilities(probs, readout)
    got = (probs @ z_signs(compiled.circuit.n_qubits).T)[
        :, list(compiled.measure_qubits)
    ]
    assert np.abs(exact - got).max() < 6.0 / np.sqrt(n_traj)


def test_mcwf_noise_factor_scales_relaxation_exposure(device):
    """factor 0 turns relaxation off; the jump sweep matches noiseless."""
    from repro.core.executors import NoiselessExecutor

    compiled = transpile(_case_circuit(), device, optimization_level=1)
    model = _relaxation_only_model(device.n_qubits)
    clean, _ = NoiselessExecutor().forward(compiled, None, None)
    sampled = run_noisy_trajectories(
        compiled, model, n_trajectories=4, shots=None, rng=3,
        noise_factor=0.0, unravel="jump",
    )
    assert np.abs(clean - sampled).max() < 1e-10


def test_mcwf_matches_pauli_unravel_on_deterministic_models(device):
    """With no stochastic or relaxation sites the two unravelings are
    the same fused sweep -- equal exactly, not statistically."""
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    model = NoiseModel(
        device.n_qubits,
        {},
        {},
        np.stack([readout_matrix(0.0, 0.0)] * device.n_qubits),
        coherent={q: (0.02, -0.015) for q in range(device.n_qubits)},
    )
    jump = trajectory_probabilities(
        compiled, model, None, None, 1, 4, rng=5, unravel="jump"
    )
    pauli = trajectory_probabilities(
        compiled, model, None, None, 1, 4, rng=5, unravel="pauli"
    )
    assert np.abs(jump - pauli).max() < 1e-14


def test_mcwf_channel_order_matches_reference_exactly():
    """Deterministic outcomes pin the order of a gate's channels.

    Qubit 0 always takes a Z error and carries a large miscalibration,
    whose RY does not commute with Z; qubit 1 relaxes but stays in |0>,
    so every jump outcome is the same state.  The fused jump sweep and the
    MCWF trainer must then equal the per-trajectory reference, whose own
    walk applies Pauli, then relaxation, then coherent, to rounding.
    """
    model = NoiseModel(
        2,
        {("sx", 0): PauliError(0.0, 0.0, 1.0)},
        {},
        np.stack([readout_matrix(0.0, 0.0)] * 2),
        coherent={0: (0.7, -0.4)},
        relaxation={1: (40.0, 50.0)},
        relaxation_durations=(0.05, 0.4),
    )
    circuit = Circuit(2)
    for _ in range(3):
        circuit.add("sx", 0).add("id", 1)
    compiled = CompiledCircuit(
        circuit=circuit, physical_qubits=(0, 1), layout={0: 0, 1: 1},
        measure_qubits=(0, 1), device_name="test",
    )
    reference = mcwf_probabilities_reference(
        compiled, model, None, None, 1, n_trajectories=3, rng=0
    )
    fused = trajectory_probabilities(
        compiled, model, None, None, 1, 3, rng=0, unravel="jump"
    )
    assert np.abs(fused - reference).max() < 1e-12
    trainer = MCWFTrainExecutor(model, readout=False, rng=0, n_realizations=2)
    logits, _cache = trainer.forward(compiled, np.zeros(0), np.zeros((1, 0)))
    assert np.abs(logits - reference @ z_signs(2).T).max() < 1e-12
    swapped = Circuit(2)  # the miscalibration before the error
    for _ in range(3):
        swapped.add("sx", 0).add("ry", 0, 0.7).add("rz", 0, -0.4).add("z", 0)
    state, _ = run_circuit(swapped)
    assert np.abs(np.abs(state) ** 2 - reference).max() > 0.1


def test_mcwf_sharded_is_bit_identical_to_serial(device):
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    model = _full_model(device.n_qubits)
    kwargs = dict(shard_size=8, unravel="jump")
    serial = trajectory_probabilities(
        compiled, model, None, None, 1, 64, rng=4, **kwargs
    )
    sharded = trajectory_probabilities(
        compiled, model, None, None, 1, 64, rng=4, n_workers=3, **kwargs
    )
    assert np.array_equal(serial, sharded)


def test_mcwf_shot_sampling_is_seeded(device):
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    model = _full_model(device.n_qubits)
    a = run_noisy_trajectories(
        compiled, model, n_trajectories=8, shots=256, rng=9, unravel="jump"
    )
    b = run_noisy_trajectories(
        compiled, model, n_trajectories=8, shots=256, rng=9, unravel="jump"
    )
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 1.0


def test_pauli_unravel_still_rejects_exact_channels(device):
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    model = _relaxation_only_model(device.n_qubits)
    with pytest.raises(ValueError, match="mcwf"):
        run_noisy_trajectories(compiled, model, n_trajectories=2)


def test_unravel_validation(device):
    model = _full_model(device.n_qubits)
    with pytest.raises(ValueError, match="unravel"):
        TrajectoryEvalExecutor(model, unravel="lindblad")
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    with pytest.raises(ValueError, match="unravel"):
        trajectory_probabilities(
            compiled, model, None, None, 1, 2, unravel="lindblad"
        )


# ---------------------------------------------------------------------------
# training: frozen-trajectory gradients + end-to-end
# ---------------------------------------------------------------------------


def test_mcwf_adjoint_matches_fd_under_frozen_jumps(device, monkeypatch):
    """The adjoint through jump checkpoints is exact for the frozen map.

    Jump sampling is monkeypatched to a deterministic non-unitary
    constant, making the whole forward a fixed linear map in the
    parameters -- finite differences must then match the backward sweep
    to float precision.  This pins the non-unitary checkpoint recovery
    math independently of sampling noise.
    """
    qnn = paper_model(4, 1, 1, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(0)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (3, 16))
    model = _relaxation_only_model(device.n_qubits)
    sampler = ErrorGateSampler(model, 1.0, allow_exact=True)

    def frozen(state, kraus, effects, local_q, rng):
        return np.broadcast_to(
            kraus[0] * 1.01, (state.shape[0], 2, 2)
        )

    monkeypatch.setattr(
        trajectory_module, "_sample_jump_matrices", frozen
    )

    n_measure = compiled.circuit.n_qubits

    def loss(w, x):
        exp, _tape, _n = stacked_noisy_forward_with_tape(
            compiled, sampler, w, x, 1, rng=7,
            n_weights=w.size, n_inputs=x.shape[1],
        )
        return exp.sum()

    _exp, tape, _n = stacked_noisy_forward_with_tape(
        compiled, sampler, weights, inputs, 1, rng=7,
        n_weights=weights.size, n_inputs=inputs.shape[1],
    )
    assert tape.checkpoints, "no jump sites recorded"
    w_grad, x_grad = stacked_noisy_backward(
        tape, np.ones((3, n_measure)), 1
    )

    eps = 1e-6
    for i in range(0, weights.size, 5):
        plus, minus = weights.copy(), weights.copy()
        plus[i] += eps
        minus[i] -= eps
        fd = (loss(plus, inputs) - loss(minus, inputs)) / (2 * eps)
        assert abs(fd - w_grad[i]) < 1e-6, i
    for j in range(0, inputs.shape[1], 7):
        plus, minus = inputs.copy(), inputs.copy()
        plus[:, j] += eps
        minus[:, j] -= eps
        fd = (loss(weights, plus) - loss(weights, minus)) / (2 * eps)
        assert abs(fd - x_grad[:, j].sum()) < 1e-6, j


def test_mcwf_executor_forward_backward_contract(device):
    qnn = paper_model(4, 1, 1, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(1)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (5, 16))
    executor = MCWFTrainExecutor(
        _full_model(device.n_qubits), rng=0, n_realizations=2
    )
    logical, cache = executor.forward(compiled, weights, inputs)
    assert logical.shape == (5, len(compiled.measure_qubits))
    assert executor.last_insertion_stats is not None
    assert cache.readout_scales is not None  # readout emulated affinely
    w_grad, x_grad = executor.backward(cache, np.ones_like(logical))
    assert w_grad.shape == (weights.size,)
    assert x_grad.shape == inputs.shape
    assert np.isfinite(w_grad).all() and np.abs(w_grad).max() > 0


@pytest.mark.parametrize("noise,n_realizations", [
    ("noise_model", 1), ("noise_model", 3), ("hardware_model", 3),
])
def test_mcwf_executor_is_gate_insertion_without_jumps(
    device, noise, n_realizations
):
    """Without exact channels the two trainers give the same bits.

    Both run the stacked sweep and the one adjoint (gate insertion at a
    single realization binds one sampled circuit instead, which is
    exact on a Pauli-only model): three steps agree in logits, weight
    and input gradients and post-step RNG state.
    """
    qnn = paper_model(4, 1, 1, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(2)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (4, 16))
    upstream = rng.normal(0, 1, (4, len(compiled.measure_qubits)))
    runs = []
    for executor_cls in (GateInsertionExecutor, MCWFTrainExecutor):
        executor = executor_cls(
            getattr(device, noise), noise_factor=10.0, rng=3,
            n_realizations=n_realizations,
        )
        steps, inserted = [], 0
        for _ in range(3):
            logical, cache = executor.forward(compiled, weights, inputs)
            steps.append((logical, *executor.backward(cache, upstream)))
            inserted += executor.last_insertion_stats.n_inserted
        assert inserted > 0, "no error inserted: the comparison is vacuous"
        runs.append((steps, executor.rng.bit_generator.state))
    (insertion, insertion_rng), (mcwf, mcwf_rng) = runs
    for expected, got in zip(insertion, mcwf):
        for a, b in zip(expected, got):  # logits, weight and input grads
            assert np.array_equal(a, b)
    assert insertion_rng == mcwf_rng


def test_mcwf_trains_end_to_end_via_train_config(device):
    """TrainConfig(engine='mcwf') swaps and restores the executor."""
    from dataclasses import replace

    exact_device = replace(
        device, noise_model=_full_model(device.n_qubits)
    )
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), exact_device,
        QuantumNATConfig.full(0.5), rng=0,
    )
    original = model._train_executor
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (12, 16))
    y = rng.integers(0, 4, 12)
    result = train(
        model, x, y, x, y, TrainConfig(epochs=2, seed=0, engine="mcwf")
    )
    assert model._train_executor is original
    assert np.isfinite(result.best_valid_loss)
    assert result.final_epoch == 2


def test_mcwf_engine_requires_gate_insertion_strategy(device):
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), device,
        QuantumNATConfig.baseline(), rng=0,
    )
    x = np.zeros((4, 16))
    y = np.zeros(4, dtype=int)
    with pytest.raises(ValueError, match="gate-insertion"):
        train(model, x, y, x, y, TrainConfig(epochs=1, engine="mcwf"))


# ---------------------------------------------------------------------------
# persistent worker pool
# ---------------------------------------------------------------------------


def test_executor_pool_persists_across_calls(device):
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    executor = TrajectoryEvalExecutor(
        _full_model(device.n_qubits), n_trajectories=32, shots=None,
        rng=0, n_workers=2, shard_size=8, unravel="jump",
    )
    executor.forward(compiled, None, None)
    pool_first = executor.lease.pool
    assert pool_first is not None
    executor.forward(compiled, None, None)
    assert executor.lease.pool is pool_first  # alive and reused, not respawned
    executor.close()
    assert executor.lease.pool is None
    executor.close()  # idempotent


def test_pool_not_spawned_for_single_chunk_runs(device):
    """Workers only materialize when the run actually shards."""
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    executor = TrajectoryEvalExecutor(
        _full_model(device.n_qubits), n_trajectories=4, shots=None,
        rng=0, n_workers=4, shard_size=8, unravel="jump",
    )
    executor.forward(compiled, None, None)  # 4 traj in one 8-chunk
    assert executor.lease.pool is None
    executor.n_trajectories = 32  # now 4 chunks -> pool materializes
    executor.forward(compiled, None, None)
    assert executor.lease.pool is not None
    executor.close()


def test_executor_pool_recreated_when_settings_change(device):
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    with TrajectoryEvalExecutor(
        _full_model(device.n_qubits), n_trajectories=32, shots=None,
        rng=0, n_workers=2, shard_size=8, unravel="jump",
    ) as executor:
        executor.forward(compiled, None, None)
        pool_first = executor.lease.pool
        executor.n_workers = 3
        executor.forward(compiled, None, None)
        assert executor.lease.pool is not pool_first
        assert executor.lease.key == ("thread", 3)
    assert executor.lease.pool is None  # context exit closed it


def test_train_releases_validation_executor_pool(device):
    """trajectory_workers sharding must not leak a pool onto the
    caller's validation executor after train() restores its settings."""
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), device,
        QuantumNATConfig.norm_and_injection(0.25), rng=0,
    )
    valid_executor = TrajectoryEvalExecutor(
        device.noise_model, n_trajectories=32, shots=None, rng=0,
        shard_size=8,
    )
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (8, 16))
    y = rng.integers(0, 4, 8)
    train(
        model, x, y, x, y,
        TrainConfig(epochs=1, seed=0, trajectory_workers=2),
        valid_executor=valid_executor,
    )
    assert valid_executor.n_workers == 0  # settings restored
    assert valid_executor.lease.pool is None  # and no worker pool left behind


def test_mid_sweep_exception_releases_worker_pool(device):
    """A failure escaping forward() must not strand pool workers: the
    executor eagerly closes its persistent pool on the error path."""
    import multiprocessing

    from repro.runtime import (
        ChunkSupervisor,
        FaultPlan,
        RetryExhausted,
        SupervisorConfig,
    )

    compiled = transpile(_case_circuit(), device, optimization_level=1)
    supervisor = ChunkSupervisor(
        # Zero retries + a fault on every attempt: the sweep is
        # guaranteed to die mid-run with chunks still queued.
        SupervisorConfig(max_retries=0, backoff_s=0.0, degrade_to_serial=False),
        fault_plan=FaultPlan(0, rates={"raise": 1.0}, max_attempt_faults=99),
        label="trajectory",
    )
    executor = TrajectoryEvalExecutor(
        _full_model(device.n_qubits), n_trajectories=32, shots=None,
        rng=0, n_workers=2, shard_size=8, shard_backend="process",
        unravel="jump", supervisor=supervisor,
    )
    with pytest.raises(RetryExhausted):
        executor.forward(compiled, None, None)
    assert executor.lease.pool is None  # closed on the way out, not leaked
    # Process-wide shared leases are deliberately long-lived; drain them
    # so the orphan check below sees only what *this* executor would
    # have leaked.
    from repro.runtime import shutdown_shared_pools

    shutdown_shared_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []  # no orphaned workers


def test_dropped_executor_reaps_pool_at_collection(device):
    """Belt-and-braces leak guard: an executor dropped without close()
    reaps its workers when collected (weakref finalizer)."""
    import gc
    import multiprocessing
    import time

    compiled = transpile(_case_circuit(), device, optimization_level=1)
    executor = TrajectoryEvalExecutor(
        _full_model(device.n_qubits), n_trajectories=32, shots=None,
        rng=0, n_workers=2, shard_size=8, shard_backend="process",
        unravel="jump",
    )
    executor.forward(compiled, None, None)
    assert executor.lease.pool is not None
    del executor
    gc.collect()
    # Drain the deliberately long-lived shared registry pools so the
    # orphan check sees only what the dropped executor would have leaked.
    from repro.runtime import shutdown_shared_pools

    shutdown_shared_pools()
    # The finalizer shuts the pool down without waiting, so the pool's
    # management thread reaps the workers concurrently with the joins
    # below; a join that loses that race returns before the reaper has
    # marked the child dead.  Poll within the same 10 s budget.
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        for child in multiprocessing.active_children():
            child.join(timeout=0.1)
    assert multiprocessing.active_children() == []


def test_pooled_forward_matches_serial(device):
    compiled = transpile(_case_circuit(), device, optimization_level=1)
    model = _full_model(device.n_qubits)
    serial = TrajectoryEvalExecutor(
        model, n_trajectories=32, shots=None, rng=11, shard_size=8,
        unravel="jump",
    )
    pooled = TrajectoryEvalExecutor(
        model, n_trajectories=32, shots=None, rng=11, n_workers=2,
        shard_size=8, unravel="jump",
    )
    with pooled:
        a, _ = serial.forward(compiled, None, None)
        b, _ = pooled.forward(compiled, None, None)
        c, _ = pooled.forward(compiled, None, None)  # pool reuse
    # Identical rng state progression: first pooled call matches serial.
    assert np.array_equal(a, b)
    assert np.isfinite(c).all()

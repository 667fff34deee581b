"""Fault-tolerant runtime: supervisor, taxonomy, fallbacks, checkpoints.

Covers the runtime package's contracts outside chaos injection (the
seeded end-to-end chaos suite lives in ``test_runtime_chaos.py``):

* supervisor mechanics -- serial/pooled execution, deadline detection,
  checksum validation, bounded retry, ``RetryExhausted`` chaining,
  config validation, RNG-snapshot ``call()`` determinism;
* the structured failure taxonomy (``EngineUnavailable`` staying a
  ``ValueError`` for pre-runtime callers, ``DegradedExecution``
  carrying its fallback path);
* engine-registry fallback chains: ``density`` degrading to ``mcwf``
  on width, pool spawn failure degrading to serial, exhausted chains
  raising with per-candidate reasons;
* sharding input validation at construction;
* atomic training checkpoints and bit-identical resume.
"""

import os
import pickle

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.compiler import transpile
from repro.core.engine import (
    create_engine_with_fallback,
    engine_fallback_chain,
)
from repro.core.executors import StabilizerEvalExecutor, TrajectoryEvalExecutor
from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
from repro.core.training import TrainConfig, train
from repro.noise import NoiseModel, PauliError, get_device, readout_matrix
from repro.noise.trajectory import (
    run_noisy_trajectories,
    trajectory_probabilities,
)
from repro.qnn import paper_model
from repro.runtime import (
    ChunkCorruption,
    ChunkSupervisor,
    ChunkTask,
    ChunkTimeout,
    DegradedExecution,
    EngineUnavailable,
    FaultPlan,
    PoolLease,
    RetryExhausted,
    SupervisorConfig,
    WorkerCrash,
    inject_faults,
    load_checkpoint,
    run_chunks,
    save_checkpoint,
)
from repro.runtime.checkpoint import TrainCheckpoint
from repro.runtime.faults import FaultSpec, chaos_seed


@pytest.fixture(scope="module")
def device():
    return get_device("santiago")


def _pauli_model(n_qubits: int) -> NoiseModel:
    return NoiseModel(
        n_qubits,
        {
            (gate, q): PauliError(3e-3, 2e-3, 1e-3)
            for q in range(n_qubits)
            for gate in ("sx", "x", "id")
        },
        {(q, q + 1): PauliError(6e-3, 5e-3, 4e-3) for q in range(n_qubits - 1)},
        np.stack([readout_matrix(0.01, 0.02) for _ in range(n_qubits)]),
    )


def _exact_model(n_qubits: int) -> NoiseModel:
    """Carries exact relaxation channels (density/mcwf territory)."""
    return NoiseModel(
        n_qubits,
        {},
        {},
        np.stack([readout_matrix(0.0, 0.0)] * n_qubits),
        relaxation={q: (40.0, 50.0) for q in range(n_qubits)},
        relaxation_durations=(0.05, 0.4),
    )


def _square(x):
    return np.array([float(x * x)])


def _tasks(n):
    return [ChunkTask(i, _square, (i,)) for i in range(n)]


def _expected(n):
    return [float(i * i) for i in range(n)]


# ---------------------------------------------------------------------------
# supervisor mechanics
# ---------------------------------------------------------------------------


def test_supervisor_serial_run_returns_results_in_task_order():
    supervisor = ChunkSupervisor()
    out = run_chunks(_tasks(5), supervisor)
    assert [o[0] for o in out] == _expected(5)
    assert supervisor.last_report.chunks == 5
    assert supervisor.last_report.attempts == 5
    assert supervisor.last_report.retries == 0


def test_supervisor_pooled_run_matches_serial():
    supervisor = ChunkSupervisor()
    with PoolLease(3) as lease:
        out = run_chunks(_tasks(7), supervisor, lease)
    assert [o[0] for o in out] == _expected(7)


def test_supervisor_retries_injected_crashes_to_identical_results():
    plan = FaultPlan(seed=3, rates={"raise": 0.5}, max_attempt_faults=1)
    supervisor = ChunkSupervisor(
        SupervisorConfig(backoff_s=0.0), fault_plan=plan
    )
    out = run_chunks(_tasks(8), supervisor)
    assert [o[0] for o in out] == _expected(8)
    assert supervisor.last_report.crashes > 0
    assert supervisor.last_report.retries == supervisor.last_report.crashes


def test_supervisor_checksum_catches_corruption():
    plan = FaultPlan(seed=1, rates={"corrupt": 1.0}, max_attempt_faults=1)
    supervisor = ChunkSupervisor(
        SupervisorConfig(backoff_s=0.0), fault_plan=plan
    )
    out = run_chunks(_tasks(4), supervisor)
    assert [o[0] for o in out] == _expected(4)
    assert supervisor.last_report.corruptions == 4


def test_supervisor_serial_deadline_detects_delay():
    plan = FaultPlan(
        seed=1, rates={"delay": 1.0}, delay_s=0.2, max_attempt_faults=1
    )
    supervisor = ChunkSupervisor(
        SupervisorConfig(deadline_s=0.05, backoff_s=0.0), fault_plan=plan
    )
    out = run_chunks(_tasks(3), supervisor)
    assert [o[0] for o in out] == _expected(3)
    assert supervisor.last_report.timeouts == 3


def test_supervisor_pooled_deadline_detects_delay():
    # Two tasks (a one-task run never spawns a pool), four workers: the
    # retries never queue behind the sleeping first attempts, so exactly
    # one timeout per task is observed.
    plan = FaultPlan(
        seed=1, rates={"delay": 1.0}, delay_s=0.5, max_attempt_faults=1
    )
    supervisor = ChunkSupervisor(
        SupervisorConfig(deadline_s=0.05, backoff_s=0.0), fault_plan=plan
    )
    with PoolLease(4) as lease:
        out = run_chunks(_tasks(2), supervisor, lease)
    assert [o[0] for o in out] == _expected(2)
    assert supervisor.last_report.timeouts == 2


def test_retry_exhaustion_raises_chained_from_terminal_fault():
    plan = FaultPlan(seed=1, rates={"corrupt": 1.0}, max_attempt_faults=99)
    supervisor = ChunkSupervisor(
        SupervisorConfig(max_retries=1, backoff_s=0.0), fault_plan=plan
    )
    with pytest.raises(RetryExhausted) as excinfo:
        run_chunks(_tasks(1), supervisor)
    assert isinstance(excinfo.value.__cause__, ChunkCorruption)
    assert excinfo.value.attempts == 2  # initial try + one retry


def test_supervisor_call_rng_snapshot_makes_retry_bit_identical():
    rng = np.random.default_rng(7)
    baseline = np.random.default_rng(7).random(6)

    def draw(n):
        return rng.random(n)

    plan = FaultPlan(seed=5, rates={"raise": 1.0}, max_attempt_faults=1)
    supervisor = ChunkSupervisor(
        SupervisorConfig(backoff_s=0.0), fault_plan=plan
    )
    got = supervisor.call(draw, 6, rng=rng)
    assert supervisor.last_report.crashes == 1
    assert np.array_equal(got, baseline)


def test_supervisor_config_validation():
    with pytest.raises(ValueError, match="max_retries"):
        SupervisorConfig(max_retries=-1)
    with pytest.raises(ValueError, match="deadline_s"):
        SupervisorConfig(deadline_s=0.0)
    with pytest.raises(ValueError, match="backoff_s"):
        SupervisorConfig(backoff_s=-0.1)
    with pytest.raises(ValueError, match="backoff_factor"):
        SupervisorConfig(backoff_factor=0.5)


def test_fault_plan_is_deterministic_and_validates():
    plan = FaultPlan(seed=42, rates={"raise": 0.3, "corrupt": 0.3})
    draws = [plan.fault_for("chunks", i, 0) for i in range(64)]
    again = [plan.fault_for("chunks", i, 0) for i in range(64)]
    assert draws == again
    assert any(d is not None for d in draws)
    assert all(
        plan.fault_for("chunks", i, 1) is None for i in range(64)
    )  # max_attempt_faults=1: retries are clean
    with pytest.raises(ValueError, match="unknown fault kinds"):
        FaultPlan(seed=0, rates={"meteor": 1.0})
    with pytest.raises(ValueError, match="sum"):
        FaultPlan(seed=0, rates={"raise": 0.8, "kill": 0.8})
    with pytest.raises(ValueError, match="fault kind"):
        FaultSpec("meteor")


def test_chaos_seed_reads_environment(monkeypatch):
    monkeypatch.delenv("CHAOS_SEED", raising=False)
    assert chaos_seed(17) == 17
    monkeypatch.setenv("CHAOS_SEED", "123")
    assert chaos_seed(17) == 123


# ---------------------------------------------------------------------------
# failure taxonomy
# ---------------------------------------------------------------------------


def test_engine_unavailable_is_a_value_error():
    # Pre-runtime callers catch ValueError from the resolution helpers;
    # the typed taxonomy must not break them.
    assert issubclass(EngineUnavailable, ValueError)


def test_chunk_faults_carry_index_and_attempt():
    timeout = ChunkTimeout(3, 1, 2.5)
    assert (timeout.index, timeout.attempt, timeout.deadline_s) == (3, 1, 2.5)
    crash = WorkerCrash(2, 0, "boom")
    assert "boom" in str(crash) and crash.index == 2


def test_degraded_execution_reports_fallback_path():
    warning = DegradedExecution("fell back", ("density", "mcwf"))
    assert warning.fallback_path == ("density", "mcwf")
    assert "density -> mcwf" in str(warning)


# ---------------------------------------------------------------------------
# engine fallback chain
# ---------------------------------------------------------------------------


def test_density_falls_back_to_mcwf_beyond_width_cap():
    noise_model = _exact_model(10)
    with pytest.warns(DegradedExecution) as record:
        executor = create_engine_with_fallback(
            "density", noise_model, widest=10, shots=None, rng=0
        )
    assert isinstance(executor, TrajectoryEvalExecutor)
    assert executor.unravel == "jump"
    assert record[0].message.fallback_path == ("density", "mcwf")


def test_requested_engine_used_when_capable():
    import warnings

    noise_model = _exact_model(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegradedExecution)
        executor = create_engine_with_fallback(
            "density", noise_model, widest=3, shots=None
        )
    assert type(executor).__name__ == "DensityEvalExecutor"


def test_trajectory_falls_back_to_mcwf_on_exact_channels():
    noise_model = _exact_model(3)
    with pytest.warns(DegradedExecution):
        executor = create_engine_with_fallback(
            "trajectory", noise_model, widest=3, shots=None, rng=0
        )
    assert executor.unravel == "jump"


def test_exhausted_fallback_chain_raises_engine_unavailable():
    with pytest.raises(EngineUnavailable, match="noiseless"):
        create_engine_with_fallback("noiseless", _exact_model(3), widest=3)


def test_fallback_chain_contents():
    assert engine_fallback_chain("density") == ("density", "mcwf")
    assert engine_fallback_chain("noiseless") == ("noiseless",)


@pytest.mark.parametrize("engine", ["trajectory", "stabilizer"])
def test_pool_spawn_failure_degrades_to_serial(engine, device, monkeypatch):
    """Sharded + supervised: a pool that cannot spawn runs serially."""
    import concurrent.futures as futures_module

    from repro.runtime import shutdown_shared_pools

    noise_model = _pauli_model(device.n_qubits)
    circuit = Circuit(3)
    circuit.add("h", 0)
    circuit.add("cx", (0, 1))
    if engine == "trajectory":
        circuit.add("rx", 2, 0.7)
        compiled = transpile(circuit, device, optimization_level=1)

        def run(**kwargs):
            return trajectory_probabilities(
                compiled, noise_model, None, None, 1,
                n_trajectories=32, rng=0, shard_size=8, **kwargs,
            )
    else:
        circuit.add("s", 2)
        compiled = transpile(circuit, device, optimization_level=1)

        def run(**kwargs):
            with StabilizerEvalExecutor(
                noise_model, n_trajectories=32, rng=0, shard_size=8, **kwargs
            ) as executor:
                return executor.forward(compiled, None, None)[0]

    baseline = run()

    def refuse(*args, **kwargs):
        raise OSError("no more processes")

    # Drain the shared registry first: an already-spawned ('thread', 2)
    # pool would satisfy the call without ever hitting the patched spawn.
    shutdown_shared_pools()
    monkeypatch.setattr(futures_module, "ThreadPoolExecutor", refuse)
    with pytest.warns(DegradedExecution, match="spawn failed"):
        degraded = run(n_workers=2, supervisor=ChunkSupervisor())
    assert np.array_equal(baseline, degraded)


# ---------------------------------------------------------------------------
# sharding input validation at construction
# ---------------------------------------------------------------------------


def test_executor_rejects_negative_n_workers(device):
    with pytest.raises(ValueError, match="n_workers"):
        TrajectoryEvalExecutor(_pauli_model(device.n_qubits), n_workers=-1)


def test_executor_rejects_bad_shard_size(device):
    with pytest.raises(ValueError, match="shard_size"):
        TrajectoryEvalExecutor(_pauli_model(device.n_qubits), shard_size=0)


def test_executor_rejects_unknown_shard_backend(device):
    with pytest.raises(ValueError, match="shard_backend"):
        TrajectoryEvalExecutor(
            _pauli_model(device.n_qubits), shard_backend="fiber"
        )


def _h_block(device):
    circuit = Circuit(2)
    circuit.add("h", 0)
    return transpile(circuit, device, optimization_level=1)


def test_trajectory_probabilities_rejects_negative_n_workers(device):
    with pytest.raises(ValueError, match="n_workers"):
        trajectory_probabilities(
            _h_block(device), _pauli_model(device.n_qubits), None, None, 1,
            n_workers=-2,
        )


def test_trajectory_probabilities_rejects_negative_n_trajectories(device):
    # Used to return an all-zero probability table.
    with pytest.raises(ValueError, match="n_trajectories must be >= 1"):
        trajectory_probabilities(
            _h_block(device), _pauli_model(device.n_qubits), None, None, 1,
            n_trajectories=-2,
        )


def test_trajectory_probabilities_rejects_zero_n_trajectories(device):
    # Used to return NaNs.
    with pytest.raises(ValueError, match="n_trajectories must be >= 1"):
        trajectory_probabilities(
            _h_block(device), _pauli_model(device.n_qubits), None, None, 1,
            n_trajectories=0,
        )


def test_run_noisy_trajectories_rejects_zero_shots(device):
    # Used to return NaN expectations.
    with pytest.raises(ValueError, match="shots must be >= 1"):
        run_noisy_trajectories(
            _h_block(device), _pauli_model(device.n_qubits),
            n_trajectories=4, shots=0,
        )


SAMPLED_EXECUTORS = pytest.mark.parametrize(
    "executor", [TrajectoryEvalExecutor, StabilizerEvalExecutor],
    ids=["trajectory", "stabilizer"],
)


@SAMPLED_EXECUTORS
def test_executor_rejects_zero_n_trajectories(executor, device):
    # Used to fail in forward() with numpy's untyped "pvals ... NaNs".
    with pytest.raises(ValueError, match="n_trajectories must be >= 1"):
        executor(_pauli_model(device.n_qubits), n_trajectories=0)


@SAMPLED_EXECUTORS
@pytest.mark.parametrize("shots", [0, -1])
def test_executor_rejects_zero_shots(shots, executor, device):
    # The stabilizer engine used to return NaNs at shots=0 and fail only
    # in forward() with numpy's bare "n < 0" at shots=-1.
    with pytest.raises(ValueError, match="shots must be >= 1"):
        executor(_pauli_model(device.n_qubits), shots=shots)


# ---------------------------------------------------------------------------
# training checkpoint / resume
# ---------------------------------------------------------------------------


def _training_setup(device):
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), device, QuantumNATConfig.full(0.5),
        rng=0,
    )
    rng = np.random.default_rng(0)
    data = (
        rng.normal(0, 1, (24, 16)), rng.integers(0, 4, 24),
        rng.normal(0, 1, (12, 16)), rng.integers(0, 4, 12),
    )
    return model, data


def test_checkpoint_roundtrip_and_atomic_write(tmp_path):
    path = str(tmp_path / "run.ckpt")
    checkpoint = TrainCheckpoint(
        epoch=3,
        engine="gate_insertion",
        weights=np.arange(4.0),
        optimizer={"m": np.zeros(4), "v": np.ones(4), "t": 9},
        rng_states={"loop": np.random.default_rng(1).bit_generator.state},
        best_weights=np.arange(4.0) * 2,
        best_loss=0.5,
        best_acc=0.75,
        history=[{"epoch": 0.0}],
    )
    save_checkpoint(path, checkpoint)
    assert not os.path.exists(path + ".tmp")  # replaced, not left behind
    loaded = load_checkpoint(path)
    assert loaded.epoch == 3 and loaded.engine == "gate_insertion"
    assert np.array_equal(loaded.weights, checkpoint.weights)
    assert loaded.optimizer["t"] == 9
    assert loaded.history == [{"epoch": 0.0}]


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fh:
        pickle.dump({"format": 999}, fh)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


def test_interrupted_resume_matches_uninterrupted_run(device, tmp_path):
    """The tentpole guarantee: kill at epoch 3, resume, same final state."""
    path = str(tmp_path / "train.ckpt")
    base = dict(epochs=4, seed=0, engine="gate_insertion", batch_size=16)

    model_full, (x, y, vx, vy) = _training_setup(device)
    full = train(model_full, x, y, vx, vy, TrainConfig(**base))

    model_cut, _ = _training_setup(device)
    real_step = model_cut.loss_and_gradients
    steps_per_epoch = int(np.ceil(x.shape[0] / base["batch_size"]))
    state = {"calls": 0}

    def dying_step(*args, **kwargs):
        if state["calls"] >= 2 * steps_per_epoch:  # epoch 3, first batch
            raise KeyboardInterrupt("simulated kill")
        state["calls"] += 1
        return real_step(*args, **kwargs)

    model_cut.loss_and_gradients = dying_step
    with pytest.raises(KeyboardInterrupt):
        train(
            model_cut, x, y, vx, vy,
            TrainConfig(checkpoint_path=path, **base),
        )

    model_resume, _ = _training_setup(device)  # fresh model, fresh process
    resumed = train(
        model_resume, x, y, vx, vy,
        TrainConfig(checkpoint_path=path, **base),
        resume=path,
    )
    assert np.array_equal(full.weights, resumed.weights)
    assert full.best_valid_loss == resumed.best_valid_loss
    assert full.history == resumed.history


def test_resume_restores_noisy_validation_stream(device, tmp_path):
    """Shot-noise RNG state on the validation executor is part of the
    checkpoint: resuming with a differently seeded executor still
    reproduces the uninterrupted run."""
    from repro.core.executors import make_noise_model_executor

    path = str(tmp_path / "train.ckpt")

    # With the lr schedule off, a 2-epoch run's trajectory coincides
    # with the first two epochs of a 3-epoch run, so its final
    # checkpoint doubles as a 3-epoch run interrupted after epoch 2.
    model_cut, (x, y, vx, vy) = _training_setup(device)
    valid_cut = make_noise_model_executor(model_cut, shots=512, rng=1)
    train(
        model_cut, x, y, vx, vy,
        TrainConfig(
            checkpoint_path=path, epochs=2, seed=0,
            engine="gate_insertion", batch_size=16, use_lr_schedule=False,
        ),
        valid_executor=valid_cut,
    )

    model_resume, _ = _training_setup(device)
    valid_resume = make_noise_model_executor(model_resume, shots=512, rng=777)
    resumed = train(
        model_resume, x, y, vx, vy,
        TrainConfig(
            checkpoint_path=path, epochs=3, seed=42,
            engine="gate_insertion", batch_size=16, use_lr_schedule=False,
        ),
        valid_executor=valid_resume,
        resume=path,
    )
    model_straight, _ = _training_setup(device)
    valid_straight = make_noise_model_executor(model_straight, shots=512, rng=1)
    straight = train(
        model_straight, x, y, vx, vy,
        TrainConfig(
            epochs=3, seed=0, engine="gate_insertion", batch_size=16,
            use_lr_schedule=False,
        ),
        valid_executor=valid_straight,
    )
    assert np.array_equal(straight.weights, resumed.weights)
    assert straight.history == resumed.history


def test_resume_rejects_engine_mismatch(device, tmp_path):
    path = str(tmp_path / "train.ckpt")
    model, (x, y, vx, vy) = _training_setup(device)
    train(
        model, x, y, vx, vy,
        TrainConfig(
            epochs=1, engine="gate_insertion", checkpoint_path=path
        ),
    )
    other, _ = _training_setup(device)
    with pytest.raises(ValueError, match="engine"):
        train(
            other, x, y, vx, vy,
            TrainConfig(epochs=2, engine="fast"), resume=path,
        )


def test_resume_rejects_epoch_overrun(device, tmp_path):
    path = str(tmp_path / "train.ckpt")
    model, (x, y, vx, vy) = _training_setup(device)
    train(
        model, x, y, vx, vy,
        TrainConfig(
            epochs=2, engine="gate_insertion", checkpoint_path=path
        ),
    )
    other, _ = _training_setup(device)
    with pytest.raises(ValueError, match="completed"):
        train(
            other, x, y, vx, vy,
            TrainConfig(epochs=1, engine="gate_insertion"), resume=path,
        )


def test_checkpoint_every_skips_intermediate_epochs(device, tmp_path):
    path = str(tmp_path / "train.ckpt")
    model, (x, y, vx, vy) = _training_setup(device)
    train(
        model, x, y, vx, vy,
        TrainConfig(
            epochs=3, engine="gate_insertion", checkpoint_path=path,
            checkpoint_every=2,
        ),
    )
    # Final epoch always saves, so the file exists with epoch == 3.
    assert load_checkpoint(path).epoch == 3
    with pytest.raises(ValueError, match="checkpoint_every"):
        TrainConfig(checkpoint_every=0)


def test_model_rng_generators_cover_shared_executor_stream(device):
    model, _ = _training_setup(device)
    generators = model.rng_generators()
    assert generators["model"] is model.rng
    # Default gate-insertion executor shares the model's stream.
    assert generators.get("train_executor") is model.rng

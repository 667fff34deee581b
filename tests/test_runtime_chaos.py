"""Seeded chaos suite: injected faults must never change results.

Every test here injects deterministic faults (crashes, kills, delays,
corrupted payloads) into supervised execution and asserts the recovered
run is *bit-identical* to a fault-free one.  The schedule is a pure
function of the chaos seed -- ``$CHAOS_SEED`` when set (the CI chaos
job pins it and prints it), else a fixed default -- so any red run
replays locally with ``CHAOS_SEED=<seed> pytest -m chaos``.

Runs in the tier-1 suite by default (it is fast); the dedicated CI
chaos job additionally runs it alone under an explicit seed.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.compiler import transpile
from repro.core.executors import GateInsertionExecutor, TrajectoryEvalExecutor
from repro.noise import NoiseModel, PauliError, get_device, readout_matrix
from repro.runtime import (
    ChunkSupervisor,
    ChunkTask,
    DegradedExecution,
    FaultPlan,
    PoolLease,
    SupervisorConfig,
    chaos_seed,
    inject_faults,
    run_chunks,
)

pytestmark = pytest.mark.chaos

#: Every chunk's first attempt faults, whatever the seed -- the seed
#: only decides *which* fault fires, so bit-identity assertions hold
#: under any ``$CHAOS_SEED`` while still exercising the full taxonomy.
ALWAYS_FAULT = {"raise": 0.5, "corrupt": 0.3, "kill": 0.2}


@pytest.fixture(scope="module")
def device():
    return get_device("santiago")


@pytest.fixture(scope="module")
def compiled(device):
    circuit = Circuit(3)
    circuit.add("h", 0)
    circuit.add("cx", (0, 1))
    circuit.add("rx", 2, 0.7)
    circuit.add("cx", (1, 2))
    circuit.add("ry", 0, -0.4)
    circuit.add("sx", 1)
    return transpile(circuit, device, optimization_level=1)


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


def _relaxation_model(n_qubits: int) -> NoiseModel:
    return NoiseModel(
        n_qubits,
        {},
        {},
        np.stack([readout_matrix(0.01, 0.02)] * n_qubits),
        relaxation={q: (40.0 + 10 * q, 50.0 + 8 * q) for q in range(n_qubits)},
        relaxation_durations=(0.05, 0.4),
    )


def _trajectory_executor(device, *, unravel, supervisor=None, n_workers=0):
    model = (
        _relaxation_model(device.n_qubits)
        if unravel == "jump"
        else _pauli_model(device.n_qubits)
    )
    return TrajectoryEvalExecutor(
        model,
        n_trajectories=32,
        shots=4096,
        rng=0,
        n_workers=n_workers,
        shard_size=8,
        unravel=unravel,
        supervisor=supervisor,
    )


def _chaos_supervisor(rates, **plan_kwargs):
    return ChunkSupervisor(
        SupervisorConfig(backoff_s=0.0),
        fault_plan=FaultPlan(chaos_seed(7), rates=rates, **plan_kwargs),
        label="trajectory",
    )


# ---------------------------------------------------------------------------
# retry determinism across engines: faulted runs == fault-free runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["trajectory", "mcwf", "gate_insertion"])
def test_injected_faults_recover_bit_identically(engine, device, compiled):
    weights = None  # the case circuit binds all angles at build time
    inputs = None

    if engine == "gate_insertion":
        noise_model = _pauli_model(device.n_qubits)
        base_ex = GateInsertionExecutor(noise_model, rng=11, n_realizations=4)
        base, _ = base_ex.forward(compiled, weights, inputs)

        chaos_ex = GateInsertionExecutor(noise_model, rng=11, n_realizations=4)
        supervisor = _chaos_supervisor(ALWAYS_FAULT)

        def step():
            return chaos_ex.forward(compiled, weights, inputs)[0]

        got = supervisor.call(step, rng=chaos_ex.rng)
    else:
        unravel = "jump" if engine == "mcwf" else "pauli"
        base, _ = _trajectory_executor(device, unravel=unravel).forward(
            compiled, weights, inputs
        )
        supervisor = _chaos_supervisor(ALWAYS_FAULT)
        chaos_ex = _trajectory_executor(
            device, unravel=unravel, supervisor=supervisor, n_workers=2
        )
        with chaos_ex:
            got, _ = chaos_ex.forward(compiled, weights, inputs)

    assert supervisor.last_report.faults_injected > 0
    assert supervisor.last_report.retries == supervisor.last_report.faults_injected
    assert np.array_equal(base, got)


@pytest.mark.parametrize("unravel", ["pauli", "jump"])
def test_injected_timeouts_recover_bit_identically(unravel, device, compiled):
    """Supervised serial path: delays past the deadline are detected
    post-hoc, retried clean, and change nothing."""
    model = (
        _relaxation_model(device.n_qubits)
        if unravel == "jump"
        else _pauli_model(device.n_qubits)
    )
    base, _ = TrajectoryEvalExecutor(
        model, n_trajectories=32, shots=4096, rng=0,
        shard_size=16, unravel=unravel,
    ).forward(compiled, None, None)
    # Deadline comfortably above a clean chunk's compute time but far
    # below the injected delay, so only injected delays time out.
    supervisor = ChunkSupervisor(
        SupervisorConfig(deadline_s=0.1, backoff_s=0.0),
        fault_plan=FaultPlan(
            chaos_seed(7), rates={"delay": 1.0}, delay_s=0.3
        ),
        label="trajectory",
    )
    chaos_ex = TrajectoryEvalExecutor(
        model, n_trajectories=32, shots=4096, rng=0,
        shard_size=16, unravel=unravel, supervisor=supervisor,
    )
    got, _ = chaos_ex.forward(compiled, None, None)
    assert supervisor.last_report.timeouts > 0
    assert np.array_equal(base, got)


def test_ambient_plan_reaches_supervised_executor(device, compiled):
    """``inject_faults`` installs chaos without threading a plan through
    the executor layers."""
    base, _ = _trajectory_executor(device, unravel="pauli").forward(
        compiled, None, None
    )
    supervisor = ChunkSupervisor(
        SupervisorConfig(backoff_s=0.0), label="trajectory"
    )
    chaos_ex = _trajectory_executor(
        device, unravel="pauli", supervisor=supervisor, n_workers=2
    )
    with chaos_ex, inject_faults(FaultPlan(chaos_seed(7), ALWAYS_FAULT)):
        got, _ = chaos_ex.forward(compiled, None, None)
    assert supervisor.last_report.faults_injected > 0
    assert np.array_equal(base, got)
    # Outside the context the ambient plan is gone: a clean re-run.
    clean, _ = _trajectory_executor(
        device, unravel="pauli",
        supervisor=ChunkSupervisor(label="trajectory"), n_workers=2,
    ).forward(compiled, None, None)
    assert np.array_equal(base, clean)


def test_ambient_chaos_never_reaches_unsupervised_runs(device, compiled):
    """Unsupervised runs share the supervised chunk path (under the null
    policy), but an ambient fault plan must never reach them."""
    base, _ = _trajectory_executor(device, unravel="pauli").forward(
        compiled, None, None
    )
    sharded = _trajectory_executor(device, unravel="pauli", n_workers=2)
    with sharded, inject_faults(FaultPlan(chaos_seed(7), ALWAYS_FAULT)):
        got, _ = sharded.forward(compiled, None, None)
    assert np.array_equal(base, got)


# ---------------------------------------------------------------------------
# process-pool chaos: killed workers, broken pools, serial degradation
# ---------------------------------------------------------------------------


def _assert_no_orphans() -> None:
    """Every worker process is gone within 10 s.

    A broken pool's management thread joins its workers concurrently
    with the joins here, and a join that loses that race returns before
    the other thread has marked the child dead; so poll, not join once.
    """
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        for child in multiprocessing.active_children():
            child.join(timeout=0.1)
    assert multiprocessing.active_children() == []


def test_killed_process_workers_recover_bit_identically(device, compiled):
    """``kill`` faults hard-exit real worker processes; the broken pool
    is respawned on the executor's lease and the recovered run matches
    serial."""
    base, _ = _trajectory_executor(device, unravel="pauli").forward(
        compiled, None, None
    )
    supervisor = _chaos_supervisor({"kill": 1.0})
    chaos_ex = TrajectoryEvalExecutor(
        _pauli_model(device.n_qubits),
        n_trajectories=32,
        shots=4096,
        rng=0,
        n_workers=2,
        shard_size=8,
        shard_backend="process",
        supervisor=supervisor,
    )
    with chaos_ex:
        got, _ = chaos_ex.forward(compiled, None, None)
    assert np.array_equal(base, got)
    assert supervisor.last_report.crashes > 0
    assert "pool-rebuilt" in supervisor.last_report.degraded
    # The lease respawned the broken pool for the run and discarded it
    # after the degraded report: no orphaned workers survive.
    assert chaos_ex.lease.pool is None
    # Drain the deliberately long-lived shared registry pools so the
    # orphan check sees only what this run would have leaked.
    from repro.runtime import shutdown_shared_pools

    shutdown_shared_pools()
    _assert_no_orphans()


def _seeded_payload(seed: int, n: int) -> np.ndarray:
    """Deterministic picklable chunk body for process-pool tests."""
    return np.random.default_rng(seed).random(n)


def test_broken_pool_without_rebuild_degrades_to_serial(monkeypatch):
    """A broken pool that cannot be respawned: the remaining chunks run
    serially in the parent under a DegradedExecution warning, results
    unchanged."""
    import concurrent.futures as futures_module

    tasks = [ChunkTask(i, _seeded_payload, (100 + i, 5)) for i in range(4)]
    expected = [_seeded_payload(100 + i, 5) for i in range(4)]

    def refuse(*args, **kwargs):
        raise OSError("no more processes")

    supervisor = ChunkSupervisor(
        SupervisorConfig(backoff_s=0.0),
        fault_plan=FaultPlan(chaos_seed(7), rates={"kill": 1.0}),
    )
    with PoolLease(2, "process") as lease:
        lease.acquire()  # the first spawn succeeds; the respawn cannot
        monkeypatch.setattr(futures_module, "ProcessPoolExecutor", refuse)
        with pytest.warns(DegradedExecution) as record:
            out = run_chunks(tasks, supervisor, lease)
    assert any(
        w.message.fallback_path == ("process-pool", "serial") for w in record
    )
    assert supervisor.last_report.degraded[-2:] == ("process-pool", "serial")
    for got, want in zip(out, expected):
        assert np.array_equal(got, want)
    from repro.runtime import shutdown_shared_pools

    shutdown_shared_pools()
    _assert_no_orphans()


# ---------------------------------------------------------------------------
# stabilizer engine under chunk supervision
# ---------------------------------------------------------------------------


def test_stabilizer_chunks_recover_bit_identically(device):
    """Tableau trajectory chunks are re-runnable pure functions of their
    spawned seeds, so every injected fault retries bit-identically --
    same contract as the statevector sweeps, at polynomial cost."""
    from repro.core.executors import StabilizerEvalExecutor

    circuit = Circuit(3)
    circuit.add("h", 0)
    circuit.add("cx", (0, 1))
    circuit.add("s", 2)
    circuit.add("cx", (1, 2))
    circuit.add("h", 1)
    circuit.add("x", 2)
    compiled = transpile(circuit, device, optimization_level=1)
    model = _pauli_model(device.n_qubits)

    base_ex = StabilizerEvalExecutor(
        model, n_trajectories=32, shots=4096, rng=0, shard_size=8
    )
    base, _ = base_ex.forward(compiled, None, None)

    supervisor = ChunkSupervisor(
        SupervisorConfig(backoff_s=0.0),
        fault_plan=FaultPlan(chaos_seed(7), rates=ALWAYS_FAULT),
        label="stabilizer",
    )
    chaos_ex = StabilizerEvalExecutor(
        model, n_trajectories=32, shots=4096, rng=0, shard_size=8,
        n_workers=2, supervisor=supervisor,
    )
    with chaos_ex:
        got, _ = chaos_ex.forward(compiled, None, None)
    assert supervisor.last_report.faults_injected > 0
    assert supervisor.last_report.retries == supervisor.last_report.faults_injected
    assert np.array_equal(base, got)


# ---------------------------------------------------------------------------
# the seed really is the schedule
# ---------------------------------------------------------------------------


def test_chaos_schedule_is_a_pure_function_of_the_seed(monkeypatch):
    monkeypatch.setenv("CHAOS_SEED", "2026")
    plan_a = FaultPlan(chaos_seed(), rates=ALWAYS_FAULT)
    plan_b = FaultPlan(chaos_seed(), rates=ALWAYS_FAULT)
    schedule_a = [plan_a.fault_for("trajectory", i, 0) for i in range(32)]
    schedule_b = [plan_b.fault_for("trajectory", i, 0) for i in range(32)]
    assert schedule_a == schedule_b
    other = FaultPlan(1 + chaos_seed(), rates=ALWAYS_FAULT)
    assert schedule_a != [
        other.fault_for("trajectory", i, 0) for i in range(32)
    ]

"""Sharded trajectory execution: scaling mechanics and worker caches.

Covers the pieces that make ``n_workers > 0`` actually win without
changing a single bit of output:

* balanced chunk-group bounds (no empty or oversized groups);
* fail-fast chunk runs (a failing chunk surfaces its own error);
* the worker-side plan cache (rebuilt plans memoized per process, warm
  across calls on a persistent pool, cold caches still bit-identical);
* cache-blocked tiles (a chunk swept as several trajectory tiles
  agrees with one tile, and every execution path tiles alike);
* the process-wide shared leases;
* sharded == serial, bit for bit, for every shardable registered engine
  on both backends, supervised or not;
* row-banded stacked training sweeps (GateInsertion / MCWF executors)
  over executor-held persistent pool leases;
* the sharding setters of every sharded executor, validated like the
  constructors' arguments, and the training executors' thread-only
  row bands;
* the training factories forwarding ``n_workers``.
"""

import numpy as np
import pytest

from repro import get_device, paper_model
from repro.circuits import Circuit
from repro.compiler import transpile
from repro.core.engine import engine_spec, engine_specs
from repro.core.executors import (
    GateInsertionExecutor,
    MCWFTrainExecutor,
    StabilizerEvalExecutor,
    TrajectoryEvalExecutor,
)
from repro.core.injection import GATE_INSERTION, InjectionConfig
from repro.noise import NoiseModel, PauliError, readout_matrix
from repro.noise import trajectory as traj_mod
from repro.noise.trajectory import (
    _balanced_group_bounds,
    run_ops_banded,
    trajectory_probabilities,
)
from repro.runtime import (
    ChunkSupervisor,
    PoolLease,
    shared_lease,
    shutdown_shared_pools,
)
from repro.utils.cache import cache_stats


@pytest.fixture(autouse=True)
def _clean_shared_pools():
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def block():
    qnn = paper_model(4, 1, 2, 16, 4)
    device = get_device("santiago")
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(3)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (3, 16))
    return device, compiled, weights, inputs


def _probs(block, **kwargs):
    device, compiled, weights, inputs = block
    call = dict(n_trajectories=20, shard_size=2, rng=5)
    call.update(kwargs)
    return trajectory_probabilities(
        compiled, device.noise_model, weights, inputs, 3, **call
    )


# -- balanced group bounds ----------------------------------------------


def test_balanced_group_bounds_match_array_split():
    for n_items in range(1, 26):
        for n_groups in range(1, 9):
            bounds = _balanced_group_bounds(n_items, n_groups)
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            assert bounds[0] == 0 and bounds[-1] == n_items
            assert all(s >= 0 for s in sizes)
            assert max(sizes) - min(s for s in sizes if s) <= 1 if any(sizes) \
                else True
            # Same partition numpy's array_split produces.
            expected = [len(part) for part in
                        np.array_split(np.arange(n_items), n_groups)]
            assert sizes == expected


def test_balanced_group_bounds_beat_linspace_layout():
    """The old linspace-derived bounds could produce empty groups next
    to double-width ones; the balanced layout never does."""
    bounds = _balanced_group_bounds(10, 4)
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    assert sizes == [3, 3, 2, 2]


# -- bit identity across worker counts and backends ---------------------


def test_process_sharded_bit_identical_across_uneven_worker_counts(block):
    serial = _probs(block)
    for n_workers in (2, 3):
        with PoolLease(n_workers, "process") as lease:
            sharded = _probs(block, n_workers=n_workers, pool=lease,
                             shard_backend="process")
        assert np.array_equal(serial, sharded)


def test_thread_sharded_bit_identical(block):
    serial = _probs(block)
    sharded = _probs(block, n_workers=2)
    assert np.array_equal(serial, sharded)


# -- fail-fast dispatch --------------------------------------------------


def test_failing_chunk_surfaces_original_error(block, monkeypatch):
    calls = {"n": 0}
    real = traj_mod._segment_chunk

    def exploding(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("chunk exploded")
        return real(*args, **kwargs)

    monkeypatch.setattr(traj_mod, "_segment_chunk", exploding)
    with PoolLease(2) as lease:
        with pytest.raises(RuntimeError, match="chunk exploded"):
            _probs(block, n_workers=2, pool=lease)


# -- worker-side plan cache ----------------------------------------------
#
# Worker-side reads and clears go through module-level task functions:
# they pickle by reference and run against the worker's own cache,
# where a bound method (``_WORKER_PLAN_CACHE.clear``) would pickle a
# copy of the cache and clear that instead.


def _worker_plan_row() -> "tuple[dict, int]":
    """This process's worker plan-cache counters and entry count."""
    return (cache_stats()["trajectory.worker_plan"],
            len(traj_mod._WORKER_PLAN_CACHE))


def _clear_worker_plans() -> None:
    traj_mod._WORKER_PLAN_CACHE.clear()


def test_worker_plan_cache_warm_across_calls(block):
    """On a persistent single-worker process pool, the second call must
    hit the worker-side plan cache instead of re-unpickling/rebuilding."""
    serial = _probs(block)
    with PoolLease(1, "process") as lease:
        lease.acquire().submit(_clear_worker_plans).result()
        before, _ = lease.acquire().submit(_worker_plan_row).result()
        first = _probs(block, n_workers=1, pool=lease,
                       shard_backend="process")
        second = _probs(block, n_workers=1, pool=lease,
                        shard_backend="process")
        after, entries = lease.acquire().submit(_worker_plan_row).result()
    assert np.array_equal(serial, first)
    assert np.array_equal(first, second)
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] >= 1
    assert entries == 1


def test_worker_plan_cache_cold_is_still_bit_identical(block):
    """Fresh pools (cold caches) rebuild the plan and agree exactly."""
    serial = _probs(block)
    for _ in range(2):
        with PoolLease(1, "process") as lease:
            lease.acquire().submit(_clear_worker_plans).result()
            before, _ = lease.acquire().submit(_worker_plan_row).result()
            out = _probs(block, n_workers=1, pool=lease,
                         shard_backend="process")
            after, _ = lease.acquire().submit(_worker_plan_row).result()
        assert np.array_equal(serial, out)
        assert after["misses"] - before["misses"] == 1


# -- cache-blocked tiles --------------------------------------------------


def _tile_model(device, unravel):
    if unravel == "pauli":
        return device.noise_model
    # Jump sites on one qubit keep the 1024-row jump sweeps cheap.
    return device.noise_model.with_relaxation({0: (40.0, 50.0)}, (0.05, 0.4))


def _tiled_probs(block, unravel, rows, **kwargs):
    device, compiled, weights, _inputs = block
    inputs = np.random.default_rng(8).normal(0, 1, (rows, 16))
    return trajectory_probabilities(
        compiled, _tile_model(device, unravel), weights, inputs, rows,
        n_trajectories=10, shard_size=5, rng=5, unravel=unravel, **kwargs
    )


@pytest.mark.parametrize("unravel", ["pauli", "jump"])
def test_tiled_chunks_match_single_tile(block, unravel, monkeypatch):
    """A tile budget of two trajectories (each 5-trajectory chunk swept
    as tiles of 2, 2 and 1) changes the result only by rounding."""
    rows, per_row = 3, 2**block[1].circuit.n_qubits
    assert 5 * rows * per_row <= traj_mod._TILE_ENTRIES  # one tile today
    single = _tiled_probs(block, unravel, rows)
    monkeypatch.setattr(traj_mod, "_TILE_ENTRIES", 2 * rows * per_row)
    tiled = _tiled_probs(block, unravel, rows)
    assert np.abs(tiled - single).max() < 1e-12


def test_jump_uniform_block_counts_in_chunk_budget(block, monkeypatch):
    """A jump-mode chunk pre-draws one uniform per row and jump step, so
    where jump steps outnumber amplitudes they size the chunk."""
    device, compiled, weights, _inputs = block
    n_qubits = compiled.circuit.n_qubits
    model = device.noise_model.with_relaxation(
        {q: (40.0, 50.0) for q in range(n_qubits)}, (0.05, 0.4)
    )
    rows = 2
    inputs = np.random.default_rng(9).normal(0, 1, (rows, 16))
    sizes = []
    segment_chunk = traj_mod._segment_chunk

    def spy(sweep, n_traj, seed):
        sizes.append((sweep.n_jumps, n_traj))
        return segment_chunk(sweep, n_traj, seed)

    monkeypatch.setattr(traj_mod, "_segment_chunk", spy)
    trajectory_probabilities(
        compiled, model, weights, inputs, rows, n_trajectories=4,
        rng=1, unravel="jump",
    )
    n_jumps = sizes[0][0]
    assert n_jumps > 3 * 2**n_qubits
    # Room for three trajectories' uniforms: by amplitudes alone one
    # chunk would take all four.
    monkeypatch.setattr(traj_mod, "_MAX_STACKED_ENTRIES", 3 * rows * n_jumps)
    sizes.clear()
    trajectory_probabilities(
        compiled, model, weights, inputs, rows, n_trajectories=4,
        rng=1, unravel="jump",
    )
    assert [n_traj for _n, n_traj in sizes] == [3, 1]


@pytest.mark.parametrize("unravel", ["pauli", "jump"])
def test_tiled_chunks_sharded_and_supervised_bit_identical(
    block, unravel, monkeypatch
):
    """Every execution path sweeps the same tiles as the serial run.

    The rows alone split each 5-trajectory chunk into tiles of 4 and 1
    under the default budget, so freshly spawned process workers (which
    would not see a patched budget) tile exactly like the parent.
    """
    import concurrent.futures
    import functools
    import multiprocessing

    from repro.runtime import ChunkSupervisor

    rows = 1024
    per_trajectory = rows * 2**block[1].circuit.n_qubits
    assert per_trajectory < traj_mod._TILE_ENTRIES < 5 * per_trajectory
    serial = _tiled_probs(block, unravel, rows)
    runs = {
        "thread": _tiled_probs(block, unravel, rows, n_workers=2),
        "supervised": _tiled_probs(
            block, unravel, rows, supervisor=ChunkSupervisor()
        ),
        "supervised thread": _tiled_probs(
            block, unravel, rows, n_workers=2, supervisor=ChunkSupervisor()
        ),
    }
    # The lease spawns its process pool under the "spawn" start method.
    spawn_pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context("spawn"),
    )
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn_pool)
    with PoolLease(2, "process") as lease:
        runs["process"] = _tiled_probs(
            block, unravel, rows, n_workers=2, pool=lease,
            shard_backend="process",
        )
    for name, probs in runs.items():
        assert np.array_equal(serial, probs), name


# -- shared pool registry ------------------------------------------------


def test_shared_pool_registry_reuses_and_discards():
    lease = shared_lease("thread", 2)
    assert shared_lease("thread", 2) is lease
    assert shared_lease("thread", 3) is not lease
    a = lease.acquire()
    assert lease.acquire() is a
    lease.discard()
    assert lease.acquire() is not a
    with pytest.raises(ValueError):
        shared_lease("fork_bomb", 2)


def test_sharded_call_without_pool_uses_shared_registry(block):
    shutdown_shared_pools()
    serial = _probs(block)
    out = _probs(block, n_workers=2)
    assert np.array_equal(serial, out)
    held = shared_lease("thread", 2).pool
    assert held is not None
    _probs(block, n_workers=2)
    assert shared_lease("thread", 2).pool is held  # reused, not respawned


# -- every shardable engine: sharded == serial ----------------------------


@pytest.fixture(scope="module")
def clifford_case():
    """A Clifford block under a pure Pauli model: every shardable engine,
    the tableau one included, can run it."""
    device = get_device("santiago")
    n = device.n_qubits
    circuit = Circuit(3)
    for name, qubits in (("h", 0), ("cx", (0, 1)), ("s", 2), ("cx", (1, 2)),
                         ("h", 1), ("x", 2)):
        circuit.add(name, qubits)
    model = NoiseModel(
        n,
        {(gate, q): PauliError(3e-3, 2e-3, 1e-3)
         for q in range(n) for gate in ("sx", "x", "id")},
        {(q, q + 1): PauliError(6e-3, 5e-3, 4e-3) for q in range(n - 1)},
        np.stack([readout_matrix(0.01, 0.02)] * n),
    )
    return transpile(circuit, device, optimization_level=1), model


@pytest.mark.parametrize("supervised", [False, True],
                         ids=["unsupervised", "supervised"])
@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize(
    "spec", [spec for spec in engine_specs() if spec.capabilities.shardable],
    ids=lambda spec: spec.name,
)
def test_every_shardable_engine_shards_bit_identically(
    spec, backend, supervised, clifford_case
):
    compiled, model = clifford_case

    def run(n_workers, supervisor=None):
        executor = spec.factory(
            model, rng=4, samples=24, shots=1024, n_workers=n_workers,
            supervisor=supervisor,
        )
        executor.shard_size = 8  # three chunks to distribute
        executor.shard_backend = backend
        with executor:
            return executor.forward(compiled, None, None)[0]

    serial = run(0)
    supervisor = ChunkSupervisor(label=spec.name) if supervised else None
    assert np.array_equal(serial, run(2, supervisor))


# -- row-banded stacked training sweeps ----------------------------------


def test_gate_insertion_banded_matches_serial_and_across_workers(block):
    device, compiled, weights, inputs = block

    def run(n_workers):
        ex = GateInsertionExecutor(
            device.noise_model, rng=7, n_realizations=5, n_workers=n_workers
        )
        try:
            out, _ = ex.forward(compiled, weights, inputs)
        finally:
            ex.close()
        return out

    serial, banded2, banded3 = run(0), run(2), run(3)
    # Banding regroups the float reductions: tolerance vs serial, but
    # the fixed per-realization band layout makes every worker count
    # produce the same bits.
    assert np.allclose(serial, banded2, atol=1e-10)
    assert np.array_equal(banded2, banded3)


def test_mcwf_banded_pauli_only_matches_serial(block):
    device, compiled, weights, inputs = block

    def run(n_workers, model):
        ex = MCWFTrainExecutor(
            model, rng=9, n_realizations=4, n_workers=n_workers
        )
        try:
            out, _ = ex.forward(compiled, weights, inputs)
        finally:
            ex.close()
        return out

    pauli = device.noise_model
    serial, banded2, banded3 = (
        run(0, pauli), run(2, pauli), run(3, pauli)
    )
    assert np.allclose(serial, banded2, atol=1e-10)
    assert np.array_equal(banded2, banded3)

    # Relaxation channels sample jumps from the evolving state, so the
    # sweep cannot defer op application into bands; n_workers > 0 must
    # quietly fall back to the serial sweep, bit for bit.
    relax = device.hardware_model.with_relaxation(
        {q: (50.0, 60.0) for q in range(device.n_qubits)}, (0.035, 0.30)
    )
    assert np.array_equal(run(0, relax), run(2, relax))


@pytest.mark.parametrize("executor_cls", [
    GateInsertionExecutor, MCWFTrainExecutor,
    TrajectoryEvalExecutor, StabilizerEvalExecutor,
])
def test_sharding_setters_validate_like_constructors(executor_cls):
    """Assigning n_workers / shard_backend runs the constructors' check.

    An unchecked backend name used to reach the lease, which spawned a
    process pool for anything but "thread"; a negative worker count ran
    silently.  The training executors band one shared buffer pair, so
    they take threads only.
    """
    ex = executor_cls(get_device("santiago").noise_model)
    with pytest.raises(ValueError, match="shard_backend"):
        ex.shard_backend = "gpu"
    with pytest.raises(ValueError, match="n_workers"):
        ex.n_workers = -1
    assert (ex.lease.n_workers, ex.lease.backend) == (0, "thread")
    ex.n_workers = 2
    if issubclass(executor_cls, GateInsertionExecutor):
        with pytest.raises(ValueError, match="shard_backend must be 'thread'"):
            ex.shard_backend = "process"
        assert (ex.lease.n_workers, ex.lease.backend) == (2, "thread")
    else:
        ex.shard_backend = "process"
        assert (ex.lease.n_workers, ex.lease.backend) == (2, "process")
    ex.close()


@pytest.mark.parametrize("executor_cls", [GateInsertionExecutor, MCWFTrainExecutor])
def test_training_executors_refuse_process_bands(block, executor_cls):
    """Process workers would band pickled copies of the shared buffers.

    Both training executors used to accept ``shard_backend = "process"``
    and then return wrong expectations from the banded sweep (max
    |process - serial| = 1.79 on santiago's block at R = 4, 2 workers,
    8 rows).  The setter now refuses it, and the banded sweep refuses a
    process lease that reaches it another way, before any pool spawns.
    """
    device, compiled, weights, inputs = block
    ex = executor_cls(device.noise_model, rng=0, n_realizations=4, n_workers=2)
    with pytest.raises(ValueError, match="thread"):
        ex.shard_backend = "process"
    ex.lease.backend = "process"
    with pytest.raises(ValueError, match="thread lease"):
        ex.forward(compiled, weights, inputs)
    assert ex.lease.pool is None
    ex.close()
    with PoolLease(2, "process") as lease:
        with pytest.raises(ValueError, match="thread lease"):
            run_ops_banded([], 2, 4, 2, lease)
        assert lease.pool is None


def test_executor_pool_is_persistent_until_closed(block):
    device, _, _, _ = block
    ex = GateInsertionExecutor(device.noise_model, rng=0, n_workers=2)
    pool = ex.lease.acquire()
    assert ex.lease.acquire() is pool  # held across calls
    ex.close()
    fresh = ex.lease.acquire()
    assert fresh is not pool
    ex.close()


# -- training factories forward n_workers --------------------------------


def test_train_factories_forward_n_workers():
    device = get_device("santiago")
    injection = InjectionConfig(GATE_INSERTION, 1.0, n_realizations=2)
    for name in ("gate_insertion", "mcwf"):
        factory = engine_spec(name).train.executor_factory
        ex = factory(device.noise_model, injection, rng=0, n_workers=2)
        assert ex.n_workers == 2
        ex.close()
    # The density engine's fused pass has no row axis to band: the
    # uniform signature accepts the knob and ignores it.
    density = engine_spec("density").train.executor_factory(
        device.noise_model, injection, rng=0, n_workers=2
    )
    assert not getattr(density, "n_workers", 0)

"""The one cache type: LRU bounds, per-name counters, circuit stores.

Covers :mod:`repro.utils.cache` itself, the three caches that used to
grow without limit (ZNE folds, QNN derived blocks, ZNE transpilations),
and the counters a small training + evaluation job leaves behind.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import (
    QuantumNATConfig,
    QuantumNATModel,
    TrainConfig,
    get_device,
    load_task,
    paper_model,
    train,
)
from repro.circuits import Circuit
from repro.compiler import transpile
from repro.core.executors import (
    DensityEvalExecutor,
    NoiselessExecutor,
    TrajectoryEvalExecutor,
)
from repro.mitigation import extrapolation, zne
from repro.mitigation.extrapolation import extrapolate_noise_free_std
from repro.qnn import model as qnn_model
from repro.utils.cache import Cache, cache_stats, circuit_cache

_ZERO = {"hits": 0, "misses": 0, "evictions": 0}


def _delta(before: dict, after: dict) -> dict:
    return {
        name: {k: row[k] - before.get(name, _ZERO)[k] for k in row}
        for name, row in after.items()
    }


def _alive(refs) -> int:
    gc.collect()
    return sum(ref() is not None for ref in refs)


# -- Cache ------------------------------------------------------------------


def test_cache_evicts_least_recently_used_and_counts():
    cache = Cache("test.lru", 2)
    before = cache_stats().get("test.lru", _ZERO)
    built = []

    def get(key):
        return cache.get_or_build(key, lambda: built.append(key) or key * 10)

    assert get(1) == 10 and get(2) == 20
    assert get(1) == 10  # hit: 1 becomes most recently used
    assert get(3) == 30  # evicts 2, the least recently used
    assert get(1) == 10
    assert get(2) == 20  # rebuilt
    assert built == [1, 2, 3, 2]
    assert len(cache) == 2
    row = _delta({"test.lru": before}, cache_stats())["test.lru"]
    assert row == {"hits": 2, "misses": 4, "evictions": 2}


def test_cache_counters_sum_per_name_and_survive_clear():
    a, b = Cache("test.shared", 4), Cache("test.shared", 4)
    before = cache_stats().get("test.shared", _ZERO)
    a.get_or_build("k", object)
    b.get_or_build("k", object)
    b.get_or_build("k", object)
    b.clear()
    assert len(b) == 0 and len(a) == 1
    b.get_or_build("k", object)
    row = _delta({"test.shared": before}, cache_stats())["test.shared"]
    assert row == {"hits": 1, "misses": 3, "evictions": 0}


def test_cache_stores_none_and_rejects_empty_bound():
    cache = Cache("test.none", 1)
    calls = []
    assert cache.get_or_build("k", lambda: calls.append(1)) is None
    assert cache.get_or_build("k", lambda: calls.append(1)) is None
    assert calls == [1]
    with pytest.raises(ValueError):
        Cache("test.empty", 0)


def test_cache_stats_is_a_snapshot():
    Cache("test.snapshot", 1).get_or_build(0, object)
    stats = cache_stats()
    stats["test.snapshot"]["hits"] = 99
    assert cache_stats()["test.snapshot"]["hits"] == 0


def test_cache_loses_no_lookup_under_thread_contention():
    """More threads than cores on one small cache: the counters see every
    lookup, the bound holds and each key keeps one value."""
    cache = Cache("test.threads", 2)
    before = cache_stats().get("test.threads", _ZERO)
    n_threads, n_calls = 16, 10000
    errors = []

    def worker(seed):
        keys = np.random.default_rng(seed).integers(0, 3, n_calls)
        try:
            for key in keys.tolist():
                value = cache.get_or_build(key, lambda key=key: ("v", key))
                if value != ("v", key) or len(cache) > cache.maxsize:
                    errors.append((key, value, len(cache)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    row = _delta({"test.threads": before}, cache_stats())["test.threads"]
    assert row["hits"] + row["misses"] == n_threads * n_calls
    assert len(cache) <= cache.maxsize


def test_circuit_cache_drops_every_entry_when_gates_change():
    c = Circuit(1).add("h", 0)
    plans = circuit_cache(c, "test.plans", 4)
    folds = circuit_cache(c, "test.folds", 4)
    plans.get_or_build("a", object)
    assert circuit_cache(c, "test.plans", 4) is plans
    c.add("x", 0)  # same list, new length
    assert circuit_cache(c, "test.plans", 4) is not plans
    assert circuit_cache(c, "test.folds", 4) is not folds
    store = circuit_cache(c, "test.plans", 4)
    c.gates = list(c.gates)  # new list, same length
    assert circuit_cache(c, "test.plans", 4) is not store


def test_circuit_cache_lives_with_its_circuit():
    """No cached plan holds its circuit: the store dies with it."""
    device = get_device("santiago")
    compiled = transpile(paper_model(4, 1, 1, 16, 4).blocks[0], device, 2)
    weights = np.full(compiled.circuit.parameter_table.num_weights, 0.1)
    inputs = np.random.default_rng(0).normal(0, 1, (2, 16))
    NoiselessExecutor().forward_inference(compiled, weights, inputs)
    DensityEvalExecutor(device.noise_model).forward(compiled, weights, inputs)
    TrajectoryEvalExecutor(device.hardware_model, n_trajectories=2).forward(
        compiled, weights, inputs
    )
    zne.cached_fold(compiled.circuit, 3.0)
    ref = weakref.ref(compiled.circuit)
    del compiled
    assert _alive([ref]) == 0


# -- formerly unbounded caches -----------------------------------------------


def test_fold_derived_and_transpile_caches_stay_bounded():
    """More distinct keys than each bound: every cache keeps at most its
    bound, and an immediate repeat still returns the identical object."""
    # cached_fold, keyed on the scale.
    c = Circuit(2).add("h", 0).add("cx", (0, 1)).add("rz", 1, 0.3)
    folds = []
    for k in range(zne._FOLD_CACHE_SIZE + 4):
        folded = zne.cached_fold(c, 1.0 + 0.5 * k)
        assert zne.cached_fold(c, 1.0 + 0.5 * k) is folded
        folds.append(weakref.ref(folded))
    del folded
    fold_cache = circuit_cache(c, "zne.fold", zne._FOLD_CACHE_SIZE)
    assert len(fold_cache) == zne._FOLD_CACHE_SIZE
    assert _alive(folds) == zne._FOLD_CACHE_SIZE

    # QNN.folded_block, keyed on the fold count.
    qnn = paper_model(4, 1, 1, 16, 4)
    derived = []
    for n_folds in range(qnn_model._DERIVED_CACHE_SIZE + 4):
        circuit = qnn.folded_block(0, n_folds)
        assert qnn.folded_block(0, n_folds) is circuit
        derived.append(weakref.ref(circuit))
    del circuit
    derived_cache = circuit_cache(
        qnn.blocks[0], "qnn.derived", qnn_model._DERIVED_CACHE_SIZE
    )
    assert len(derived_cache) == qnn_model._DERIVED_CACHE_SIZE
    assert _alive(derived) == qnn_model._DERIVED_CACHE_SIZE

    # extrapolate_noise_free_std, keyed on the repeat count.
    device = get_device("santiago")
    model = QuantumNATModel(qnn, device, QuantumNATConfig.baseline(), rng=0)
    weights = qnn.init_weights(np.random.default_rng(0))
    x = np.random.default_rng(1).normal(0, 1, (3, 16))
    seen = []

    def factory(compiled, w, inputs):
        seen.append(compiled)
        return NoiselessExecutor().forward(compiled, w, inputs)[0]

    bound = extrapolation._TRANSPILE_CACHE.maxsize
    compiled_refs = []
    for k in range(1, bound + 5):
        seen.clear()
        extrapolate_noise_free_std(model, weights, x, factory, repeats=(k, k + 1))
        first = list(seen)
        seen.clear()
        extrapolate_noise_free_std(model, weights, x, factory, repeats=(k, k + 1))
        assert all(a is b for a, b in zip(first, seen))
        compiled_refs.extend(
            weakref.ref(comp) for comp in first
            if not any(ref() is comp for ref in compiled_refs)
        )
    del first
    seen.clear()
    assert len(extrapolation._TRANSPILE_CACHE) <= bound
    assert _alive(compiled_refs) <= bound


# -- counters after a job ------------------------------------------------------


def test_cache_stats_count_a_training_and_predict_job():
    task = load_task("mnist-4", n_train=32, n_valid=16, n_test=16, seed=1)
    device = get_device("santiago")
    qnn = paper_model(4, 2, 2, 16, 4)
    model = QuantumNATModel(qnn, device, QuantumNATConfig.full(0.5, 5), rng=1)
    before = cache_stats()
    weights = train(
        model, task.train_x, task.train_y, task.valid_x, task.valid_y,
        TrainConfig(epochs=1, batch_size=16, seed=1),
    ).weights
    model.predict(weights, task.test_x, NoiselessExecutor())
    model.predict(weights, task.test_x, DensityEvalExecutor(device.noise_model))
    model.predict(
        weights, task.test_x,
        TrajectoryEvalExecutor(device.hardware_model, n_trajectories=4, rng=2),
    )
    job = _delta(before, cache_stats())
    touched = {name for name, row in job.items() if row["hits"] + row["misses"]}
    assert touched >= {
        "bind.plan", "fusion.plan", "fusion.segments",
        "superop.plan", "superop.segments",
    }
    # Every gate-insertion step binds a freshly sampled circuit.
    assert job["bind.plan"]["misses"] > 0

    mid = cache_stats()
    model.predict(weights, task.test_x, DensityEvalExecutor(device.noise_model))
    repeat = _delta(mid, cache_stats())
    for name in ("superop.plan", "superop.segments"):
        assert repeat[name]["misses"] == 0
        assert repeat[name]["hits"] > 0


def test_density_job_caches_only_plans_and_segments():
    """A density-training epoch and two fixed-weight density predicts
    reuse the superoperator plans and fused segments, and no cache keyed
    on a weight vector holds bound gates or training sites: every step
    brings new weights."""
    from dataclasses import replace

    from repro.core.executors import DensityTrainExecutor

    task = load_task("mnist-4", n_train=16, n_valid=8, n_test=8, seed=1)
    device = get_device("santiago")
    relaxing = device.hardware_model.with_relaxation(
        {q: (50.0 + 10 * q, 60.0 + 8 * q) for q in range(device.n_qubits)},
        (0.035, 0.30),
    )
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), replace(device, noise_model=relaxing),
        QuantumNATConfig.full(0.5, 5), rng=1,
    )
    assert isinstance(model._train_executor, DensityTrainExecutor)
    before = cache_stats()
    weights = train(
        model, task.train_x, task.train_y, task.valid_x, task.valid_y,
        TrainConfig(epochs=1, batch_size=8, seed=1),
    ).weights
    for _ in range(2):
        model.predict(weights, task.test_x, DensityEvalExecutor(relaxing))
    job = _delta(before, cache_stats())
    assert job["superop.train_segments"]["hits"] > 0
    assert job["superop.segments"]["hits"] > 0
    assert {name for name in job if name.startswith(("bind.", "superop."))} == {
        "bind.plan", "superop.plan", "superop.segments", "superop.train_segments",
    }

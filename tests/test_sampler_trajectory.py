"""Error-gate sampling and trajectory execution."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.compiler import transpile
from repro.compiler.fusion import FusionPlan
from repro.compiler.passes import CompiledCircuit
from repro.core.executors import GateInsertionExecutor
from repro.noise import (
    ErrorGateSampler,
    NoiseModel,
    PauliError,
    get_device,
    readout_matrix,
    run_noisy_density,
    run_noisy_trajectories,
)
from repro.noise.sampler import noise_sites
from repro.noise.trajectory import (
    _PAULI_STACK,
    _chunk_sweep,
    _segment_chunk,
    _training_plan,
    stacked_noisy_forward_with_tape,
    trajectory_probabilities,
    trajectory_probabilities_reference,
)
from repro.qnn import paper_model
from repro.utils import cache_stats


def _toy_model(rate=0.2):
    return NoiseModel(
        2,
        {("sx", q): PauliError(rate / 3, rate / 3, rate / 3) for q in range(2)},
        {(0, 1): PauliError(0.1, 0.1, 0.05)},
        np.stack([readout_matrix(0.0, 0.0)] * 2),
    )


def test_sampler_inserts_with_expected_frequency():
    model = _toy_model(rate=0.3)
    sampler = ErrorGateSampler(model, noise_factor=1.0)
    circuit = Circuit(2)
    for _ in range(50):
        circuit.add("sx", 0)
    rng = np.random.default_rng(0)
    inserted = []
    for _ in range(40):
        _noisy, stats = sampler.sample(circuit, (0, 1), rng)
        inserted.append(stats.n_inserted)
    mean_rate = np.mean(inserted) / 50
    assert abs(mean_rate - 0.3) < 0.05


def test_noise_factor_scales_insertion_rate():
    model = _toy_model(rate=0.3)
    circuit = Circuit(2)
    for _ in range(60):
        circuit.add("sx", 0)
    low = ErrorGateSampler(model, 0.1).expected_overhead(circuit, (0, 1))
    high = ErrorGateSampler(model, 1.0).expected_overhead(circuit, (0, 1))
    assert high == pytest.approx(10 * low)


def test_sampler_skips_virtual_gates():
    model = _toy_model(rate=1.0)
    circuit = Circuit(2).add("rz", 0, 0.4)
    sampler = ErrorGateSampler(model, 1.0)
    noisy, stats = sampler.sample(circuit, (0, 1), rng=1)
    assert stats.n_inserted == 0
    assert len(noisy) == 1


def test_gate_insertion_overhead_below_two_percent_on_real_devices():
    """Paper: 'The gate insertion overhead is typically less than 2%.'"""
    device = get_device("santiago")
    qnn = paper_model(4, 1, 2, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    sampler = ErrorGateSampler(device.noise_model, noise_factor=1.0)
    overhead = sampler.expected_overhead(
        compiled.circuit, compiled.physical_qubits
    )
    assert overhead < 0.02


def test_coherent_gates_inserted_for_hardware_models():
    model = _toy_model(rate=0.0).with_coherent({0: (0.1, 0.2)})
    circuit = Circuit(2).add("sx", 0).add("sx", 1)
    sampler = ErrorGateSampler(model, 1.0)
    noisy, _stats = sampler.sample(circuit, (0, 1), rng=0)
    names = [g.name for g in noisy.gates]
    # qubit 0 has coherent rotations appended; qubit 1 does not.
    assert names == ["sx", "ry", "rz", "sx"]


def test_trajectories_converge_to_density():
    device = get_device("santiago")
    qnn = paper_model(4, 1, 1, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(3)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (3, 16))
    exact = run_noisy_density(compiled, device.noise_model, weights, inputs)
    approx = run_noisy_trajectories(
        compiled,
        device.noise_model,
        weights,
        inputs,
        n_trajectories=300,
        shots=None,
        rng=7,
    )
    assert np.abs(exact - approx).max() < 0.05


def test_shot_noise_scale():
    device = get_device("santiago")
    qnn = paper_model(4, 1, 1, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(4)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (2, 16))
    exact = run_noisy_density(
        compiled, device.noise_model, weights, inputs, shots=None
    )
    sampled = run_noisy_density(
        compiled,
        device.noise_model,
        weights,
        inputs,
        shots=8192,
        rng=np.random.default_rng(0),
    )
    # 8192 shots -> std <= 1/sqrt(8192) ~ 0.011 per qubit.
    assert np.abs(exact - sampled).max() < 0.06


def test_density_rejects_wide_circuits():
    device = get_device("melbourne")
    qnn = paper_model(10, 1, 1, 36, 10)
    compiled = transpile(qnn.blocks[0], device, 2)
    with pytest.raises(ValueError, match="too large"):
        run_noisy_density(compiled, device.noise_model, qnn.init_weights(0),
                          np.zeros((1, 36)))


def test_noisier_device_degrades_expectations_more():
    rng = np.random.default_rng(5)
    qnn = paper_model(4, 1, 2, 16, 4)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (4, 16))
    from repro.sim.statevector import run_circuit, z_expectations

    clean_state, _ = run_circuit(qnn.blocks[0], weights, inputs)
    clean = z_expectations(clean_state, 4)
    distances = {}
    for name in ("santiago", "yorktown"):
        device = get_device(name)
        compiled = transpile(qnn.blocks[0], device, 2)
        noisy = run_noisy_density(compiled, device.noise_model, weights, inputs)
        distances[name] = np.abs(noisy - clean).mean()
    assert distances["yorktown"] > distances["santiago"]


# -- the noise-site table ---------------------------------------------------


def test_noise_sites_follow_channel_order_per_gate_kind():
    """Pauli, then relaxation (non-virtual), then coherent (driven)."""
    device = get_device("santiago")
    model = device.hardware_model.with_relaxation(
        {q: (50.0, 60.0) for q in range(device.n_qubits)}, (0.035, 0.30)
    )
    circuit = (
        Circuit(2).add("rz", 0, 0.4).add("id", 0).add("sx", 1).add("cx", (0, 1))
    )
    table = noise_sites(circuit, (0, 1), model, 1.0)
    kinds = [[(kind, q) for kind, q, _payload in sites] for sites in table]
    assert kinds == [
        [],
        [("pauli", 0), ("relaxation", 0)],
        [("pauli", 1), ("relaxation", 1), ("coherent", 1)],
        [("pauli", 0), ("pauli", 1), ("relaxation", 0), ("relaxation", 1),
         ("coherent", 0), ("coherent", 1)],
    ]
    (_k, _q, (error, probs)), (_k, _q, (kraus, effects)) = table[1]
    assert np.array_equal(probs, error.probabilities())
    assert np.allclose(effects.sum(axis=0), np.eye(2))
    assert np.array_equal(effects, np.einsum("mij,mik->mjk", kraus.conj(), kraus))
    assert table[2][2][2] == model.coherent_for(1)


def test_zero_factor_sampler_keeps_and_draws_every_pauli_site():
    device = get_device("santiago")
    qnn = paper_model(4, 1, 2, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    args = (compiled.circuit, compiled.physical_qubits)
    pauli = [
        payload
        for sites in noise_sites(*args, device.noise_model, 0.0)
        for kind, _q, payload in sites
        if kind == "pauli"
    ]
    assert pauli and all(error.total == 0 for error, _p in pauli)
    rng = np.random.default_rng(5)
    noisy, stats = ErrorGateSampler(device.noise_model, 0.0).sample(*args, rng)
    assert stats.n_inserted == 0 and noisy.gates == compiled.circuit.gates
    expected = np.random.default_rng(5)
    for _error, probs in pauli:
        expected.choice(4, p=probs)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_noise_site_table_is_built_once_per_block():
    device = get_device("santiago")
    qnn = paper_model(4, 1, 2, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    weights = qnn.init_weights(0)
    inputs = np.random.default_rng(1).normal(0, 1, (2, 16))
    executor = GateInsertionExecutor(device.noise_model, rng=0)
    before = cache_stats().get("noise.sites", {"hits": 0, "misses": 0})
    for _ in range(3):
        executor.forward(compiled, weights, inputs)
    after = cache_stats()["noise.sites"]
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] >= 2


# -- one Pauli draw per step -------------------------------------------------


def _santiago_block():
    device = get_device("santiago")
    qnn = paper_model(4, 1, 2, 16, 4)
    return device, qnn, transpile(qnn.blocks[0], device, 2)


def test_sample_draws_what_a_per_site_choice_loop_draws():
    """One stacked draw per sample: at T = 5, where most samples insert,
    the circuits and the generator state afterwards equal one
    ``rng.choice(4, p=probs)`` per Pauli site, in table order (coherent
    RY, RZ pairs follow each driven gate's Paulis)."""
    device, _qnn, compiled = _santiago_block()
    model = device.hardware_model
    args = (compiled.circuit, compiled.physical_qubits)
    table = noise_sites(*args, model, 5.0)
    sampler = ErrorGateSampler(model, 5.0)
    rng, expected_rng = np.random.default_rng(3), np.random.default_rng(3)
    total = 0
    for _ in range(5):
        noisy, stats = sampler.sample(*args, rng)
        expected, inserted = [], 0
        for gate, sites in zip(compiled.circuit.gates, table):
            expected.append((gate.name, gate.qubits))
            for kind, local_q, payload in sites:
                if kind == "pauli":
                    choice = expected_rng.choice(4, p=payload[1])
                    if choice:
                        expected.append(("ixyz"[choice], (local_q,)))
                        inserted += 1
                elif kind == "coherent":
                    expected += [("ry", (local_q,)), ("rz", (local_q,))]
        assert [(g.name, g.qubits) for g in noisy.gates] == expected
        assert stats.n_inserted == inserted
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        total += inserted
    assert total > 0


def test_stacked_noisy_tape_draws_what_a_per_site_choice_loop_draws():
    """At R = 3 every Pauli site's realizations come from one stacked
    draw: the tape's gate-level ops carry the same choices, insertion
    count and generator state as one ``rng.choice(4, size=3, p=probs)``
    per site, in table order."""
    device, qnn, compiled = _santiago_block()
    model = device.noise_model
    table = noise_sites(compiled.circuit, compiled.physical_qubits, model, 5.0)
    weights = qnn.init_weights(0)
    inputs = np.random.default_rng(1).normal(0, 1, (2, 16))
    rng, expected_rng = np.random.default_rng(4), np.random.default_rng(4)
    _exp, tape, n_inserted = stacked_noisy_forward_with_tape(
        compiled, ErrorGateSampler(model, 5.0), weights, inputs, 3, rng
    )
    ops = tape.ops
    expected = []
    for sites in table:  # the published model has Pauli sites only
        expected.append(None)
        for _kind, local_q, payload in sites:
            choices = expected_rng.choice(4, size=3, p=payload[1])
            if choices.any():
                expected.append((local_q, choices))
    assert len(ops) == len(expected)
    inserted = 0
    for op, want in zip(ops, expected):
        if want is not None:
            local_q, choices = want
            assert op.qubits == (local_q,)
            assert np.array_equal(
                op.matrix, np.repeat(_PAULI_STACK[choices], 2, axis=0)
            )
            inserted += np.count_nonzero(choices)
    assert n_inserted == inserted > 0
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def test_single_realization_steps_without_insertions_reuse_the_block_plan():
    """At T = 0 nothing is ever inserted, so every R = 1 step runs the
    block's own circuit through its cached bind plan: no step after the
    first builds a plan."""
    device, qnn, compiled = _santiago_block()
    weights = qnn.init_weights(0)
    inputs = np.random.default_rng(1).normal(0, 1, (2, 16))
    executor = GateInsertionExecutor(device.noise_model, 0.0, rng=0)
    executor.forward(compiled, weights, inputs)
    before = cache_stats()["bind.plan"]
    for _ in range(10):
        _logits, cache = executor.forward(compiled, weights, inputs)
        assert cache.tape.circuit is compiled.circuit
    after = cache_stats()["bind.plan"]
    assert after["misses"] == before["misses"]
    assert after["hits"] - before["hits"] >= 10


# -- trajectory chunks sweep the block's one noisy plan -----------------------


def test_noisy_plan_at_zero_noise_is_the_noiseless_fusion_plan():
    """With no error site that can fire, the block's noisy plan cuts and
    fuses the block exactly like the noiseless fusion plan."""
    device = get_device("santiago")
    qnn = paper_model(4, 1, 2, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    noiseless = FusionPlan(compiled.circuit)
    quiet = _training_plan(compiled, ErrorGateSampler(device.noise_model, 0.0))
    assert quiet is not noiseless
    assert quiet._layout == noiseless._layout and quiet.slot_qubits == {}
    weights = qnn.init_weights(0)
    inputs = np.random.default_rng(0).normal(0, 1, (3, 16))
    ops = quiet.fused_ops(weights, inputs)
    expected = noiseless.fused_ops(weights, inputs)
    assert len(ops) == len(expected)
    for op, ref in zip(ops, expected):
        assert op.qubits == ref.qubits and np.array_equal(op.matrix, ref.matrix)
    noisy = _training_plan(compiled, ErrorGateSampler(device.noise_model, 1.0))
    assert noisy._layout != quiet._layout


def test_trajectory_chunks_reuse_the_training_plan():
    """After one gate-insertion step, a trajectory call on the same
    (model, T, layout) finds the block's plan in ``fusion.plan`` and
    builds no plan of its own."""
    device, qnn, compiled = _santiago_block()
    weights = qnn.init_weights(0)
    inputs = np.random.default_rng(1).normal(0, 1, (2, 16))
    GateInsertionExecutor(device.noise_model, 1.0, rng=0).forward(
        compiled, weights, inputs
    )
    before = cache_stats()
    trajectory_probabilities(
        compiled, device.noise_model, weights, inputs, 2, 20, rng=3
    )
    after = cache_stats()
    assert after["fusion.plan"]["misses"] == before["fusion.plan"]["misses"]
    assert after["fusion.plan"]["hits"] > before["fusion.plan"]["hits"]
    zero = {"hits": 0, "misses": 0, "evictions": 0}
    for name, row in after.items():
        if name.startswith("trajectory."):
            assert row == before.get(name, zero), name


def _chunk_matches_training_sweep(compiled, sampler, weights, inputs, n_traj):
    batch = inputs.shape[0]
    seed = np.random.SeedSequence(21)
    sweep = _chunk_sweep(compiled, sampler, weights, inputs, batch)
    chunk = _segment_chunk(sweep, n_traj, seed)
    _exp, tape, _n = stacked_noisy_forward_with_tape(
        compiled, sampler, weights, inputs, n_traj, np.random.default_rng(seed)
    )
    probs = np.abs(tape.state) ** 2
    expected = probs.reshape(n_traj, batch, -1).sum(axis=0)
    assert np.abs(chunk - expected).max() < 1e-12
    return chunk


@pytest.mark.parametrize("tiles", [1, 3])
def test_segment_chunk_is_a_training_sweep_summed(tiles, monkeypatch):
    """A chunk draws what a training step of ``n_traj`` realizations
    draws from the same seed, and sums the same states, on one tile or
    on several."""
    import repro.noise.trajectory as traj_mod

    device, qnn, compiled = _santiago_block()
    inputs = np.random.default_rng(2).normal(0, 1, (3, 16))
    n_traj = 5
    if tiles > 1:
        monkeypatch.setattr(traj_mod, "_TILE_ENTRIES", 2 * 3 * 16)
    sampler = ErrorGateSampler(device.hardware_model, 2.0)
    _chunk_matches_training_sweep(
        compiled, sampler, qnn.init_weights(0), inputs, n_traj
    )


def test_jump_chunk_is_an_mcwf_sweep_summed(monkeypatch):
    """Jump mode: the chunk's ``(jumps, rows)`` uniform block is the one
    an MCWF training step draws right after its Pauli draw."""
    import repro.noise.trajectory as traj_mod

    device, qnn, compiled = _santiago_block()
    model = device.hardware_model.with_relaxation(
        {q: (50.0, 60.0) for q in range(device.n_qubits)}, (0.035, 0.30)
    )
    sampler = ErrorGateSampler(model, 1.0, allow_exact=True)
    inputs = np.random.default_rng(3).normal(0, 1, (2, 16))
    monkeypatch.setattr(traj_mod, "_TILE_ENTRIES", 2 * 2 * 16)
    _chunk_matches_training_sweep(
        compiled, sampler, qnn.init_weights(0), inputs, 4
    )


def test_pauli_unravel_channel_order_matches_reference_exactly():
    """A certain Z after every sx, then a miscalibration whose RY does not
    commute with Z: the fused Pauli sweep must apply each gate, its Pauli
    error, then its coherent rotation, as the sampled reference circuits
    do.  A break placed before its gate, or a coherent rotation placed
    before the error, moves the result by ~0.1."""
    model = NoiseModel(
        1,
        {("sx", 0): PauliError(0.0, 0.0, 1.0)},
        {},
        np.stack([readout_matrix(0.0, 0.0)]),
        coherent={0: (0.7, -0.4)},
    )
    circuit = Circuit(1)
    for _ in range(3):
        circuit.add("sx", 0).add("rz", 0, 0.3)
    compiled = CompiledCircuit(
        circuit=circuit, physical_qubits=(0,), layout={0: 0},
        measure_qubits=(0,), device_name="test",
    )
    fused = trajectory_probabilities(
        compiled, model, None, None, 1, 3, rng=0, unravel="pauli"
    )
    reference = trajectory_probabilities_reference(
        compiled, model, None, None, 1, 3, rng=0
    )
    assert np.abs(fused - reference).max() < 1e-12


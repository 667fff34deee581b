"""Batched-sample training engine edge cases.

The minibatch axis must be semantically invisible: batch-of-1 equals the
single-sample path, splitting a batch changes nothing bit-for-bit, the
ragged final minibatch of an epoch trains fine, and composing the batch
axis with stacked noise realizations matches the retained nested
per-realization / per-sample reference loops.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.compiler import transpile
from repro.core.executors import (
    DensityTrainExecutor,
    GateInsertionExecutor,
    MCWFTrainExecutor,
)
from repro.core.gradients import adjoint_backward, forward_with_tape
from repro.core.injection import GATE_INSERTION, InjectionConfig
from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
from repro.core.training import TrainConfig, iterate_minibatches, train
from repro.noise import NoiseModel, PauliError, get_device, readout_matrix
from repro.noise.sampler import ErrorGateSampler
from repro.noise.trajectory import (
    stacked_noisy_backward,
    stacked_noisy_forward_with_tape,
)
from repro.qnn import paper_model

EXACT = 1e-10


def _compiled_block(seed=0, batch=7):
    qnn = paper_model(4, 1, 2, 16, 4)
    device = get_device("santiago")
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(seed)
    return compiled, qnn.init_weights(rng), rng.normal(0, 1, (batch, 16))


def _coherent_only_model(n_qubits):
    """Deterministic noise: no stochastic Paulis, exact equivalences."""
    return NoiseModel(
        n_qubits,
        {("sx", q): PauliError(0.0, 0.0, 0.0) for q in range(n_qubits)},
        {},
        np.stack([readout_matrix(0.0, 0.0)] * n_qubits),
        coherent={q: (0.02 * (q + 1), -0.015 * (q + 1)) for q in range(n_qubits)},
    )


# ---------------------------------------------------------------------------
# batch axis semantics
# ---------------------------------------------------------------------------


def test_batch_of_one_matches_single_sample_rows():
    compiled, weights, inputs = _compiled_block()
    c = compiled.circuit
    full, _ = forward_with_tape(c, weights, inputs)
    for i in range(inputs.shape[0]):
        row, _ = forward_with_tape(c, weights, inputs[i : i + 1])
        assert np.abs(full[i] - row[0]).max() < 1e-12


def test_batch_splitting_is_bitwise_invisible():
    """Each batch row is computed independently: splitting a minibatch
    into sub-batches reproduces the exact same floats."""
    compiled, weights, inputs = _compiled_block(1)
    c = compiled.circuit
    full, _ = forward_with_tape(c, weights, inputs)
    split = np.vstack(
        [
            forward_with_tape(c, weights, inputs[:4])[0],
            forward_with_tape(c, weights, inputs[4:])[0],
        ]
    )
    assert np.array_equal(full, split)


def test_batched_gradients_sum_of_per_sample_gradients():
    compiled, weights, inputs = _compiled_block(2, batch=5)
    c = compiled.circuit
    rng = np.random.default_rng(3)
    grad = rng.normal(size=(5, c.n_qubits))
    _, tape = forward_with_tape(c, weights, inputs)
    w_full, x_full = adjoint_backward(tape, grad)
    w_sum = 0.0
    for i in range(5):
        _, tape_i = forward_with_tape(c, weights, inputs[i : i + 1])
        w_i, x_i = adjoint_backward(tape_i, grad[i : i + 1])
        w_sum = w_sum + w_i
        assert np.abs(x_full[i] - x_i[0]).max() < EXACT
    assert np.abs(w_full - w_sum).max() < EXACT


# ---------------------------------------------------------------------------
# ragged final minibatch
# ---------------------------------------------------------------------------


def test_iterate_minibatches_ragged_tail():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(19, 3))
    y = rng.integers(0, 2, 19)
    sizes = [
        bx.shape[0] for bx, _ in iterate_minibatches(x, y, 8, np.random.default_rng(1))
    ]
    assert sizes == [8, 8, 3]


def test_training_with_ragged_final_minibatch():
    device = get_device("santiago")
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (19, 16))
    y = rng.integers(0, 4, 19)
    model = QuantumNATModel(
        paper_model(4, 2, 2, 16, 4),
        device,
        QuantumNATConfig.norm_and_injection(0.25),
        rng=0,
    )
    result = train(model, x, y, x[:6], y[:6], TrainConfig(epochs=1, batch_size=8))
    assert result.final_epoch == 1
    assert np.isfinite(result.history[0]["train_loss"])
    assert np.all(np.isfinite(result.weights))


# ---------------------------------------------------------------------------
# batch x noise-realization composition
# ---------------------------------------------------------------------------


def test_stacked_realizations_match_nested_reference_loops_deterministic():
    """With deterministic (coherent-only) noise every realization is the
    same channel, so the fused (realizations x batch) sweep must agree
    with the nested per-realization / per-sample reference loops exactly."""
    device = get_device("santiago")
    noise = _coherent_only_model(device.n_qubits)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (6, 16))
    y = rng.integers(0, 4, 6)
    w = paper_model(4, 2, 2, 16, 4).init_weights(0)

    def make_model(n_realizations):
        cfg = QuantumNATConfig(
            normalize=True,
            quantize=True,
            injection=InjectionConfig(
                GATE_INSERTION, 1.0, n_realizations=n_realizations
            ),
        )
        model = QuantumNATModel(paper_model(4, 2, 2, 16, 4), device, cfg, rng=0)
        model._train_executor = GateInsertionExecutor(
            noise, noise_factor=1.0, rng=0, n_realizations=n_realizations
        )
        return model

    fast = make_model(3)
    reference = make_model(3)
    l_fast, _, g_fast = fast.loss_and_gradients(w, x, y)
    l_ref, _, g_ref = reference.loss_and_gradients_reference(w, x, y)
    assert abs(l_fast - l_ref) < EXACT
    assert np.abs(g_fast - g_ref).max() < EXACT

    # Deterministic noise: averaging 3 identical realizations == 1.
    single = make_model(1)
    l_one, _, g_one = single.loss_and_gradients(w, x, y)
    assert abs(l_fast - l_one) < EXACT
    assert np.abs(g_fast - g_one).max() < EXACT


def test_stacked_realizations_match_reference_statistically():
    """Stochastic Pauli noise: the fused stack and the nested loops draw
    from different rng streams, so they agree only in distribution."""
    compiled, weights, inputs = _compiled_block(4, batch=4)
    hardware = get_device("santiago").hardware_model
    sampler = ErrorGateSampler(hardware, 1.0)
    n_real = 160
    exp_fast, _, _ = stacked_noisy_forward_with_tape(
        compiled, sampler, weights, inputs, n_real, rng=1
    )
    # Nested reference: one realization at a time through the same API.
    total = 0.0
    rng = np.random.default_rng(2)
    for _ in range(n_real):
        exp_r, _, _ = stacked_noisy_forward_with_tape(
            compiled, sampler, weights, inputs, 1, rng=rng
        )
        total = total + exp_r
    assert np.abs(exp_fast - total / n_real).max() < 6.0 / np.sqrt(n_real)


def test_stacked_backward_averages_realization_gradients():
    """R-realization backward == mean of per-realization backwards when
    the channel is deterministic."""
    compiled, weights, inputs = _compiled_block(5, batch=3)
    noise = _coherent_only_model(get_device("santiago").n_qubits)
    sampler = ErrorGateSampler(noise, 1.0)
    grad = np.random.default_rng(6).normal(size=(3, compiled.circuit.n_qubits))

    _, tape_stacked, _ = stacked_noisy_forward_with_tape(
        compiled, sampler, weights, inputs, 4, rng=0
    )
    w_stacked, x_stacked = stacked_noisy_backward(tape_stacked, grad, 4)

    _, tape_single, _ = stacked_noisy_forward_with_tape(
        compiled, sampler, weights, inputs, 1, rng=0
    )
    w_single, x_single = stacked_noisy_backward(tape_single, grad, 1)

    assert np.abs(w_stacked - w_single).max() < EXACT
    assert np.abs(x_stacked - x_single).max() < EXACT


def test_injection_config_realizations_validation():
    with pytest.raises(ValueError):
        InjectionConfig(GATE_INSERTION, n_realizations=0)
    with pytest.raises(ValueError):
        GateInsertionExecutor(get_device("santiago").noise_model, n_realizations=0)
    cfg = InjectionConfig(GATE_INSERTION, 0.5, n_realizations=4)
    assert cfg.with_statistics(0.1, 0.2).n_realizations == 4


def test_train_config_engine_validation():
    with pytest.raises(ValueError):
        TrainConfig(engine="turbo")
    assert TrainConfig(engine="reference").engine == "reference"


def test_reference_step_refuses_executors_it_cannot_sample():
    """The per-sample reference step draws Pauli error circuits.  A density
    trainer has no sampler, and an MCWF trainer's relaxation jumps have no
    gate form: both are refused instead of crashing or dropping channels."""
    device = get_device("santiago")
    relaxing = device.hardware_model.with_relaxation(
        {q: (50.0 + 10 * q, 60.0 + 8 * q) for q in range(device.n_qubits)},
        (0.035, 0.30),
    )
    qnn = paper_model(4, 1, 1, 16, 4)
    weights = qnn.init_weights(0)
    x = np.random.default_rng(0).normal(0, 1, (4, 16))
    y = np.arange(4)
    model = QuantumNATModel(
        qnn, replace(device, noise_model=relaxing), QuantumNATConfig.full(1.0, 5),
        rng=0,
    )
    assert isinstance(model._train_executor, DensityTrainExecutor)
    with pytest.raises(ValueError, match="DensityTrainExecutor"):
        model.loss_and_gradients_reference(weights, x, y)
    model._train_executor = MCWFTrainExecutor(relaxing, rng=3)
    with pytest.raises(ValueError, match="MCWFTrainExecutor"):
        model.loss_and_gradients_reference(weights, x, y)
    # Without exact channels the MCWF trainer samples like gate insertion.
    model._train_executor = MCWFTrainExecutor(device.hardware_model, rng=3)
    loss, _acc, grad = model.loss_and_gradients_reference(weights, x, y)
    assert np.isfinite(loss) and grad.shape == weights.shape


def test_insertion_stats_recorded_for_stacked_path():
    device = get_device("santiago")
    executor = GateInsertionExecutor(
        device.hardware_model, noise_factor=5.0, rng=0, n_realizations=4
    )
    compiled, weights, inputs = _compiled_block(7, batch=3)
    executor.forward(compiled, weights, inputs)
    stats = executor.last_insertion_stats
    assert stats is not None
    assert stats.n_original == 4 * len(compiled.circuit.gates)
    assert stats.n_inserted > 0

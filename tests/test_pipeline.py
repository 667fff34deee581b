"""QuantumNAT pipeline: full forward/backward, configs, inference modes."""

import numpy as np
import pytest

from repro.core import (
    DensityEvalExecutor,
    GateInsertionExecutor,
    InjectionConfig,
    NoiselessExecutor,
    QuantumNATConfig,
    QuantumNATModel,
)
from repro.core.gradients import finite_difference_gradients
from repro.noise import NoiseModel, PauliError, get_device, readout_matrix
from repro.qnn import paper_model

RNG = np.random.default_rng(21)


def _small_model(config, device="santiago", blocks=2, layers=1, rng=0):
    qnn = paper_model(4, blocks, layers, 16, 4)
    return QuantumNATModel(qnn, get_device(device), config, rng=rng)


def test_baseline_gradients_match_fd():
    model = _small_model(QuantumNATConfig.baseline())
    weights = model.qnn.init_weights(1)
    inputs = RNG.uniform(-1, 1, (4, 16))
    labels = np.array([0, 1, 2, 3])
    loss, acc, grad = model.loss_and_gradients(weights, inputs, labels)
    assert np.isfinite(loss) and 0 <= acc <= 1

    def f(w):
        c = model.forward_train(w, inputs)
        from repro.core.losses import cross_entropy

        return cross_entropy(c.logits, labels)[0]

    fd = finite_difference_gradients(f, weights, eps=1e-5)
    assert np.allclose(grad, fd, atol=1e-4)


def test_norm_config_gradients_match_fd():
    model = _small_model(QuantumNATConfig.norm_only())
    weights = model.qnn.init_weights(2)
    inputs = RNG.uniform(-1, 1, (6, 16))
    labels = np.array([0, 1, 2, 3, 0, 1])
    _, _, grad = model.loss_and_gradients(weights, inputs, labels)

    def f(w):
        c = model.forward_train(w, inputs)
        from repro.core.losses import cross_entropy

        return cross_entropy(c.logits, labels)[0]

    fd = finite_difference_gradients(f, weights, eps=1e-5)
    assert np.allclose(grad, fd, atol=1e-4)


def test_quantized_pipeline_runs_and_produces_finite_grads():
    config = QuantumNATConfig(
        normalize=True,
        quantize=True,
        n_levels=5,
        injection=InjectionConfig(strategy=None),
    )
    model = _small_model(config)
    weights = model.qnn.init_weights(3)
    inputs = RNG.uniform(-1, 1, (8, 16))
    labels = RNG.integers(0, 4, 8)
    loss, _acc, grad = model.loss_and_gradients(weights, inputs, labels)
    assert np.isfinite(loss)
    assert np.isfinite(grad).all()
    assert np.abs(grad).sum() > 0


def test_gate_insertion_readout_backward_is_exact_when_paulis_off():
    """With zero Pauli rates the injection executor is deterministic
    (readout affine only) and its gradient must match FD exactly."""
    device = get_device("santiago")
    zero_pauli = NoiseModel(
        device.n_qubits,
        {k: PauliError(0, 0, 0) for k in device.noise_model.one_qubit},
        {k: PauliError(0, 0, 0) for k in device.noise_model.two_qubit},
        device.noise_model.readout.copy(),
    )
    qnn = paper_model(4, 1, 1, 16, 4)
    model = QuantumNATModel(qnn, device, QuantumNATConfig.baseline(), rng=0)
    model._train_executor = GateInsertionExecutor(zero_pauli, 1.0, rng=0)
    weights = qnn.init_weights(4)
    inputs = RNG.uniform(-1, 1, (3, 16))
    labels = np.array([0, 1, 2])
    _, _, grad = model.loss_and_gradients(weights, inputs, labels)

    def f(w):
        c = model.forward_train(w, inputs)
        from repro.core.losses import cross_entropy

        return cross_entropy(c.logits, labels)[0]

    fd = finite_difference_gradients(f, weights, eps=1e-5)
    assert np.allclose(grad, fd, atol=1e-4)


def test_transform_final_controls_last_block():
    inputs = RNG.uniform(-1, 1, (16, 16))
    cfg_multi = QuantumNATConfig(
        normalize=True, quantize=True, injection=InjectionConfig(strategy=None)
    )
    model = _small_model(cfg_multi, blocks=1)
    weights = model.qnn.init_weights(0)
    logits_raw = model.predict(weights, inputs)
    cfg_final = QuantumNATConfig(
        normalize=True,
        quantize=True,
        injection=InjectionConfig(strategy=None),
        transform_final=True,
    )
    model_final = _small_model(cfg_final, blocks=1)
    logits_final = model_final.predict(weights, inputs)
    # transform_final quantizes the head inputs -> logits land on the grid.
    scaled = logits_final / cfg_final.logit_scale
    step = model_final.quantizer.step
    assert np.allclose(np.round(scaled / step) * step, scaled, atol=1e-9)
    assert not np.allclose(logits_raw, logits_final)


def test_predict_deterministic_noise_free():
    model = _small_model(QuantumNATConfig.full(0.5, 5))
    weights = model.qnn.init_weights(5)
    inputs = RNG.uniform(-1, 1, (5, 16))
    a = model.predict(weights, inputs)
    b = model.predict(weights, inputs)
    assert np.allclose(a, b)


def test_fixed_stats_mode_changes_normalization():
    model = _small_model(QuantumNATConfig.norm_only())
    weights = model.qnn.init_weights(6)
    valid = RNG.uniform(-1, 1, (32, 16))
    test = RNG.uniform(-1, 1, (8, 16))
    batch_logits = model.predict(weights, test)
    model.fixed_stats = model.profile_statistics(weights, valid)
    fixed_logits = model.predict(weights, test)
    assert batch_logits.shape == fixed_logits.shape
    assert not np.allclose(batch_logits, fixed_logits)
    assert np.isfinite(fixed_logits).all()
    model.fixed_stats = None


def test_outcome_perturbation_strategy_changes_training_forward():
    cfg = QuantumNATConfig(
        normalize=True,
        quantize=False,
        injection=InjectionConfig("outcome_perturbation", 1.0, 0.0, 0.3),
    )
    model = _small_model(cfg, rng=1)
    weights = model.qnn.init_weights(7)
    inputs = RNG.uniform(-1, 1, (4, 16))
    a = model.forward_train(weights, inputs).logits
    b = model.forward_train(weights, inputs).logits
    assert not np.allclose(a, b)  # fresh noise each step


def test_angle_perturbation_strategy_changes_training_forward():
    cfg = QuantumNATConfig(
        normalize=False,
        quantize=False,
        injection=InjectionConfig("angle_perturbation", 1.0, angle_sigma=0.2),
    )
    model = _small_model(cfg, rng=2)
    weights = model.qnn.init_weights(8)
    inputs = RNG.uniform(-1, 1, (4, 16))
    a = model.forward_train(weights, inputs).logits
    b = model.forward_train(weights, inputs).logits
    assert not np.allclose(a, b)


def test_evaluate_with_noisy_executor():
    model = _small_model(QuantumNATConfig.norm_only())
    weights = model.qnn.init_weights(9)
    inputs = RNG.uniform(-1, 1, (6, 16))
    labels = RNG.integers(0, 4, 6)
    executor = DensityEvalExecutor(model.device.noise_model)
    acc, loss = model.evaluate(weights, inputs, labels, executor)
    assert 0 <= acc <= 1 and np.isfinite(loss)


def test_measure_block_outcomes_shapes():
    model = _small_model(QuantumNATConfig.full(0.5, 5))
    weights = model.qnn.init_weights(10)
    inputs = RNG.uniform(-1, 1, (7, 16))
    for block in range(model.n_blocks):
        outcomes = model.measure_block_outcomes(weights, inputs, block)
        assert outcomes.shape == (7, 4)
        assert (np.abs(outcomes) <= 1 + 1e-9).all()


def test_quant_loss_reported_in_cache():
    model = _small_model(QuantumNATConfig.full(0.5, 5))
    weights = model.qnn.init_weights(11)
    inputs = RNG.uniform(-1, 1, (6, 16))
    cache = model.forward_train(weights, inputs)
    assert cache.quant_loss >= 0.0


_CONFIGS = {
    "baseline": QuantumNATConfig.baseline(),
    "norm_only": QuantumNATConfig.norm_only(),
    "norm_injection": QuantumNATConfig.norm_and_injection(0.5),
    "full": QuantumNATConfig.full(0.5, 5),
    "full_r3": QuantumNATConfig(
        injection=InjectionConfig("gate_insertion", 0.5, n_realizations=3)
    ),
    "outcome_perturbation": QuantumNATConfig(
        injection=InjectionConfig("outcome_perturbation", 1.0, 0.0, 0.3)
    ),
    "angle_perturbation": QuantumNATConfig(
        injection=InjectionConfig("angle_perturbation", 1.0, angle_sigma=0.2)
    ),
    "transform_final": QuantumNATConfig(transform_final=True),
}


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("name", ["norm_only", "full"])
def test_last_block_outcomes_through_head_are_predict_logits(name, pinned):
    """Block outcomes come from predict's own path: executor, and batch
    or pinned validation statistics on the blocks before."""
    model = _small_model(_CONFIGS[name], blocks=3, layers=2)
    rng = np.random.default_rng(41)
    weights = model.qnn.init_weights(12)
    inputs = rng.uniform(-1, 1, (16, 16))
    if pinned:
        valid = rng.uniform(-1, 1, (32, 16))
        model.fixed_stats = model.profile_statistics(weights, valid)
    last = model.measure_block_outcomes(weights, inputs, model.n_blocks - 1)
    assert np.array_equal(last @ model.head.T, model.predict(weights, inputs))
    for block in (-1, model.n_blocks):
        with pytest.raises(IndexError):
            model.measure_block_outcomes(weights, inputs, block)


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_profiled_statistics_reproduce_batch_statistics_predict(name, blocks):
    """Pinning a batch's profiled statistics and predicting that batch
    is batch-statistics predict, bit for bit."""
    model = _small_model(_CONFIGS[name], blocks=blocks, layers=2)
    weights = model.qnn.init_weights(13)
    inputs = np.random.default_rng(42).uniform(-1, 1, (16, 16))
    batch_logits = model.predict(weights, inputs)
    model.fixed_stats = model.profile_statistics(weights, inputs)
    assert len(model.fixed_stats) == model.n_blocks
    assert np.array_equal(model.predict(weights, inputs), batch_logits)

"""Noise models: Pauli errors, readout math, scaling, drift, twirling."""

import numpy as np
import pytest

from repro.noise import (
    NoiseModel,
    PauliError,
    get_device,
    noisy_probability_pair,
    pauli_error_from_gate_fidelity,
    readout_affine,
    readout_matrix,
    twirl_to_pauli_error,
    twirl_to_pauli_probs,
    uniform_pauli_error,
    apply_readout_to_expectations,
    apply_readout_to_joint_probabilities,
)
from repro.sim.kraus import (
    amplitude_damping_channel,
    depolarizing_channel,
    pauli_channel,
)


def test_pauli_error_validation():
    with pytest.raises(ValueError):
        PauliError(-0.1, 0, 0)
    with pytest.raises(ValueError):
        PauliError(0.5, 0.4, 0.3)


def test_pauli_error_scaling_and_cap():
    err = PauliError(0.1, 0.1, 0.1)
    scaled = err.scaled(2.0)
    assert scaled.px == pytest.approx(0.2)
    capped = err.scaled(10.0)
    assert capped.total == pytest.approx(1.0)
    assert capped.p_none == pytest.approx(0.0)


def test_paper_yorktown_example_distribution():
    """SX on Yorktown qubit 1: E = {X: .00096, Y: .00096, Z: .00096, None: .99712}."""
    err = uniform_pauli_error(0.00096)
    probs = err.probabilities()
    assert np.allclose(probs, [0.99712, 0.00096, 0.00096, 0.00096])


def test_paper_readout_example():
    """Santiago qubit 0: P(0)=0.3 -> P'(0)=0.31, P'(1)=0.69 (Section 3.2)."""
    matrix = readout_matrix(0.016, 0.022)
    assert np.allclose(matrix, [[0.984, 0.016], [0.022, 0.978]])
    p0, p1 = noisy_probability_pair(0.3, matrix)
    assert p0 == pytest.approx(0.3 * 0.984 + 0.7 * 0.022)
    assert p1 == pytest.approx(0.7 * 0.978 + 0.3 * 0.016)
    assert p0 + p1 == pytest.approx(1.0)
    assert round(p0, 2) == 0.31 and round(p1, 2) == 0.69


def test_readout_affine_consistent_with_probability_pair():
    matrix = readout_matrix(0.03, 0.05)
    a, b = readout_affine(matrix)
    for p0 in (0.0, 0.3, 0.5, 1.0):
        expectation = 2 * p0 - 1
        noisy_p0, _ = noisy_probability_pair(p0, matrix)
        noisy_expectation = 2 * noisy_p0 - 1
        assert noisy_expectation == pytest.approx(a * expectation + b)


def test_readout_expectations_and_joint_agree():
    rng = np.random.default_rng(0)
    readout = np.stack([readout_matrix(0.02, 0.04), readout_matrix(0.01, 0.03)])
    # Product state probabilities for 2 qubits.
    p_bit = rng.uniform(0.2, 0.8, 2)
    joint = np.array(
        [
            [
                (p_bit[0] if not i & 1 else 1 - p_bit[0])
                * (p_bit[1] if not i & 2 else 1 - p_bit[1])
                for i in range(4)
            ]
        ]
    )
    expectations = np.array([[2 * p_bit[0] - 1, 2 * p_bit[1] - 1]])
    via_affine, scales = apply_readout_to_expectations(expectations, readout)
    mixed = apply_readout_to_joint_probabilities(joint, readout)
    from repro.sim.statevector import z_signs

    via_joint = mixed @ z_signs(2).T
    assert np.allclose(via_affine, via_joint, atol=1e-12)
    assert scales.shape == (2,)


def test_readout_rows_sum_to_one_after_mixing():
    readout = np.stack([readout_matrix(0.1, 0.2)])
    probs = np.array([[0.6, 0.4]])
    mixed = apply_readout_to_joint_probabilities(probs, readout)
    assert np.allclose(mixed.sum(axis=1), 1.0)


def test_noise_model_lookup_and_virtual_gates():
    model = NoiseModel(
        2,
        {("sx", 0): PauliError(0.01, 0.01, 0.01)},
        {(0, 1): PauliError(0.05, 0.05, 0.02)},
        np.stack([readout_matrix(0.01, 0.02)] * 2),
    )
    assert model.gate_errors("rz", (0,)) == []  # virtual
    assert len(model.gate_errors("sx", (0,))) == 1
    assert model.gate_errors("sx", (1,)) == []  # no entry
    cx_errors = model.gate_errors("cx", (1, 0))  # order-insensitive lookup
    assert len(cx_errors) == 2
    assert cx_errors[0][0] == 1 and cx_errors[1][0] == 0


def test_noise_model_refuses_invalid_readout_matrices():
    """Every engine reads readout off the model, so the model refuses a
    confusion matrix that is not row-stochastic when it is built."""
    base = get_device("santiago").noise_model
    n = base.n_qubits

    def build(matrix):
        return NoiseModel(
            n, base.one_qubit, base.two_qubit, np.stack([matrix] * n)
        )

    with pytest.raises(ValueError, match="non-negative"):
        build(np.array([[1.05, -0.05], [0.02, 0.98]]))
    with pytest.raises(ValueError, match="sum to 1"):
        build(np.array([[0.7, 0.7], [0.1, 0.9]]))
    with pytest.raises(ValueError, match="shape"):
        NoiseModel(n, base.one_qubit, base.two_qubit, np.stack([np.eye(3)] * n))
    # Rounding below the tolerance is accepted.
    build(np.array([[1.0 + 1e-13, -1e-13], [0.02, 0.98]]))


def test_noise_model_scaled():
    model = NoiseModel(
        1,
        {("sx", 0): PauliError(0.01, 0.01, 0.01)},
        {},
        np.stack([readout_matrix(0.01, 0.02)]),
    )
    scaled = model.scaled(0.5)
    assert scaled.one_qubit[("sx", 0)].px == pytest.approx(0.005)
    # Readout untouched by the noise factor.
    assert np.allclose(scaled.readout, model.readout)


def test_drifted_model_stays_valid_and_differs():
    model = NoiseModel(
        1,
        {("sx", 0): PauliError(0.01, 0.01, 0.01)},
        {},
        np.stack([readout_matrix(0.02, 0.03)]),
    )
    drifted = model.drifted(np.random.default_rng(5), sigma=0.3)
    err = drifted.one_qubit[("sx", 0)]
    assert err.total > 0 and err.total <= 0.9
    assert not np.isclose(err.px, 0.01)
    assert np.allclose(drifted.readout.sum(axis=2), 1.0)


def test_coherent_roundtrip():
    model = NoiseModel(
        1,
        {("sx", 0): PauliError(0.01, 0.01, 0.01)},
        {},
        np.stack([readout_matrix(0.02, 0.03)]),
    )
    assert model.coherent_for(0) is None
    withc = model.with_coherent({0: (0.1, -0.2)})
    assert withc.coherent_for(0) == (0.1, -0.2)
    # scaled() and drifted() preserve the coherent part
    assert withc.scaled(0.5).coherent_for(0) == (0.1, -0.2)
    assert withc.drifted(np.random.default_rng(0)).coherent_for(0) == (0.1, -0.2)


# -- twirling -------------------------------------------------------------------


def test_twirl_pauli_channel_is_identity_operation():
    channel = pauli_channel(0.02, 0.03, 0.04)
    probs = twirl_to_pauli_probs(channel)
    assert np.allclose(probs, [0.91, 0.02, 0.03, 0.04], atol=1e-12)


def test_twirl_depolarizing():
    probs = twirl_to_pauli_probs(depolarizing_channel(0.09))
    assert np.allclose(probs[1:], 0.03, atol=1e-12)


def test_twirl_amplitude_damping_sums_to_one():
    err = twirl_to_pauli_error(amplitude_damping_channel(0.2))
    assert 0 < err.total < 1
    # X and Y components equal for amplitude damping; Z strictly positive.
    assert err.px == pytest.approx(err.py)
    assert err.pz > 0


def test_pauli_error_from_gate_fidelity():
    err = pauli_error_from_gate_fidelity(1.5e-3)
    assert err.px == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        pauli_error_from_gate_fidelity(-1)

"""Stabilizer simulator: agreement with the statevector engine.

A single stabilizer state is a one-trajectory
:class:`~repro.sim.stabilizer.BatchedStabilizerState`; row 0 of its
``(1, n)`` expectations is the state's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.sim.stabilizer import CLIFFORD_GATES, BatchedStabilizerState
from repro.sim.statevector import run_circuit, z_expectations

ONE_QUBIT = ["h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "id"]
TWO_QUBIT = ["cx", "cz", "swap"]


def _random_clifford_circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    circuit = Circuit(n_qubits)
    for _ in range(n_gates):
        if n_qubits > 1 and rng.random() < 0.35:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            circuit.add(TWO_QUBIT[rng.integers(len(TWO_QUBIT))], (int(a), int(b)))
        else:
            circuit.add(
                ONE_QUBIT[rng.integers(len(ONE_QUBIT))], int(rng.integers(n_qubits))
            )
    return circuit


def _state(n_qubits: int) -> BatchedStabilizerState:
    return BatchedStabilizerState(n_qubits, 1)


def _z(state: BatchedStabilizerState, qubit: int) -> float:
    return float(state.z_expectations()[0, qubit])


# -- construction -------------------------------------------------------------


def test_initial_state_is_all_zero():
    state = _state(3)
    assert np.allclose(state.z_expectations()[0], [1.0, 1.0, 1.0])


def test_needs_positive_width():
    with pytest.raises(ValueError, match="at least one"):
        _state(0)


def test_bad_qubit_raises():
    with pytest.raises(ValueError, match="out of range"):
        _state(2).apply("h", 5)


def test_non_clifford_gate_rejected():
    with pytest.raises(ValueError, match="not a supported Clifford"):
        _state(1).apply("t", 0)


def test_run_circuit_rejects_non_clifford():
    circuit = Circuit(1).add("ry", 0, 0.3)
    with pytest.raises(ValueError, match="not Clifford"):
        _state(1).run_circuit(circuit)


# -- single-gate semantics ------------------------------------------------------


def test_x_flips_expectation():
    state = _state(1).apply("x", 0)
    assert _z(state, 0) == -1.0


def test_h_makes_outcome_random():
    state = _state(1).apply("h", 0)
    assert _z(state, 0) == 0.0


def test_hh_is_identity():
    state = _state(1).apply("h", 0).apply("h", 0)
    assert _z(state, 0) == 1.0


def test_sx_squares_to_x():
    state = _state(1).apply("sx", 0).apply("sx", 0)
    assert _z(state, 0) == -1.0


def test_sxdg_inverts_sx():
    state = _state(1).apply("sx", 0).apply("sxdg", 0)
    assert _z(state, 0) == 1.0


def test_cx_copies_excitation():
    state = _state(2).apply("x", 0).apply("cx", (0, 1))
    assert np.allclose(state.z_expectations()[0], [-1.0, -1.0])


def test_swap_moves_excitation():
    state = _state(2).apply("x", 0).apply("swap", (0, 1))
    assert np.allclose(state.z_expectations()[0], [1.0, -1.0])


# -- agreement with the statevector simulator --------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_random_clifford_matches_statevector(seed):
    circuit = _random_clifford_circuit(3, 25, seed)
    tableau = _state(3).run_circuit(circuit)
    state, _ = run_circuit(circuit, batch=1)
    expected = z_expectations(state, 3)[0]
    measured = tableau.z_expectations()[0]
    # Statevector gives continuous values; stabilizer states only ever
    # produce -1, 0 (maximally mixed marginal) or +1.
    assert np.allclose(measured, np.round(expected, 9), atol=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_clifford_matches_statevector_property(seed):
    circuit = _random_clifford_circuit(2, 15, seed)
    tableau = _state(2).run_circuit(circuit)
    state, _ = run_circuit(circuit, batch=1)
    expected = z_expectations(state, 2)[0]
    assert np.allclose(tableau.z_expectations()[0], expected, atol=1e-9)


# -- measurement ---------------------------------------------------------------------


def test_deterministic_measurement():
    state = _state(1).apply("x", 0)
    assert state.measure(0, rng=0)[0] == 1
    assert state.measure(0, rng=1)[0] == 1  # still collapsed


def test_random_measurement_collapses():
    rng = np.random.default_rng(0)
    state = _state(1).apply("h", 0)
    first = state.measure(0, rng)[0]
    # After collapse the outcome is pinned.
    for _ in range(5):
        assert state.measure(0, rng)[0] == first


def test_bell_state_correlations():
    rng = np.random.default_rng(42)
    outcomes = []
    for _ in range(20):
        state = _state(2).apply("h", 0).apply("cx", (0, 1))
        a = state.measure(0, rng)[0]
        b = state.measure(1, rng)[0]
        assert a == b  # perfectly correlated
        outcomes.append(a)
    assert 0 < sum(outcomes) < 20  # both outcomes occur


def test_measurement_statistics_uniform_for_plus_state():
    rng = np.random.default_rng(7)
    ones = 0
    n = 400
    for _ in range(n):
        state = _state(1).apply("h", 0)
        ones += state.measure(0, rng)[0]
    assert 0.4 < ones / n < 0.6


def test_ghz_parity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        state = _state(3).apply("h", 0)
        state.apply("cx", (0, 1)).apply("cx", (1, 2))
        bits = [state.measure(q, rng)[0] for q in range(3)]
        assert len(set(bits)) == 1  # all agree in a GHZ state


# -- scale (the whole point of the tableau) ---------------------------------------------


def test_wide_circuit_runs_fast():
    n = 64  # far beyond any statevector
    state = _state(n)
    for q in range(n):
        state.apply("h", q)
    for q in range(n - 1):
        state.apply("cx", (q, q + 1))
    assert np.allclose(state.z_expectations()[0], 0.0)


def test_copy_is_independent():
    state = _state(2).apply("h", 0)
    clone = state.copy()
    clone.apply("x", 1)
    assert _z(state, 1) == 1.0
    assert _z(clone, 1) == -1.0

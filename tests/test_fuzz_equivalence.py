"""Fuzz: every circuit-rewriting path must preserve the unitary.

One property, many rewriters: compiler lowering, peephole cleanup,
commutation-aware optimization, ZNE folding, QASM roundtrips and the
full device transpile all take a random circuit and must give back the
same operator (up to global phase).  Hypothesis drives the circuit
generator so regressions in any pass show up as shrunk counterexamples.

The channel-equivalence section extends the same treatment to the noisy
engines: random noise models -- Pauli, coherent, readout confusion and
exact T1/T2 relaxation channels together -- must evaluate identically
through the superop-compiled density stream and the per-Kraus reference,
and the compiled readout/relaxation superoperators must match their
Kraus-by-Kraus application on random densities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, ParamExpr
from repro.compiler import cleanup, lower_to_basis, optimize_circuit, transpile
from repro.mitigation import fold_circuit
from repro.noise import get_device
from repro.qasm import from_qasm, to_qasm
from repro.sim.unitary import circuit_unitary, process_fidelity

FIXED_1Q = ["h", "s", "sdg", "t", "tdg", "x", "y", "z", "sx", "sxdg"]
ROTATIONS = ["rx", "ry", "rz", "u1"]
FIXED_2Q = ["cx", "cz", "cy", "swap"]
PARAM_2Q = ["rzz", "rxx", "ryy", "rzx", "crx", "cry", "crz"]


def _circuit_from_seed(seed: int, n_qubits: int = 3, n_gates: int = 16) -> Circuit:
    rng = np.random.default_rng(seed)
    circuit = Circuit(n_qubits)
    for _ in range(n_gates):
        roll = rng.random()
        q = int(rng.integers(n_qubits))
        if roll < 0.35:
            circuit.add(FIXED_1Q[rng.integers(len(FIXED_1Q))], q)
        elif roll < 0.6:
            circuit.add(
                ROTATIONS[rng.integers(len(ROTATIONS))],
                q,
                float(rng.uniform(-np.pi, np.pi)),
            )
        elif roll < 0.7:
            circuit.add("u3", q, *(float(v) for v in rng.uniform(-np.pi, np.pi, 3)))
        elif roll < 0.88:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            circuit.add(FIXED_2Q[rng.integers(len(FIXED_2Q))], (int(a), int(b)))
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            name = PARAM_2Q[rng.integers(len(PARAM_2Q))]
            circuit.add(name, (int(a), int(b)), float(rng.uniform(-np.pi, np.pi)))
    return circuit


def _assert_same_unitary(a: Circuit, b: Circuit, atol: float = 1e-8):
    fid = process_fidelity(circuit_unitary(a), circuit_unitary(b))
    assert fid > 1 - atol, f"fidelity {fid}"


seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_lowering_preserves_unitary(seed):
    circuit = _circuit_from_seed(seed)
    _assert_same_unitary(circuit, lower_to_basis(circuit))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_cleanup_preserves_unitary(seed):
    circuit = lower_to_basis(_circuit_from_seed(seed))
    _assert_same_unitary(circuit, cleanup(circuit))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_optimize_preserves_unitary(seed):
    circuit = lower_to_basis(_circuit_from_seed(seed))
    optimized = optimize_circuit(circuit)
    assert len(optimized) <= len(circuit)
    _assert_same_unitary(circuit, optimized)


@given(seeds, st.sampled_from([1.0, 1.4, 2.0, 3.0]))
@settings(max_examples=20, deadline=None)
def test_folding_preserves_unitary(seed, scale):
    circuit = _circuit_from_seed(seed, n_gates=8)
    _assert_same_unitary(circuit, fold_circuit(circuit, scale))


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_qasm_roundtrip_preserves_unitary(seed):
    circuit = _circuit_from_seed(seed, n_gates=10)
    _assert_same_unitary(circuit, from_qasm(to_qasm(circuit)))


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", [3, 11])
def test_transpile_preserves_semantics(level, seed):
    """Full device compilation: compare via the measurement permutation.

    Transpilation relabels qubits (layout + routing), so raw unitaries
    differ; equality holds after reading expectations back through
    ``measure_qubits``.
    """
    from repro.sim.statevector import run_circuit, z_expectations

    circuit = _circuit_from_seed(seed, n_qubits=3, n_gates=12)
    device = get_device("belem")
    compiled = transpile(circuit, device, optimization_level=level)

    state, _ = run_circuit(circuit, batch=1)
    expected = z_expectations(state, 3)[0]

    state_c, _ = run_circuit(compiled.circuit, batch=1)
    measured = z_expectations(state_c, compiled.circuit.n_qubits)[0]
    reordered = measured[list(compiled.measure_qubits)]
    assert np.allclose(reordered, expected, atol=1e-8)


# ---------------------------------------------------------------------------
# noisy-channel equivalence: compiled density engine vs per-Kraus reference
# ---------------------------------------------------------------------------


def _random_noise_model(seed: int, n_qubits: int):
    """A random full noise model: Pauli + coherent + readout + relaxation."""
    from repro.noise import NoiseModel, PauliError, readout_matrix

    rng = np.random.default_rng(seed + 977)
    one_qubit = {
        (gate, q): PauliError(*rng.uniform(0, 8e-3, 3))
        for q in range(n_qubits)
        for gate in ("sx", "x", "id")
    }
    two_qubit = {
        (q, q + 1): PauliError(*rng.uniform(0, 2e-2, 3))
        for q in range(n_qubits - 1)
    }
    readout = np.stack(
        [
            readout_matrix(*rng.uniform(0, 0.05, 2))
            for _ in range(n_qubits)
        ]
    )
    coherent = {
        q: tuple(rng.normal(0, 0.05, 2)) for q in range(n_qubits)
    }
    t1 = rng.uniform(20.0, 200.0, n_qubits)
    t2 = t1 * rng.uniform(0.2, 2.0, n_qubits)  # physical: T2 <= 2*T1
    relaxation = {q: (float(t1[q]), float(t2[q])) for q in range(n_qubits)}
    return NoiseModel(
        n_qubits, one_qubit, two_qubit, readout, coherent,
        relaxation, (float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.1, 0.5))),
    )


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_density_engines_agree_on_random_full_noise(seed):
    """Superop-compiled vs per-Kraus density on random channels/circuits."""
    from repro.noise import run_noisy_density, run_noisy_density_reference

    circuit = _circuit_from_seed(seed, n_qubits=3, n_gates=10)
    device = get_device("belem")
    compiled = transpile(circuit, device, optimization_level=1)
    model = _random_noise_model(seed, device.n_qubits)
    fast = run_noisy_density(compiled, model)
    ref = run_noisy_density_reference(compiled, model)
    assert np.abs(fast - ref).max() < 1e-9


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_relaxation_superop_matches_per_kraus(seed):
    """Compiled thermal-relaxation channels equal Kraus-by-Kraus applies."""
    from repro.sim.channels import QuantumChannel
    from repro.sim.density import (
        apply_kraus_to_density,
        apply_superop_to_density,
        kraus_superop,
    )

    rng = np.random.default_rng(seed)
    n = 2
    dim = 2**n
    a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    rho = np.einsum("bij,bkj->bik", a, a.conj())
    rho /= np.einsum("bii->b", rho).real[:, None, None]
    t1 = rng.uniform(10.0, 100.0)
    t2 = t1 * rng.uniform(0.1, 2.0)
    kraus = QuantumChannel.thermal_relaxation(
        t1, t2, rng.uniform(0.0, 0.5)
    ).kraus_ops
    for q in range(n):
        fast = apply_superop_to_density(rho, kraus_superop(kraus), (q,), n)
        ref = apply_kraus_to_density(rho, kraus, (q,), n)
        assert np.abs(fast - ref).max() < 1e-12


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_transpile_weighted_circuit_gradient_safety(seed):
    """Symbolic weights survive the whole pipeline with exact values."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(2)
    circuit.add("ry", 0, ParamExpr.weight(0))
    circuit.add("cx", (0, 1))
    circuit.add("rz", 1, ParamExpr.weight(1))
    circuit.add("u3", 0, ParamExpr.weight(2), 0.3, -0.2)
    weights = rng.uniform(-np.pi, np.pi, 3)
    lowered = lower_to_basis(circuit)
    optimized = optimize_circuit(lowered)
    ua = circuit_unitary(circuit, weights)
    ub = circuit_unitary(optimized, weights)
    assert process_fidelity(ua, ub) > 1 - 1e-8

"""The fused training sweep: forward and adjoint on fused gate runs.

Every statevector training forward runs on the sweep of the block's one
:class:`~repro.compiler.fusion.FusionPlan` and the one adjoint reads the
fused rotations' gradients in closed form off the runs' prefix
products.  Each case below differentiates the same tape twice -- once by
the fused adjoint, once by the gate-by-gate reference oracle over the
tape's gate-level ops -- and holds the two to 1e-10.
"""

import numpy as np
import pytest

import repro.sim.statevector as statevector
from repro.circuits import Circuit, ParamExpr
from repro.compiler import transpile
from repro.compiler.passes import CompiledCircuit
from repro.core.executors import GateInsertionExecutor, MCWFTrainExecutor
from repro.core.gradients import (
    adjoint_backward,
    adjoint_backward_reference,
    forward_with_tape,
)
from repro.noise import NoiseModel, PauliError, get_device, readout_matrix
from repro.noise.density_backend import (
    run_noisy_density,
    run_noisy_density_reference,
)
from repro.noise.sampler import ErrorGateSampler
from repro.noise.trajectory import stacked_noisy_forward_with_tape
from repro.qnn import paper_model
from repro.sim.gates import GATES

EXACT = 1e-10


def _santiago_block():
    device = get_device("santiago")
    qnn = paper_model(4, 1, 2, 16, 4)
    return device, qnn, transpile(qnn.blocks[0], device, 2)


def _every_gate_errors(n_qubits: int) -> NoiseModel:
    """Pauli errors after every driven gate, weight rotations included
    (virtual ``rz`` gates carry none)."""
    error = PauliError(0.02, 0.015, 0.02)
    return NoiseModel(
        n_qubits,
        {(name, q): error for name, g in GATES.items() if g.num_qubits == 1
         for q in range(n_qubits)},
        {(a, b): error for a in range(n_qubits) for b in range(a + 1, n_qubits)},
        np.stack([readout_matrix(0.0, 0.0)] * n_qubits),
    )


def _assert_matches_reference(tape, upstream):
    w_fast, x_fast = adjoint_backward(tape, upstream)
    w_ref, x_ref = adjoint_backward_reference(tape, upstream)
    assert np.abs(w_fast - w_ref).max() < EXACT
    assert np.abs(x_fast - x_ref).max() < EXACT
    assert np.abs(w_fast).max() > 0


def _inputs(qnn, batch=5, seed=0):
    rng = np.random.default_rng(seed)
    return qnn.init_weights(rng), rng.normal(0, 1, (batch, 16))


def test_fused_adjoint_matches_reference_noiseless():
    _device, qnn, compiled = _santiago_block()
    weights, inputs = _inputs(qnn)
    _exp, tape = forward_with_tape(compiled.circuit, weights, inputs)
    assert tape.sweep.pieces, "nothing was fused"
    upstream = np.random.default_rng(1).normal(size=(5, 4))
    _assert_matches_reference(tape, upstream)


def test_fused_adjoint_matches_reference_single_realization_insertions():
    """R = 1 at T = 5: every step inserts errors after sx and cx, and the
    sampled draw folds into the block's plan."""
    device, qnn, compiled = _santiago_block()
    weights, inputs = _inputs(qnn, seed=2)
    model = _every_gate_errors(device.n_qubits)
    executor = GateInsertionExecutor(model, 5.0, readout=False, rng=3)
    upstream = np.random.default_rng(4).normal(size=(5, 4))
    for _ in range(3):
        _logits, cache = executor.forward(compiled, weights, inputs)
        assert executor.last_insertion_stats.n_inserted > 0
        assert cache.tape.circuit is compiled.circuit
        _assert_matches_reference(cache.tape, upstream)


def test_fused_adjoint_matches_reference_stacked_realizations():
    """R = 3: errors that differ between realizations split their runs."""
    device, qnn, compiled = _santiago_block()
    weights, inputs = _inputs(qnn, seed=5)
    sampler = ErrorGateSampler(_every_gate_errors(device.n_qubits), 1.0)
    _exp, tape, n_inserted = stacked_noisy_forward_with_tape(
        compiled, sampler, weights, inputs, 3, rng=6
    )
    _exp, noiseless = forward_with_tape(compiled.circuit, weights, inputs)
    assert n_inserted > 0
    assert len(tape.sweep.pieces) > len(noiseless.sweep.pieces), "no run split"
    upstream = np.random.default_rng(7).normal(size=(15, 4)) / 3
    _assert_matches_reference(tape, upstream)


def test_fused_adjoint_matches_reference_with_jumps():
    """MCWF on a relaxation model: every driven gate's jumps split runs,
    and the adjoint restores the ket at each jump."""
    device, qnn, compiled = _santiago_block()
    weights, inputs = _inputs(qnn, seed=8)
    model = device.hardware_model.with_relaxation(
        {q: (50.0 + 10 * q, 60.0 + 8 * q) for q in range(device.n_qubits)},
        (0.035, 0.30),
    )
    executor = MCWFTrainExecutor(model, 1.0, readout=False, rng=9)
    _logits, cache = executor.forward(compiled, weights, inputs)
    assert cache.tape.jump_ops and cache.tape.checkpoints
    upstream = np.random.default_rng(10).normal(size=(5, 4))
    _assert_matches_reference(cache.tape, upstream)


def test_fused_adjoint_matches_reference_with_coherent_constants():
    device, qnn, compiled = _santiago_block()
    weights, inputs = _inputs(qnn, seed=11)
    executor = GateInsertionExecutor(
        device.hardware_model, 1.0, readout=False, rng=12, n_realizations=2
    )
    _logits, cache = executor.forward(compiled, weights, inputs)
    upstream = np.random.default_rng(13).normal(size=(10, 4)) / 2
    _assert_matches_reference(cache.tape, upstream)


def test_fused_adjoint_matches_reference_on_gates_without_generator():
    """u3 and cu3 have no generator: they stand alone between fused runs
    of constants and rotations, and keep the per-op gradient.  Driven
    weight rotations (rx, crz, ryy) carry errors here, so at one
    realization an error slot follows a rotation's own slot."""
    c = Circuit(3)
    for q in range(3):
        c.add("ry", q, ParamExpr.input(q, 0.8))
    c.add("u3", 0, ParamExpr.weight(0), ParamExpr.weight(1, 0.5), 0.3)
    c.add("rz", 0, ParamExpr.weight(2, -1.2, 0.1))
    c.add("sx", 0)
    c.add("cu3", (0, 1), ParamExpr.weight(3), 0.2, ParamExpr.weight(4))
    c.add("rx", 1, ParamExpr.weight(5))
    c.add("cx", (1, 2))
    c.add("crz", (2, 1), ParamExpr.weight(6))
    c.add("u3", 2, ParamExpr.weight(7), ParamExpr.weight(0), ParamExpr.weight(2))
    c.add("ryy", (0, 2), ParamExpr.weight(8, 0.7))
    c.add("h", 0)
    layout = {q: q for q in range(3)}
    compiled = CompiledCircuit(c, (0, 1, 2), layout, (0, 1, 2), "none")
    rng = np.random.default_rng(14)
    weights, inputs = rng.uniform(-1, 1, 9), rng.uniform(-1, 1, (4, 3))
    _exp, tape = forward_with_tape(c, weights, inputs)
    assert tape.sweep.pieces
    standalone = {op.gate.name for op in tape.program if hasattr(op, "gate")}
    assert {"u3", "cu3"} <= standalone
    upstream = rng.normal(size=(4, 3))
    _assert_matches_reference(tape, upstream)
    sampler = ErrorGateSampler(_every_gate_errors(3), 5.0)
    for seed, realizations in enumerate((1, 1, 2)):
        _exp, noisy, n_inserted = stacked_noisy_forward_with_tape(
            compiled, sampler, weights, inputs, realizations, rng=15 + seed
        )
        assert n_inserted > 0
        stacked = np.tile(upstream, (realizations, 1)) / realizations
        _assert_matches_reference(noisy, stacked)


def test_fused_forward_applies_one_kernel_per_run(monkeypatch):
    """The first block of the paper cell's 2Bx4L santiago model is 345
    basis-gate ops; its fused forward applies one kernel per fused run or
    unfused gate."""
    qnn = paper_model(4, 2, 4, 16, 4)
    compiled = transpile(qnn.blocks[0], get_device("santiago"), 2)
    weights, inputs = _inputs(qnn)
    calls = []
    apply = statevector.apply_matrix

    def counted(state, *args, **kwargs):
        calls.append(1)
        return apply(state, *args, **kwargs)

    monkeypatch.setattr(statevector, "apply_matrix", counted)
    forward_with_tape(compiled.circuit, weights, inputs)
    assert len(compiled.circuit.gates) == 345
    assert 0 < len(calls) <= 80


@pytest.mark.parametrize(
    "run", [run_noisy_density, run_noisy_density_reference],
    ids=["superop", "reference"],
)
@pytest.mark.parametrize("shots", [0, -3])
def test_density_refuses_shot_counts_without_an_estimate(run, shots):
    device, qnn, compiled = _santiago_block()
    weights, inputs = _inputs(qnn, batch=2)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        run(compiled, device.noise_model, weights, inputs, shots=shots)

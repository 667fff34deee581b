"""Gate fusion vs the unfused sweep, and the one statevector plan.

Fused runs are exact matrix products of the original gates, so the
fused and unfused statevector sweeps must agree to the engine's 1e-10
bar on every path (shared, mixed and reversed supports).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits import Circuit, ParamExpr
from repro.compiler import transpile
from repro.compiler.fusion import (
    FusedOp,
    FusionPlan,
    _FUSION_CACHE_SIZE,
    _embed,
    constant_op,
    fusion_layout,
    fusion_plan_for,
    input_free,
)
from repro.compiler.superop import SuperOp, embed_superop, fuse_superops
from repro.core.executors import NoiselessExecutor
from repro.core.gradients import forward_with_tape
from repro.noise import get_device
from repro.qnn import paper_model
from repro.sim.statevector import apply_matrix, bind_circuit, run_ops
from repro.utils.cache import cache_stats

EXACT = 1e-10


def _compiled_block(seed=0, batch=6):
    qnn = paper_model(4, 1, 2, 16, 4)
    device = get_device("santiago")
    compiled = transpile(qnn.blocks[0], device, 2)
    rng = np.random.default_rng(seed)
    return compiled, qnn.init_weights(rng), rng.normal(0, 1, (batch, 16))


def test_fused_sweep_matches_unfused_on_compiled_block():
    compiled, weights, inputs = _compiled_block()
    c = compiled.circuit
    ops = bind_circuit(c, weights, inputs)
    fused = FusionPlan(c).fused_ops(weights, inputs)
    assert len(fused) < len(ops) / 3  # the whole point
    ref = run_ops(ops, c.n_qubits, inputs.shape[0])
    out = run_ops(fused, c.n_qubits, inputs.shape[0])
    assert np.abs(ref - out).max() < EXACT


def test_fusion_merges_single_qubit_runs():
    c = Circuit(1)
    for theta in (0.3, -0.7, 1.1):
        c.add("rz", 0, theta)
        c.add("sx", 0)
    ops = bind_circuit(c)
    fused = FusionPlan(c).fused_ops()
    assert len(fused) == 1
    assert isinstance(fused[0], FusedOp)
    assert fused[0].n_merged == 6
    ref = run_ops(ops, 1, 1)
    out = run_ops(fused, 1, 1)
    assert np.abs(ref - out).max() < EXACT


def test_fusion_preserves_isolated_ops():
    """A run of one op keeps its original BoundOp, so structured kernels
    (the CX permutation fast path keys on the matrix object) still fire."""
    c = Circuit(3)
    c.add("h", 0)
    c.add("cx", (1, 2))
    c.add("rz", 0, 0.4)
    ops = bind_circuit(c)
    fused = FusionPlan(c).fused_ops()
    # h/rz on qubit 0 cannot merge with the cx on (1, 2) under a 2-qubit
    # cap, so the cx run stays a singleton and is passed through as-is.
    assert ops[1] in fused


@pytest.mark.parametrize("bit", [0, 1])
def test_embed_gathers_equal_the_expansions_they_replace(bit):
    """The gate and superoperator embeds copy entries by precomputed
    gathers; on random shared complex matrices they must equal the kron
    and einsum expansions, on the low bit and on the high bit."""
    rng = np.random.default_rng(bit)
    eye = np.eye(2, dtype=complex)
    spec = ("ae,cg,bdfh->abcdefgh", "bf,dh,aceg->abcdefgh")[bit]
    for _ in range(20):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        kron = np.kron(eye, m) if bit == 0 else np.kron(m, eye)
        assert np.array_equal(_embed(m, (bit,), (0, 1)), kron)
        s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        full = np.einsum(spec, eye, eye, s.reshape((2,) * 4)).reshape(16, 16)
        assert np.array_equal(embed_superop(s, (bit,), (0, 1)), full)


def test_fusion_handles_reversed_and_mixed_supports():
    rng = np.random.default_rng(0)
    c = Circuit(3)
    c.add("ry", 2, 0.5)
    c.add("cu3", (2, 0), 0.3, -0.2, 0.9)  # reversed order vs sorted support
    c.add("rz", 0, 1.2)
    c.add("cx", (0, 2))
    c.add("x", 2)
    ops = bind_circuit(c)
    fused = FusionPlan(c).fused_ops()
    assert len(fused) < len(ops)
    state = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    ref = state.copy()
    for op in ops:
        ref = apply_matrix(ref, op.matrix, op.qubits, 3)
    out = state.copy()
    for op in fused:
        out = apply_matrix(out, op.matrix, op.qubits, 3)
    assert np.abs(ref - out).max() < EXACT


def test_fusion_passes_through_too_wide_ops():
    wide = SimpleNamespace(qubits=(0, 1, 2), matrix=np.eye(64, dtype=complex),
                           batched=False)
    narrow = SuperOp((0,), np.eye(4, dtype=complex))
    fused = fuse_superops([narrow, wide, narrow])
    assert fused[1] is wide


def test_fusion_layout_cuts_refused_gates_constants_and_breaks():
    """The one cut: a gate ``fusable`` refuses stands alone, a constant op
    joins the open run (after a refused gate it opens the next one), and
    a break ends the run after its own gate.  An error slot joins the
    open run as well, but after a refused gate it stands alone, and a
    jump site after it ends the run."""
    c = Circuit(2)
    c.add("ry", 0, ParamExpr.input(0))
    c.add("rz", 0, 0.3)
    c.add("sx", 0)
    c.add("cx", (0, 1))
    const = constant_op((0,), np.eye(2, dtype=complex))
    site = ("site", 2)
    layout = fusion_layout(c, input_free, [[const], [], [site, const], []])
    assert layout == [0, [const, 1, 2], site, [const, 3]]
    assert fusion_layout(c, input_free) == [0, [1, 2, 3]]
    assert fusion_layout(c, lambda gate: False) == [0, 1, 2, 3]
    alone, joined, last = ("slot", 0, "a"), ("slot", 0, "b"), ("slot", 0, "c")
    jump = ("relaxation", 0, None)
    layout = fusion_layout(c, input_free, [[alone], [joined], [last, jump], []])
    assert layout == [0, alone, [1, joined, 2, last], jump, [3]]


def test_fusion_plan_caches_static_segments_per_weight_vector():
    compiled, weights, inputs = _compiled_block(1)
    c = compiled.circuit
    plan = fusion_plan_for(c)
    assert fusion_plan_for(c) is plan  # memoized on the circuit
    ops_a = plan.fused_ops(weights, inputs)
    ops_b = plan.fused_ops(weights, inputs)
    fused_a = [op for op in ops_a if isinstance(op, FusedOp)]
    fused_b = [op for op in ops_b if isinstance(op, FusedOp)]
    assert fused_a and all(x is y for x, y in zip(fused_a, fused_b))
    # New weights rebuild the static segments.
    ops_c = plan.fused_ops(weights + 0.1, inputs)
    fused_c = [op for op in ops_c if isinstance(op, FusedOp)]
    assert all(x is not y for x, y in zip(fused_a, fused_c))


def test_fusion_plan_cache_evicts_oldest():
    from repro.utils.cache import cache_stats

    compiled, weights, inputs = _compiled_block(2)
    plan = FusionPlan(compiled.circuit)
    first = [op for op in plan.fused_ops(weights, inputs) if isinstance(op, FusedOp)]
    before = cache_stats()["fusion.segments"]["evictions"]
    for k in range(1, _FUSION_CACHE_SIZE + 1):
        plan.fused_ops(weights + 0.01 * k, inputs)
    assert len(plan._cache) == _FUSION_CACHE_SIZE
    assert cache_stats()["fusion.segments"]["evictions"] - before == 1
    refreshed = [
        op for op in plan.fused_ops(weights, inputs) if isinstance(op, FusedOp)
    ]
    assert refreshed[0] is not first[0]


def test_training_and_inference_share_one_plan():
    """A noiseless training forward and a tape-free predict on a fresh
    block build one plan between them: the second call hits it."""
    compiled, weights, inputs = _compiled_block(5)
    before = cache_stats()
    forward_with_tape(compiled.circuit, weights, inputs)
    NoiselessExecutor().forward_inference(compiled, weights, inputs)
    after = cache_stats()
    plans = before.get("fusion.plan", {"hits": 0, "misses": 0})
    assert after["fusion.plan"]["misses"] - plans["misses"] == 1
    assert after["fusion.plan"]["hits"] - plans["hits"] == 1
    assert "fusion.training" not in after


def test_forward_inference_matches_forward():
    compiled, weights, inputs = _compiled_block(3)
    executor = NoiselessExecutor()
    expectations, _cache = executor.forward(compiled, weights, inputs)
    fused = executor.forward_inference(compiled, weights, inputs)
    assert np.abs(expectations - fused).max() < EXACT


def test_predict_uses_fused_inference_and_matches_plain_executor():
    device = get_device("santiago")
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (8, 16))
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel

    model = QuantumNATModel(
        paper_model(4, 2, 2, 16, 4), device, QuantumNATConfig(), rng=0
    )
    w = model.qnn.init_weights(0)

    class PlainExecutor:
        """NoiselessExecutor without the fused-inference fast path."""

        differentiable = True

        def forward(self, compiled, w_local, inp):
            return NoiselessExecutor().forward(compiled, w_local, inp)

    fused_logits = model.predict(w, x)
    plain_logits = model.predict(w, x, executor=PlainExecutor())
    assert np.abs(fused_logits - plain_logits).max() < EXACT

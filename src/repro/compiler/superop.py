"""Superoperator compilation: bound gates + noise channels as one matrix.

The exact noisy density backend ("evaluation with noise model", paper
Table 11) historically walked every gate through a per-Kraus Python
loop: one ``U rho U^dag`` for the gate, then -- per operand qubit -- four
more round trips for the Pauli channel and another for the coherent
miscalibration rotation, each paying two transpose+contract passes over
the density.  This pass precompiles all of that away:

* **Per-site superoperators**: every bound gate is combined with the
  channels that follow it -- its Pauli channel(s), its exact
  thermal-relaxation (amplitude + phase damping) channel(s) when the
  model carries T1/T2, and its coherent miscalibration, read in that
  order from the block's noise-site table
  (:func:`repro.noise.sampler.noise_sites`) -- into a single
  ``(4**k, 4**k)`` superoperator on the gate's support (k <= 2), in the
  :func:`~repro.sim.density.unitary_superop` index convention.  Channel
  factors depend only on the noise model, so each distinct one is built
  once per plan; gate factors follow the bind-plan classification
  (constant / weight-only / input-dependent).  Readout confusion is not
  part of the stream: the engine ends in the probability-space
  measurement tail the trajectory engine shares
  (:func:`repro.noise.readout.measured_expectations`).
* **Segment fusion** through the compiler's one fusion pass
  (:mod:`repro.compiler.fusion`): :func:`~repro.compiler.fusion
  .fusion_layout` cuts the site stream and :func:`fuse_superops` merges
  each of its :func:`~repro.compiler.fusion.greedy_runs`, whose combined
  support stays within two qubits -- a ~200-gate transpiled QNN block
  collapses to a few dozen matrices.
  Inference cuts at input-dependent encoder sites; training cuts at
  every site with a weight or input parameter.
* **Caching**: a plan is built once per (noise model, noise factor,
  layout) and kept in the circuit's :func:`~repro.utils.cache
  .circuit_cache`, so it is rebuilt whenever the circuit's gates change.
  The plan builds each distinct site channel (keyed by the gate's
  support and its sites' payloads) and each constant gate's site
  superoperator once.  Fused inference runs (constant or weight-only
  gates) are retained per weight vector in a small
  :class:`~repro.utils.cache.Cache`, so only a new weight vector binds
  their weight-only gates; fused training runs (constant gates) are
  built once per plan.  A call binds only the gates it rebuilds: the
  input-dependent encoder sites in inference (batched
  superoperators), every site with a parameter in training.

The compiled stream applies through
:func:`repro.sim.density.apply_superop_to_density` (one transpose + one
GEMM per fused operator); ``run_noisy_density_reference`` retains the
per-Kraus loop and the equivalence suite (plus the cross-backend
harness in ``tests/test_cross_backend.py``) holds the two to < 1e-10.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.passes import CompiledCircuit
    from repro.noise.model import NoiseModel
from repro.compiler.fusion import (
    fusion_layout,
    gather_embed,
    gather_index,
    greedy_runs,
    input_free,
)
from repro.sim.density import kraus_superop, superop_is_diagonal, unitary_superop
from repro.sim.kraus import pauli_channel
from repro.sim.statevector import bind_plan_for, weights_key
from repro.utils.cache import Cache, circuit_cache

_EYE2 = np.eye(2, dtype=complex)

#: Fused static superop segments retained per plan, keyed on weight bytes.
_SUPEROP_CACHE_SIZE = 4

#: Noise-keyed plans retained per circuit and kind (noise-site tables,
#: superoperator, trajectory and stabilizer plans, shard payloads): one
#: entry per distinct (noise model, factor, layout).
_PLAN_CACHE_SIZE = 8


class SuperOp:
    """A compiled channel ready for ``apply_superop_to_density``.

    ``matrix`` is ``(4**k, 4**k)`` shared or ``(batch, 4**k, 4**k)``
    per-sample; ``diagonal`` is precomputed so the density kernel's
    structured fast path never re-scans the matrix per call.
    """

    __slots__ = ("qubits", "matrix", "batched", "diagonal", "n_merged")

    def __init__(self, qubits, matrix, n_merged: int = 1):
        self.qubits = tuple(qubits)
        self.matrix = matrix
        self.batched = matrix.ndim == 3
        self.diagonal = superop_is_diagonal(matrix)
        self.n_merged = n_merged


#: Superoperator gathers.  The ``(16, 16)`` tensor axes are [r1, r0, c1,
#: c0] on each side; a 1-qubit superoperator touches (r0, c0) on the low
#: bit or (r1, c1) on the high bit, with deltas on the untouched pair,
#: and a reversed pair swaps the bit roles of the row and column indices
#: on both sides.
_SUPEROP_GATHERS = (
    gather_index(lambda s: np.einsum(
        "ae,cg,bdfh->abcdefgh", _EYE2, _EYE2, s.reshape((2,) * 4)
    ).reshape(16, 16), 4),
    gather_index(lambda s: np.einsum(
        "bf,dh,aceg->abcdefgh", _EYE2, _EYE2, s.reshape((2,) * 4)
    ).reshape(16, 16), 4),
    gather_index(lambda s: s.reshape((2,) * 8).transpose(
        1, 0, 3, 2, 5, 4, 7, 6
    ).reshape(16, 16), 16),
)


def embed_superop(superop: np.ndarray, qubits, support) -> np.ndarray:
    """Expand a superoperator from ``qubits`` onto ``support``.

    Both are qubit tuples in the engine convention (first entry is the
    least significant bit of the operator index).  Handles the same-pair
    reversal and 1q-into-2q cases -- exactly the supports segment fusion
    can produce -- for a shared matrix, as one precomputed gather
    (:func:`~repro.compiler.fusion.gather_embed`).  Fused runs never hold
    an encoder site, so no per-sample matrix is ever embedded.
    """
    return gather_embed(_SUPEROP_GATHERS, superop, qubits, support)


def fuse_superops(ops: "list[SuperOp]") -> "list[SuperOp]":
    """Greedy left-to-right fusion of adjacent superoperators.

    Each run of :func:`~repro.compiler.fusion.greedy_runs` merges into
    one :class:`SuperOp` on the run's support: the product of each op's
    :func:`embed_superop`, the later op from the left.  A run of one
    keeps its original op, and so does an op wider than two qubits,
    which never merges.  Channel composition is plain matrix
    multiplication in superoperator form, so noise channels fuse as
    freely as unitaries -- no Kraus-product explosion.
    """
    fused: "list[SuperOp]" = []
    for run in greedy_runs([op.qubits for op in ops]):
        if len(run) == 1:
            fused.append(ops[run[0]])
            continue
        members = [ops[i] for i in run]
        support = tuple(sorted(set().union(*(op.qubits for op in members))))
        matrix = embed_superop(members[0].matrix, members[0].qubits, support)
        for op in members[1:]:
            matrix = embed_superop(op.matrix, op.qubits, support) @ matrix
        fused.append(SuperOp(support, matrix, sum(op.n_merged for op in members)))
    return fused


def _site_channel(gate, sites) -> "np.ndarray | None":
    """The constant noise superoperator following one gate site, or None.

    Composes the gate's :func:`~repro.noise.sampler.noise_sites` entries
    in their channel order -- the Pauli channel on each operand, the
    exact thermal-relaxation channel on each operand, then the coherent
    miscalibration rotation on each driven operand -- all embedded onto
    the gate's own support.  A Pauli site with zero total is the
    identity and is skipped.  Depends only on the (scaled) noise model,
    never on bound parameters, so it is computed once per plan.
    """
    from repro.noise.model import CHANNEL_COHERENT, CHANNEL_PAULI
    from repro.noise.trajectory import _coherent_unitary

    channel: "np.ndarray | None" = None
    for kind, local_q, payload in sites:
        if kind == CHANNEL_PAULI:
            error = payload[0]
            if error.total <= 0:
                continue
            one = kraus_superop(pauli_channel(error.px, error.py, error.pz))
        elif kind == CHANNEL_COHERENT:
            one = unitary_superop(_coherent_unitary(*payload))
        else:  # relaxation: the Kraus stack
            one = kraus_superop(payload[0])
        one = embed_superop(one, (local_q,), gate.qubits)
        channel = one if channel is None else np.matmul(one, channel)
    return channel


def _site_key(site) -> tuple:
    """A noise site's identity: kind, operand and payload (the
    ``PauliError``, the coherent ``(ey, ez)`` or the Kraus bytes)."""
    from repro.noise.model import CHANNEL_PAULI, CHANNEL_RELAXATION

    kind, local_q, payload = site
    if kind == CHANNEL_PAULI:
        payload = payload[0]
    elif kind == CHANNEL_RELAXATION:
        payload = payload[0].tobytes()
    return kind, local_q, payload


def _site_superop(op, channel: "np.ndarray | None") -> SuperOp:
    """One bound gate's superoperator with its noise channel attached."""
    matrix = unitary_superop(op.matrix)
    if channel is not None:
        matrix = np.matmul(channel, matrix)
    return SuperOp(op.qubits, matrix)


class SuperopPlan:
    """Compiled per-site superoperators for one (circuit, noise model).

    Construction precomputes every gate site's noise channel (each
    distinct one built once, keyed by the gate's support and its sites'
    payloads), every constant gate's site superoperator and the two
    :func:`~repro.compiler.fusion.fusion_layout` cuts.  :meth:`superops`
    (inference) cuts at input-dependent encoder sites, fusing the runs
    between them once per weight vector; :meth:`training_stream` cuts at
    every site with a weight or input parameter, fusing the constant
    runs between them once per plan.  Each binds only the gates it
    rebuilds.
    """

    __slots__ = (
        "bind_plan", "_channels", "_constant_sites", "_layout", "_input_gates",
        "_weight_gates", "_cache", "_train_layout", "_train_gates",
        "_train_segments",
    )

    def __init__(
        self,
        compiled: "CompiledCircuit",
        noise_model: "NoiseModel",
        noise_factor: float = 1.0,
    ):
        from repro.noise.sampler import noise_sites

        circuit = compiled.circuit
        self.bind_plan = bind_plan_for(circuit)
        table = noise_sites(
            circuit, compiled.physical_qubits, noise_model, noise_factor
        )
        # Channels repeat across a block's gates, and so do constant
        # gates with their channels: build each distinct one once.
        built: dict = {}

        def once(key, build):
            if key not in built:
                built[key] = build()
            return built[key]

        keys = [
            (gate.qubits, tuple(map(_site_key, sites)))
            for gate, sites in zip(circuit.gates, table)
        ]
        self._channels = [
            once(key, lambda: _site_channel(gate, sites))
            for key, gate, sites in zip(keys, circuit.gates, table)
        ]
        self._constant_sites = {
            i: once(
                (op.gate.name, op.values, keys[i]),
                lambda: _site_superop(op, self._channels[i]),
            )
            for i, op in self.bind_plan.constant_ops().items()
        }
        self._layout = fusion_layout(circuit, input_free)
        self._input_gates = [i for i in self._layout if isinstance(i, int)]
        self._weight_gates = [
            i for run in self._layout if isinstance(run, list)
            for i in run if i not in self._constant_sites
        ]
        self._cache = Cache("superop.segments", _SUPEROP_CACHE_SIZE)
        self._train_layout = fusion_layout(
            circuit, lambda gate: all(expr.is_constant for expr in gate.params)
        )
        self._train_gates = [i for i in self._train_layout if isinstance(i, int)]
        self._train_segments = Cache("superop.train_segments", 1)

    def channel(self, index: int) -> "np.ndarray | None":
        """Gate site ``index``'s constant noise superoperator (or None).

        Exposed for the density training backend, whose adjoint sweep
        needs the channel factor separated from the (differentiable)
        gate factor.
        """
        return self._channels[index]

    def site_superop(self, op, index: int) -> SuperOp:
        """Gate site ``index``'s superoperator: bound ``op``, then its channel.

        A constant gate's is read from the plan, where it was built once;
        only a gate with parameters is built per call.
        """
        superop = self._constant_sites.get(index)
        if superop is None:
            superop = _site_superop(op, self._channels[index])
        return superop

    def _bind(self, gates: "list[int]", weights, inputs=None, batch=None) -> dict:
        """Gate index -> bound op for the gates at indices ``gates``."""
        return dict(zip(gates, self.bind_plan.bind(weights, inputs, batch, gates)))

    def _fused_runs(self, layout: list, ops: dict) -> "list[list[SuperOp]]":
        """Each run of ``layout`` as fused site superoperators.

        ``ops`` holds the runs' bound gates with parameters; constant
        sites come from the plan.
        """
        return [
            fuse_superops([self.site_superop(ops.get(i), i) for i in run])
            for run in layout
            if isinstance(run, list)
        ]

    def training_stream(
        self,
        weights: "np.ndarray | None" = None,
        inputs: "np.ndarray | None" = None,
        batch: "int | None" = None,
    ) -> "list[tuple]":
        """The adjoint-training stream with constant runs pre-fused.

        Yields ``("segment", SuperOp)`` for fused runs of
        constant-parameter sites (no gradient flows through them, so the
        backward sweep only transposes the merged matrix) and
        ``("site", bound op, SuperOp, index)`` for differentiable sites
        (which keep their per-site superop so the sweep can store
        pre-site densities and separate the channel factor).  Constant
        segments depend on neither weights nor inputs and are fused
        exactly once per plan -- every minibatch, epoch and weight
        vector reuses them; each call binds the differentiable sites
        and builds their superoperators, since every training step
        brings new weights.
        """
        ops = self._bind(self._train_gates, weights, inputs, batch)
        segments = iter(self._train_segments.get_or_build(
            None, lambda: self._fused_runs(self._train_layout, {})
        ))
        out: "list[tuple]" = []
        for entry in self._train_layout:
            if isinstance(entry, list):
                out.extend(("segment", op) for op in next(segments))
            else:
                op = ops[entry]
                out.append(("site", op, self.site_superop(op, entry), entry))
        return out

    def superops(
        self,
        weights: "np.ndarray | None" = None,
        inputs: "np.ndarray | None" = None,
        batch: "int | None" = None,
    ) -> "list[SuperOp]":
        """The compiled channel stream for one noisy-inference call.

        Binds the input-dependent encoder gates on every call, and the
        weight-only gates of the fused runs only when their weight
        vector misses the cache.  Readout is not part of the stream.
        """
        segments = iter(self._cache.get_or_build(
            weights_key(weights),
            lambda: self._fused_runs(
                self._layout, self._bind(self._weight_gates, weights)
            ),
        ))
        ops = self._bind(self._input_gates, weights, inputs, batch)
        out: "list[SuperOp]" = []
        for entry in self._layout:
            if isinstance(entry, list):
                out.extend(next(segments))
            else:
                out.append(self.site_superop(ops[entry], entry))
        return out


def superop_plan_for(
    compiled: "CompiledCircuit",
    noise_model: "NoiseModel",
    noise_factor: float = 1.0,
) -> SuperopPlan:
    """The :class:`SuperopPlan` for a compiled circuit + model.

    Plans live in the circuit's :func:`~repro.utils.cache.circuit_cache`
    under ``(noise model, factor, physical qubits)`` -- the model matched
    by identity, at most :data:`_PLAN_CACHE_SIZE` per circuit -- and are
    dropped with the circuit's other derived plans when its gates change.
    """
    return circuit_cache(
        compiled.circuit, "superop.plan", _PLAN_CACHE_SIZE
    ).get_or_build(
        (noise_model, noise_factor, compiled.physical_qubits),
        lambda: SuperopPlan(compiled, noise_model, noise_factor),
    )

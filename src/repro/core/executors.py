"""Block executors: how one QNN block's circuit actually runs.

The same compiled block can execute on several backends:

* :class:`NoiselessExecutor` -- exact statevector, differentiable
  (adjoint).  The paper's "noise-free simulation" baseline and the
  backbone of noise-unaware training.
* :class:`GateInsertionExecutor` -- statevector with freshly sampled
  Pauli error gates per call plus analytic readout-error emulation,
  differentiable.  This is QuantumNAT's noise-injected *training*
  backend (a new error sample every training step, Figure 5).
* :class:`DensityEvalExecutor` -- exact noisy channel evaluation
  (inference only), the "evaluation with noise model" of Table 11.
* :class:`DensityTrainExecutor` -- exact noisy channel *training*:
  forward through the compiled superoperator stream, backward via the
  adjoint-on-superops sweep (:mod:`repro.core.density_training`), so
  noise-injection training runs against the exact channel instead of
  sampled realizations (``TrainConfig(engine="density")``).
* :class:`TrajectoryEvalExecutor` -- Monte-Carlo trajectories + shot
  sampling against the *drifted hardware* model: the "real QC" surrogate
  (inference only).  ``unravel="jump"`` switches it to the quantum-jump
  (MCWF) unraveling, the sampled backend that evaluates exact
  relaxation channels.
* :class:`MCWFTrainExecutor` -- noise-injection *training* on the
  quantum-jump unraveling: a :class:`GateInsertionExecutor` whose
  sampler also admits exact relaxation channels, realized as sampled
  jumps with non-unitary no-jump evolution in the same stacked sweep and
  adjoint (``TrainConfig(engine="mcwf")``) -- the stochastic-wavefunction
  counterpart of :class:`DensityTrainExecutor` with no density-matrix
  width bound.
* :class:`StabilizerEvalExecutor` -- Clifford-tableau trajectories
  (inference only): Pauli-noise sweeps in polynomial time with no
  qubit cap, admitting only circuits that pass the Clifford screen
  (:func:`repro.sim.stabilizer.clifford_ops`).

Every executor is enrolled in the engine registry
(:mod:`repro.core.engine`) under a name with declared capabilities;
``TrainConfig``, the pipeline and the cross-backend test harness
resolve backends through that registry rather than through these
classes directly.  All executors consume/produce expectations in
logical qubit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.compiler.superop import _PLAN_CACHE_SIZE
from repro.core.gradients import QuantumTape, adjoint_backward, forward_with_tape
from repro.noise.density_backend import run_noisy_density
from repro.noise.readout import apply_readout_to_expectations
from repro.noise.sampler import (
    ErrorGateSampler,
    InsertionStats,
    _check_noise_factor,
    noise_sites,
    pauli_cdf,
)
from repro.noise.trajectory import (
    _check_counts,
    run_noisy_trajectories,
    stacked_noisy_backward,
    stacked_noisy_forward_with_tape,
)
from repro.runtime.supervisor import (
    ChunkSupervisor,
    ChunkTask,
    PoolLease,
    check_shard_args,
    chunk_seeds,
    run_chunks,
)
from repro.utils.cache import circuit_cache
from repro.utils.rng import as_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.passes import CompiledCircuit
    from repro.noise.model import NoiseModel


@runtime_checkable
class EvalExecutor(Protocol):
    """The inference contract every evaluation backend implements.

    ``forward(compiled, weights, inputs)`` returns ``(logical
    expectations, cache)`` for one compiled block; ``differentiable``
    says whether ``backward`` exists and is exact.  This protocol *is*
    the inference API: :meth:`repro.core.pipeline.QuantumNATModel
    .predict` and the serving layer (:mod:`repro.serve`) accept any
    conforming object and nothing else -- the registry's executor fleet,
    test stubs and user-supplied backends all type-check the same way
    (``isinstance(executor, EvalExecutor)``) instead of being probed by
    duck-typed ``getattr``.
    """

    differentiable: bool

    def forward(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> "tuple[np.ndarray, object]": ...


@runtime_checkable
class InferenceExecutor(EvalExecutor, Protocol):
    """An :class:`EvalExecutor` with a tape-free inference fast path.

    ``forward_inference`` skips gradient bookkeeping entirely (e.g. the
    gate-fusion sweep of :class:`NoiselessExecutor`); ``predict``
    dispatches to it when the executor conforms, to ``forward``
    otherwise.
    """

    def forward_inference(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> np.ndarray: ...


def _param_counts(
    weights: "np.ndarray | None", inputs: "np.ndarray | None"
) -> "tuple[int | None, int | None]":
    """(n_weights, n_inputs) hints for tape builders; None defers to
    the circuit's parameter table (weight-/input-free harness runs)."""
    n_weights = None if weights is None else np.asarray(weights).size
    n_inputs = None if inputs is None else np.asarray(inputs).shape[1]
    return n_weights, n_inputs


@dataclass
class BlockCache:
    """Per-block state saved by a differentiable forward pass."""

    tape: QuantumTape
    measure_qubits: "tuple[int, ...]"
    readout_scales: "np.ndarray | None" = None
    #: >1 when the tape's state stacks multiple noise realizations.
    n_realizations: int = 1


def _gather_logical(expectations: np.ndarray, measure: "tuple[int, ...]") -> np.ndarray:
    return expectations[:, list(measure)]


def _scatter_logical(
    grad_logical: np.ndarray, measure: "tuple[int, ...]", n_compact: int
) -> np.ndarray:
    grad = np.zeros((grad_logical.shape[0], n_compact))
    grad[:, list(measure)] = grad_logical
    return grad


def make_real_qc_executor(
    model,
    *,
    shots: "int | None" = 8192,
    rng: "int | np.random.Generator | None" = None,
    samples: int = 32,
    n_workers: int = 0,
    supervisor=None,
    noise_factor: float = 1.0,
) -> EvalExecutor:
    """The 'real QC' surrogate for a model's device.

    A physical device run samples errors independently on every shot, so
    the faithful emulation is the *exact* noisy channel (density matrix,
    drifted hardware noise model) plus multinomial shot noise.  The
    backend is resolved through the engine registry from the model's
    channel kinds and widest block: exact (density) engines are
    preferred, and wide circuits fall back to Monte-Carlo trajectories
    (quantum-jump unraveling when the model carries exact relaxation
    channels); ``n_workers`` shards their chunks across a worker pool
    (bit-identical to serial).

    The signature is keyword-only and identical to
    :func:`make_noise_model_executor` and ``EngineSpec.factory``
    (``shots``, ``rng``, ``samples``, ``n_workers``, ``supervisor``,
    ``noise_factor``).
    """
    return _resolve_eval_executor(
        model, model.device.hardware_model, shots=shots, rng=rng,
        samples=samples, n_workers=n_workers, supervisor=supervisor,
        noise_factor=noise_factor,
    )


def make_noise_model_executor(
    model,
    *,
    shots: "int | None" = None,
    rng: "int | np.random.Generator | None" = None,
    samples: int = 32,
    n_workers: int = 0,
    supervisor=None,
    noise_factor: float = 1.0,
) -> EvalExecutor:
    """Evaluation under the *published* noise model (paper Table 11).

    Resolved through the engine registry exactly like
    :func:`make_real_qc_executor` (same keyword-only signature), just
    against the published model.
    """
    return _resolve_eval_executor(
        model, model.device.noise_model, shots=shots, rng=rng,
        samples=samples, n_workers=n_workers, supervisor=supervisor,
        noise_factor=noise_factor,
    )


def _resolve_eval_executor(model, noise_model, **factory_kwargs):
    from repro.core.engine import resolve_eval_engine

    widest = max(c.circuit.n_qubits for c in model.compiled)
    spec = resolve_eval_engine(noise_model.channel_kinds, widest)
    return spec.factory(noise_model, **factory_kwargs)


class NoiselessExecutor:
    """Exact statevector execution with adjoint gradients.

    Training forwards and tape-free inference share the block's one
    fusion plan (:func:`~repro.compiler.fusion.fusion_plan_for`), whose
    constant slots are filled once per block, not once per step: a
    training step materializes its runs per call
    (:meth:`~repro.compiler.fusion.FusionPlan.sweep`), inference once per
    weight vector (:meth:`~repro.compiler.fusion.FusionPlan.fused_ops`).
    """

    differentiable = True

    def forward(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> "tuple[np.ndarray, BlockCache]":
        n_weights, n_inputs = _param_counts(weights, inputs)
        expectations, tape = forward_with_tape(
            compiled.circuit,
            weights,
            inputs,
            n_weights=n_weights,
            n_inputs=n_inputs,
        )
        logical = _gather_logical(expectations, compiled.measure_qubits)
        return logical, BlockCache(tape, compiled.measure_qubits)

    def forward_inference(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> np.ndarray:
        """Tape-free forward on the block's fusion plan.

        Inference keeps no tape, so the plan's fused runs are cached per
        weight vector and reused across calls -- see
        :mod:`repro.compiler.fusion`.
        """
        from repro.compiler.fusion import fusion_plan_for
        from repro.sim.statevector import run_ops, z_expectations

        circuit = compiled.circuit
        inputs = np.asarray(inputs, dtype=float)
        ops = fusion_plan_for(circuit).fused_ops(weights, inputs)
        state = run_ops(ops, circuit.n_qubits, inputs.shape[0])
        expectations = z_expectations(state, circuit.n_qubits)
        return _gather_logical(expectations, compiled.measure_qubits)

    def backward(
        self, cache: BlockCache, grad_logical: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        grad = _scatter_logical(
            grad_logical, cache.measure_qubits, cache.tape.circuit.n_qubits
        )
        return adjoint_backward(cache.tape, grad)


def _emulate_readout(
    compiled: "CompiledCircuit", noise_model: "NoiseModel", logical: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Analytic readout-error emulation shared by the training backends.

    Readout confusion acts on per-qubit <Z> as an affine map; returns
    ``(noisy, scales)``, the scales kept for the backward pass.  The
    block's confusion matrices are stacked per call: that costs
    microseconds, far below one training step.
    """
    return apply_readout_to_expectations(
        logical, compiled.readout_matrices(noise_model)
    )


class _Sharded:
    """An executor whose worker pool lives on its :attr:`lease`.

    ``n_workers`` and ``shard_backend`` are the lease's settings,
    validated on assignment like the constructors' arguments; changing
    them respawns the pool on the next sharded run (see
    :class:`~repro.runtime.supervisor.PoolLease`, which also owns
    spawning, reuse across calls, discarding after failures and the
    collection-time leak guard).
    """

    def _set_n_workers(self, value: int) -> None:
        check_shard_args(value, None, self.lease.backend)
        self.lease.n_workers = value

    def _set_shard_backend(self, value: str) -> None:
        check_shard_args(self.lease.n_workers, None, value)
        self.lease.backend = value

    n_workers = property(lambda self: self.lease.n_workers, _set_n_workers)
    shard_backend = property(
        lambda self: self.lease.backend,
        lambda self, value: self._set_shard_backend(value),
    )

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        self.lease.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class GateInsertionExecutor(_Sharded):
    """QuantumNAT's training backend: sampled error gates + readout noise.

    Every ``forward`` call samples a fresh set of Pauli error gates
    (scaled by noise factor ``T``) and applies the device's readout
    confusion to the measured expectations.  The inserted Paulis are
    constant unitaries and the readout map is affine, so the adjoint
    backward pass stays exact.

    Every step runs the block's fused training sweep
    (:func:`~repro.noise.trajectory.stacked_noisy_forward_with_tape`).
    With ``n_realizations > 1`` each step averages that many independent
    error realizations, executed as one ``(n_realizations * batch,
    2**n)`` statevector sweep -- the training batch axis composed with
    the stacked-trajectory axis.  A single realization draws through
    :meth:`~repro.noise.sampler.ErrorGateSampler.sample`, the sampler's
    circuit-level entry point, and the sweep folds that draw
    (``InsertionStats.choices``) into the block's plan: the sampled
    circuit is neither bound nor run.

    ``n_workers > 0`` bands that stacked sweep (one fixed row band per
    realization) over an executor-held persistent *thread* pool, so a
    training loop pays pool spawn once instead of once per step.  The
    bands write into one shared pair of state buffers, so
    ``shard_backend`` accepts ``"thread"`` only.  The
    band layout never depends on the worker count: results are bitwise
    identical across worker counts, and match the ``n_workers = 0``
    serial sweep to float tolerance (the sampled error events are
    identical -- the rng is consumed before any banding decision).
    """

    differentiable = True
    #: Whether the sampler admits exact relaxation channels, which the
    #: stacked sweep unravels as sampled quantum jumps.
    allow_exact = False

    def __init__(
        self,
        noise_model: "NoiseModel",
        noise_factor: float = 1.0,
        readout: bool = True,
        rng: "int | np.random.Generator | None" = None,
        n_realizations: int = 1,
        n_workers: int = 0,
    ):
        if n_realizations < 1:
            raise ValueError("need at least one noise realization")
        self.lease = PoolLease(n_workers)
        self.noise_model = noise_model
        self.noise_factor = noise_factor
        self.readout = readout
        self.rng = as_rng(rng)
        self.n_realizations = n_realizations
        self.sampler = ErrorGateSampler(
            noise_model, noise_factor, allow_exact=self.allow_exact
        )
        self.last_insertion_stats = None

    def _set_shard_backend(self, value: str) -> None:
        if value != "thread":
            raise ValueError(
                "shard_backend must be 'thread' for a training executor, "
                f"got {value!r}: its row bands share one pair of state buffers"
            )
        super()._set_shard_backend(value)

    def forward(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> "tuple[np.ndarray, BlockCache]":
        n_weights, n_inputs = _param_counts(weights, inputs)
        choices = None
        if self.n_realizations == 1 and not self.allow_exact:
            # Drawn through ``sample``, the call perfbench traces as noise
            # sampling; the sweep folds its choices into the block's plan.
            _circuit, stats = self.sampler.sample(
                compiled.circuit, compiled.physical_qubits, self.rng
            )
            choices = stats.choices
        expectations, tape, n_inserted = stacked_noisy_forward_with_tape(
            compiled, self.sampler, weights, inputs,
            self.n_realizations, self.rng,
            n_weights=n_weights,
            n_inputs=n_inputs,
            pool=self.lease,
            choices=choices,
        )
        self.last_insertion_stats = InsertionStats(
            len(compiled.circuit.gates) * self.n_realizations, n_inserted
        )
        logical = _gather_logical(expectations, compiled.measure_qubits)
        scales = None
        if self.readout:
            logical, scales = _emulate_readout(
                compiled, self.noise_model, logical
            )
        return logical, BlockCache(
            tape, compiled.measure_qubits, scales, self.n_realizations
        )

    def backward(
        self, cache: BlockCache, grad_logical: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        if cache.readout_scales is not None:
            grad_logical = grad_logical * cache.readout_scales[None, :]
        grad = _scatter_logical(
            grad_logical, cache.measure_qubits, cache.tape.circuit.n_qubits
        )
        return stacked_noisy_backward(cache.tape, grad, cache.n_realizations)


class DensityTrainExecutor:
    """Exact-channel noisy training backend (adjoint on superoperators).

    The deterministic counterpart of :class:`GateInsertionExecutor`:
    instead of sampling one Pauli error realization per step, every
    forward evolves the density matrix through the compiled
    superoperator stream -- Pauli + relaxation + coherent channels exact
    -- and backward runs the adjoint sweep in superoperator space
    (:func:`repro.core.density_training.density_adjoint_backward`),
    which is exact for noise channels and arbitrary affine parameter
    expressions alike.  Readout confusion applies as the same affine
    per-qubit map the insertion backend uses, keeping it differentiable.

    Deterministic (no sampling noise in the gradient), at density-matrix
    cost: reserved for compact (<= 8 qubit) blocks, selected via
    ``TrainConfig(engine="density")``.
    """

    differentiable = True

    def __init__(
        self,
        noise_model: "NoiseModel",
        noise_factor: float = 1.0,
        readout: bool = True,
    ):
        _check_noise_factor(noise_factor)
        self.noise_model = noise_model
        self.noise_factor = noise_factor
        self.readout = readout

    def forward(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> "tuple[np.ndarray, BlockCache]":
        from repro.core.density_training import density_forward_with_tape

        n_weights, n_inputs = _param_counts(weights, inputs)
        expectations, tape = density_forward_with_tape(
            compiled,
            self.noise_model,
            weights,
            inputs,
            noise_factor=self.noise_factor,
            n_weights=n_weights,
            n_inputs=n_inputs,
        )
        logical = _gather_logical(expectations, compiled.measure_qubits)
        scales = None
        if self.readout:
            logical, scales = _emulate_readout(
                compiled, self.noise_model, logical
            )
        # BlockCache is duck-typed over the tape: backward only needs
        # the DensityTape's n_qubits and the shared readout-scale fields.
        return logical, BlockCache(tape, compiled.measure_qubits, scales)

    def backward(
        self, cache: BlockCache, grad_logical: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        from repro.core.density_training import density_adjoint_backward

        if cache.readout_scales is not None:
            grad_logical = grad_logical * cache.readout_scales[None, :]
        grad = _scatter_logical(
            grad_logical, cache.measure_qubits, cache.tape.n_qubits
        )
        return density_adjoint_backward(cache.tape, grad)


class DensityEvalExecutor:
    """Exact noisy-channel inference via density matrices (no gradients).

    Runs the compiled superoperator stream of
    :mod:`repro.compiler.superop` (:func:`repro.noise.density_backend
    .run_noisy_density`), which binds only the gates it rebuilds, and
    ends in the measurement tail the trajectory engine shares: readout
    confusion on the joint probabilities, then optional shot sampling.
    """

    differentiable = False

    def __init__(
        self,
        noise_model: "NoiseModel",
        noise_factor: float = 1.0,
        shots: "int | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ):
        _check_noise_factor(noise_factor)
        _check_counts(shots=shots)
        self.noise_model = noise_model
        self.noise_factor = noise_factor
        self.shots = shots
        self.rng = as_rng(rng)

    def forward(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> "tuple[np.ndarray, None]":
        expectations = run_noisy_density(
            compiled,
            self.noise_model,
            weights,
            inputs,
            noise_factor=self.noise_factor,
            shots=self.shots,
            rng=self.rng,
        )
        return expectations, None

    def backward(self, cache, grad):  # pragma: no cover - defensive
        raise NotImplementedError("density evaluation is inference-only")


class MCWFTrainExecutor(GateInsertionExecutor):
    """Quantum-jump (MCWF) noise-injection training backend.

    The stochastic-wavefunction counterpart of
    :class:`DensityTrainExecutor`: every forward samples one (or
    ``n_realizations``) concrete quantum-jump trajectories of the *full*
    noise model -- Pauli insertions, exact relaxation Kraus jumps with
    non-unitary no-jump evolution and per-row renormalization, coherent
    miscalibration -- and backward runs the adjoint sweep, which
    restores the ket at each jump from the tape's checkpoints; it is
    exact for the realized trajectory's frozen linear map.  Because it
    is statevector-bound rather than density-bound, it is the training
    backend for *wide* blocks whose noise model carries exact channels.

    Everything else is :class:`GateInsertionExecutor`'s stacked sweep,
    even at one realization.  ``n_workers > 0`` row-bands it only on
    models *without* jump sites: each jump's probabilities depend on
    the evolved state mid-sweep, so a jump-carrying sweep stays a single
    serial pass (results are unchanged either way).
    """

    allow_exact = True


class TrajectoryEvalExecutor(_Sharded):
    """'Real QC' surrogate: drifted noise + trajectories + shot sampling.

    Every trajectory chunk sweeps the block's one noisy fusion plan --
    the plan noise-injected training runs under the same (model, factor,
    layout) -- so evaluating on the noise a model trained with builds no
    plan of its own (:func:`repro.noise.trajectory.trajectory_probabilities`).

    ``n_workers > 0`` shards trajectory chunks across a
    ``shard_backend`` pool ("thread" or "process"); chunk layout and
    per-chunk RNG streams never depend on the worker count, so sharded
    output is bit-identical to the serial run for a fixed seed.
    ``shard_size`` overrides the default trajectories-per-chunk
    granularity (16) -- runs with ``n_trajectories`` above it have
    work to distribute out of the box.

    The executor's :class:`~repro.runtime.supervisor.PoolLease` holds
    its worker pool *open across calls* (training validates every
    epoch; respawning processes per call dominated the sharding win).
    The pool is created lazily on the first sharded forward, recreated
    if ``n_workers``/``shard_backend`` change, discarded after a failed
    or degraded run, and released by :meth:`close` (or the
    context-manager protocol; an unclosed pool is reaped when the
    executor is collected or at interpreter exit).

    ``unravel="jump"`` runs the quantum-jump (MCWF) unraveling instead
    of Pauli insertion -- the only sampled evaluation mode that
    represents exact relaxation channels.

    ``supervisor`` enables fault-tolerant execution: pass ``True`` for a
    default :class:`repro.runtime.supervisor.ChunkSupervisor` or an
    instance to control the retry/deadline policy.  Supervised runs
    return exactly what unsupervised runs return (chunks are
    re-runnable from their spawned seeds); a pool that cannot spawn,
    or breaks and cannot respawn, degrades to serial under a
    :class:`~repro.runtime.errors.DegradedExecution` warning.
    """

    differentiable = False

    def __init__(
        self,
        noise_model: "NoiseModel",
        n_trajectories: int = 8,
        shots: "int | None" = 8192,
        noise_factor: float = 1.0,
        rng: "int | np.random.Generator | None" = None,
        n_workers: int = 0,
        shard_size: "int | None" = None,
        shard_backend: str = "thread",
        unravel: str = "pauli",
        supervisor=None,
    ):
        check_shard_args(n_workers, shard_size, shard_backend)
        if unravel not in ("pauli", "jump"):
            raise ValueError(
                f"unravel must be 'pauli' or 'jump', got {unravel!r}"
            )
        _check_counts(n_trajectories, shots)
        _check_noise_factor(noise_factor)
        self.lease = PoolLease(n_workers, shard_backend)
        self.noise_model = noise_model
        self.n_trajectories = n_trajectories
        self.shots = shots
        self.noise_factor = noise_factor
        self.rng = as_rng(rng)
        self.shard_size = shard_size
        self.unravel = unravel
        if supervisor is True:
            supervisor = ChunkSupervisor(label="trajectory")
        self.supervisor = supervisor

    def forward(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> "tuple[np.ndarray, None]":
        expectations = run_noisy_trajectories(
            compiled,
            self.noise_model,
            weights,
            inputs,
            n_trajectories=self.n_trajectories,
            shots=self.shots,
            noise_factor=self.noise_factor,
            rng=self.rng,
            n_workers=self.n_workers,
            shard_size=self.shard_size,
            shard_backend=self.shard_backend,
            unravel=self.unravel,
            pool=self.lease,
            supervisor=self.supervisor,
        )
        return expectations, None

    def backward(self, cache, grad):  # pragma: no cover - defensive
        raise NotImplementedError("trajectory evaluation is inference-only")


#: Default trajectories per tableau chunk.  Tableau chunks are far
#: cheaper than statevector ones, so the grain is coarser than the
#: trajectory engine's 16; the layout never depends on the worker
#: count, keeping sharded output bit-identical to serial.
_STABILIZER_SHARD_SIZE = 64


def _stabilizer_program(compiled, sampler, rz_tolerance: float) -> tuple:
    """Compile one block into a flat tableau program (pure data, picklable).

    Entries are ``("g", name, qubits)`` tableau gates or ``("p", qubit,
    cdf)`` Pauli-noise sites (``cdf`` the site's row of the block's
    stacked inverse-CDF table, :func:`~repro.noise.sampler.pauli_cdf`),
    in sweep order: each gate's error sites that can fire follow the
    gate, in the order of the block's
    :func:`~repro.noise.sampler.noise_sites` table.  The executor admits
    neither coherent nor relaxation channels, so Pauli sites are all
    the table holds.  Raises
    :class:`~repro.sim.stabilizer.NonCliffordCircuitError` when the
    circuit fails the Clifford screen.
    """
    from repro.sim.stabilizer import clifford_ops

    circuit = compiled.circuit
    args = (circuit, compiled.physical_qubits,
            sampler.noise_model, sampler.noise_factor)
    cdf = iter(pauli_cdf(*args))
    steps: "list[tuple]" = []
    table = noise_sites(*args)
    for gate_ops, sites in zip(clifford_ops(circuit, rz_tolerance), table):
        steps.extend(("g", name, tuple(qubits)) for name, qubits in gate_ops)
        for _kind, local_q, payload in sites:
            row = next(cdf)
            if payload[0].total > 0:
                steps.append(("p", int(local_q), row))
    return tuple(steps)


def _stabilizer_chunk(steps: tuple, n_qubits: int, n_traj: int, seed) -> np.ndarray:
    """One tableau trajectory chunk (pure and picklable; seed-rerunnable).

    Runs ``n_traj`` independent noisy tableaus through the program in
    one batched boolean sweep and returns the ``(n_qubits,)`` *sum* of
    per-trajectory ``<Z>`` rows -- the caller divides by the global
    trajectory count after a fixed-order reduction, so serial, sharded
    and supervised runs accumulate identically.
    """
    from repro.sim.stabilizer import BatchedStabilizerState

    rng = np.random.default_rng(seed)
    state = BatchedStabilizerState(n_qubits, n_traj)
    for step in steps:
        if step[0] == "g":
            state.apply(step[1], step[2])
        else:
            _tag, qubit, cdf = step
            u = rng.random(n_traj)
            choices = (u[:, None] >= cdf[None, :]).sum(axis=1)
            state.apply_pauli_choices(qubit, choices)
    return state.z_expectations().sum(axis=0)


class StabilizerEvalExecutor(_Sharded):
    """Clifford-tableau trajectory backend: polynomial-time noisy sweeps.

    Runs ``n_trajectories`` Pauli-noise trajectories of a Clifford
    block through one :class:`~repro.sim.stabilizer
    .BatchedStabilizerState` boolean-ufunc sweep -- O(gates * B * n)
    bit operations instead of O(gates * B * 2^n) statevector work --
    so 50-100+ qubit noise characterization completes in seconds.

    Admission is screened per block by
    :func:`repro.sim.stabilizer.clifford_ops`: gates must be Clifford,
    and constant ``rz`` angles within ``rz_tolerance`` of a multiple of
    pi/2 round onto the tableau (anything else raises
    :class:`~repro.sim.stabilizer.NonCliffordCircuitError`).  Because
    admitted circuits carry no free parameters, the expectations are
    input-independent; a batched ``inputs`` only tiles the output (and
    draws independent shot noise per row).  Noise models with coherent
    miscalibration (non-Clifford rotations) or exact relaxation
    channels are rejected at construction.

    Sharding follows the trajectory engine's contract and runs through
    the same chunk path (:func:`repro.runtime.supervisor.run_chunks` on
    the executor's pool lease): chunk layout and per-chunk seed streams
    depend only on ``shard_size``, never on the worker count, so
    sharded output is bit-identical to serial, and a ``supervisor``
    retries failed chunks bit-identically from their seeds and degrades
    to serial when the pool cannot spawn.  Readout error applies
    analytically to the per-qubit expectations (unscaled model, like
    every sampled engine); ``shots`` adds per-qubit binomial sampling
    noise.
    """

    differentiable = False

    def __init__(
        self,
        noise_model: "NoiseModel",
        n_trajectories: int = 256,
        shots: "int | None" = None,
        noise_factor: float = 1.0,
        rng: "int | np.random.Generator | None" = None,
        n_workers: int = 0,
        shard_size: "int | None" = None,
        shard_backend: str = "thread",
        rz_tolerance: float = 1e-8,
        supervisor=None,
    ):
        from repro.noise.model import CHANNEL_COHERENT

        check_shard_args(n_workers, shard_size, shard_backend)
        _check_counts(n_trajectories, shots)
        # Raises on exact (relaxation) channels, naming capable engines.
        self.sampler = ErrorGateSampler(noise_model, noise_factor)
        if CHANNEL_COHERENT in noise_model.channel_kinds:
            raise ValueError(
                "coherent miscalibration rotations are not Clifford; the "
                "stabilizer engine cannot represent this noise model -- "
                "use a statevector or density engine"
            )
        self.lease = PoolLease(n_workers, shard_backend)
        self.noise_model = noise_model
        self.n_trajectories = n_trajectories
        self.shots = shots
        self.noise_factor = noise_factor
        self.rng = as_rng(rng)
        self.shard_size = shard_size
        self.rz_tolerance = rz_tolerance
        if supervisor is True:
            supervisor = ChunkSupervisor(label="stabilizer")
        self.supervisor = supervisor

    def _sweep(self, compiled: "CompiledCircuit") -> np.ndarray:
        """Mean per-qubit <Z> over the trajectory batch, compact order."""
        sampler = self.sampler
        program = circuit_cache(
            compiled.circuit, "stabilizer.program", _PLAN_CACHE_SIZE
        ).get_or_build(
            (sampler.noise_model, sampler.noise_factor, self.rz_tolerance,
             compiled.physical_qubits),
            lambda: _stabilizer_program(compiled, sampler, self.rz_tolerance),
        )
        n = compiled.circuit.n_qubits
        chunks = chunk_seeds(
            self.n_trajectories,
            int(self.shard_size or _STABILIZER_SHARD_SIZE),
            self.rng,
        )
        tasks = [
            ChunkTask(i, _stabilizer_chunk, (program, n, count, seed))
            for i, (count, seed) in enumerate(chunks)
        ]
        total = np.zeros(n)
        for result in run_chunks(tasks, self.supervisor, self.lease):
            total += result  # fixed chunk-order accumulation
        return total / self.n_trajectories

    def forward(
        self,
        compiled: "CompiledCircuit",
        weights: np.ndarray,
        inputs: np.ndarray,
    ) -> "tuple[np.ndarray, None]":
        mean = self._sweep(compiled)
        readout = np.stack(
            [self.noise_model.readout_for(p) for p in compiled.physical_qubits]
        )
        noisy, _scales = apply_readout_to_expectations(mean[None, :], readout)
        logical = _gather_logical(noisy, compiled.measure_qubits)
        batch = 1 if inputs is None else int(np.asarray(inputs).shape[0])
        logical = np.repeat(logical, batch, axis=0)
        if self.shots is not None:
            p_one = np.clip((1.0 - logical) / 2.0, 0.0, 1.0)
            ones = self.rng.binomial(self.shots, p_one)
            logical = 1.0 - 2.0 * ones / self.shots
        return logical, None

    def backward(self, cache, grad):  # pragma: no cover - defensive
        raise NotImplementedError("stabilizer evaluation is inference-only")

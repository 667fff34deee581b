"""The QuantumNAT model: QNN + normalization + injection + quantization.

This ties the whole paper together (Figure 3).  A :class:`QuantumNATModel`
owns a QNN compiled for a device and walks its blocks in one loop, which
applies post-measurement normalization and quantization between blocks:

* training forward: blocks run on the *training executor* (gate
  insertion / perturbation / noiseless); the loop saves what backward
  needs and adds the quadratic centroid penalty to the loss;
* backward: softmax-CE gradient chains through the head, the
  straight-through quantizer, the batch-norm-style normalization
  backward, and one adjoint sweep per block -- one chain for the batched
  step and its per-sample reference alike;
* inference (predictions, the Figure 4/6 block outcomes, validation
  profiling): the same transforms over any evaluation backend
  (noise-free / density "noise model" / trajectory "real QC"), using the
  *batch's own statistics* for normalization (or pinned validation
  statistics, Table 13).  Both noisy backends run compiled: the density
  executor executes the superoperator stream of
  :mod:`repro.compiler.superop` (gate + channel as one cached matrix per
  fused segment) and the trajectory executor the segment-fused sweep of
  :mod:`repro.noise.trajectory`, optionally sharded across a worker pool
  (``TrajectoryEvalExecutor.n_workers`` /
  ``TrainConfig.trajectory_workers`` -- bit-identical to serial).

Per the paper, normalization/quantization are applied between blocks but
*not* after the last block of multi-block models; single-block ("fully
quantum", Table 8) models instead normalize/quantize their final
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.compiler.passes import CompiledCircuit, transpile
from repro.core.executors import (
    GateInsertionExecutor,
    InferenceExecutor,
    NoiselessExecutor,
)
from repro.core.gradients import QuantumTape, adjoint_backward_reference
from repro.core.injection import (
    ANGLE_PERTURBATION,
    GATE_INSERTION,
    InjectionConfig,
    OUTCOME_PERTURBATION,
    perturb_angles,
    perturb_outcomes,
)
from repro.core.losses import accuracy, cross_entropy
from repro.core.normalization import (
    NormCache,
    batch_statistics,
    normalize,
    normalize_backward,
    normalize_with_stats,
)
from repro.core.quantization import Quantizer
from repro.noise.devices import Device
from repro.noise.readout import apply_readout_to_expectations
from repro.qnn.model import QNN, head_matrix
from repro.sim.statevector import (
    bind_circuit_reference,
    run_ops_reference,
    z_expectations,
)
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class QuantumNATConfig:
    """Which pieces of the pipeline are enabled, and their knobs.

    The three method stages of paper Table 1 map to:

    * Baseline:        ``QuantumNATConfig.baseline()``
    * + Post Norm.:    ``normalize=True``
    * + Gate Insert.:  ``+ injection=InjectionConfig('gate_insertion', T)``
    * + Post Quant.:   ``+ quantize=True, n_levels=k``
    """

    normalize: bool = True
    quantize: bool = True
    n_levels: int = 5
    p_min: float = -2.0
    p_max: float = 2.0
    quant_loss_weight: float = 0.1
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    #: Apply norm/quant to the last block's outputs (single-block models).
    transform_final: bool = False
    #: Softmax temperature on the head: expectations live in [-1, 1], so
    #: unscaled logits give a nearly flat softmax and slow training.
    logit_scale: float = 3.0

    @staticmethod
    def baseline() -> "QuantumNATConfig":
        """Noise-unaware training, no pipeline stages (paper's Baseline)."""
        return QuantumNATConfig(
            normalize=False,
            quantize=False,
            injection=InjectionConfig(strategy=None),
        )

    @staticmethod
    def norm_only() -> "QuantumNATConfig":
        return QuantumNATConfig(
            normalize=True,
            quantize=False,
            injection=InjectionConfig(strategy=None),
        )

    @staticmethod
    def norm_and_injection(noise_factor: float = 0.5) -> "QuantumNATConfig":
        return QuantumNATConfig(
            normalize=True,
            quantize=False,
            injection=InjectionConfig(GATE_INSERTION, noise_factor),
        )

    @staticmethod
    def full(noise_factor: float = 0.5, n_levels: int = 5) -> "QuantumNATConfig":
        """The complete QuantumNAT pipeline."""
        return QuantumNATConfig(
            normalize=True,
            quantize=True,
            n_levels=n_levels,
            injection=InjectionConfig(GATE_INSERTION, noise_factor),
        )

    def with_injection(self, injection: InjectionConfig) -> "QuantumNATConfig":
        return replace(self, injection=injection)


@dataclass
class ForwardCache:
    """Everything one training forward pass saves for backward."""

    block_caches: list
    norm_caches: "list[NormCache | None]"
    ste_masks: "list[np.ndarray | None]"
    normalized: "list[np.ndarray | None]"  # pre-quantization activations
    logits: np.ndarray
    quant_loss: float


class QuantumNATModel:
    """A QNN wrapped with the QuantumNAT noise-aware pipeline."""

    def __init__(
        self,
        qnn: QNN,
        device: Device,
        config: "QuantumNATConfig | None" = None,
        optimization_level: int = 2,
        rng: "int | np.random.Generator | None" = None,
    ):
        self.qnn = qnn
        self.device = device
        self.config = config or QuantumNATConfig()
        self.optimization_level = optimization_level
        self.rng = as_rng(rng)
        self.compiled: "list[CompiledCircuit]" = [
            transpile(block, device, optimization_level) for block in qnn.blocks
        ]
        self.head = (
            head_matrix(qnn.arch.n_classes, qnn.arch.n_qubits)
            * self.config.logit_scale
        )
        self.quantizer = Quantizer(
            self.config.n_levels, self.config.p_min, self.config.p_max
        )
        self._train_executor = self._build_train_executor()
        #: Fixed normalization statistics per block boundary (Table 13
        #: valid-stats mode); None means use the batch's own statistics.
        self.fixed_stats: "list[tuple[np.ndarray, np.ndarray]] | None" = None

    # -- executors -------------------------------------------------------

    def _build_train_executor(self):
        injection = self.config.injection
        if injection.strategy != GATE_INSERTION:
            return NoiselessExecutor()
        # Resolve through the engine registry: the model's channel kinds
        # and widest block select the preferred trainable engine.  A
        # Pauli-representable model gets the paper's sampled gate
        # insertion; exact (non-Pauli) relaxation channels cannot be
        # sampled as inserted error gates, so such models fall to the
        # exact-channel density trainer for compact blocks and to the
        # quantum-jump (MCWF) trainer for wide ones.
        from repro.core.engine import resolve_train_engine

        widest = max(c.circuit.n_qubits for c in self.compiled)
        spec = resolve_train_engine(
            self.device.noise_model.channel_kinds, widest
        )
        return spec.train.executor_factory(
            self.device.noise_model, injection, rng=self.rng
        )

    def rng_generators(self) -> "dict[str, np.random.Generator]":
        """Named RNG streams a training checkpoint must capture.

        The model's generator drives noise sampling in every forward;
        the training executor usually *shares* it (factories receive
        ``rng=self.rng`` and :func:`repro.utils.rng.as_rng` passes
        generators through), but an executor constructed with its own
        stream is captured separately -- restoring both is what makes
        checkpoint resume bit-identical
        (:mod:`repro.runtime.checkpoint`).
        """
        generators = {"model": self.rng}
        executor_rng = getattr(self._train_executor, "rng", None)
        if executor_rng is not None:
            generators["train_executor"] = executor_rng
        return generators

    @property
    def n_weights(self) -> int:
        return self.qnn.n_weights

    @property
    def n_blocks(self) -> int:
        return self.qnn.n_blocks

    def _transform_after(self, block: int) -> bool:
        """Normalize/quantize after this block?"""
        is_last = block == self.n_blocks - 1
        return (not is_last) or self.config.transform_final

    # -- the block loop ----------------------------------------------------

    def _run_blocks(self, weights, inputs, run_block, *, stats=None,
                    stop=None, profile=None, train=None) -> np.ndarray:
        """The one loop over blocks; returns the head's input.

        ``run_block(compiled, block_weights, x)`` returns ``(expectations,
        block cache)``; blocks :meth:`_transform_after` selects are then
        normalized (with ``stats[b]``, else batch statistics) and
        quantized.  ``stop`` returns that block's raw outcomes;
        ``profile`` collects each block's :func:`batch_statistics`;
        ``train`` (a :class:`ForwardCache`) records what backward needs.
        """
        config = self.config
        current = np.asarray(inputs, dtype=float)
        for b, compiled in enumerate(self.compiled):
            current, block_cache = run_block(
                compiled, self.qnn.block_weights(weights, b), current
            )
            if b == stop:
                return current
            if profile is not None:
                profile.append(batch_statistics(current))
            if train is not None:
                train.block_caches.append(block_cache)
            if not self._transform_after(b):
                continue
            if config.normalize and stats is not None:
                current = normalize_with_stats(current, *stats[b])
            elif config.normalize:
                current, norm_cache = normalize(current)
                if train is not None:
                    train.norm_caches[b] = norm_cache
            if train is not None and config.injection.strategy == OUTCOME_PERTURBATION:
                current = perturb_outcomes(current, config.injection, self.rng)
            if config.quantize and train is not None:
                train.normalized[b] = current
                train.quant_loss += self.quantizer.quantization_loss(current)
                current, train.ste_masks[b] = self.quantizer.forward(current)
            elif config.quantize:
                current = self.quantizer.quantize(current)
        return current

    # -- training forward / backward ----------------------------------------

    def forward_train(
        self, weights: np.ndarray, inputs: np.ndarray
    ) -> ForwardCache:
        """Noise-injected, differentiable forward pass."""
        return self._forward_train(weights, inputs, self._train_executor)

    def _forward_train(self, weights, inputs, executor) -> ForwardCache:
        injection = self.config.injection
        if injection.strategy == ANGLE_PERTURBATION:
            weights = perturb_angles(weights, injection, self.rng)
            inputs = perturb_angles(np.asarray(inputs, dtype=float), injection, self.rng)
        n = self.n_blocks
        cache = ForwardCache([], [None] * n, [None] * n, [None] * n, None, 0.0)
        head_input = self._run_blocks(weights, inputs, executor.forward, train=cache)
        cache.logits = head_input @ self.head.T
        return cache

    def loss_and_gradients(
        self, weights: np.ndarray, inputs: np.ndarray, labels: np.ndarray
    ) -> "tuple[float, float, np.ndarray]":
        """One training step's loss, accuracy and weight gradient.

        The whole minibatch (and, with ``injection.n_realizations > 1``,
        every noise realization) runs as one stacked statevector sweep
        per block; :meth:`loss_and_gradients_reference` is the retained
        per-sample baseline.
        """
        return self._step(weights, inputs, labels, self._train_executor)

    def loss_and_gradients_reference(
        self, weights: np.ndarray, inputs: np.ndarray, labels: np.ndarray
    ) -> "tuple[float, float, np.ndarray]":
        """Per-sample reference implementation of one training step.

        The numerical baseline for :meth:`loss_and_gradients`: the same
        step with the blocks run by :class:`_ReferenceBlocks`.

        With single-realization gate insertion the error circuits are
        sampled from the training executor's rng in the same order as
        the fast path, so two identically seeded models agree to float
        precision.  With ``n_realizations > 1`` the fast path draws each
        error site's choices for all realizations in one vectorized call
        while this path loops realizations, so the streams diverge and
        stochastic noise matches only in distribution (deterministic
        coherent-only models still agree exactly).
        """
        return self._step(weights, inputs, labels, _ReferenceBlocks(self))

    def _step(self, weights, inputs, labels, executor):
        """One training step, blocks run and differentiated by ``executor``."""
        config = self.config
        cache = self._forward_train(weights, inputs, executor)
        ce_loss, grad_logits, _probs = cross_entropy(cache.logits, labels)
        loss = ce_loss + config.quant_loss_weight * cache.quant_loss
        acc = accuracy(cache.logits, labels)

        grad_weights = np.zeros_like(np.asarray(weights, dtype=float))
        # dL/d(last block output after transforms)
        grad_current = grad_logits @ self.head

        for b in reversed(range(self.n_blocks)):
            if cache.ste_masks[b] is not None:
                grad_current = self.quantizer.backward(
                    cache.ste_masks[b], grad_current
                )
                grad_current = grad_current + (
                    config.quant_loss_weight
                    * self.quantizer.quantization_loss_grad(cache.normalized[b])
                )
            if cache.norm_caches[b] is not None:
                grad_current = normalize_backward(cache.norm_caches[b], grad_current)
            w_grad_local, x_grad = executor.backward(
                cache.block_caches[b], grad_current
            )
            grad_weights[self.qnn.weight_slices[b]] += w_grad_local
            grad_current = x_grad  # dL/d(previous block's outputs)

        return loss, acc, grad_weights

    # -- inference ---------------------------------------------------------

    @staticmethod
    def _inference_blocks(executor):
        """The block callable inference walks with (see :meth:`predict`)."""
        executor = executor or NoiselessExecutor()
        if isinstance(executor, InferenceExecutor):
            return lambda c, w, x: (executor.forward_inference(c, w, x), None)
        return executor.forward

    def predict(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        executor: "object | None" = None,
    ) -> np.ndarray:
        """Run the inference pipeline; returns logits.

        ``executor`` defaults to noise-free simulation; pass a
        :class:`DensityEvalExecutor` ("noise model", superoperator-
        compiled exact channel) or :class:`TrajectoryEvalExecutor`
        ("real QC", segment-fused and optionally sharded) for noisy
        inference.  Normalization uses the batch's own statistics unless
        :attr:`fixed_stats` is set (validation-statistics mode).

        Executors conforming to the :class:`InferenceExecutor` protocol
        (noise-free simulation) run tape-free through the gate-fusion
        pass: adjacent gate runs collapse into single matrices, cached
        per weight vector across repeated predict/evaluate calls; plain
        :class:`EvalExecutor` backends run their ``forward`` path.
        """
        run = self._inference_blocks(executor)
        head_input = self._run_blocks(weights, inputs, run, stats=self.fixed_stats)
        return head_input @ self.head.T

    def evaluate(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        labels: np.ndarray,
        executor: "object | None" = None,
    ) -> "tuple[float, float]":
        """(accuracy, cross-entropy loss) of the pipeline on a dataset."""
        logits = self.predict(weights, inputs, executor)
        loss, _grad, _probs = cross_entropy(logits, labels)
        return accuracy(logits, labels), loss

    def measure_block_outcomes(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        block: int,
        executor: "object | None" = None,
    ) -> np.ndarray:
        """Raw measurement outcomes of one block (analysis/figures).

        Runs :meth:`predict`'s pipeline up to ``block`` (same executor
        path, :attr:`fixed_stats` when pinned) and returns that block's
        *untransformed* expectations -- what Figures 4 and 6 histogram.
        """
        if not 0 <= block < self.n_blocks:
            raise IndexError(f"block {block} not in 0..{self.n_blocks - 1}")
        run = self._inference_blocks(executor)
        return self._run_blocks(
            weights, inputs, run, stats=self.fixed_stats, stop=block
        )

    def profile_statistics(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        executor: "object | None" = None,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per-block normalization statistics on a dataset.

        One ``(mean, std)`` per block, from :func:`batch_statistics` (the
        statistics :func:`normalize` uses) along :meth:`predict`'s path,
        so pinning them and predicting the profiled batch reproduces
        batch-statistics predict exactly; a block without a transform
        never reads its entry.  Run once on the validation set and assign
        to :attr:`fixed_stats` to reproduce the paper's small-test-batch
        deployment mode (Appendix A.3.7, Table 13).
        """
        stats: "list[tuple[np.ndarray, np.ndarray]]" = []
        run = self._inference_blocks(executor)
        self._run_blocks(weights, inputs, run, profile=stats)
        return stats


class _ReferenceBlocks:
    """Per-sample reference block executor for the training step.

    Every sample of every noise realization (its error circuit drawn from
    the training executor's sampler and rng) is bound and swept alone
    through the reference kernels, and backward runs one reference
    adjoint per tape: the nested loops the batched engine replaces.
    Only a :class:`GateInsertionExecutor` has a sampler, and sampled
    error circuits have no form for exact channels, so gate insertion on
    any other executor, or on a model with exact channels, is refused.
    """

    def __init__(self, model: QuantumNATModel):
        injection = model.config.injection
        self.executor = model._train_executor
        self.insertion = injection.strategy == GATE_INSERTION
        self.n_real = injection.n_realizations if self.insertion else 1
        if self.insertion and (
            not isinstance(self.executor, GateInsertionExecutor)
            or self.executor.noise_model.has_exact_channels
        ):
            raise ValueError(
                "the per-sample reference step samples Pauli error circuits: "
                "it needs a GateInsertionExecutor on a model without exact "
                f"channels, got {type(self.executor).__name__}"
            )

    def forward(self, compiled, weights, inputs):
        executor = self.executor
        realizations, tapes = [], []
        for _ in range(self.n_real):
            circuit = compiled.circuit
            if self.insertion:
                circuit, _stats = executor.sampler.sample(
                    circuit, compiled.physical_qubits, executor.rng
                )
            rows = []
            for i in range(inputs.shape[0]):
                ops = bind_circuit_reference(circuit, weights, inputs[i : i + 1])
                state = run_ops_reference(ops, circuit.n_qubits, 1)
                tapes.append(
                    QuantumTape(circuit, ops, state, weights.size, inputs.shape[1])
                )
                rows.append(z_expectations(state, circuit.n_qubits))
            realizations.append(np.vstack(rows))
        expectations = sum(realizations) / self.n_real
        logical = expectations[:, list(compiled.measure_qubits)]
        scales = None
        if self.insertion and executor.readout:
            readout = compiled.readout_matrices(executor.noise_model)
            logical, scales = apply_readout_to_expectations(logical, readout)
        return logical, (compiled, tapes, scales)

    def backward(self, cache, grad_logical):
        compiled, tapes, scales = cache
        if scales is not None:
            grad_logical = grad_logical * scales[None, :]
        batch = grad_logical.shape[0]
        grad = np.zeros((batch, compiled.circuit.n_qubits))
        grad[:, list(compiled.measure_qubits)] = grad_logical
        grads = [  # tapes are realization-major: tape k holds sample k % batch
            adjoint_backward_reference(tape, grad[k % batch][None] / self.n_real)
            for k, tape in enumerate(tapes)
        ]
        x_rows = [sum(xg[0] for _, xg in grads[i::batch]) for i in range(batch)]
        return sum(wg for wg, _ in grads), np.vstack(x_rows)


def predict(
    model: QuantumNATModel,
    weights: np.ndarray,
    inputs: np.ndarray,
    *,
    engine: "str | None" = None,
    executor: "object | None" = None,
    fallback: bool = True,
    **engine_kwargs,
) -> np.ndarray:
    """Stable top-level inference entry point; returns logits.

    Thin functional wrapper over :meth:`QuantumNATModel.predict` that
    resolves ``engine`` names through the registry, so callers select a
    backend by name instead of constructing executors:

    * ``executor`` -- use this evaluation backend directly;
    * ``engine`` -- build the named engine for the model's device noise
      model (``engine_kwargs`` forward to the factory: ``rng``,
      ``samples``, ``shots``, ...).  With ``fallback=True`` (default)
      resolution degrades along the registry's fallback chain and emits
      :class:`~repro.runtime.errors.DegradedExecution`; otherwise an
      unservable request raises immediately;
    * neither -- noise-free simulation.

    Engines declaring no channel support (``noiseless``) are built
    without a noise model, so they remain addressable by name.
    """
    if engine is not None and executor is not None:
        raise TypeError("pass either 'engine' or 'executor', not both")
    if engine is not None:
        from repro.core.engine import (
            create_engine,
            create_engine_with_fallback,
            engine_spec,
        )

        noise_model = model.device.noise_model
        if not engine_spec(engine).capabilities.channels:
            noise_model = None
        if fallback:
            executor = create_engine_with_fallback(
                engine,
                noise_model,
                widest=max(c.circuit.n_qubits for c in model.compiled),
                **engine_kwargs,
            )
        else:
            executor = create_engine(engine, noise_model, **engine_kwargs)
    return model.predict(weights, inputs, executor)

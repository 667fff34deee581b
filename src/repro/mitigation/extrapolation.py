"""Zero-noise extrapolation of measurement statistics (paper Table 4).

The extrapolation baseline [23] is *orthogonal* to QuantumNAT: the paper
combines it with post-measurement normalization by

1. repeating a block's trainable layers k = 1, 2, 3, 4 times (scaling
   the accumulated noise roughly linearly with depth),
2. measuring the std of the measurement outcomes at each repetition,
3. linearly extrapolating std vs. k back to k = 0: the noise-free std,
4. rescaling the noisy outcomes so their std matches the extrapolated
   noise-free value, then applying post-measurement normalization.

Both literal layer repetition (the paper's wording) and function-
preserving folding ``U (U^dag U)^k`` are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.passes import transpile
from repro.core.pipeline import QuantumNATModel
from repro.mitigation.zne import linear_zero
from repro.utils.cache import Cache

#: Transpiled derived blocks, keyed on (circuit, device, level).
_TRANSPILE_CACHE = Cache("zne.transpile", 16)


def linear_extrapolate_to_zero(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Least-squares line through (xs, ys[:, q]) evaluated at x = 0.

    ``ys`` may be 1-D or (len(xs), n_qubits); returns the intercept(s).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) < 2:
        raise ValueError("need at least two noise-scale points")
    return linear_zero(xs, ys)


@dataclass
class ExtrapolationResult:
    """Measured stds per repetition and the zero-noise estimate."""

    repeats: np.ndarray
    stds: np.ndarray  # (n_repeats, n_qubits)
    extrapolated_std: np.ndarray  # (n_qubits,)


def extrapolate_noise_free_std(
    model: QuantumNATModel,
    weights: np.ndarray,
    inputs: np.ndarray,
    executor_factory,
    block: int = 0,
    repeats: "tuple[int, ...]" = (1, 2, 3, 4),
    mode: str = "repeat",
) -> ExtrapolationResult:
    """Estimate a block's noise-free outcome std by depth scaling.

    ``executor_factory(compiled)`` must return expectations
    ``(batch, n_qubits)`` when called as ``f(compiled, weights, inputs)``
    -- typically a closure over a noisy evaluation backend.
    ``mode='repeat'`` literally repeats the trainable layers (paper
    wording: "repeat the 3 layers to 6, 9, 12 layers"); ``mode='fold'``
    uses function-preserving folding with odd depth multiples.
    """
    if mode not in ("repeat", "fold"):
        raise ValueError("mode must be 'repeat' or 'fold'")
    w_local = model.qnn.block_weights(weights, block)
    stds = []
    scaled_depths = []
    for k in repeats:
        if mode == "repeat":
            circuit = model.qnn.repeated_block(block, k)
            depth_scale = k
        else:
            circuit = model.qnn.folded_block(block, k - 1)
            depth_scale = 2 * (k - 1) + 1
        # The QNN memoizes derived circuits, so repeated extrapolation
        # sweeps (drift-adaptation loops re-estimate every step) see the
        # same circuit objects and reuse their compilations.  The key is
        # everything a compilation depends on: the circuit (by identity),
        # the device (its calibration included, so models rebound by
        # adapt_model never share a stale entry) and the level.
        compiled = _TRANSPILE_CACHE.get_or_build(
            (circuit, model.device, model.optimization_level),
            lambda: transpile(circuit, model.device, model.optimization_level),
        )
        expectations = executor_factory(compiled, w_local, inputs)
        stds.append(expectations.std(axis=0))
        scaled_depths.append(depth_scale)
    stds = np.stack(stds)
    extrapolated = linear_extrapolate_to_zero(np.asarray(scaled_depths, float), stds)
    extrapolated = np.clip(extrapolated, 1e-4, None)
    return ExtrapolationResult(np.asarray(scaled_depths), stds, extrapolated)


def rescale_to_extrapolated_std(
    outcomes: np.ndarray, extrapolated_std: np.ndarray
) -> np.ndarray:
    """Rescale noisy outcomes so each qubit's std matches the estimate.

    Centering is preserved; the paper then applies post-measurement
    normalization on top.
    """
    outcomes = np.asarray(outcomes, dtype=float)
    mean = outcomes.mean(axis=0, keepdims=True)
    std = outcomes.std(axis=0, keepdims=True) + 1e-8
    return mean + (outcomes - mean) * (extrapolated_std[None, :] / std)

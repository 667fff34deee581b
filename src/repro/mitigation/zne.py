"""Zero-noise extrapolation (ZNE) of expectation values.

The paper's Table 4 uses a std-extrapolation variant tailored to
QuantumNAT's normalization (see :mod:`repro.mitigation.extrapolation`);
this module implements the *general* Temme-style ZNE it descends from:
run the same circuit at amplified noise levels and extrapolate each
expectation value back to the zero-noise limit.

Noise amplification uses unitary folding, ``U -> U (U^dag U)^k``, which
preserves the function while multiplying depth (and hence accumulated
noise) by an odd factor; fractional scales fold only a suffix of the
gate list.  Extrapolators: linear least squares, Richardson (exact
polynomial through all points) and a saturating exponential fit.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from repro.circuits.circuit import Circuit
from repro.utils.cache import circuit_cache

Runner = Callable[[Circuit], np.ndarray]


def fold_circuit(circuit: Circuit, scale: float) -> Circuit:
    """Depth-amplified, function-preserving copy of ``circuit``.

    ``scale`` >= 1 is the target depth multiplier.  Whole numbers of
    ``U^dag U`` pairs come from global folding; any remainder folds the
    trailing gates individually (``g -> g g^dag g``), so the effective
    scale is the closest achievable ``(len + 2*folded) / len``.
    """
    if scale < 1.0:
        raise ValueError(f"fold scale must be >= 1, got {scale}")
    folded = circuit.copy()
    n_global = int((scale - 1.0) // 2.0)
    for _ in range(n_global):
        folded.extend(circuit.inverse())
        folded.extend(circuit)
    achieved = 1.0 + 2.0 * n_global
    if len(circuit) == 0:
        return folded
    # Remaining fractional scale via per-gate folding of a suffix.
    remainder = scale - achieved
    n_gates = int(round(remainder * len(circuit) / 2.0))
    n_gates = min(n_gates, len(circuit))
    if n_gates > 0:
        suffix = Circuit(circuit.n_qubits, list(circuit.gates[-n_gates:]))
        folded.extend(suffix.inverse())
        folded.extend(suffix)
    return folded


def achieved_scale(circuit: Circuit, folded: Circuit) -> float:
    """The realized depth multiplier of a folded circuit."""
    if len(circuit) == 0:
        return 1.0
    return len(folded) / len(circuit)


#: Folded copies retained per circuit, keyed on the scale.
_FOLD_CACHE_SIZE = 8


def cached_fold(circuit: Circuit, scale: float) -> Circuit:
    """:func:`fold_circuit` memoized per circuit and scale.

    Repeated ZNE sweeps over the same circuit then reuse the *same*
    folded circuit objects -- which is what lets the plans cached for
    them (statevector bind and fusion plans, density superoperator
    plans) survive across calls instead of being rebuilt per sweep.  The folds live in the circuit's
    :func:`~repro.utils.cache.circuit_cache`, so they are dropped with
    its other derived values when its gate list changes.
    """
    return circuit_cache(circuit, "zne.fold", _FOLD_CACHE_SIZE).get_or_build(
        float(scale), lambda: fold_circuit(circuit, scale)
    )


# -- extrapolators -----------------------------------------------------------------


def linear_zero(scales: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares linear fit evaluated at scale 0."""
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.stack([scales, np.ones_like(scales)], axis=1)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return coef[1]


def richardson_zero(scales: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Richardson extrapolation: the degree-(n-1) polynomial at 0.

    Exact when the noise response really is polynomial of that degree;
    aggressive (high variance) otherwise -- the classic ZNE tradeoff.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(set(scales.tolist())) != scales.size:
        raise ValueError("Richardson extrapolation needs distinct scales")
    total = np.zeros(values.shape[1:] if values.ndim > 1 else ())
    for i, x_i in enumerate(scales):
        weight = 1.0
        for j, x_j in enumerate(scales):
            if i != j:
                weight *= x_j / (x_j - x_i)
        total = total + weight * values[i]
    return total


def exponential_zero(scales: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fit ``y = a + b exp(-c x)`` per column; evaluate at 0.

    Matches the physical saturation of Pauli noise (expectations decay
    toward a fixed point as depth grows).  Falls back to the linear
    extrapolator when the fit does not converge.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    flat = values.reshape(len(scales), -1)
    out = np.empty(flat.shape[1])

    def model(x, a, b, c):
        return a + b * np.exp(-c * x)

    for col in range(flat.shape[1]):
        y = flat[:, col]
        spread = float(np.max(np.abs(y))) or 1.0
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OptimizeWarning)
                # Bound the fit to genuine decays (c >= 0) with bounded
                # amplitude, otherwise near-flat data lets the optimizer
                # run off to enormous extrapolations.
                popt, _ = curve_fit(
                    model,
                    scales,
                    y,
                    p0=(float(y[-1]), float(y[0] - y[-1]), 0.1),
                    bounds=(
                        [-4 * spread, -4 * spread, 0.0],
                        [4 * spread, 4 * spread, 20.0],
                    ),
                    maxfev=5000,
                )
            out[col] = model(0.0, *popt)
        except RuntimeError:
            out[col] = np.atleast_1d(linear_zero(scales, y))[()]
    return out.reshape(values.shape[1:]) if values.ndim > 1 else float(out[0])


_EXTRAPOLATORS = {
    "linear": linear_zero,
    "richardson": richardson_zero,
    "exponential": exponential_zero,
}


def zne_expectations(
    run: Runner,
    circuit: Circuit,
    scales: "tuple[float, ...]" = (1.0, 2.0, 3.0),
    method: str = "linear",
) -> np.ndarray:
    """Zero-noise-extrapolated expectations for a circuit.

    ``run(circuit)`` executes one circuit on the noisy backend and
    returns an expectation array (any shape, as long as it is consistent
    across calls).  The same circuit is executed once per noise scale;
    the chosen extrapolator combines the results.
    """
    if method not in _EXTRAPOLATORS:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(_EXTRAPOLATORS)}"
        )
    if len(scales) < 2:
        raise ValueError("ZNE needs at least two noise scales")
    realized = []
    results = []
    for scale in scales:
        # Folded circuits are memoized per scale: repeated ZNE sweeps
        # hand the runner identical circuit objects, so the noisy
        # backends' per-circuit plans (noisy fusion plans,
        # superoperators) are reused across every fold of every call.
        folded = cached_fold(circuit, scale)
        realized.append(achieved_scale(circuit, folded))
        results.append(np.asarray(run(folded), dtype=float))
    values = np.stack(results)
    return _EXTRAPOLATORS[method](np.asarray(realized), values)

"""Quantum error-gate insertion (paper Section 3.2, Figure 5).

During noise-injected training, a fresh set of Pauli error gates is
sampled *every training step* from the device noise model: after each
compiled gate, X / Y / Z gates are inserted on each operand qubit with the
model's probabilities scaled by the noise factor ``T``.

Which channels follow each gate, and in which order, is decided in one
place, :func:`noise_sites`, whose per-block table every engine reads:
the Pauli channel on each operand, then exact thermal relaxation
(non-virtual gates), then coherent miscalibration (driven gates).  Only
the reference oracles ``run_noisy_density_reference`` and
``mcwf_probabilities_reference`` walk the model themselves, so the
equivalence suites check the table against an independent derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Circuit, Gate
from repro.circuits.parameters import ParamExpr
from repro.compiler.superop import _PLAN_CACHE_SIZE
from repro.noise.model import (
    CHANNEL_COHERENT,
    CHANNEL_PAULI,
    CHANNEL_RELAXATION,
    UNDRIVEN_GATES,
    VIRTUAL_GATES,
    NoiseModel,
)
from repro.utils.cache import circuit_cache
from repro.utils.rng import as_rng

_PAULI_NAMES = (None, "x", "y", "z")


def _check_noise_factor(noise_factor: float) -> None:
    """Reject a negative noise factor ``T``."""
    if noise_factor < 0:
        raise ValueError("noise factor must be non-negative")


def exact_channel_support_message() -> str:
    """Why Pauli sampling refuses exact-channel models, with alternatives.

    The list of capable engines is generated from the engine registry's
    capability declarations (:mod:`repro.core.engine`), so a newly
    registered relaxation-capable engine shows up here without touching
    this module.  The registry lives above the noise layer, hence the
    lazy import; if it is unavailable (partial import during bootstrap)
    the message falls back to naming the density backends.
    """
    try:  # pragma: no branch - import succeeds in any assembled install
        from repro.core.engine import engines_supporting

        names = ", ".join(
            spec.name for spec in engines_supporting(CHANNEL_RELAXATION)
        )
    except Exception:  # pragma: no cover - bootstrap fallback
        names = "density, mcwf"
    return (
        "noise model carries exact (non-Pauli) relaxation channels, "
        "which Pauli gate-insertion/trajectory sampling cannot "
        f"represent; engines supporting exact channels: {names}. "
        "Alternatively build the Pauli-twirled model "
        "(noise_model_from_relaxation(..., exact_channels=False))"
    )


def noise_sites(
    circuit: Circuit,
    physical_qubits: "tuple[int, ...]",
    noise_model: NoiseModel,
    noise_factor: float,
) -> "tuple[tuple[tuple, ...], ...]":
    """The noise channels that follow each gate of ``circuit``, in order.

    Entry ``i`` holds gate ``i``'s sites ``(kind, local qubit, payload)``
    in the order their channels act, ``kind`` a channel-kind name of
    :mod:`repro.noise.model`:

    * ``"pauli"`` on each operand the scaled model lists an error for,
      zero-probability entries included (:meth:`ErrorGateSampler.sample`
      draws for them); payload ``(error, probs)``, the
      :class:`~repro.noise.model.PauliError` and its (None, X, Y, Z)
      vector, whose boundaries every sampler reads off
      :func:`pauli_cdf`;
    * ``"relaxation"`` after non-virtual gates, on each operand with an
      exact thermal-relaxation channel; payload ``(kraus, effects)``,
      the ``(m, 2, 2)`` Kraus stack and its ``K^dag K`` effects;
    * ``"coherent"`` after driven gates, on each miscalibrated operand;
      payload ``(ey, ez)``: RY(ey), then RZ(ez).

    ``physical_qubits[i]`` is the physical id of circuit qubit ``i``.
    The table lives in the circuit's
    :func:`~repro.utils.cache.circuit_cache` as ``noise.sites``, keyed by
    (model, factor, layout), so a training loop builds it once per block.
    """
    physical_qubits = tuple(physical_qubits)

    def build() -> "tuple[tuple[tuple, ...], ...]":
        scaled = (
            noise_model.scaled(noise_factor) if noise_factor != 1.0 else noise_model
        )
        table = []
        for gate in circuit.gates:
            phys = tuple(physical_qubits[q] for q in gate.qubits)
            sites = []
            for local_q, (_phys_q, error) in zip(
                gate.qubits, scaled.gate_errors(gate.name, phys)
            ):
                sites.append(
                    (CHANNEL_PAULI, local_q, (error, error.probabilities()))
                )
            if gate.name not in VIRTUAL_GATES:
                for local_q, phys_q in zip(gate.qubits, phys):
                    kraus = scaled.relaxation_kraus_for(phys_q, len(gate.qubits))
                    if kraus is None:
                        continue
                    stack = np.stack([np.asarray(k, dtype=complex) for k in kraus])
                    effects = np.einsum("mij,mik->mjk", stack.conj(), stack)
                    sites.append((CHANNEL_RELAXATION, local_q, (stack, effects)))
            if gate.name not in UNDRIVEN_GATES:
                for local_q, phys_q in zip(gate.qubits, phys):
                    coherent = scaled.coherent_for(phys_q)
                    if coherent is not None:
                        sites.append((CHANNEL_COHERENT, local_q, coherent))
            table.append(tuple(sites))
        return tuple(table)

    return circuit_cache(circuit, "noise.sites", _PLAN_CACHE_SIZE).get_or_build(
        (noise_model, noise_factor, physical_qubits), build
    )


def pauli_cdf(
    circuit: Circuit,
    physical_qubits: "tuple[int, ...]",
    noise_model: NoiseModel,
    noise_factor: float,
) -> np.ndarray:
    """The block's Pauli sites as one stacked inverse-CDF table.

    Row ``s`` belongs to the ``s``-th Pauli site of :func:`noise_sites`,
    in table order, zero-total sites included.  It is the site's
    (None, X, Y, Z) vector normalized as ``Generator.choice`` normalizes
    it (``cdf = p.cumsum(); cdf /= cdf[-1]``), cut to its (None, X, Y)
    boundaries, so a uniform ``u`` picks ``(u >= row).sum()``: the index
    ``rng.choice(4, p=probs)`` returns from the same double.  Cached in
    the circuit's :func:`~repro.utils.cache.circuit_cache` as
    ``noise.cdf``, under the key of the ``noise.sites`` entry.
    """
    physical_qubits = tuple(physical_qubits)

    def build() -> np.ndarray:
        table = noise_sites(circuit, physical_qubits, noise_model, noise_factor)
        probs = np.array([
            payload[1]
            for sites in table
            for kind, _q, payload in sites
            if kind == CHANNEL_PAULI
        ]).reshape(-1, 4)
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, 3:]
        return np.ascontiguousarray(cdf[:, :3])

    return circuit_cache(circuit, "noise.cdf", _PLAN_CACHE_SIZE).get_or_build(
        (noise_model, noise_factor, physical_qubits), build
    )


@dataclass
class InsertionStats:
    """Bookkeeping about one sampled error circuit.

    ``choices`` is the draw behind it (:meth:`ErrorGateSampler.draw`'s
    ``(n_sites, 1)`` indices), which the training sweep folds into the
    block's fused plan instead of running the sampled circuit.
    """

    n_original: int
    n_inserted: int
    choices: "np.ndarray | None" = field(default=None, repr=False, compare=False)

    @property
    def overhead(self) -> float:
        """Inserted-gate fraction; the paper reports < 2% typically."""
        if self.n_original == 0:
            return 0.0
        return self.n_inserted / self.n_original


class ErrorGateSampler:
    """Samples error-gate-augmented circuits from a noise model.

    Parameters
    ----------
    noise_model:
        The device's published noise model (physical-qubit indexed).
    noise_factor:
        The paper's ``T`` scaling on X/Y/Z probabilities (typical range
        [0.5, 1.5]; Figure 8 sweeps [1e-2, 1e1]).
    allow_exact:
        Accept models carrying exact (non-Pauli) relaxation Kraus
        channels.  Only the quantum-jump (MCWF) consumers set this: they
        sample jumps from the relaxation sites of :func:`noise_sites`,
        while plain Pauli insertion cannot represent such channels and
        refuses them with the registry-derived capability error.
    """

    def __init__(
        self,
        noise_model: NoiseModel,
        noise_factor: float = 1.0,
        allow_exact: bool = False,
    ):
        _check_noise_factor(noise_factor)
        if noise_model.has_exact_channels and not allow_exact:
            raise ValueError(exact_channel_support_message())
        self.noise_model = noise_model
        self.noise_factor = noise_factor

    def draw(
        self,
        circuit: Circuit,
        physical_qubits: "tuple[int, ...]",
        rng: np.random.Generator,
        n: int = 1,
    ) -> np.ndarray:
        """Every Pauli site's choice for ``n`` realizations, in one draw.

        Returns ``(n_sites, n)`` indices into (None, X, Y, Z), one row per
        Pauli site of :func:`noise_sites` in table order, read off
        :func:`pauli_cdf` with a single ``rng.random((n_sites, n))``
        call.  Row by row, that call consumes the same doubles in the
        same order as a per-site ``rng.choice(4, size=n, p=probs)`` loop,
        so the choices and the generator's state afterwards equal the
        loop's.
        """
        cdf = pauli_cdf(
            circuit, physical_qubits, self.noise_model, self.noise_factor
        )
        u = rng.random((cdf.shape[0], n))
        return (u[:, :, None] >= cdf[:, None, :]).sum(axis=2)

    def sample(
        self,
        circuit: Circuit,
        physical_qubits: "tuple[int, ...]",
        rng: "int | np.random.Generator | None" = None,
    ) -> "tuple[Circuit, InsertionStats]":
        """Insert sampled Pauli error gates after each gate of ``circuit``.

        ``physical_qubits[i]`` is the physical id of circuit qubit ``i``
        (the compiled circuit is compacted to its used qubits); noise
        probabilities are looked up by physical id but error gates are
        emitted on circuit-local indices.  Every Pauli site of
        :func:`noise_sites` is chosen by one :meth:`draw`, kept as the
        stats' ``choices``; coherent sites become RY, RZ gates.
        Relaxation sites have no gate form and are left out.
        """
        rng = as_rng(rng)
        table = noise_sites(
            circuit, physical_qubits, self.noise_model, self.noise_factor
        )
        drawn = self.draw(circuit, physical_qubits, rng)
        choices = iter(drawn[:, 0].tolist())
        gates: "list[Gate]" = []
        inserted = 0
        for gate, sites in zip(circuit.gates, table):
            gates.append(gate)
            for kind, local_q, payload in sites:
                if kind == CHANNEL_PAULI:
                    choice = next(choices)
                    if choice:
                        gates.append(Gate(_PAULI_NAMES[choice], (local_q,)))
                        inserted += 1
                elif kind == CHANNEL_COHERENT:
                    ey, ez = payload
                    gates.append(Gate("ry", (local_q,), (ParamExpr.constant(ey),)))
                    gates.append(Gate("rz", (local_q,), (ParamExpr.constant(ez),)))
        stats = InsertionStats(len(circuit.gates), inserted, drawn)
        return Circuit(circuit.n_qubits, gates), stats

    def expected_overhead(
        self, circuit: Circuit, physical_qubits: "tuple[int, ...]"
    ) -> float:
        """Expected inserted-gate fraction (no sampling)."""
        if len(circuit.gates) == 0:
            return 0.0
        table = noise_sites(
            circuit, physical_qubits, self.noise_model, self.noise_factor
        )
        expected = sum(
            payload[0].total
            for sites in table
            for kind, _q, payload in sites
            if kind == CHANNEL_PAULI
        )
        return expected / len(circuit.gates)

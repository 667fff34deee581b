"""Quantum error-gate insertion (paper Section 3.2, Figure 5).

During noise-injected training, a fresh set of Pauli error gates is
sampled *every training step* from the device noise model: after each
compiled gate, X / Y / Z gates are inserted on each operand qubit with the
model's probabilities scaled by the noise factor ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit, Gate
from repro.circuits.parameters import ParamExpr
from repro.noise.model import UNDRIVEN_GATES, NoiseModel
from repro.utils.rng import as_rng

_PAULI_NAMES = (None, "x", "y", "z")


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
        from repro.noise.model import CHANNEL_RELAXATION

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


@dataclass
class InsertionStats:
    """Bookkeeping about one sampled error circuit."""

    n_original: int
    n_inserted: int

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
        sample jumps from the exact Kraus sets via :meth:`jump_table`,
        while plain Pauli insertion cannot represent such channels and
        refuses them with the registry-derived capability error.
    """

    def __init__(
        self,
        noise_model: NoiseModel,
        noise_factor: float = 1.0,
        allow_exact: bool = False,
    ):
        if noise_factor < 0:
            raise ValueError("noise factor must be non-negative")
        if noise_model.has_exact_channels and not allow_exact:
            raise ValueError(exact_channel_support_message())
        self.noise_model = noise_model
        self.noise_factor = noise_factor
        self._scaled = noise_model.scaled(noise_factor) if noise_factor != 1.0 else noise_model

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
        emitted on circuit-local indices.
        """
        rng = as_rng(rng)
        phys = {i: physical_qubits[i] for i in range(circuit.n_qubits)}
        gates: "list[Gate]" = []
        inserted = 0
        for gate in circuit.gates:
            gates.append(gate)
            phys_qubits = tuple(phys[q] for q in gate.qubits)
            for local_q, (phys_q, error) in zip(
                gate.qubits,
                self._scaled.gate_errors(gate.name, phys_qubits),
            ):
                choice = rng.choice(4, p=error.probabilities())
                name = _PAULI_NAMES[choice]
                if name is not None:
                    gates.append(Gate(name, (local_q,)))
                    inserted += 1
            # Deterministic coherent miscalibration (hardware models only).
            if gate.name not in UNDRIVEN_GATES:
                for local_q, phys_q in zip(gate.qubits, phys_qubits):
                    coherent = self._scaled.coherent_for(phys_q)
                    if coherent is not None:
                        ey, ez = coherent
                        gates.append(
                            Gate("ry", (local_q,), (ParamExpr.constant(ey),))
                        )
                        gates.append(
                            Gate("rz", (local_q,), (ParamExpr.constant(ez),))
                        )
        stats = InsertionStats(len(circuit.gates), inserted)
        return Circuit(circuit.n_qubits, gates), stats

    def sample_batched(
        self,
        circuit: Circuit,
        physical_qubits: "tuple[int, ...]",
        n_trajectories: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> "list[list[tuple]]":
        """Per-gate error events for ``n_trajectories`` trajectories at once.

        Instead of materializing ``n_trajectories`` separate circuits, this
        draws every trajectory's Pauli choice for a given (gate, qubit)
        site in a single vectorized call.  Returns one event list per gate
        of ``circuit``, each event being either

        * ``("pauli", local_qubit, choices)`` with ``choices`` a
          ``(n_trajectories,)`` int array indexing (I, X, Y, Z) -- emitted
          only when at least one trajectory drew a non-identity error; or
        * ``("coherent", local_qubit, (ey, ez))`` for the deterministic
          miscalibration rotations (identical across trajectories).

        Event order matches :meth:`sample`'s gate-insertion order, so the
        fused trajectory sweep applies exactly the same channel.
        """
        rng = as_rng(rng)
        events: "list[list[tuple]]" = []
        for gate in circuit.gates:
            post: "list[tuple]" = []
            phys_qubits = tuple(physical_qubits[q] for q in gate.qubits)
            for local_q, (_phys_q, error) in zip(
                gate.qubits,
                self._scaled.gate_errors(gate.name, phys_qubits),
            ):
                choices = rng.choice(
                    4, size=n_trajectories, p=error.probabilities()
                )
                if choices.any():
                    post.append(("pauli", local_q, choices))
            if gate.name not in UNDRIVEN_GATES:
                for local_q, phys_q in zip(gate.qubits, phys_qubits):
                    coherent = self._scaled.coherent_for(phys_q)
                    if coherent is not None:
                        post.append(("coherent", local_q, coherent))
            events.append(post)
        return events

    def site_table(
        self, circuit: Circuit, physical_qubits: "tuple[int, ...]"
    ) -> "tuple[list[tuple[int, int, np.ndarray]], dict[int, list[tuple[int, tuple[float, float]]]]]":
        """Static description of every possible error-insertion site.

        Returns ``(pauli_sites, coherent_by_gate)``:

        * ``pauli_sites`` lists ``(gate_index, local_qubit, cum)`` for
          every (gate, operand) pair whose scaled Pauli total is
          positive, with ``cum`` the cumulative (None, X, Y) probability
          boundaries -- a uniform draw ``u`` maps to the Pauli choice
          ``sum(u >= cum)``, the vectorized inverse-CDF equivalent of
          :meth:`sample`'s per-site ``rng.choice``;
        * ``coherent_by_gate`` maps a gate index to its deterministic
          ``(local_qubit, (ey, ez))`` miscalibration rotations.

        Site order matches :meth:`sample`'s insertion order, so sweeps
        driven by this table apply exactly the same channel.  Zero-
        probability entries are omitted: they can never produce an event.
        """
        pauli_sites: "list[tuple[int, int, np.ndarray]]" = []
        coherent_by_gate: "dict[int, list[tuple[int, tuple[float, float]]]]" = {}
        for index, gate in enumerate(circuit.gates):
            phys_qubits = tuple(physical_qubits[q] for q in gate.qubits)
            for local_q, (_phys_q, error) in zip(
                gate.qubits, self._scaled.gate_errors(gate.name, phys_qubits)
            ):
                if error.total <= 0:
                    continue
                cum = np.cumsum(error.probabilities())[:3]
                pauli_sites.append((index, local_q, cum))
            if gate.name not in UNDRIVEN_GATES:
                for local_q, phys_q in zip(gate.qubits, phys_qubits):
                    coherent = self._scaled.coherent_for(phys_q)
                    if coherent is not None:
                        coherent_by_gate.setdefault(index, []).append(
                            (local_q, coherent)
                        )
        return pauli_sites, coherent_by_gate

    def jump_table(
        self, circuit: Circuit, physical_qubits: "tuple[int, ...]"
    ) -> "list[tuple[int, int, np.ndarray, np.ndarray]]":
        """Every exact-channel jump site of the circuit, in channel order.

        Returns ``[(gate_index, local_qubit, kraus, effects), ...]`` for
        each (gate, operand) pair where the scaled model attaches an
        exact thermal-relaxation Kraus set: ``kraus`` is the stacked
        ``(m, 2, 2)`` operator set and ``effects`` the matching
        ``K_i^dag K_i`` stack, whose expectation values are the jump
        probabilities the MCWF unraveling samples from.  Site order
        matches the density reference's channel-application order (the
        Pauli channel of a gate acts first, then relaxation per operand
        in ``gate.qubits`` order, then coherent miscalibration), so the
        trajectory ensemble averages to exactly the compiled channel.
        """
        from repro.noise.model import VIRTUAL_GATES

        sites: "list[tuple[int, int, np.ndarray, np.ndarray]]" = []
        for index, gate in enumerate(circuit.gates):
            if gate.name in VIRTUAL_GATES:
                continue
            for local_q in gate.qubits:
                phys_q = physical_qubits[local_q]
                kraus = self._scaled.relaxation_kraus_for(
                    phys_q, len(gate.qubits)
                )
                if kraus is None:
                    continue
                stack = np.stack([np.asarray(k, dtype=complex) for k in kraus])
                effects = np.einsum("mij,mik->mjk", stack.conj(), stack)
                sites.append((index, local_q, stack, effects))
        return sites

    def expected_overhead(
        self, circuit: Circuit, physical_qubits: "tuple[int, ...]"
    ) -> float:
        """Expected inserted-gate fraction (no sampling)."""
        if len(circuit.gates) == 0:
            return 0.0
        expected = 0.0
        phys = {i: physical_qubits[i] for i in range(circuit.n_qubits)}
        for gate in circuit.gates:
            phys_qubits = tuple(phys[q] for q in gate.qubits)
            for _q, error in self._scaled.gate_errors(gate.name, phys_qubits):
                expected += error.total
        return expected / len(circuit.gates)

"""Device noise models: per-gate Pauli error probabilities + readout matrices.

Mirrors what IBMQ publishes for each backend and what QuantumNAT consumes
(Section 3.2): for every basis gate on every qubit (or qubit pair) a Pauli
error distribution ``E = {X: px, Y: py, Z: pz, None: 1 - px - py - pz}``,
and for every qubit a 2x2 readout confusion matrix ``M[true, measured]``.

The paper's worked example -- SX on Yorktown qubit 1 with
``{X: 0.00096, Y: 0.00096, Z: 0.00096, None: 0.99712}`` -- is exactly one
entry of such a model.  The *noise factor* ``T`` scales the X/Y/Z
probabilities during sampling (Section 3.2); :meth:`NoiseModel.scaled`
implements that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: RZ is implemented virtually (frame change) on IBMQ hardware: error-free.
VIRTUAL_GATES = frozenset({"rz"})

#: Gates played without a drive pulse -- the virtual ``rz`` and the idle
#: ``id`` -- so no coherent control (miscalibration) error follows them.
#: Relaxation still acts during ``id``, hence the separate set.
UNDRIVEN_GATES = frozenset({"rz", "id"})

#: Channel-kind names shared by :meth:`NoiseModel.channel_kinds` and the
#: engine registry's capability declarations
#: (:mod:`repro.core.engine`) -- the vocabulary in which an execution
#: backend states what it can represent.
CHANNEL_PAULI = "pauli"
CHANNEL_COHERENT = "coherent"
CHANNEL_READOUT = "readout"
CHANNEL_RELAXATION = "relaxation"
ALL_CHANNEL_KINDS = frozenset(
    {CHANNEL_PAULI, CHANNEL_COHERENT, CHANNEL_READOUT, CHANNEL_RELAXATION}
)


@dataclass(frozen=True)
class PauliError:
    """Pauli error-gate probabilities for one qubit after one gate."""

    px: float
    py: float
    pz: float

    def __post_init__(self) -> None:
        if min(self.px, self.py, self.pz) < 0:
            raise ValueError(f"negative Pauli probability in {self}")
        if self.total > 1 + 1e-12:
            raise ValueError(f"Pauli probabilities sum over 1 in {self}")

    @property
    def total(self) -> float:
        return self.px + self.py + self.pz

    @property
    def p_none(self) -> float:
        """Probability that no error gate is inserted."""
        return max(0.0, 1.0 - self.total)

    def scaled(self, factor: float) -> "PauliError":
        """Scale X/Y/Z probabilities by the noise factor ``T``.

        Capped so the total never exceeds 1 (large T values like 10 are
        used in the Figure 8 contour sweep).
        """
        px, py, pz = self.px * factor, self.py * factor, self.pz * factor
        total = px + py + pz
        if total > 1.0:
            px, py, pz = px / total, py / total, pz / total
        return PauliError(px, py, pz)

    def probabilities(self) -> np.ndarray:
        """Probability vector over (None, X, Y, Z)."""
        return np.array([self.p_none, self.px, self.py, self.pz])


NO_ERROR = PauliError(0.0, 0.0, 0.0)


def validate_relaxation_times(t1: float, t2: float) -> None:
    """Reject unphysical T1/T2 combinations with a clear error.

    Every surface that accepts relaxation times -- the
    :class:`~repro.noise.relaxation.QubitRelaxation` dataclass, the
    duck-typed arguments of ``relaxation_pauli_error`` /
    ``noise_model_from_relaxation``, and :class:`NoiseModel`'s exact
    relaxation channels -- funnels through this check, so a bad pair can
    never silently propagate into negative channel probabilities.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError(f"T1 and T2 must be positive, got T1={t1}, T2={t2}")
    if t2 > 2 * t1 + 1e-12:
        raise ValueError(
            f"unphysical relaxation times: T2={t2} > 2*T1={2 * t1} "
            "(physics requires T2 <= 2*T1)"
        )


def uniform_pauli_error(rate: float) -> PauliError:
    """Equal X/Y/Z probabilities, each ``rate`` -- the paper's convention.

    (The Yorktown example lists px = py = pz = 0.00096 for a gate whose
    reported error rate is ~1e-3.)
    """
    return PauliError(rate, rate, rate)


def readout_matrix(p01: float, p10: float) -> np.ndarray:
    """Readout confusion matrix ``M[true, measured]``.

    ``p01`` = P(measure 1 | true 0), ``p10`` = P(measure 0 | true 1).
    The paper's Santiago example is ``readout_matrix(0.016, 0.022)``.
    """
    if not (0 <= p01 <= 1 and 0 <= p10 <= 1):
        raise ValueError(f"readout probabilities out of range: {p01}, {p10}")
    return np.array([[1 - p01, p01], [p10, 1 - p10]])


class NoiseModel:
    """Noise description of one device in terms of basis-gate Pauli errors.

    Parameters
    ----------
    n_qubits:
        Physical qubit count.
    one_qubit:
        ``{(gate_name, qubit): PauliError}`` for 1q basis gates
        (``sx``, ``x``, ``id``).  Virtual gates (``rz``) never appear.
    two_qubit:
        ``{(qubit_a, qubit_b): PauliError}`` for CX on each coupled pair
        (stored with sorted qubit order; symmetric).
    readout:
        ``(n_qubits, 2, 2)`` array of confusion matrices.
    relaxation:
        Optional ``{qubit: (T1, T2)}`` *exact* thermal-relaxation
        channels (amplitude + phase damping over each gate's duration,
        see :meth:`relaxation_kraus_for`).  These are general Kraus
        sets, consumed only by the density backends; the sampling
        backends (trajectories, gate insertion) require the
        Pauli-twirled approximation instead and refuse models that
        carry exact channels.
    relaxation_durations:
        ``(duration_1q, duration_2q)`` gate durations, in the same time
        unit as T1/T2, over which the relaxation channels act.
    """

    def __init__(
        self,
        n_qubits: int,
        one_qubit: "dict[tuple[str, int], PauliError]",
        two_qubit: "dict[tuple[int, int], PauliError]",
        readout: np.ndarray,
        coherent: "dict[int, tuple[float, float]] | None" = None,
        relaxation: "dict[int, tuple[float, float]] | None" = None,
        relaxation_durations: "tuple[float, float]" = (0.0, 0.0),
    ):
        self.n_qubits = n_qubits
        self.one_qubit = dict(one_qubit)
        self.two_qubit = {tuple(sorted(k)): v for k, v in two_qubit.items()}
        readout = np.asarray(readout, dtype=float)
        if readout.shape != (n_qubits, 2, 2):
            raise ValueError(f"readout shape {readout.shape} != ({n_qubits}, 2, 2)")
        if not np.allclose(readout.sum(axis=2), 1.0, atol=1e-9):
            raise ValueError("readout matrix rows must sum to 1")
        if np.any(readout < -1e-12):
            raise ValueError("readout matrix entries must be non-negative")
        self.readout = readout
        #: Systematic control miscalibration: ``coherent[q] = (ey, ez)``
        #: applies RY(ey) then RZ(ez) after every driven gate on qubit q.
        #: Published calibration models never carry this (vendors report
        #: only stochastic Pauli rates); the hidden hardware twins do --
        #: it is the input-dependent error component that normalization
        #: cannot cancel and that noise-injected training must tolerate.
        self.coherent: "dict[int, tuple[float, float]]" = dict(coherent or {})
        #: Exact per-qubit (T1, T2) relaxation channels; density-only.
        self.relaxation: "dict[int, tuple[float, float]]" = {}
        for q, (t1, t2) in (relaxation or {}).items():
            validate_relaxation_times(t1, t2)
            self.relaxation[q] = (float(t1), float(t2))
        d1, d2 = relaxation_durations
        if d1 < 0 or d2 < 0:
            raise ValueError("relaxation durations must be non-negative")
        self.relaxation_durations: "tuple[float, float]" = (float(d1), float(d2))
        # (qubit, n_operands) -> Kraus stack, built lazily once per model;
        # a plain dict, not a bounded Cache: the keys are qubit x {1q, 2q}.
        self._relaxation_kraus: "dict[tuple[int, int], list[np.ndarray]]" = {}

    # -- lookups -------------------------------------------------------------

    def gate_errors(
        self, name: str, qubits: "tuple[int, ...]"
    ) -> "list[tuple[int, PauliError]]":
        """Pauli errors to sample after one gate: [(qubit, error), ...].

        For 2-qubit gates, errors attach independently to both operands
        (paper: "error gates are inserted after the gate on one or both
        qubits").  Virtual gates return no errors.
        """
        name = name.lower()
        if name in VIRTUAL_GATES:
            return []
        if len(qubits) == 1:
            err = self.one_qubit.get((name, qubits[0]))
            return [(qubits[0], err)] if err is not None else []
        pair = tuple(sorted(qubits[:2]))
        err = self.two_qubit.get(pair)
        if err is None:
            return []
        return [(qubits[0], err), (qubits[1], err)]

    def readout_for(self, qubit: int) -> np.ndarray:
        return self.readout[qubit]

    def coherent_for(self, qubit: int) -> "tuple[float, float] | None":
        """Systematic (RY, RZ) over-rotation after driven gates, if any."""
        return self.coherent.get(qubit)

    @property
    def has_exact_channels(self) -> bool:
        """True when the model carries general (non-Pauli) Kraus channels.

        Such models can only run on engines whose declared capabilities
        include the ``relaxation`` channel kind (the density backends and
        the quantum-jump trajectory engine); Pauli gate-insertion
        sampling checks this flag and raises with the registry-derived
        list of engines that do support it.

        Zero-duration relaxation entries do not count: the channel acts
        over the gate durations and :meth:`relaxation_kraus_for` returns
        None for a non-positive window, so such a model is effectively
        Pauli-only and must stay consistent with :meth:`channel_kinds`
        (the registry would otherwise resolve an engine whose sampler
        refuses the model).
        """
        return bool(self.relaxation) and max(self.relaxation_durations) > 0

    @property
    def channel_kinds(self) -> "frozenset[str]":
        """The channel kinds this model actually exercises.

        A subset of :data:`ALL_CHANNEL_KINDS`, matched against each
        engine's declared capabilities by the registry
        (:mod:`repro.core.engine`) when resolving which backend can
        faithfully execute a model.  Zero-probability Pauli entries and
        identity readout matrices do not count -- they can never produce
        an event.
        """
        kinds: "set[str]" = set()
        if any(e.total > 0 for e in self.one_qubit.values()) or any(
            e.total > 0 for e in self.two_qubit.values()
        ):
            kinds.add(CHANNEL_PAULI)
        if self.coherent:
            kinds.add(CHANNEL_COHERENT)
        identity = np.eye(2)
        if any(
            not np.array_equal(self.readout[q], identity)
            for q in range(self.n_qubits)
        ):
            kinds.add(CHANNEL_READOUT)
        if self.has_exact_channels:
            kinds.add(CHANNEL_RELAXATION)
        return frozenset(kinds)

    def relaxation_kraus_for(
        self, qubit: int, n_operands: int
    ) -> "list[np.ndarray] | None":
        """Exact thermal-relaxation Kraus set after one gate, or None.

        ``n_operands`` selects the gate duration (1q vs 2q) the channel
        acts over.  Virtual gates never relax (the caller skips them);
        ``id`` idles for the 1q window.  The Kraus stacks depend only on
        (T1, T2, duration), so they are built once per model and cached.
        """
        times = self.relaxation.get(qubit)
        if times is None:
            return None
        duration = self.relaxation_durations[0 if n_operands == 1 else 1]
        if duration <= 0:
            return None
        key = (qubit, n_operands)
        kraus = self._relaxation_kraus.get(key)
        if kraus is None:
            from repro.sim.channels import QuantumChannel

            kraus = QuantumChannel.thermal_relaxation(
                times[0], times[1], duration
            ).kraus_ops
            self._relaxation_kraus[key] = kraus
        return kraus

    def with_coherent(
        self, coherent: "dict[int, tuple[float, float]]"
    ) -> "NoiseModel":
        """Copy of this model carrying coherent miscalibration angles."""
        return NoiseModel(
            self.n_qubits,
            dict(self.one_qubit),
            dict(self.two_qubit),
            self.readout.copy(),
            coherent,
            dict(self.relaxation),
            self.relaxation_durations,
        )

    def with_relaxation(
        self,
        relaxation: "dict[int, tuple[float, float]]",
        durations: "tuple[float, float]",
    ) -> "NoiseModel":
        """Copy of this model carrying exact per-qubit (T1, T2) channels.

        ``durations`` is ``(duration_1q, duration_2q)`` in the T1/T2
        time unit.  The result is density-backend-only (see
        :attr:`has_exact_channels`).
        """
        return NoiseModel(
            self.n_qubits,
            dict(self.one_qubit),
            dict(self.two_qubit),
            self.readout.copy(),
            dict(self.coherent),
            relaxation,
            durations,
        )

    # -- derived quantities ---------------------------------------------------

    def mean_one_qubit_error(self) -> float:
        """Average per-gate Pauli total over 1q entries (Figure 1 metric)."""
        if not self.one_qubit:
            return 0.0
        return float(np.mean([e.total for e in self.one_qubit.values()]))

    def mean_two_qubit_error(self) -> float:
        if not self.two_qubit:
            return 0.0
        return float(np.mean([e.total for e in self.two_qubit.values()]))

    def qubit_quality_cost(self, qubit: int) -> float:
        """Scalar badness of a qubit: readout + its 1q gate errors.

        Consumed by the noise-adaptive layout pass (optimization level 3).
        """
        m = self.readout[qubit]
        readout_err = 0.5 * (m[0, 1] + m[1, 0])
        gate_err = sum(
            err.total
            for (name, q), err in self.one_qubit.items()
            if q == qubit and name == "sx"
        )
        return float(readout_err + gate_err)

    def edge_cost(self, a: int, b: int) -> float:
        """CX error total for a coupled pair (inf if uncoupled)."""
        err = self.two_qubit.get(tuple(sorted((a, b))))
        return float(err.total) if err is not None else float("inf")

    # -- transforms -------------------------------------------------------------

    def scaled(self, factor: float) -> "NoiseModel":
        """Noise model with all Pauli probabilities scaled by ``T``.

        Readout errors are left unscaled: the paper's noise factor applies
        to the sampled X/Y/Z gate probabilities only.  Exact relaxation
        channels scale through their *exposure time*: the gate durations
        are multiplied by ``T``, so ``T = 0`` turns relaxation off and
        large ``T`` saturates toward the fully-decayed channel -- the
        Kraus-set analogue of scaling the twirled Pauli rates.
        """
        if factor < 0:
            raise ValueError(f"noise factor must be non-negative, got {factor}")
        d1, d2 = self.relaxation_durations
        return NoiseModel(
            self.n_qubits,
            {k: v.scaled(factor) for k, v in self.one_qubit.items()},
            {k: v.scaled(factor) for k, v in self.two_qubit.items()},
            self.readout.copy(),
            dict(self.coherent),
            dict(self.relaxation),
            (d1 * factor, d2 * factor),
        )

    def drifted(
        self, rng: np.random.Generator, sigma: float = 0.12
    ) -> "NoiseModel":
        """A lognormally perturbed copy -- the 'true hardware' twin.

        Published calibration data always lags the device; this drift is
        what creates the noise-model-vs-real-QC accuracy gap studied in
        paper Table 11.
        """

        def drift(err: PauliError) -> PauliError:
            f = rng.lognormal(0.0, sigma, size=3)
            px = min(err.px * f[0], 0.3)
            py = min(err.py * f[1], 0.3)
            pz = min(err.pz * f[2], 0.3)
            return PauliError(px, py, pz)

        readout = self.readout.copy()
        for q in range(self.n_qubits):
            p01 = min(readout[q, 0, 1] * rng.lognormal(0.0, sigma), 0.45)
            p10 = min(readout[q, 1, 0] * rng.lognormal(0.0, sigma), 0.45)
            readout[q] = readout_matrix(p01, p10)
        relaxation: "dict[int, tuple[float, float]]" = {}
        for q, (t1, t2) in self.relaxation.items():
            # Coherence times drift too; keep the drifted pair physical.
            t1_d = t1 * rng.lognormal(0.0, sigma)
            t2_d = min(t2 * rng.lognormal(0.0, sigma), 2 * t1_d)
            relaxation[q] = (t1_d, t2_d)
        return NoiseModel(
            self.n_qubits,
            {k: drift(v) for k, v in self.one_qubit.items()},
            {k: drift(v) for k, v in self.two_qubit.items()},
            readout,
            dict(self.coherent),
            relaxation,
            self.relaxation_durations,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NoiseModel({self.n_qubits} qubits, "
            f"1q~{self.mean_one_qubit_error():.2e}, "
            f"2q~{self.mean_two_qubit_error():.2e})"
        )

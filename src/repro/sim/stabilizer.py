"""Stabilizer (Clifford) simulator -- Aaronson-Gottesman CHP tableau.

Randomized benchmarking, Pauli twirling and error-propagation analysis
only ever execute Clifford circuits, which a tableau simulates in
O(n^2) per gate instead of O(2^n).  This makes device-scale RB (and
sanity checks on wide twirled circuits) cheap where the statevector
engine would be hopeless.

The tableau holds ``2n`` generator rows -- destabilizers 0..n-1 and
stabilizers n..2n-1 -- as boolean X/Z matrices plus a sign bit per row
(Aaronson & Gottesman, PRA 70, 052328).  Supported gates: the Clifford
generators H, S (and Sdg), the Paulis, SX, CX, CZ and SWAP.  Measurement
implements the standard deterministic/random split, collapsing the
state in place.

:class:`BatchedStabilizerState` is a ``(trajectories, 2n, n)`` stack of
independent tableaus; a single state is a stack of one.  Gates are
vectorized XOR/AND passes over the whole trajectory axis, and
per-trajectory Pauli noise insertions are sign-flip masks
(:meth:`BatchedStabilizerState.apply_pauli_choices`), so an entire noisy
trajectory sweep is one sequence of GIL-releasing boolean ufunc passes.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_rng

#: Gates the tableau supports (all Clifford).
CLIFFORD_GATES = frozenset(
    {"h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "id", "cx", "cz", "swap"}
)


class NonCliffordCircuitError(ValueError):
    """A circuit failed the stabilizer engine's Clifford admission screen."""


# -- shared gate kernels ------------------------------------------------------
#
# Each kernel mutates the (B, 2n, n)/(B, 2n) stack (x, z, r) in place,
# indexing columns through an ellipsis (``x[..., q]``).  Column reads that
# feed later writes are copied first so views never alias their own
# update.


def _k_h(x, z, r, q: int) -> None:
    xq = x[..., q].copy()
    r ^= xq & z[..., q]
    x[..., q] = z[..., q]
    z[..., q] = xq


def _k_s(x, z, r, q: int) -> None:
    r ^= x[..., q] & z[..., q]
    z[..., q] ^= x[..., q]


def _k_sdg(x, z, r, q: int) -> None:
    # Direct update (was 3x S): X -> -Y, Y -> X, Z -> Z.
    r ^= x[..., q] & ~z[..., q]
    z[..., q] ^= x[..., q]


def _k_sx(x, z, r, q: int) -> None:
    # Direct update (was H S H): Z -> -Y, Y -> Z, X -> X.
    r ^= z[..., q] & ~x[..., q]
    x[..., q] ^= z[..., q]


def _k_sxdg(x, z, r, q: int) -> None:
    # Direct update (was H Sdg H): Z -> Y, Y -> -Z, X -> X.
    r ^= z[..., q] & x[..., q]
    x[..., q] ^= z[..., q]


def _k_x(x, z, r, q: int) -> None:
    # X = H Z H; phase flips where the row has Z support.
    r ^= z[..., q]


def _k_y(x, z, r, q: int) -> None:
    r ^= x[..., q] ^ z[..., q]


def _k_z(x, z, r, q: int) -> None:
    r ^= x[..., q]


def _k_id(x, z, r, q: int) -> None:
    pass


def _k_cx(x, z, r, qubits) -> None:
    control, target = qubits[0], qubits[1]
    r ^= x[..., control] & z[..., target] & (x[..., target] ^ z[..., control] ^ True)
    x[..., target] ^= x[..., control]
    z[..., control] ^= z[..., target]


def _k_cz(x, z, r, qubits) -> None:
    # Direct update (was H CX H): X_a -> X_a Z_b, Z -> Z, with a phase
    # flip exactly when both rows carry X and their Z supports differ.
    a, b = qubits[0], qubits[1]
    r ^= x[..., a] & x[..., b] & (z[..., a] ^ z[..., b])
    z[..., a] ^= x[..., b]
    z[..., b] ^= x[..., a]


def _k_swap(x, z, r, qubits) -> None:
    # Direct update (was 3x CX): relabel the two columns, no phase.
    a, b = qubits[0], qubits[1]
    for m in (x, z):
        col = m[..., a].copy()
        m[..., a] = m[..., b]
        m[..., b] = col


_ONE_QUBIT_KERNELS = {
    "h": _k_h, "s": _k_s, "sdg": _k_sdg, "x": _k_x, "y": _k_y, "z": _k_z,
    "sx": _k_sx, "sxdg": _k_sxdg, "id": _k_id,
}
_TWO_QUBIT_KERNELS = {"cx": _k_cx, "cz": _k_cz, "swap": _k_swap}


def _apply_gate(x, z, r, n: int, name: str, qubits) -> None:
    """Validate and dispatch a named Clifford gate onto a tableau stack."""
    if isinstance(qubits, (int, np.integer)):
        qubits = (int(qubits),)
    name = name.lower()
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}")
    kernel = _ONE_QUBIT_KERNELS.get(name)
    if kernel is not None:
        kernel(x, z, r, qubits[0])
        return
    kernel = _TWO_QUBIT_KERNELS.get(name)
    if kernel is None:
        raise ValueError(
            f"{name!r} is not a supported Clifford gate "
            f"(have {sorted(CLIFFORD_GATES)})"
        )
    kernel(x, z, r, qubits)


# -- row arithmetic ------------------------------------------------------------


def _pauli_phase(x1, z1, x2, z2) -> np.ndarray:
    """Phase exponent of multiplying single-qubit Paulis (broadcasting).

    The Aaronson-Gottesman ``g`` function, written as a ``where`` chain
    so the generator row (``x1``/``z1``) broadcasts against a whole
    scratch stack (``x2``/``z2``) of any leading shape.
    """
    x2i = x2.astype(np.int8)
    z2i = z2.astype(np.int8)
    return np.where(
        x1,
        np.where(z1, z2i - x2i, z2i * (2 * x2i - 1)),
        np.where(z1, x2i * (1 - 2 * z2i), np.int8(0)),
    )


def _batch_z_expectations(x, z, r) -> np.ndarray:
    """Per-trajectory ``<Z_q>`` for a stacked tableau.

    ``x``/``z`` are ``(B, 2n, n)`` boolean, ``r`` is ``(B, 2n)``; the
    result is ``(B, n)`` float with entries in {-1, 0, +1}.  One pass of
    the CHP rowsum recursion runs all ``B * n`` (trajectory, qubit)
    scratch rows at once: iteration ``i`` multiplies stabilizer row
    ``n+i`` into every scratch row whose destabilizer ``i`` has X
    support on that qubit -- the textbook per-qubit rowsum loop,
    vectorized over both axes.
    """
    batch, _, n = x.shape
    random_q = x[:, n:, :].any(axis=1)  # (B, n): any stabilizer X support
    coeff = x[:, :n, :]  # (B, i, q): destabilizer-i X support on qubit q
    xh = np.zeros((batch, n, n), dtype=bool)  # scratch row per (B, qubit)
    zh = np.zeros((batch, n, n), dtype=bool)
    phase = np.zeros((batch, n), dtype=np.int64)
    stab_r = r[:, n:].astype(np.int64)
    for i in range(n):
        sel = coeff[:, i, :]  # (B, n)
        if not sel.any():
            continue
        xi = x[:, n + i, None, :]
        zi = z[:, n + i, None, :]
        g = _pauli_phase(xi, zi, xh, zh).sum(axis=2, dtype=np.int64)
        phase += sel * (2 * stab_r[:, i, None] + g)
        xh ^= sel[:, :, None] & xi
        zh ^= sel[:, :, None] & zi
    phase &= 3
    deterministic = ~random_q
    odd = (phase & 1).astype(bool)
    if np.any(odd & deterministic):  # pragma: no cover - tableau invariant
        raise RuntimeError("tableau phase invariant violated")
    out = np.where(phase == 2, -1.0, 1.0)
    out[random_q] = 0.0
    return out


class BatchedStabilizerState:
    """A stack of ``n_trajectories`` independent n-qubit stabilizer states.

    The X/Z tableau is ``(trajectories, 2n, n)`` boolean with a
    ``(trajectories, 2n)`` sign stack, and every gate is one vectorized
    boolean ufunc pass across the whole trajectory axis -- a noisy
    trajectory sweep costs O(B * gates * n) bit operations total, with
    no Python-level per-trajectory loop.  Per-trajectory Pauli noise is
    injected through :meth:`apply_pauli_choices` sign-flip masks.
    """

    def __init__(
        self,
        n_qubits: int,
        n_trajectories: int,
        rng: "int | np.random.Generator | None" = None,
    ):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        if n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        self.n = n_qubits
        self.batch = n_trajectories
        rows = 2 * n_qubits
        self.x = np.zeros((n_trajectories, rows, n_qubits), dtype=bool)
        self.z = np.zeros((n_trajectories, rows, n_qubits), dtype=bool)
        self.r = np.zeros((n_trajectories, rows), dtype=bool)
        idx = np.arange(n_qubits)
        self.x[:, idx, idx] = True
        self.z[:, n_qubits + idx, idx] = True
        self._rng = as_rng(rng)

    def copy(self) -> "BatchedStabilizerState":
        out = BatchedStabilizerState(self.n, self.batch)
        out.x = self.x.copy()
        out.z = self.z.copy()
        out.r = self.r.copy()
        out._rng = self._rng
        return out

    # -- gates -----------------------------------------------------------------

    def apply(
        self, name: str, qubits: "tuple[int, ...] | int"
    ) -> "BatchedStabilizerState":
        """Apply one Clifford gate to every trajectory; returns self."""
        _apply_gate(self.x, self.z, self.r, self.n, name, qubits)
        return self

    def apply_pauli_choices(self, qubit: int, choices) -> "BatchedStabilizerState":
        """Apply a per-trajectory Pauli drawn per trajectory.

        ``choices`` is ``(trajectories,)`` integer with entries in
        {0: I, 1: X, 2: Y, 3: Z} -- the encoding the noise sampler's
        cumulative tables produce.  Y = iXZ anticommutes with whatever
        X and Z each anticommute with, so the update is two sign-flip
        masks: rows with Z support flip under an X component (choices
        1 and 2), rows with X support flip under a Z component (3 and
        2).  No tableau bits move -- Pauli noise is pure phase.
        """
        if not 0 <= qubit < self.n:
            raise ValueError(f"qubit {qubit} out of range for {self.n}")
        choices = np.asarray(choices)
        if choices.shape != (self.batch,):
            raise ValueError(
                f"choices must have shape ({self.batch},), got {choices.shape}"
            )
        has_x_component = (choices == 1) | (choices == 2)
        has_z_component = (choices == 3) | (choices == 2)
        self.r ^= self.z[:, :, qubit] & has_x_component[:, None]
        self.r ^= self.x[:, :, qubit] & has_z_component[:, None]
        return self

    # -- measurement ----------------------------------------------------------------

    def z_expectations(self) -> np.ndarray:
        """``(trajectories, n)`` per-trajectory <Z> values (+/-1 or 0)."""
        return _batch_z_expectations(self.x, self.z, self.r)

    def measure(
        self, qubit: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Measure Z on one qubit in every trajectory, collapsing in place.

        Returns a ``(trajectories,)`` int array of outcomes.  Random
        trajectories collapse through the batched CHP pivot/rowsum
        update; deterministic ones read their (exact) expectation.
        """
        if not 0 <= qubit < self.n:
            raise ValueError(f"qubit {qubit} out of range for {self.n}")
        generator = self._rng if rng is None else as_rng(rng)
        n = self.n
        outcomes = np.zeros(self.batch, dtype=np.int64)
        has = self.x[:, n:, qubit]  # (B, n)
        is_random = has.any(axis=1)
        idx = np.nonzero(is_random)[0]
        if idx.size:
            xs = self.x[idx]
            zs = self.z[idx]
            rs = self.r[idx]
            p = n + has[idx].argmax(axis=1)  # first stabilizer with X support
            ar = np.arange(idx.size)
            xp = xs[ar, p]  # (k, n) pivot-row copies (fancy indexing)
            zp = zs[ar, p]
            rp = rs[ar, p]
            mask = xs[:, :, qubit].copy()  # rows to rowsum the pivot into
            mask[ar, p] = False
            # Every rowsum reads only the (untouched) pivot row and
            # writes a distinct row, so all of them run at once.
            g = _pauli_phase(xp[:, None, :], zp[:, None, :], xs, zs).sum(
                axis=2, dtype=np.int64
            )
            phase = (2 * rs.astype(np.int64) + 2 * rp[:, None].astype(np.int64) + g) & 3
            odd = (phase & 1).astype(bool)
            # Destabilizer rows may anticommute with the pivot (their
            # sign bits are never read); only stabilizer rows enforce
            # the even-phase invariant, as in canonical CHP.
            if np.any(odd[:, n:] & mask[:, n:]):  # pragma: no cover - invariant
                raise RuntimeError("tableau phase invariant violated")
            rs = np.where(mask, phase == 2, rs)
            xs ^= mask[:, :, None] & xp[:, None, :]
            zs ^= mask[:, :, None] & zp[:, None, :]
            # Pivot moves to its destabilizer slot; the freed stabilizer
            # row becomes +/-Z_qubit with a coin-flip sign.
            xs[ar, p - n] = xp
            zs[ar, p - n] = zp
            rs[ar, p - n] = rp
            xs[ar, p] = False
            zs[ar, p] = False
            zs[ar, p, qubit] = True
            bits = generator.integers(0, 2, size=idx.size)
            rs[ar, p] = bits.astype(bool)
            self.x[idx] = xs
            self.z[idx] = zs
            self.r[idx] = rs
            outcomes[idx] = bits
        det = np.nonzero(~is_random)[0]
        if det.size:
            exps = _batch_z_expectations(self.x[det], self.z[det], self.r[det])
            outcomes[det] = (exps[:, qubit] < 0).astype(np.int64)
        return outcomes

    def run_circuit(self, circuit) -> "BatchedStabilizerState":
        """Apply every gate of a (Clifford-only) :class:`Circuit`."""
        for gate in circuit.gates:
            if gate.name not in CLIFFORD_GATES:
                raise ValueError(
                    f"gate {gate.name!r} is not Clifford; "
                    "use the statevector simulator"
                )
            self.apply(gate.name, gate.qubits)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchedStabilizerState({self.n} qubits x {self.batch} trajectories)"


# -- Clifford admission screen ---------------------------------------------------


def clifford_ops(circuit, rz_tolerance: float = 1e-9) -> "list[tuple]":
    """Screen a circuit into per-gate tableau ops, or reject it.

    Returns one entry per gate of ``circuit``: a (possibly empty) tuple
    of ``(name, qubits)`` tableau operations.  Constant ``rz`` angles
    within ``rz_tolerance`` of a multiple of pi/2 round onto the
    tableau (k * pi/2 -> {id, S, Z, Sdg}); anything else -- unknown
    gates, parameterized angles, genuinely non-Clifford rotations --
    raises :class:`NonCliffordCircuitError`.
    """
    ops: "list[tuple]" = []
    for gate in circuit.gates:
        name = gate.name
        if name == "rz":
            expr = gate.params[0]
            if not getattr(expr, "is_constant", False):
                raise NonCliffordCircuitError(
                    f"rz on qubit {gate.qubits[0]} has a parameterized angle; "
                    "the stabilizer engine only runs constant-angle circuits"
                )
            turns = float(expr.const) / (np.pi / 2.0)
            k = round(turns)
            if abs(turns - k) > rz_tolerance:
                raise NonCliffordCircuitError(
                    f"rz angle {float(expr.const)!r} is not a multiple of pi/2 "
                    f"(tolerance {rz_tolerance}); not Clifford"
                )
            step = ((), ("s",), ("z",), ("sdg",))[int(k) % 4]
            ops.append(tuple((g, gate.qubits) for g in step))
        elif name in CLIFFORD_GATES:
            ops.append(() if name == "id" else ((name, gate.qubits),))
        else:
            raise NonCliffordCircuitError(
                f"gate {name!r} is not Clifford and has no pi/2 rounding; "
                "the stabilizer engine cannot run this circuit"
            )
    return ops

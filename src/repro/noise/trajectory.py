"""Monte-Carlo Pauli-trajectory execution: the "real QC" surrogate.

The paper runs inference on physical IBMQ machines with 8192 shots.  This
module emulates that: each *trajectory* samples concrete Pauli error
gates from the device's (drifted) hardware noise model and runs a pure
statevector simulation; averaging trajectories approximates the noisy
channel, and multinomial shot sampling (after mixing in readout
confusion) adds the same statistical noise a real device run has.

For wide circuits where density-matrix simulation is infeasible (the
10-qubit MNIST-10/Fashion-10 models on Melbourne) this is the only noisy
backend; for narrow circuits it converges to the density-matrix result
as trajectories increase (verified in tests).

Fused-trajectory design
-----------------------
The naive implementation binds and sweeps one circuit per trajectory --
``n_trajectories`` full Python passes.  The fused engine instead runs
every trajectory on the block's one noisy fusion plan, the plan the
training sweep below runs (:func:`_training_plan`):

* the plan reads what follows each gate from the block's one noise-site
  table (:func:`repro.noise.sampler.noise_sites`): each Pauli site that
  can fire takes an error slot right after its gate, each coherent
  rotation a constant slot, and each relaxation site a quantum-jump
  point (``unravel="jump"``) that ends its run.  Everything else that
  is constant for a weight vector -- the virtual ``rz`` runs dominating
  a transpiled block, constant gates, weight-only rotations -- fuses
  into runs of at most two qubits;
* a chunk draws its random numbers as a training step of as many
  realizations draws them: every Pauli site's choice for all of its
  trajectories in one
  :meth:`~repro.noise.sampler.ErrorGateSampler.draw` over the block's
  stacked inverse-CDF table, then one uniform per row and jump site as
  one ``(jumps, rows)`` block;
* splits trajectories into **chunks, which fix the RNG layout**: each
  chunk draws all its random numbers up front from its own
  ``SeedSequence.spawn``-derived stream
  (:func:`repro.runtime.supervisor.chunk_seeds`), and the chunk is also
  the unit of sharding and supervision;
* sweeps each chunk in **tiles, which bound the cache footprint**: a
  tile is a run of whole trajectories, stacked into one ``(trajectories
  * batch, 2**n)`` statevector small enough to stay in L2
  (:data:`_TILE_ENTRIES`), so a wide chunk -- 16 trajectories x 40 rows
  x 1024 amplitudes is 10.5 MB -- no longer streams through memory at
  every gate.  Each tile builds its program from its slice of the draw
  as a training forward does
  (:meth:`~repro.compiler.fusion.FusionPlan.sweep`): on a tile of one
  trajectory the fired errors fill their slots, so it applies as many
  kernels as a noiseless sweep; on a wider tile an error that differs
  between trajectories splits its run.  A chunk within the budget is
  one tile;
* hands the chunks to the runtime's one chunk-execution path
  (:func:`repro.runtime.supervisor.run_chunks`), which optionally
  **shards them across a leased worker pool**
  (``n_workers``/``shard_backend``, pool lifetime owned by a
  :class:`~repro.runtime.supervisor.PoolLease`) and optionally
  supervises them: because the chunk decomposition and per-chunk
  streams never depend on the worker count, sharded and supervised
  output is bit-identical to serial execution for a fixed seed.

The plan (``fusion.plan``) and the pickled process payload live in the
circuit's :func:`~repro.utils.cache.circuit_cache` next to the site
table they are built from, keyed by (noise model, factor, layout);
process workers keep the unpickled blocks in
:data:`_WORKER_PLAN_CACHE`, keyed by the payload digest, so each builds
its plan once.  Both unravelings share one plan: a model without exact
channels has no relaxation sites, and the Pauli unraveling refuses a
model that has them.

Training sweep
--------------
Noise-injected training has one sweep
(:func:`stacked_noisy_forward_with_tape` / :func:`stacked_noisy_backward`):
``n_realizations`` error realizations of the training batch stack into
one ``(n_realizations * batch, 2**n)`` statevector, and every gate is
followed by its sites from the same table, in channel order: sampled
Pauli insertions, quantum-jump sites (exact relaxation channels,
realized from the running state) and coherent rotations.  Every Pauli
site's choice for every realization comes from one draw per step over
the block's stacked inverse-CDF table
(:func:`repro.noise.sampler.pauli_cdf`) -- the same numbers, in the
same order, as one ``rng.choice`` per site -- and the jump sites'
uniforms follow as one ``(jumps, rows)`` block.

The sweep runs on the same plan as the trajectory chunks above
(:class:`repro.compiler.fusion.FusionPlan`, the class behind noiseless
inference too).  At one realization the fired errors are shared by the
batch and fill their slots, so a step applies as many kernels as a
noiseless one; at more, an error that differs between realizations
splits its run in two, read off the run's prefix products, with the
per-row error between them.  Gate insertion (whose single-realization
draw comes through :meth:`~repro.noise.sampler.ErrorGateSampler.sample`)
and the quantum-jump (MCWF) trainer differ only in whether the sampler
admits exact channels; both tapes go through the one adjoint sweep,
:func:`repro.core.gradients.adjoint_backward`.

Shot sampling uses one batched ``Generator.multinomial`` call over 2-D
pvals instead of a per-sample Python loop.  The per-trajectory reference
implementation is kept as :func:`trajectory_probabilities_reference`;
``tests/test_fast_engine.py`` and ``tests/test_density_engine.py`` check
the paths agree (exactly for deterministic noise, statistically
otherwise).
"""

from __future__ import annotations

import functools
import hashlib
import pickle

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.passes import CompiledCircuit
from repro.compiler.fusion import FusionPlan, constant_op, fusion_plan_for
from repro.compiler.superop import _PLAN_CACHE_SIZE
from repro.noise.model import CHANNEL_PAULI, CHANNEL_RELAXATION, NoiseModel
from repro.noise.readout import measured_expectations
from repro.noise.sampler import ErrorGateSampler, noise_sites
from repro.runtime.supervisor import (
    ChunkTask,
    check_shard_args,
    chunk_seeds,
    run_chunks,
    shared_lease,
)
from repro.sim.gates import gate_matrix
from repro.sim.statevector import (
    apply_matrix,
    bind_circuit,
    run_ops,
    z_signs,
    zero_state,
)
from repro.utils.cache import Cache, circuit_cache
from repro.utils.rng import as_rng

#: (I, X, Y, Z) stacked for indexed lookup by sampled error choices.
_PAULI_STACK = np.stack(
    [gate_matrix("id"), gate_matrix("x"), gate_matrix("y"), gate_matrix("z")]
)

#: Cap on a chunk's stacked entries per trajectory row: its ``2**n``
#: amplitudes or, on a block with jump sites, its pre-drawn uniforms
#: (one per jump step), whichever is more.  Chunks trajectories so
#: neither the chunk's statevector nor its uniform block exceeds ~2**22
#: entries.
_MAX_STACKED_ENTRIES = 1 << 22

#: Cap on one tile's stacked state (complex entries).  A chunk sweeps its
#: fused stream one tile of whole trajectories at a time (at least one),
#: so both ping-pong buffers -- 1 MiB each at this cap -- stay in a
#: core's L2 instead of streaming every gate through memory; a chunk
#: within the cap is a single tile.
_TILE_ENTRIES = 1 << 16

#: Default trajectories per chunk.  Applied to serial and sharded runs
#: alike, so the chunk layout -- and with it the per-chunk RNG streams --
#: never depends on the worker count: any ``n_workers`` setting stays
#: bit-identical to serial out of the box, and a pool actually has
#: chunks to distribute whenever ``n_trajectories`` exceeds this.
#: Measured neutral for the serial sweep at engine scales (the per-chunk
#: overhead is one vectorized draw; stacks of 16 x batch rows keep the
#: apply kernels saturated).
_DEFAULT_SHARD_SIZE = 16


@functools.lru_cache(maxsize=512)
def _coherent_unitary(ey: float, ez: float) -> np.ndarray:
    """RZ(ez) @ RY(ey): the deterministic post-gate miscalibration."""
    return gate_matrix("rz", (ez,)) @ gate_matrix("ry", (ey,))


def _sample_jump_matrices(
    state: np.ndarray,
    kraus: np.ndarray,
    effects: np.ndarray,
    local_q: int,
    u: np.ndarray,
) -> np.ndarray:
    """Per-row renormalized jump operators sampled from one Kraus site.

    The MCWF step: each stacked row's jump probabilities are the
    expectation values ``p_i = <psi| K_i^dag K_i |psi>`` (computed from
    the row's single-qubit reduced density matrix -- one einsum over the
    qubit view, never a full density), one operator index is drawn per
    row by inverse CDF of its uniform in ``u`` (shape ``(rows,)``), and
    the returned ``(rows, 2, 2)`` batch carries ``K_i / sqrt(p_i)`` so
    the evolved rows stay unit-norm.  Averaging ``|psi><psi|`` over
    trajectories then reproduces the exact channel.
    """
    rows = state.shape[0]
    view = state.reshape(rows, -1, 2, 1 << local_q)
    reduced = np.einsum("raxd,rayd->rxy", view, view.conj())
    p = np.einsum("mxy,ryx->rm", effects, reduced).real
    np.clip(p, 0.0, None, out=p)
    totals = p.sum(axis=1, keepdims=True)
    p /= np.where(totals > 0.0, totals, 1.0)
    u = u.reshape(rows, 1)
    choice = np.minimum(
        (u >= np.cumsum(p, axis=1)).sum(axis=1), kraus.shape[0] - 1
    )
    p_sel = np.take_along_axis(p, choice[:, None], axis=1)[:, 0]
    scale = 1.0 / np.sqrt(np.maximum(p_sel, 1e-300))
    return kraus[choice] * scale[:, None, None]


@dataclass(frozen=True)
class _ChunkSweep:
    """What every trajectory chunk of one call shares.

    ``plan`` is the block's one noisy
    :class:`~repro.compiler.fusion.FusionPlan`, the plan training sweeps
    (:func:`_training_plan`); ``ops`` are its gates that stand alone,
    bound for ``batch`` rows; ``n_jumps`` counts its jump sites.
    """

    compiled: "CompiledCircuit"
    sampler: ErrorGateSampler
    plan: FusionPlan
    ops: list
    weights: "np.ndarray | None"
    batch: int
    n_jumps: int


def _chunk_sweep(
    compiled: "CompiledCircuit",
    sampler: ErrorGateSampler,
    weights: "np.ndarray | None",
    inputs: "np.ndarray | None",
    batch: int,
) -> _ChunkSweep:
    """Bind one call's trajectory sweep on the block's one noisy plan."""
    plan = _training_plan(compiled, sampler)
    ops = plan.bind_plan.bind(weights, inputs, batch, plan.standalone)
    table = noise_sites(
        compiled.circuit, compiled.physical_qubits,
        sampler.noise_model, sampler.noise_factor,
    )
    n_jumps = sum(
        site[0] == CHANNEL_RELAXATION for sites in table for site in sites
    )
    return _ChunkSweep(compiled, sampler, plan, ops, weights, batch, n_jumps)


def _segment_chunk(
    sweep: _ChunkSweep, n_traj: int, seed: np.random.SeedSequence
) -> np.ndarray:
    """Sum of joint probabilities over ``n_traj`` stacked trajectories.

    The chunk builds its generator from ``seed`` (so a supervised retry
    replays the failed attempt's stream exactly) and draws all its
    random numbers first, as a training step of ``n_traj`` realizations
    draws them: every Pauli site's choice in one
    :meth:`~repro.noise.sampler.ErrorGateSampler.draw`, then one uniform
    per row for every jump site as a single ``(jumps, rows)`` block.  It
    then sweeps one *tile* of whole trajectories at a time, sized by
    :data:`_TILE_ENTRIES` so the state stays in L2, each tile on the
    program a training forward builds from the tile's slice of the draw
    (:meth:`~repro.compiler.fusion.FusionPlan.sweep`): on a tile of one
    trajectory the fired errors fill their slots, on a wider one each
    splits its run.  Each tile adds its ``|psi|^2`` to the chunk total in
    trajectory order; a chunk within the budget is a single tile.
    """
    circuit = sweep.compiled.circuit
    batch, n_qubits = sweep.batch, circuit.n_qubits
    dim = 1 << n_qubits
    tile = max(1, min(n_traj, _TILE_ENTRIES // (batch * dim)))
    rng = np.random.default_rng(seed)
    choices = sweep.sampler.draw(
        circuit, sweep.compiled.physical_qubits, rng, n_traj
    )
    uniforms = rng.random((sweep.n_jumps, n_traj * batch))
    total = np.zeros((batch, dim))
    for lo in range(0, n_traj, tile):
        width = min(tile, n_traj - lo)
        ops = [_tiled_op(op, width, batch) for op in sweep.ops]
        errors = _pauli_ops(
            sweep.plan.slot_qubits, choices[:, lo:lo + width], batch
        )
        program = sweep.plan.sweep(ops, sweep.weights, errors).ops
        if sweep.n_jumps:
            block = uniforms[:, lo * batch:(lo + width) * batch]
            state = _run_jumps(program, n_qubits, block)[0]
        else:
            state = run_ops(program, n_qubits, width * batch)
        probs = np.abs(state) ** 2
        total += probs.reshape(width, batch, dim).sum(axis=0)
    return total


#: Worker-side (process-global) cache of the unpickled blocks, keyed by
#: the task payload's plan digest.  A persistent process pool unpickles
#: the circuit + noise model and builds the block's plan *once per
#: worker* instead of once per task: the plan lives in the kept
#: circuit's own cache.
_WORKER_PLAN_CACHE = Cache("trajectory.worker_plan", 8)


@dataclass(frozen=True)
class _ShardPayload:
    """Per-call constants a process-backend chunk task ships once.

    ``plan_blob`` is the pre-pickled ``(compiled circuit, noise model,
    noise factor)`` tuple -- serialized *once per call* in the
    parent (re-pickling the payload per task then only memcpys the
    bytes) -- and ``plan_digest`` is its hash, the worker plan-cache
    key: it covers the circuit gates, the noise model and the factor,
    so any change to what the plan is compiled from changes the key.
    Weights and inputs ride alongside, outside the digested blob: they
    vary per call.
    """

    plan_blob: bytes
    plan_digest: str
    weights: "np.ndarray | None"
    inputs: "np.ndarray | None"
    batch: int


def _shard_payload(
    compiled: "CompiledCircuit",
    noise_model: NoiseModel,
    noise_factor: float,
    weights: "np.ndarray | None",
    inputs: "np.ndarray | None",
    batch: int,
) -> _ShardPayload:
    """A call's task payload around the circuit's cached plan blob.

    The blob and its digest depend only on (gates, layout, noise model,
    factor), so they live in the circuit's
    :func:`~repro.utils.cache.circuit_cache` next to the plans, and a
    training loop's repeat calls skip re-pickling the circuit entirely.
    The circuit pickles bare: its derived plans are held by the cache,
    not by the circuit, so the worker rebuilds them from the gates.
    """

    def build() -> "tuple[bytes, str]":
        blob = pickle.dumps(
            (compiled, noise_model, noise_factor),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return blob, hashlib.sha1(blob).hexdigest()

    blob, digest = circuit_cache(
        compiled.circuit, "trajectory.payload", _PLAN_CACHE_SIZE
    ).get_or_build(
        (noise_model, noise_factor, compiled.physical_qubits), build
    )
    return _ShardPayload(blob, digest, weights, inputs, batch)


def _process_chunk_worker(
    payload: _ShardPayload,
    group: "list[tuple[int, np.random.SeedSequence]]",
) -> "list[np.ndarray]":
    """Run a group of chunks in a worker process off the cached plan.

    Each worker task receives a *contiguous group* of chunks so even a
    cold plan is built once per task, not once per chunk; on a
    persistent pool the digest-keyed :data:`_WORKER_PLAN_CACHE` carries
    the plan across tasks and calls, and a hit skips unpickling the
    blob entirely.  Plan construction is deterministic, and each chunk
    still consumes only its own spawned stream, so the results are
    bit-identical to the same chunks computed serially in the parent,
    from a cold cache or a warm one (verified by the sharding
    equivalence and plan-cache tests).
    """

    def build() -> "tuple[CompiledCircuit, ErrorGateSampler]":
        compiled, noise_model, noise_factor = pickle.loads(payload.plan_blob)
        # The parent admitted the model for its unraveling.
        return compiled, ErrorGateSampler(noise_model, noise_factor, True)

    compiled, sampler = _WORKER_PLAN_CACHE.get_or_build(payload.plan_digest, build)
    sweep = _chunk_sweep(
        compiled, sampler, payload.weights, payload.inputs, payload.batch
    )
    return [_segment_chunk(sweep, n_traj, seed) for n_traj, seed in group]


def _tiled_op(op, n_traj: int, batch: int):
    """Replicate a bound op across ``n_traj`` stacked realizations.

    Shared matrices broadcast as-is; per-sample (batched) matrices and
    their bound parameter values are tiled to ``(n_traj * batch, ...)``
    so the adjoint backward pass sees consistent per-row derivatives.
    """
    if not op.batched or n_traj == 1:
        return op
    from repro.sim.statevector import BoundOp

    matrix = np.tile(op.matrix, (n_traj, 1, 1))
    values = tuple(
        np.tile(v, n_traj) if isinstance(v, np.ndarray) and v.ndim else v
        for v in op.values
    )
    return BoundOp(op.gate, matrix, values)


def _error_op(local_q: int, matrix: np.ndarray):
    """A sampled error insertion as a tape-compatible constant op."""
    from repro.circuits.circuit import Gate
    from repro.sim.statevector import BoundOp

    return BoundOp(Gate("id", (local_q,)), matrix, ())


def _pauli_ops(qubits, choices: np.ndarray, batch: int) -> dict:
    """Error op of every Pauli site that fired, keyed by its table row.

    ``choices`` is the ``(n_sites, n_realizations)`` draw and ``qubits``
    maps a row to its local qubit.  One realization gives each site one
    row-shared 2x2 error; more give it one per realization, repeated
    over that realization's ``batch`` rows.
    """
    fired = np.flatnonzero(choices.any(axis=1)).tolist()
    if choices.shape[1] == 1:
        drawn = choices[fired, 0].tolist()
        return {s: _error_op(qubits[s], _PAULI_STACK[c]) for s, c in zip(fired, drawn)}
    return {
        s: _error_op(qubits[s], np.repeat(_PAULI_STACK[choices[s]], batch, axis=0))
        for s in fired
    }


def _gate_level_ops(ops, table, errors: dict, jumps=None) -> list:
    """A noisy sweep one op per gate and per applied error, in order.

    Each bound gate op is followed by its sites from the block's
    :func:`~repro.noise.sampler.noise_sites` table, in channel order:
    the fired Pauli sites' ``errors`` (keyed by table row), then the
    relaxation sites (realized jump ops from ``jumps`` in order, or the
    sites themselves), then the coherent rotations.
    """
    jumps = iter(jumps) if jumps is not None else None
    row = 0
    stacked: list = []
    for op, sites in zip(ops, table):
        stacked.append(op)
        for site in sites:
            kind, local_q, payload = site
            if kind == CHANNEL_PAULI:
                if row in errors:
                    stacked.append(errors[row])
                row += 1
            elif kind == CHANNEL_RELAXATION:
                stacked.append(site if jumps is None else next(jumps))
            else:
                stacked.append(_error_op(local_q, _coherent_unitary(*payload)))
    return stacked


def _training_plan(compiled: "CompiledCircuit", sampler: ErrorGateSampler):
    """The block's :class:`~repro.compiler.fusion.FusionPlan` under the
    sampler's noise-site table, built once per (model, factor, layout).

    Every Pauli site that can fire is an error slot keyed by its table
    row (its Pauli choices' row), every coherent site a constant op and
    every relaxation site, the site itself, a break that ends its run.
    """
    circuit, physical_qubits = compiled.circuit, compiled.physical_qubits
    model, factor = sampler.noise_model, sampler.noise_factor

    def after() -> "list[list]":
        table = noise_sites(circuit, physical_qubits, model, factor)
        steps, row = [], 0
        for sites in table:
            entries: list = []
            for site in sites:
                kind, local_q, payload = site
                if kind == CHANNEL_PAULI:
                    if payload[0].total > 0:
                        entries.append(("slot", local_q, row))
                    row += 1
                elif kind == CHANNEL_RELAXATION:
                    entries.append(site)
                else:
                    entries.append(
                        constant_op((local_q,), _coherent_unitary(*payload))
                    )
            steps.append(entries)
        return steps

    return fusion_plan_for(circuit, (model, factor, physical_qubits), after)


#: Store a training checkpoint at every Nth jump site.  The backward
#: sweep recovers the skipped pre-jump states by replaying the recorded
#: ops of one window from its stored checkpoint (each window replays
#: once), bounding tape memory at ``n_jumps / stride`` stacked states
#: instead of one per jump -- the difference between a few hundred KB
#: and hundreds of MB on wide blocks with relaxation on every gate.
_JUMP_CHECKPOINT_STRIDE = 8


def _run_jumps(ops: list, n_qubits: int, uniforms: np.ndarray):
    """One serial sweep that realizes every jump site from the running state.

    ``uniforms`` holds one row of per-row uniforms for each jump site, in
    program order: ``(jumps, rows)``.  Each site becomes its sampled,
    renormalized ``(rows, 2, 2)`` jump operator, written back into
    ``ops`` as a constant op.  Returns ``(state, checkpoints,
    jump_ops)``: the pre-site state is kept at every
    :data:`_JUMP_CHECKPOINT_STRIDE`-th jump, for the adjoint sweep to
    restore the ket at the non-unitary jumps.
    """
    state = zero_state(n_qubits, uniforms.shape[1])
    scratch = np.empty_like(state)
    checkpoints: "dict[int, np.ndarray]" = {}
    jump_ops: "set[int]" = set()
    for k, op in enumerate(ops):
        if isinstance(op, tuple):
            _kind, local_q, (kraus, effects) = op
            if len(jump_ops) % _JUMP_CHECKPOINT_STRIDE == 0:
                checkpoints[k] = state.copy()
            mats = _sample_jump_matrices(
                state, kraus, effects, local_q, uniforms[len(jump_ops)]
            )
            jump_ops.add(k)
            op = ops[k] = _error_op(local_q, mats)
        apply_matrix(state, op.kernel(n_qubits), op.qubits, n_qubits, out=scratch)
        state, scratch = scratch, state
    return state, checkpoints, frozenset(jump_ops)


def _sweep_band(ops, n_qubits: int, lo: int, hi: int, state, scratch) -> None:
    """Apply bound ops to one contiguous row band of a shared stack.

    Per-row kernels are sliced to the band; bands write disjoint row
    slices of the two shared ping-pong buffers, so concurrent bands
    never alias.  Every band performs ``len(ops)`` buffer swaps, so all
    bands end on the same parity and the caller resolves the final
    buffer once.
    """
    s = state[lo:hi]
    c = scratch[lo:hi]
    for op in ops:
        kernel = op.kernel(n_qubits)
        if op.batched:
            kernel = kernel.band(lo, hi)
        apply_matrix(s, kernel, op.qubits, n_qubits, out=c)
        s, c = c, s


def run_ops_banded(ops, n_qubits: int, rows: int, band_rows: int, lease):
    """Sweep bound ops over a zero-initialized ``(rows, 2**n)`` stack in
    fixed row bands, run as chunk tasks on a thread-pool lease.

    The band layout is a function of ``band_rows`` alone -- never the
    worker count -- so the result is bitwise independent of how many
    threads execute the bands (asserted by the executor sharding
    tests); it may differ from the unbanded
    :func:`repro.sim.statevector.run_ops` sweep only where a kernel's
    BLAS blocking depends on the stack height (within float tolerance).
    Thread leases only: bands share the two ping-pong buffers, which a
    process worker would only see as a pickled copy.
    """
    if lease.backend != "thread":
        raise ValueError(
            "row bands share one pair of state buffers and need a thread "
            f"lease, got shard_backend {lease.backend!r}"
        )
    state = zero_state(n_qubits, rows)
    scratch = np.empty_like(state)
    bounds = list(range(0, rows, band_rows)) + [rows]
    run_chunks(
        [
            ChunkTask(i, _sweep_band, (ops, n_qubits, lo, hi, state, scratch))
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ],
        lease=lease,
    )
    return scratch if len(ops) % 2 else state


def stacked_noisy_forward_with_tape(
    compiled: "CompiledCircuit",
    sampler: ErrorGateSampler,
    weights: "np.ndarray | None",
    inputs: "np.ndarray | None",
    n_realizations: int,
    rng: "int | np.random.Generator | None" = None,
    n_weights: "int | None" = None,
    n_inputs: "int | None" = None,
    pool=None,
    choices: "np.ndarray | None" = None,
):
    """Noise-injected forward over stacked realizations, keeping the tape.

    Returns ``(expectations, tape, n_inserted)``: expectations are the
    per-sample mean over realizations, shape ``(batch, n_qubits)``; the
    tape's state is the full ``(n_realizations * batch, 2**n)`` stack and
    is consumed by :func:`stacked_noisy_backward`.

    The sweep runs on the block's
    :class:`~repro.compiler.fusion.FusionPlan` under the sampler's
    noise-site table (:meth:`~repro.compiler.fusion.FusionPlan.sweep`);
    only the gates that stand alone are bound per step, and the tape's
    gate-level ``ops`` (one op per gate and per applied error) are built
    only when read.  Every Pauli site's choice comes from one
    :meth:`~repro.noise.sampler.ErrorGateSampler.draw` on ``rng`` (a
    single ``rng.random((n_sites, n_realizations))`` call, the stream a
    per-site ``rng.choice`` loop consumes), unless ``choices`` brings
    that draw (the ``InsertionStats.choices`` of a sampled circuit).  At
    one realization the fired errors are shared by the batch and fill
    their slots in the fused runs; at more, each splits its run.

    ``pool`` (a thread :class:`~repro.runtime.supervisor.PoolLease`,
    held by :class:`~repro.core.executors.GateInsertionExecutor`) with
    ``n_workers > 0`` shards the sweep into one fixed row band per
    realization via :func:`run_ops_banded`; the band layout never
    depends on the worker count, so results are bitwise identical
    across worker counts.  The sampled events are identical to the
    serial sweep's -- the rng is consumed before any banding decision.

    Models with exact relaxation channels add quantum-jump sites, which
    end their runs.  Their jump probabilities depend on the evolved
    state mid-sweep, and their uniforms come off ``rng`` as one ``(jumps,
    rows)`` block right after the Pauli draw (the draw a trajectory
    chunk makes), so such a sweep is one serial pass (:func:`_run_jumps`)
    and ``pool`` is not consulted.  The tape records the realized jump operators as
    constant ops, together with the jump indices and checkpoints the
    adjoint needs: gradients are exact for the realized trajectory's
    frozen linear map, jump choices and renormalization included.
    """
    from repro.core.gradients import QuantumTape
    from repro.sim.statevector import bind_plan_for

    rng = as_rng(rng)
    if inputs is not None:
        inputs = np.array(inputs, dtype=float)
        batch = inputs.shape[0]
    else:
        batch = 1
    if weights is not None:
        weights = np.array(weights, dtype=float)
    circuit, physical_qubits = compiled.circuit, compiled.physical_qubits
    n_qubits = circuit.n_qubits
    rows = n_realizations * batch
    plan = _training_plan(compiled, sampler)
    if choices is None:
        choices = sampler.draw(circuit, physical_qubits, rng, n_realizations)
    errors = _pauli_ops(plan.slot_qubits, choices, batch)
    bound = bind_plan_for(circuit).bind(weights, inputs, batch, plan.standalone)
    sweep = plan.sweep(
        [_tiled_op(op, n_realizations, batch) for op in bound], weights, errors
    )
    program = sweep.ops
    checkpoints, jump_ops = {}, frozenset()
    n_jumps = sum(isinstance(op, tuple) for op in program)
    if n_jumps:
        uniforms = rng.random((n_jumps, rows))
        state, checkpoints, jump_ops = _run_jumps(program, n_qubits, uniforms)
    elif pool is not None and pool.n_workers > 0 and n_realizations > 1:
        state = run_ops_banded(program, n_qubits, rows, batch, pool)
    else:
        state = run_ops(program, n_qubits, rows)

    def gate_level() -> list:
        ops = [
            _tiled_op(op, n_realizations, batch)
            for op in bind_circuit(circuit, weights, inputs, batch)
        ]
        table = noise_sites(
            circuit, physical_qubits, sampler.noise_model, sampler.noise_factor
        )
        jumps = [program[k] for k in sorted(jump_ops)]
        return _gate_level_ops(ops, table, errors, jumps)

    if n_weights is None or n_inputs is None:
        table = circuit.parameter_table
        n_weights = table.num_weights if n_weights is None else n_weights
        n_inputs = table.num_inputs if n_inputs is None else n_inputs
    tape = QuantumTape(
        circuit, gate_level, state, n_weights, n_inputs,
        checkpoints, jump_ops, sweep,
    )
    probs = np.abs(state) ** 2
    stacked_exp = probs @ z_signs(n_qubits).T
    expectations = stacked_exp.reshape(n_realizations, batch, -1).mean(axis=0)
    return expectations, tape, int(np.count_nonzero(choices))


def stacked_noisy_backward(
    tape,
    grad_expectations: np.ndarray,
    n_realizations: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Adjoint backward through a stacked-realization tape.

    ``grad_expectations`` is the per-sample ``(batch, n_qubits)`` upstream
    gradient of the realization-*averaged* expectations; it is replicated
    (scaled by ``1 / n_realizations``) onto the stack, swept once, and the
    per-sample input gradients are summed back over realizations.
    """
    from repro.core.gradients import adjoint_backward

    grad_expectations = np.asarray(grad_expectations, dtype=float)
    batch = grad_expectations.shape[0]
    stacked_grad = np.tile(grad_expectations / n_realizations, (n_realizations, 1))
    weight_grad, input_grad = adjoint_backward(tape, stacked_grad)
    input_grad = input_grad.reshape(n_realizations, batch, -1).sum(axis=0)
    return weight_grad, input_grad


def _check_counts(
    n_trajectories: int = 1, shots: "int | None" = None
) -> None:
    """Reject trajectory and shot counts no estimate can be drawn from."""
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")
    if shots is not None and shots < 1:
        raise ValueError(f"shots must be >= 1 or None, got {shots}")


def trajectory_probabilities(
    compiled: CompiledCircuit,
    noise_model: NoiseModel,
    weights: "np.ndarray | None",
    inputs: "np.ndarray | None",
    batch: int,
    n_trajectories: int = 8,
    noise_factor: float = 1.0,
    rng: "int | np.random.Generator | None" = None,
    n_workers: int = 0,
    shard_size: "int | None" = None,
    shard_backend: str = "thread",
    unravel: str = "pauli",
    pool=None,
    supervisor=None,
) -> np.ndarray:
    """Average joint basis probabilities over sampled error trajectories.

    All trajectories run as ``(trajectories * batch, 2**n)`` statevector
    sweeps of the block's one noisy fusion plan, the plan noise-injected
    training runs, chunked to bound memory; see the module docstring.  Each chunk draws from its own ``SeedSequence.spawn``
    child stream, so results do not depend on how chunks are executed:

    * ``n_workers > 0`` dispatches chunks to a ``shard_backend`` pool
      (``"thread"`` or ``"process"``) and is bit-identical to the serial
      ``n_workers = 0`` run for a fixed seed;
    * ``shard_size`` (default :data:`_DEFAULT_SHARD_SIZE`) caps
      trajectories per chunk.  The cap applies to serial runs too, so
      the chunk layout never depends on the worker count -- that is
      what makes sharded output reproduce serial output bit-for-bit;
      both runs must use the same value to compare.

    ``unravel`` selects the stochastic unraveling: ``"pauli"`` samples
    inserted Pauli error gates (and refuses models carrying exact
    relaxation channels); ``"jump"`` is the quantum-jump (MCWF)
    unraveling -- exact relaxation Kraus sets become per-site jump
    points with state-dependent probabilities and per-row
    renormalization, so the trajectory ensemble converges to the full
    compiled channel (relaxation included).

    ``pool`` is the :class:`~repro.runtime.supervisor.PoolLease` the
    chunks run on, re-keyed to this call's ``(shard_backend,
    n_workers)``; without one, sharded calls share the process-wide
    lease for those settings.  Threads share the plan and the bound
    ops; process workers rebuild the plan once per worker
    (:data:`_WORKER_PLAN_CACHE`).

    ``supervisor`` wraps chunk execution in a
    :class:`repro.runtime.supervisor.ChunkSupervisor`: per-chunk
    deadlines, crash detection, checksum validation and bounded retry.
    Because every chunk is re-runnable from its spawned seed, a
    supervised run -- faults and retries included -- returns exactly
    what an unsupervised run returns.
    """
    check_shard_args(n_workers, shard_size, shard_backend)
    if unravel not in ("pauli", "jump"):
        raise ValueError(
            f"unravel must be 'pauli' or 'jump', got {unravel!r}"
        )
    _check_counts(n_trajectories)
    # Only the jump unraveling admits a model with exact channels.
    sampler = ErrorGateSampler(
        noise_model, noise_factor, allow_exact=unravel == "jump"
    )
    rng = as_rng(rng)
    if inputs is not None:
        batch = np.asarray(inputs).shape[0]
    dim = 2**compiled.circuit.n_qubits
    sweep = _chunk_sweep(compiled, sampler, weights, inputs, batch)
    max_traj = max(1, _MAX_STACKED_ENTRIES // (batch * max(dim, sweep.n_jumps)))
    size = min(max_traj, int(shard_size or _DEFAULT_SHARD_SIZE))
    chunks = chunk_seeds(n_trajectories, size, rng)
    if pool is None:
        pool = shared_lease(shard_backend, n_workers) if n_workers else None
    else:
        pool.backend, pool.n_workers = shard_backend, n_workers
    if shard_backend == "process" and n_workers and len(chunks) > 1:
        # Contiguous chunk groups, one task per worker (at least two, so
        # a one-worker pool still receives the run): even a cold worker
        # builds its plan once per task instead of once per chunk (and a
        # warm one not at all).  Group boundaries do not affect results
        # -- every chunk keeps its own spawned stream and the flattening
        # restores global chunk order.
        payload = _shard_payload(
            compiled, noise_model, noise_factor, weights, inputs, batch
        )
        bounds = _balanced_group_bounds(
            len(chunks), min(max(n_workers, 2), len(chunks))
        )
        tasks = [
            ChunkTask(g, _process_chunk_worker, (payload, chunks[lo:hi]))
            for g, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        results = [r for group in run_chunks(tasks, supervisor, pool)
                   for r in group]
    else:
        tasks = [
            ChunkTask(i, _segment_chunk, (sweep, n, seed))
            for i, (n, seed) in enumerate(chunks)
        ]
        results = run_chunks(tasks, supervisor, pool)
    # Fixed (chunk-order) summation keeps serial and sharded float
    # accumulation identical.
    total = np.zeros((batch, dim))
    for result in results:
        total += result
    return total / n_trajectories


def _balanced_group_bounds(n_items: int, n_groups: int) -> "list[int]":
    """``array_split``-style group boundaries: balanced, order-preserving.

    Group sizes differ by at most one (the remainder spreads over the
    leading groups), unlike the former ``linspace(...).astype(int)``
    truncation, which piled the remainder onto the tail groups at
    awkward ``n_items / n_groups`` ratios.  Results are unaffected
    either way -- item order is preserved and the flattening restores
    global chunk order -- but the slowest task no longer carries up to
    twice its fair share.
    """
    base, extra = divmod(n_items, n_groups)
    bounds = [0]
    for i in range(n_groups):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    return bounds


def trajectory_probabilities_reference(
    compiled: CompiledCircuit,
    noise_model: NoiseModel,
    weights: "np.ndarray | None",
    inputs: "np.ndarray | None",
    batch: int,
    n_trajectories: int = 8,
    noise_factor: float = 1.0,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """One-circuit-per-trajectory reference implementation.

    Samples, binds and sweeps a fresh error-inserted circuit per
    trajectory -- the baseline the fused engine is checked and
    benchmarked against.  The sweep applies each bound matrix through
    the raw-matrix route, not the ops' kernels, so the baseline keeps
    its original arithmetic and cost.
    """
    rng = as_rng(rng)
    sampler = ErrorGateSampler(noise_model, noise_factor)
    if inputs is not None:
        batch = np.asarray(inputs).shape[0]
    n = compiled.circuit.n_qubits
    total = np.zeros((batch, 2**n))
    for _ in range(n_trajectories):
        noisy_circuit, _stats = sampler.sample(
            compiled.circuit, compiled.physical_qubits, rng
        )
        state = zero_state(n, batch)
        for op in bind_circuit(noisy_circuit, weights, inputs, batch):
            state = apply_matrix(state, op.matrix, op.qubits, n)
        total += np.abs(state) ** 2
    return total / n_trajectories


def mcwf_probabilities_reference(
    compiled: CompiledCircuit,
    noise_model: NoiseModel,
    weights: "np.ndarray | None",
    inputs: "np.ndarray | None",
    batch: int,
    n_trajectories: int = 8,
    noise_factor: float = 1.0,
    rng: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """One-trajectory-at-a-time quantum-jump (MCWF) reference.

    The textbook algorithm with per-site Python loops: after every
    gate, sample its Pauli channel per operand, then -- for exact
    relaxation sites -- apply each Kraus candidate, read off the jump
    probabilities from the candidate norms, draw one per sample row and
    renormalize, then apply the coherent miscalibration.  The baseline
    the fused jump-mode sweep is benchmarked and statistically checked
    against (channel order matches the density reference exactly).
    """
    from repro.noise.model import UNDRIVEN_GATES, VIRTUAL_GATES

    rng = as_rng(rng)
    scaled = noise_model.scaled(noise_factor) if noise_factor != 1.0 else noise_model
    if inputs is not None:
        batch = np.asarray(inputs).shape[0]
    circuit = compiled.circuit
    n = circuit.n_qubits
    total = np.zeros((batch, 2**n))
    for _ in range(n_trajectories):
        ops = bind_circuit(circuit, weights, inputs, batch)
        state = zero_state(n, batch)
        for op in ops:
            state = apply_matrix(state, op.matrix, op.qubits, n)
            phys = tuple(compiled.physical_qubits[q] for q in op.qubits)
            for local_q, (_phys_q, error) in zip(
                op.qubits, scaled.gate_errors(op.gate.name, phys)
            ):
                choice = rng.choice(4, p=error.probabilities())
                if choice:
                    state = apply_matrix(
                        state, _PAULI_STACK[choice], (local_q,), n
                    )
            if op.gate.name not in VIRTUAL_GATES:
                for local_q, phys_q in zip(op.qubits, phys):
                    kraus = scaled.relaxation_kraus_for(phys_q, len(op.qubits))
                    if kraus is None:
                        continue
                    candidates = [
                        apply_matrix(state, k, (local_q,), n) for k in kraus
                    ]
                    norms = np.stack(
                        [np.sum(np.abs(c) ** 2, axis=1) for c in candidates]
                    )  # (m, batch)
                    norms /= np.maximum(norms.sum(axis=0, keepdims=True), 1e-300)
                    for row in range(batch):
                        pick = rng.choice(len(kraus), p=norms[:, row])
                        state[row] = candidates[pick][row] / np.sqrt(
                            max(norms[pick, row], 1e-300)
                        )
            if op.gate.name not in UNDRIVEN_GATES:
                for local_q, phys_q in zip(op.qubits, phys):
                    coherent = scaled.coherent_for(phys_q)
                    if coherent is not None:
                        state = apply_matrix(
                            state, _coherent_unitary(*coherent), (local_q,), n
                        )
        total += np.abs(state) ** 2
    return total / n_trajectories


def run_noisy_trajectories(
    compiled: CompiledCircuit,
    noise_model: NoiseModel,
    weights: "np.ndarray | None" = None,
    inputs: "np.ndarray | None" = None,
    batch: int = 1,
    n_trajectories: int = 8,
    shots: "int | None" = 8192,
    noise_factor: float = 1.0,
    rng: "int | np.random.Generator | None" = None,
    n_workers: int = 0,
    shard_size: "int | None" = None,
    shard_backend: str = "thread",
    unravel: str = "pauli",
    pool=None,
    supervisor=None,
) -> np.ndarray:
    """Noisy per-qubit <Z> expectations in *logical* qubit order.

    Pipeline: trajectory-averaged probabilities -> per-qubit readout
    confusion -> multinomial shot sampling (``shots=None`` returns exact
    expectations of the sampled-trajectory channel, no shot noise).
    ``n_workers``/``shard_size``/``shard_backend`` shard the trajectory
    chunks (see :func:`trajectory_probabilities`); the shot-sampling tail
    always runs on the caller's stream, so a sharded run's expectations
    stay bit-identical to the serial ones.  ``unravel="jump"`` selects
    the quantum-jump (MCWF) unraveling, the only sampled backend that
    evaluates exact relaxation channels; ``pool`` is the caller's
    :class:`~repro.runtime.supervisor.PoolLease` for the sharded
    chunks; ``supervisor`` routes chunk execution through the
    fault-tolerant chunk supervisor (results unchanged -- see
    :func:`trajectory_probabilities`).
    """
    _check_counts(n_trajectories, shots)
    rng = as_rng(rng)
    probs = trajectory_probabilities(
        compiled, noise_model, weights, inputs, batch,
        n_trajectories, noise_factor, rng,
        n_workers=n_workers, shard_size=shard_size,
        shard_backend=shard_backend, unravel=unravel, pool=pool,
        supervisor=supervisor,
    )
    return measured_expectations(probs, compiled, noise_model, shots, rng)

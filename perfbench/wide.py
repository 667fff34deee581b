"""realqc_wide: real-QC evaluation of a 10-qubit model, sharded.

melbourne ``mnist-10`` 2Bx1L with weights drawn from the seed (no
training).  The 40-row test set goes through
``make_real_qc_executor(model, n_workers=N_WORKERS)``, which resolves to
the trajectory engine: 32 trajectories and 8192 shots, swept as two
16-trajectory chunks, so every kernel call moves a (640, 1024) complex
stack of 10.5 MB.  A job is one 40-row predict.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import repro.noise.density_backend as density_backend
from benchmarks.common import build_model
from harness import N_WORKERS, Outcome, median, settle, tail, timed
from repro import QuantumNATConfig, load_task, make_real_qc_executor

DEVICE = "melbourne"
TASK = "mnist-10"
BLOCKS, LAYERS, DESIGN = 2, 1, "u3cu3"
N_TRAIN, N_VALID, N_TEST = 96, 32, 40
TRAJECTORIES, SHOTS = 32, 8192
N_QUBITS = 10
MIN_JOBS = 2
#: Rows of the sharded-vs-serial bit-identity check (every run).
IDENTITY_ROWS = 8
#: Rows and independent replicate estimates of the exact-density check.
EXACT_ROWS, REPLICATES = 2, 24
#: Per-output deviation bound in replicate standard errors.  The
#: t-distribution with 23 degrees of freedom puts ~1e-5 beyond it, so
#: 20 outputs per run give a false alarm well under once per 1000 runs.
EXACT_Z = 6.0

#: Trajectories per chunk (the trajectory engine's default shard size).
CHUNK_TRAJECTORIES = 16
STATE_BYTES = CHUNK_TRAJECTORIES * N_TEST * 2**N_QUBITS * 16
SIZES = (
    f"{DEVICE} {TASK} {N_QUBITS} qubits {BLOCKS}Bx{LAYERS}L {DESIGN}, "
    f"{N_TEST} test rows, {TRAJECTORIES} trajectories, {SHOTS} shots, "
    f"{N_WORKERS} workers (thread shards)"
)

BUSY = ("compiler.compile", "noise.trajectory", "sim.kernel",
        "runtime.chunk", "core.transform")
IDLE = ("noise.sample", "core.train_step", "grad.adjoint")


def _setup(seed: int):
    task = load_task(TASK, n_train=N_TRAIN, n_valid=N_VALID, n_test=N_TEST,
                     seed=seed)
    model = build_model(task, DEVICE, QuantumNATConfig.full(0.25, 6),
                        BLOCKS, LAYERS, DESIGN, seed=seed)
    weights = model.qnn.init_weights(np.random.default_rng(seed), 0.3)
    executor = make_real_qc_executor(model, n_workers=N_WORKERS, rng=seed)
    # Spawns the executor's pool and builds its segment plan.
    model.predict(weights, task.test_x[:4], executor)
    return task, model, weights, executor


def probe(seed: int):
    """A small job (8-row predict) for the tracing-overhead probe."""
    task, model, weights, executor = _setup(seed)
    return lambda: model.predict(weights, task.test_x[:IDENTITY_ROWS],
                                 executor)


@contextlib.contextmanager
def _density_width(n_qubits: int):
    """Let the exact density reference run at this width, then restore."""
    saved = density_backend.MAX_DENSITY_QUBITS
    density_backend.MAX_DENSITY_QUBITS = max(saved, n_qubits)
    try:
        yield
    finally:
        density_backend.MAX_DENSITY_QUBITS = saved


def _check_exact(out: Outcome, model, weights, x, seed: int) -> None:
    """Trajectory estimates agree with the exact density channel."""
    compiled = model.compiled[0]
    local = model.qnn.block_weights(weights, 0)
    with _density_width(compiled.circuit.n_qubits):
        exact = density_backend.run_noisy_density(
            compiled, model.device.hardware_model, local, x
        )
    estimates = np.array([
        make_real_qc_executor(model, rng=seed * 1000 + k).forward(
            compiled, local, x)[0]
        for k in range(REPLICATES)
    ])
    stderr = estimates.std(axis=0, ddof=1) / np.sqrt(REPLICATES)
    z = np.abs(estimates.mean(axis=0) - exact) / np.maximum(stderr, 1e-12)
    out.check(
        "trajectory <Z> agrees with exact run_noisy_density",
        bool(z.max() <= EXACT_Z),
        f"{x.shape[0]} rows x {exact.shape[1]} qubits, {REPLICATES} "
        f"replicates, max |z| {z.max():.2f} <= {EXACT_Z}",
    )


def _sharded_vs_serial(model, weights, x, seed: int):
    """(sharded seconds, serial seconds, bit-identical) at one seed."""
    times, logits = [], []
    for workers in (N_WORKERS, 0):
        executor = make_real_qc_executor(model, n_workers=workers, rng=seed)
        with executor:
            seconds, result = timed(model.predict, weights, x, executor)
        times.append(seconds)
        logits.append(result)
    return times[0], times[1], bool(np.array_equal(*logits))


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    settle()
    start = time.perf_counter()
    while len(out.windows["job"]) < MIN_JOBS or (
            time.perf_counter() - start < seconds):
        with out.window("setup", tracer):
            task, model, weights, executor = _setup(seed)
        with out.window("job", tracer):
            logits = model.predict(weights, task.test_x, executor)
        supervisor = executor.supervisor
        retries = supervisor.last_report.retries if supervisor else 0
        executor.close()
    job_s = out.seconds("job")
    out.jobs = out.attempted = len(job_s)
    out.check("logits are finite", bool(np.isfinite(logits).all()),
              str(logits.shape))

    _, _, identical = _sharded_vs_serial(
        model, weights, task.test_x[:IDENTITY_ROWS], seed + 1)
    out.check("sharded logits are bit-identical to serial n_workers=0",
              identical, f"{IDENTITY_ROWS} rows, {N_WORKERS} workers")
    _check_exact(out, model, weights, task.test_x[:EXACT_ROWS], seed)

    pct, tail_s = tail(job_s)
    rows_per_s = N_TEST / median(job_s)
    out.metrics = {
        "setup_s": median(out.seconds("setup")),
        "latency_ms": median(job_s) * 1e3,
        "rows_per_s": rows_per_s,
    }
    out.layers["runtime.retries"] = retries
    if tracer is not None:
        sharded, serial, identical = _sharded_vs_serial(
            model, weights, task.test_x, seed + 2)
        out.layers["runtime.shard_speedup"] = serial / sharded
        out.check("full-set sharded logits are bit-identical to serial",
                  identical, f"{N_TEST} rows")
        out.info.append(f"shard speedup: serial {serial:.3f} s / sharded "
                        f"{sharded:.3f} s")
    out.info += [
        f"sizes: {SIZES}",
        f"computed state bytes per kernel call: {CHUNK_TRAJECTORIES}-"
        f"trajectory chunk x {N_TEST} rows x {2**N_QUBITS} amplitudes x 16 B"
        f" = {STATE_BYTES} B ({TRAJECTORIES // CHUNK_TRAJECTORIES} chunks "
        "per block sweep)",
        f"wide_rows_per_s: {rows_per_s:.3f} rows/s (median of {len(job_s)} "
        f"predicts, p{pct:g} {tail_s:.3f} s)",
    ]
    return out

"""Fast-execution-engine benchmark harness.

Times the hot paths of the simulator stack -- statevector forward,
forward + adjoint backward, fused trajectory inference, the
superoperator-compiled exact noisy density backend (with and without
the full relaxation + readout channel set), sharded trajectory
execution, the batched noise-injected *training step* (vs the
per-sample reference loop), the stacked multi-realization training
sweep, gate-fused inference, the coalescing serving layer (stacked
window flushes vs naive per-request dispatch, via
``benchmarks/perf/serve_load.py``), and a short end-to-end training run
-- against the retained reference implementations, asserts
fast-vs-reference numerical equivalence (bit-identity for sharded vs
serial trajectories), and writes everything to ``BENCH_engine.json``.

The reference paths (``apply_matrix_reference``, ``bind_circuit_reference``,
``run_ops_reference``, ``adjoint_backward_reference``,
``trajectory_probabilities_reference``, ``run_noisy_density_reference``,
``QuantumNATModel.loss_and_gradients_reference``) are the
pre-fast-engine implementations kept in-tree precisely so every
benchmark run re-records its own baseline on the machine it runs on.

Usage::

    PYTHONPATH=src python benchmarks/perf/engine.py --scale quick

``benchmarks/perf/check_regression.py`` compares a fresh run against the
committed ``BENCH_engine.json`` and fails on large slowdowns (the CI
perf-regression gate).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

# Allow `python benchmarks/perf/engine.py` from a plain checkout: put the
# src layout on the path when `repro` is not installed.
_SRC = Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (
    QuantumNATConfig,
    QuantumNATModel,
    TrainConfig,
    get_device,
    paper_model,
    train,
)
from repro.compiler import transpile
from repro.core.gradients import (
    QuantumTape,
    adjoint_backward,
    adjoint_backward_reference,
    forward_with_tape,
)
from repro.noise import NoiseModel, readout_matrix
from repro.noise.density_backend import (
    run_noisy_density,
    run_noisy_density_reference,
)
from repro.noise.trajectory import (
    mcwf_probabilities_reference,
    run_noisy_trajectories,
    trajectory_probabilities,
    trajectory_probabilities_reference,
)
from repro.sim.statevector import (
    apply_matrix,
    apply_matrix_reference,
    bind_circuit,
    bind_circuit_reference,
    run_ops,
    run_ops_reference,
)
from repro.sim.gates import gate_matrix

#: Default output location: the repository root.
DEFAULT_OUT = Path(__file__).resolve().parents[2] / "BENCH_engine.json"

#: Exact-path equivalence tolerance (fast vs reference, same math).
EXACT_TOL = 1e-10

#: Minimum ``sharded_trajectory`` speedup-vs-serial, keyed by the
#: effective parallel width ``min(shard_workers, os.cpu_count())`` --
#: the ISSUE target (>= 1.5x at 4 workers, quick scale) where the host
#: can deliver it, near-parity where it cannot.  Recorded into the
#: report row as ``floor``; ``check_regression.py`` enforces it hard.
SHARD_FLOORS = {1: 0.7, 2: 1.1, 4: 1.5}

#: Trajectories and trajectories per chunk of ``sharded_trajectory_wide``:
#: the real-QC evaluation defaults for the 10-qubit models.
WIDE_TRAJECTORIES, WIDE_SHARD_SIZE = 32, 16

SCALES = {
    # tier-2 smoke: seconds, runs inside pytest
    "smoke": dict(batch=8, traj_batch=4, n_trajectories=8, repeats=2,
                  epochs=1, n_train=16, stat_trajectories=64,
                  train_batch=8, ref_repeats=1, n_realizations=4,
                  shard_size=2, shard_workers=2, wide_rows=5,
                  stab_qubits=12, stab_wide_qubits=32, stab_trajectories=16),
    "quick": dict(batch=64, traj_batch=16, n_trajectories=64, repeats=5,
                  epochs=2, n_train=64, stat_trajectories=256,
                  train_batch=32, ref_repeats=2, n_realizations=8,
                  shard_size=16, shard_workers=4, wide_rows=8,
                  stab_qubits=12, stab_wide_qubits=56, stab_trajectories=64),
    "full": dict(batch=128, traj_batch=32, n_trajectories=128, repeats=10,
                 epochs=4, n_train=128, stat_trajectories=1024,
                 train_batch=64, ref_repeats=3, n_realizations=16,
                 shard_size=32, shard_workers=4, wide_rows=16,
                 stab_qubits=14, stab_wide_qubits=64, stab_trajectories=128),
}


def _best_of(f, repeats: int) -> float:
    """Best (minimum) wall-clock over ``repeats`` runs, after one warmup."""
    f()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def _coherent_only_model(n_qubits: int) -> NoiseModel:
    """Deterministic noise (no stochastic Paulis): fused == reference exactly."""
    from repro.noise.model import PauliError

    return NoiseModel(
        n_qubits,
        {("sx", q): PauliError(0.0, 0.0, 0.0) for q in range(n_qubits)},
        {},
        np.stack([readout_matrix(0.0, 0.0)] * n_qubits),
        coherent={q: (0.01 * (q + 1), -0.02 * (q + 1)) for q in range(n_qubits)},
    )


def _bench_kernels(repeats: int) -> dict:
    """Micro-timings of single gate applications, fast vs reference."""
    rng = np.random.default_rng(0)
    n, batch = 4, 256
    state = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
    cases = {
        "1q_diagonal_rz": (gate_matrix("rz", (0.3,)), (1,)),
        "1q_general_sx": (gate_matrix("sx"), (2,)),
        "2q_cx": (gate_matrix("cx"), (0, 2)),
        "2q_general_cu3": (gate_matrix("cu3", (0.4, 0.1, -0.2)), (1, 3)),
    }
    out = {}
    for name, (matrix, qubits) in cases.items():
        fast = _best_of(lambda: apply_matrix(state, matrix, qubits, n),
                        repeats * 20)
        ref = _best_of(lambda: apply_matrix_reference(state, matrix, qubits, n),
                       repeats * 20)
        err = float(np.abs(
            apply_matrix(state, matrix, qubits, n)
            - apply_matrix_reference(state, matrix, qubits, n)
        ).max())
        if err > EXACT_TOL:
            raise AssertionError(f"kernel {name}: fast/reference diverge ({err:.2e})")
        out[name] = {
            "reference_us": ref * 1e6,
            "fast_us": fast * 1e6,
            "speedup": ref / fast,
            "max_err": err,
        }
    return out


def run_benchmarks(
    scale: str = "quick",
    out_path: "str | Path | None" = DEFAULT_OUT,
    seed: int = 0,
) -> dict:
    """Run all engine benchmarks; returns (and optionally writes) the report."""
    cfg = SCALES[scale]
    rng = np.random.default_rng(seed)
    device = get_device("santiago")
    qnn = paper_model(4, 2, 2, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    circuit = compiled.circuit
    weights = qnn.init_weights(rng)
    batch = cfg["batch"]
    inputs = rng.normal(0, 1, (batch, 16))
    n_weights = circuit.parameter_table.num_weights
    n_qubits = circuit.n_qubits
    grad = np.ones((batch, n_qubits))

    report: dict = {
        "meta": {
            "scale": scale,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
            "circuit_gates": len(circuit.gates),
            "circuit_qubits": n_qubits,
            "batch": batch,
        },
        "kernels": _bench_kernels(cfg["repeats"]),
        "benchmarks": {},
        "equivalence": {},
    }
    bench = report["benchmarks"]
    equiv = report["equivalence"]

    # -- forward ------------------------------------------------------------
    def forward_fast():
        return run_ops(bind_circuit(circuit, weights, inputs), n_qubits, batch)

    def forward_ref():
        return run_ops_reference(
            bind_circuit_reference(circuit, weights, inputs), n_qubits, batch
        )

    t_fast = _best_of(forward_fast, cfg["repeats"])
    t_ref = _best_of(forward_ref, cfg["repeats"])
    err = float(np.abs(forward_fast() - forward_ref()).max())
    bench["forward"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
    }
    equiv["forward_max_err"] = err

    # -- forward + adjoint backward ----------------------------------------
    def fb_fast():
        _, tape = forward_with_tape(circuit, weights, inputs)
        return adjoint_backward(tape, grad)

    def fb_ref():
        ops = bind_circuit_reference(circuit, weights, inputs)
        state = run_ops_reference(ops, n_qubits, batch)
        tape = QuantumTape(circuit, ops, state, n_weights, inputs.shape[1])
        return adjoint_backward_reference(tape, grad)

    t_fast = _best_of(fb_fast, cfg["repeats"])
    t_ref = _best_of(fb_ref, cfg["repeats"])
    wf, xf = fb_fast()
    wr, xr = fb_ref()
    bench["forward_backward"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
    }
    equiv["adjoint_weight_grad_max_err"] = float(np.abs(wf - wr).max())
    equiv["adjoint_input_grad_max_err"] = float(np.abs(xf - xr).max())

    # -- trajectory inference ----------------------------------------------
    hardware = device.hardware_model
    traj_inputs = inputs[: cfg["traj_batch"]]
    traj_batch = traj_inputs.shape[0]
    n_traj = cfg["n_trajectories"]

    t_fast = _best_of(
        lambda: trajectory_probabilities(
            compiled, hardware, weights, traj_inputs, traj_batch, n_traj, rng=1
        ),
        cfg["repeats"],
    )
    t_ref = _best_of(
        lambda: trajectory_probabilities_reference(
            compiled, hardware, weights, traj_inputs, traj_batch, n_traj, rng=1
        ),
        cfg["repeats"],
    )
    bench["trajectory_inference"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
        "n_trajectories": n_traj, "batch": traj_batch,
    }

    # Deterministic channel (coherent-only noise): fused == reference exactly.
    det_model = _coherent_only_model(device.n_qubits)
    p_fused = trajectory_probabilities(
        compiled, det_model, weights, traj_inputs, traj_batch, 2, rng=3
    )
    p_ref = trajectory_probabilities_reference(
        compiled, det_model, weights, traj_inputs, traj_batch, 2, rng=3
    )
    equiv["trajectory_deterministic_max_err"] = float(np.abs(p_fused - p_ref).max())

    # -- exact noisy density inference (superop engine vs per-Kraus) -------
    # Hardware model: Pauli channels on every driven gate plus coherent
    # miscalibration -- the densest channel the engine compiles.
    t_fast = _best_of(
        lambda: run_noisy_density(compiled, hardware, weights, traj_inputs),
        cfg["repeats"],
    )
    t_ref = _best_of(
        lambda: run_noisy_density_reference(
            compiled, hardware, weights, traj_inputs
        ),
        cfg["ref_repeats"],
    )
    bench["density_inference"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
        "batch": traj_batch,
    }
    equiv["density_inference_max_err"] = float(
        np.abs(
            run_noisy_density(compiled, hardware, weights, traj_inputs)
            - run_noisy_density_reference(compiled, hardware, weights, traj_inputs)
        ).max()
    )

    # -- full-noise density inference (relaxation + readout) ---------------
    # The complete realistic model: Pauli channels + coherent errors +
    # exact T1/T2 relaxation after every driven gate + readout.  The
    # reference walks the same channel Kraus-by-Kraus (relaxation adds 2
    # more operators per operand site); both legs mix readout in
    # probability space, in the shared measurement tail.
    relax_model = hardware.with_relaxation(
        {q: (50.0 + 10.0 * q, 60.0 + 8.0 * q) for q in range(device.n_qubits)},
        (0.035, 0.30),
    )
    t_fast = _best_of(
        lambda: run_noisy_density(compiled, relax_model, weights, traj_inputs),
        cfg["repeats"],
    )
    t_ref = _best_of(
        lambda: run_noisy_density_reference(
            compiled, relax_model, weights, traj_inputs
        ),
        cfg["ref_repeats"],
    )
    bench["density_relaxation"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
        "batch": traj_batch,
    }
    equiv["density_relaxation_max_err"] = float(
        np.abs(
            run_noisy_density(compiled, relax_model, weights, traj_inputs)
            - run_noisy_density_reference(
                compiled, relax_model, weights, traj_inputs
            )
        ).max()
    )

    # -- quantum-jump (MCWF) trajectory inference ---------------------------
    # The sampled backend for the *exact* relaxation channel set: jump
    # sites sampled from the Kraus effects with per-row renormalization,
    # fused across (trajectories x batch) like the Pauli sweep.  The
    # reference loops one trajectory at a time with per-site Python
    # candidate application and per-row choice draws.
    t_fast = _best_of(
        lambda: trajectory_probabilities(
            compiled, relax_model, weights, traj_inputs, traj_batch,
            n_traj, rng=6, unravel="jump",
        ),
        cfg["repeats"],
    )
    t_ref = _best_of(
        lambda: mcwf_probabilities_reference(
            compiled, relax_model, weights, traj_inputs, traj_batch,
            n_traj, rng=6,
        ),
        cfg["ref_repeats"],
    )
    bench["mcwf_trajectory"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
        "n_trajectories": n_traj, "batch": traj_batch,
    }
    # Deterministic channel: no stochastic or jump sites, so the jump
    # unraveling runs the identical fused sweep as the Pauli one and
    # must match the per-trajectory reference exactly.
    p_jump_det = trajectory_probabilities(
        compiled, det_model, weights, traj_inputs, traj_batch, 2, rng=3,
        unravel="jump",
    )
    p_det_ref = trajectory_probabilities_reference(
        compiled, det_model, weights, traj_inputs, traj_batch, 2, rng=3
    )
    equiv["mcwf_deterministic_max_err"] = float(
        np.abs(p_jump_det - p_det_ref).max()
    )
    # Statistical convergence of the jump unraveling to the compiled
    # exact density channel under the full relaxation + readout model.
    mcwf_exp = run_noisy_trajectories(
        compiled, relax_model, weights, traj_inputs,
        n_trajectories=cfg["stat_trajectories"], shots=None, rng=8,
        unravel="jump",
    )
    dens_exp = run_noisy_density(compiled, relax_model, weights, traj_inputs)
    equiv["mcwf_statistical_dev"] = float(np.abs(mcwf_exp - dens_exp).max())
    equiv["mcwf_statistical_tol"] = 6.0 / np.sqrt(cfg["stat_trajectories"])

    # -- sharded trajectory execution --------------------------------------
    # Same chunk layout and per-chunk RNG streams serial vs pooled, so
    # the outputs must be *bit-identical*; the timing ratio records what
    # the worker pool buys on this host.  Both backends run through the
    # process-global shared pools (``pool=None``), so the timed region
    # is the steady state a training loop sees: the pool is spawned and
    # the worker-side plan caches are warm after the warmup call.  The
    # recorded ``shard_speedup`` is the best backend's; the floor
    # (scale != smoke) is keyed by the worker count the host can
    # actually exercise, so a 1-core CI runner gates near-parity while a
    # 4-core box must show the real win.
    shard_kwargs = dict(
        n_trajectories=cfg["n_trajectories"], shard_size=cfg["shard_size"],
    )
    n_chunks = -(-cfg["n_trajectories"] // cfg["shard_size"])

    def sharded_run(backend="thread", n_workers=0):
        return trajectory_probabilities(
            compiled, hardware, weights, traj_inputs, traj_batch,
            rng=2, n_workers=n_workers, shard_backend=backend,
            **shard_kwargs,
        )

    t_serial = _best_of(sharded_run, cfg["repeats"])
    p_serial = sharded_run()
    shard_times = {}
    shard_err = 0.0
    for backend in ("thread", "process"):
        p_sharded = sharded_run(backend, cfg["shard_workers"])  # warms pool
        if not np.array_equal(p_serial, p_sharded):
            raise AssertionError(
                f"{backend}-sharded trajectory output is not "
                "bit-identical to serial"
            )
        shard_err = max(shard_err, float(np.abs(p_serial - p_sharded).max()))
        shard_times[backend] = _best_of(
            lambda: sharded_run(backend, cfg["shard_workers"]),
            cfg["repeats"],
        )
    shard_backend = min(shard_times, key=shard_times.get)
    t_sharded = shard_times[shard_backend]
    t_thread = shard_times["thread"]
    cpu_count = os.cpu_count() or 1
    bench["sharded_trajectory"] = {
        "serial_s": t_serial, "fast_s": t_sharded,
        "shard_speedup": t_serial / t_sharded,
        "thread_s": shard_times["thread"],
        "process_s": shard_times["process"],
        "backend": shard_backend, "cpu_count": cpu_count,
        "workers": cfg["shard_workers"], "chunks": n_chunks,
    }

    # Wide leg: a 10-qubit melbourne block (the MNIST-10 width) on the
    # thread backend.  Its 1024-amplitude rows make each chunk sweep
    # several L2-sized trajectory tiles -- the regime of the paper's
    # real-QC evaluation of its 10-qubit models, which the 4-qubit legs
    # above never reach.
    melbourne = get_device("melbourne")
    wide_qnn = paper_model(10, 1, 1, 36, 10)
    wide_compiled = transpile(wide_qnn.blocks[0], melbourne, 2)
    wide_rng = np.random.default_rng(seed + 1)
    wide_weights = wide_qnn.init_weights(wide_rng)
    wide_inputs = wide_rng.normal(0, 1, (cfg["wide_rows"], 36))
    wide_chunks = -(-WIDE_TRAJECTORIES // WIDE_SHARD_SIZE)

    def wide_run(n_workers=0):
        return trajectory_probabilities(
            wide_compiled, melbourne.hardware_model, wide_weights,
            wide_inputs, cfg["wide_rows"], WIDE_TRAJECTORIES, rng=2,
            n_workers=n_workers, shard_size=WIDE_SHARD_SIZE,
        )

    t_wide_serial = _best_of(wide_run, cfg["repeats"])
    p_wide_serial = wide_run()
    p_wide_thread = wide_run(cfg["shard_workers"])
    if not np.array_equal(p_wide_serial, p_wide_thread):
        raise AssertionError(
            "wide thread-sharded trajectory output is not bit-identical "
            "to serial"
        )
    shard_err = max(
        shard_err, float(np.abs(p_wide_serial - p_wide_thread).max())
    )
    t_wide_thread = _best_of(
        lambda: wide_run(cfg["shard_workers"]), cfg["repeats"]
    )
    bench["sharded_trajectory_wide"] = {
        "serial_s": t_wide_serial, "fast_s": t_wide_thread,
        "shard_speedup": t_wide_serial / t_wide_thread,
        "backend": "thread", "cpu_count": cpu_count,
        "workers": cfg["shard_workers"], "chunks": wide_chunks,
        "qubits": wide_compiled.circuit.n_qubits, "rows": cfg["wide_rows"],
    }
    if scale != "smoke":
        # Floors keyed by the effective parallel width of this host (the
        # wide leg can use no more workers than it has chunks).
        def floor(width):
            return SHARD_FLOORS[max(w for w in SHARD_FLOORS if w <= width)]

        bench["sharded_trajectory"]["floor"] = floor(
            min(cfg["shard_workers"], cpu_count)
        )
        bench["sharded_trajectory_wide"]["floor"] = floor(
            min(cfg["shard_workers"], cpu_count, wide_chunks)
        )
    equiv["sharded_trajectory_max_err"] = shard_err

    # -- supervised sharded trajectory execution ---------------------------
    # Chunk supervision (per-chunk deadlines, CRC32 payload validation,
    # retry bookkeeping) rides on the sharded path; because chunks are
    # re-runnable pure functions of their spawned seeds, supervision
    # changes nothing about the output (bit-identity asserted below) and
    # its overhead vs the unsupervised sharded run must stay in the
    # noise ("speedup" here is t_unsupervised / t_supervised, ~1.0; the
    # regression gate fails if it ever collapses).
    from repro.runtime import ChunkSupervisor

    def supervised_run():
        return trajectory_probabilities(
            compiled, hardware, weights, traj_inputs, traj_batch,
            rng=2, n_workers=cfg["shard_workers"],
            supervisor=ChunkSupervisor(label="trajectory"),
            **shard_kwargs,
        )

    t_supervised = _best_of(supervised_run, cfg["repeats"])
    bench["supervised_trajectory"] = {
        # vs the *thread* sharded time: supervision dispatches on the
        # thread backend, so that is the apples-to-apples denominator.
        "reference_s": t_thread, "fast_s": t_supervised,
        "speedup": t_thread / t_supervised,
        "overhead_pct": (t_supervised / t_thread - 1.0) * 100.0,
        "workers": cfg["shard_workers"], "chunks": n_chunks,
    }
    p_supervised = supervised_run()
    equiv["supervised_trajectory_max_err"] = float(
        np.abs(p_serial - p_supervised).max()
    )
    if not np.array_equal(p_serial, p_supervised):
        raise AssertionError(
            "supervised trajectory output is not bit-identical to serial"
        )

    # -- worker-scaling curve ----------------------------------------------
    # 1/2/4/8 workers on both backends vs one serial baseline, every
    # point bit-identical (the sweep raises otherwise); the gated number
    # is the slope at the largest worker count this host can exercise
    # (see benchmarks/perf/scaling.py for the floor table).
    _HERE = str(Path(__file__).resolve().parent)
    if _HERE not in sys.path:
        sys.path.insert(0, _HERE)
    from scaling import run_scaling

    scaling_record, scaling_equiv = run_scaling(scale, seed=seed)
    bench["sharded_scaling"] = scaling_record
    equiv.update(scaling_equiv)

    # Stochastic channel: independent samplings agree statistically.
    n_stat = cfg["stat_trajectories"]
    p_fused = trajectory_probabilities(
        compiled, hardware, weights, traj_inputs, traj_batch, n_stat, rng=4
    )
    p_ref = trajectory_probabilities_reference(
        compiled, hardware, weights, traj_inputs, traj_batch, n_stat, rng=5
    )
    equiv["trajectory_statistical_dev"] = float(np.abs(p_fused - p_ref).max())
    equiv["trajectory_statistical_tol"] = 6.0 / np.sqrt(n_stat)

    # -- stabilizer tableau vs statevector trajectory sweep -----------------
    # The batched Aaronson-Gottesman engine runs Clifford circuits under
    # Pauli+readout noise in polynomial time.  At the widest width the
    # statevector trajectory sweep can still reach (``stab_qubits``) the
    # two engines sample the same expectation distribution, so the
    # tableau's win is recorded as a speedup pair; the wide leg then
    # times the tableau alone at ``stab_wide_qubits`` -- a width whose
    # 2^n amplitudes no statevector can hold -- and records absolute
    # seconds into the same row.
    from repro.circuits import Circuit
    from repro.compiler.decompositions import lower_to_basis
    from repro.compiler.passes import CompiledCircuit
    from repro.core.engine import engine_spec
    from repro.noise.model import PauliError

    def _pauli_readout_model(n_q: int) -> NoiseModel:
        one_q = {}
        for q in range(n_q):
            for g in ("sx", "x"):
                one_q[(g, q)] = PauliError(1e-3, 1e-3, 1e-3)
        two_q = {
            (q, q + 1): PauliError(4e-3, 4e-3, 2e-3) for q in range(n_q - 1)
        }
        return NoiseModel(
            n_q, one_q, two_q, np.stack([readout_matrix(0.01, 0.02)] * n_q)
        )

    def _clifford_compiled(n_q: int, n_gates: int, circ_seed: int):
        crng = np.random.default_rng(circ_seed)
        clifford = Circuit(n_q)
        one_gates = ("h", "s", "x", "sx")
        for _ in range(n_gates):
            if n_q > 1 and crng.random() < 0.4:
                a = int(crng.integers(n_q - 1))
                clifford.add("cx", (a, a + 1))
            else:
                clifford.add(
                    one_gates[crng.integers(len(one_gates))],
                    int(crng.integers(n_q)),
                )
        lowered = lower_to_basis(clifford)
        return CompiledCircuit(
            circuit=lowered,
            physical_qubits=tuple(range(n_q)),
            layout={q: q for q in range(n_q)},
            measure_qubits=tuple(range(n_q)),
            device_name="bench-line",
        )

    stab_q, stab_traj = cfg["stab_qubits"], cfg["stab_trajectories"]
    stab_model = _pauli_readout_model(stab_q)
    stab_compiled = _clifford_compiled(stab_q, 4 * stab_q, seed)
    w_none, x_none = np.zeros(0), np.zeros((1, 0))
    stab_exec = engine_spec("stabilizer").factory(
        stab_model, rng=7, samples=stab_traj
    )
    traj_exec = engine_spec("trajectory").factory(
        stab_model, rng=7, samples=stab_traj
    )
    t_fast = _best_of(
        lambda: stab_exec.forward(stab_compiled, w_none, x_none),
        cfg["repeats"],
    )
    t_ref = _best_of(
        lambda: traj_exec.forward(stab_compiled, w_none, x_none),
        cfg["ref_repeats"],
    )

    wide_q = cfg["stab_wide_qubits"]
    wide_model = _pauli_readout_model(wide_q)
    wide_compiled = _clifford_compiled(wide_q, 4 * wide_q, seed + 1)
    wide_exec = engine_spec("stabilizer").factory(
        wide_model, rng=11, samples=stab_traj
    )
    t_wide = _best_of(
        lambda: wide_exec.forward(wide_compiled, w_none, x_none),
        cfg["repeats"],
    )
    bench["stabilizer_trajectory"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
        "n_trajectories": stab_traj, "qubits": stab_q,
        "wide_s": t_wide, "wide_qubits": wide_q,
    }

    # Both engines sample the same Pauli-channel average, so their
    # means converge to the same expectations: compare at
    # ``stat_trajectories`` samples each under independent streams.
    stab_stat = engine_spec("stabilizer").factory(
        stab_model, rng=9, samples=n_stat
    )
    traj_stat = engine_spec("trajectory").factory(
        stab_model, rng=10, samples=n_stat
    )
    e_stab = stab_stat.forward(stab_compiled, w_none, x_none)[0]
    e_traj = traj_stat.forward(stab_compiled, w_none, x_none)[0]
    equiv["stabilizer_statistical_dev"] = float(np.abs(e_stab - e_traj).max())
    equiv["stabilizer_statistical_tol"] = 6.0 / np.sqrt(n_stat)
    for executor in (stab_exec, traj_exec, wide_exec, stab_stat, traj_stat):
        executor.close()

    # -- batched training step vs per-sample reference ---------------------
    # Two identically seeded models: the gate-insertion rng streams align,
    # so fast and reference compute the *same* noisy step to float
    # precision while the timings compare one stacked sweep against the
    # nested per-sample loops.
    train_batch = cfg["train_batch"]
    step_x = rng.normal(0, 1, (train_batch, 16))
    step_y = rng.integers(0, 4, train_batch)
    weights_model = paper_model(4, 2, 2, 16, 4).init_weights(rng)

    def make_model(n_realizations=1):
        from repro.core.injection import GATE_INSERTION, InjectionConfig

        cfg_model = QuantumNATConfig.full(0.25).with_injection(
            InjectionConfig(GATE_INSERTION, 0.25, n_realizations=n_realizations)
        )
        return QuantumNATModel(
            paper_model(4, 2, 2, 16, 4), device, cfg_model, rng=seed
        )

    fast_model = make_model()
    ref_model = make_model()
    t_fast = _best_of(
        lambda: fast_model.loss_and_gradients(weights_model, step_x, step_y),
        cfg["repeats"],
    )
    t_ref = _best_of(
        lambda: ref_model.loss_and_gradients_reference(weights_model, step_x, step_y),
        cfg["ref_repeats"],
    )
    bench["training_step"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
        "batch": train_batch,
    }
    eq_fast = make_model()
    eq_ref = make_model()
    l_fast, _, g_fast = eq_fast.loss_and_gradients(weights_model, step_x, step_y)
    l_ref, _, g_ref = eq_ref.loss_and_gradients_reference(
        weights_model, step_x, step_y
    )
    equiv["training_step_loss_err"] = abs(l_fast - l_ref)
    equiv["training_step_grad_max_err"] = float(np.abs(g_fast - g_ref).max())

    # -- stacked multi-realization training step ---------------------------
    # Fused (n_realizations * batch) sweep vs averaging that many
    # single-realization steps -- the batch axis composed with the
    # stacked-trajectory axis.
    n_real = cfg["n_realizations"]
    stacked_model = make_model(n_real)
    loop_model = make_model()

    def stacked_step():
        return stacked_model.loss_and_gradients(weights_model, step_x, step_y)

    def looped_step():
        grads = 0.0
        for _ in range(n_real):
            _, _, g = loop_model.loss_and_gradients(weights_model, step_x, step_y)
            grads = grads + g
        return grads / n_real

    t_fast = _best_of(stacked_step, cfg["repeats"])
    t_ref = _best_of(looped_step, cfg["ref_repeats"])
    bench["stacked_noise_training"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
        "n_realizations": n_real, "batch": train_batch,
    }

    # -- gate-fused inference ----------------------------------------------
    from repro.sim.statevector import z_expectations

    class _PlainExecutor:
        """The unfused per-gate sweep: every gate bound and applied alone."""

        differentiable = True

        def forward(self, compiled_block, w_local, inp):
            circuit = compiled_block.circuit
            n = circuit.n_qubits
            state = run_ops(
                bind_circuit(circuit, w_local, inp, len(inp)), n, len(inp)
            )
            expectations = z_expectations(state, n)
            return expectations[:, list(compiled_block.measure_qubits)], None

    infer_model = make_model()
    plain_executor = _PlainExecutor()
    t_fast = _best_of(
        lambda: infer_model.predict(weights_model, inputs), cfg["repeats"]
    )
    t_ref = _best_of(
        lambda: infer_model.predict(weights_model, inputs, executor=plain_executor),
        cfg["repeats"],
    )
    bench["fused_inference"] = {
        "reference_s": t_ref, "fast_s": t_fast, "speedup": t_ref / t_fast,
        "batch": batch,
    }
    equiv["fused_inference_max_err"] = float(
        np.abs(
            infer_model.predict(weights_model, inputs)
            - infer_model.predict(weights_model, inputs, executor=plain_executor)
        ).max()
    )

    # -- serving layer: coalesced vs naive per-request dispatch ------------
    _HERE = str(Path(__file__).resolve().parent)
    if _HERE not in sys.path:
        sys.path.insert(0, _HERE)
    from serve_load import run_serve_load

    serve_record, serve_equiv = run_serve_load(scale, seed=seed)
    bench["serve_throughput"] = serve_record
    equiv.update(serve_equiv)

    # -- serving layer under chaos: resilience goodput ----------------------
    # Deterministic fault injection against the hardened front door
    # (backpressure shed, supervised retry, breaker trip/probe, drain).
    # ``goodput`` is a pure function of the harness parameters (pinned
    # internal seed, TickClock cooldowns, explicit wave flushes), so the
    # regression gate compares it hard across machines.
    from serve_chaos import run_serve_chaos

    chaos_record, chaos_equiv = run_serve_chaos(scale)
    bench["serve_chaos_goodput"] = chaos_record
    equiv.update(chaos_equiv)

    # -- short end-to-end noise-injected training --------------------------
    n_train = cfg["n_train"]
    train_x = rng.normal(0, 1, (n_train, 16))
    train_y = rng.integers(0, 4, n_train)
    valid_x = rng.normal(0, 1, (max(8, n_train // 4), 16))
    valid_y = rng.integers(0, 4, valid_x.shape[0])
    model = QuantumNATModel(
        paper_model(4, 2, 2, 16, 4),
        device,
        QuantumNATConfig.norm_and_injection(0.25),
        rng=seed,
    )
    t0 = time.perf_counter()
    train(
        model, train_x, train_y, valid_x, valid_y,
        TrainConfig(epochs=cfg["epochs"], seed=seed),
    )
    elapsed = time.perf_counter() - t0
    bench["end_to_end_training"] = {
        "seconds": elapsed,
        "epochs": cfg["epochs"],
        "n_train": n_train,
        "seconds_per_epoch": elapsed / cfg["epochs"],
    }

    # -- hard equivalence gates --------------------------------------------
    for key in (
        "forward_max_err",
        "adjoint_weight_grad_max_err",
        "adjoint_input_grad_max_err",
        "trajectory_deterministic_max_err",
        "mcwf_deterministic_max_err",
        "density_inference_max_err",
        "density_relaxation_max_err",
        "sharded_trajectory_max_err",
        "sharded_scaling_max_err",
        "supervised_trajectory_max_err",
        "training_step_loss_err",
        "training_step_grad_max_err",
        "fused_inference_max_err",
        "serve_vs_naive_max_err",
        "serve_poisson_vs_naive_max_err",
        "serve_chaos_value_max_err",
    ):
        if equiv[key] > EXACT_TOL:
            raise AssertionError(
                f"equivalence violated: {key}={equiv[key]:.3e} > {EXACT_TOL}"
            )
    if equiv["trajectory_statistical_dev"] > equiv["trajectory_statistical_tol"]:
        raise AssertionError(
            "fused trajectory distribution deviates from reference: "
            f"{equiv['trajectory_statistical_dev']:.3e}"
        )
    if equiv["mcwf_statistical_dev"] > equiv["mcwf_statistical_tol"]:
        raise AssertionError(
            "quantum-jump trajectories deviate from the exact density "
            f"channel: {equiv['mcwf_statistical_dev']:.3e}"
        )
    if equiv["stabilizer_statistical_dev"] > equiv["stabilizer_statistical_tol"]:
        raise AssertionError(
            "stabilizer tableau expectations deviate from the statevector "
            f"trajectory sweep: {equiv['stabilizer_statistical_dev']:.3e}"
        )

    if out_path is not None:
        out_path = Path(out_path)
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out_path}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    report = run_benchmarks(args.scale, args.out, args.seed)
    for name, row in report["benchmarks"].items():
        if "speedup" in row and "reference_s" in row:
            print(
                f"{name:22s} reference {row['reference_s']*1e3:8.2f} ms   "
                f"fast {row['fast_s']*1e3:8.2f} ms   {row['speedup']:5.2f}x"
            )
        elif "speedup" in row:
            print(
                f"{name:22s} serial    {row['serial_s']*1e3:8.2f} ms   "
                f"fast {row['fast_s']*1e3:8.2f} ms   "
                f"{row['speedup']:5.2f}x ({row['workers']} workers, "
                f"{row['backend']})"
            )
        elif "shard_speedup" in row:
            print(
                f"{name:22s} serial    {row['serial_s']*1e3:8.2f} ms   "
                f"fast {row['fast_s']*1e3:8.2f} ms   "
                f"{row['shard_speedup']:5.2f}x ({row['workers']} workers)"
            )
        else:
            print(f"{name:22s} {row['seconds']:.2f} s")
    print("equivalence:", json.dumps(report["equivalence"], indent=2))


if __name__ == "__main__":
    main()

"""Tier-2 smoke run of the fast-engine perf harness (tiny sizes).

Marked ``perf`` so the performance tier can be selected with
``-m perf``; the smoke scale keeps it fast enough for the default run.
A speedup collapsing below 1x on the two paths the engine exists for
(forward+backward and trajectory inference) fails loudly here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf


def _load_engine():
    path = Path(__file__).parent / "engine.py"
    spec = importlib.util.spec_from_file_location("perf_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_smoke(tmp_path):
    engine = _load_engine()
    out = tmp_path / "BENCH_engine.json"
    report = engine.run_benchmarks(scale="smoke", out_path=out)

    written = json.loads(out.read_text())
    assert written["meta"]["scale"] == "smoke"

    bench = report["benchmarks"]
    for key in ("forward", "forward_backward", "trajectory_inference",
                "mcwf_trajectory",
                "density_inference", "density_relaxation",
                "sharded_trajectory", "sharded_trajectory_wide",
                "supervised_trajectory",
                "stabilizer_trajectory",
                "training_step", "stacked_noise_training",
                "fused_inference", "serve_throughput",
                "serve_chaos_goodput",
                "end_to_end_training"):
        assert key in bench
    for key in ("speedup", "requests_per_s", "p50_ms", "p99_ms"):
        assert key in bench["serve_throughput"]
    for key in ("goodput", "completed", "n_requests", "failures",
                "breaker_trips", "breaker_probes"):
        assert key in bench["serve_chaos_goodput"]
    for key in ("1q_diagonal_rz", "2q_cx"):
        assert key in report["kernels"]

    # run_benchmarks raises on equivalence violations; re-check the record.
    equiv = report["equivalence"]
    assert equiv["forward_max_err"] < 1e-10
    assert equiv["adjoint_weight_grad_max_err"] < 1e-10
    assert equiv["trajectory_deterministic_max_err"] < 1e-10
    assert equiv["mcwf_deterministic_max_err"] < 1e-10
    assert equiv["mcwf_statistical_dev"] < equiv["mcwf_statistical_tol"]
    assert equiv["density_inference_max_err"] < 1e-10
    assert equiv["density_relaxation_max_err"] < 1e-10
    assert equiv["training_step_loss_err"] < 1e-10
    assert equiv["training_step_grad_max_err"] < 1e-10
    assert equiv["fused_inference_max_err"] < 1e-10
    # Sharded trajectories are bit-identical to serial, not just close
    # (the 10-qubit wide leg included).
    assert equiv["sharded_trajectory_max_err"] == 0.0
    assert bench["sharded_trajectory_wide"]["qubits"] == 10
    assert bench["sharded_trajectory_wide"]["shard_speedup"] > 0.0
    # Chunk supervision changes nothing about the output either.
    assert equiv["supervised_trajectory_max_err"] == 0.0

    # Perf regression tripwire: the fast paths must not fall behind the
    # reference implementations (real speedups are far higher; 1.0 keeps
    # the smoke robust to noisy CI machines).
    assert bench["forward_backward"]["speedup"] > 1.0
    assert bench["trajectory_inference"]["speedup"] > 1.0
    # The fused quantum-jump sweep must stay ahead of the one-trajectory-
    # at-a-time MCWF reference loop.
    assert bench["mcwf_trajectory"]["speedup"] > 1.0
    # Batched tableau vs statevector trajectories on the same Clifford
    # circuit: the acceptance bar is >= 20x at quick scale (really ~40x
    # there); 2.0 absorbs CI noise at the smoke's 16 trajectories, where
    # the tableau's fixed costs weigh most.  The wide leg must have
    # actually run at an un-statevector-able width.
    assert bench["stabilizer_trajectory"]["speedup"] > 2.0
    assert bench["stabilizer_trajectory"]["wide_qubits"] >= 32
    assert bench["stabilizer_trajectory"]["wide_s"] > 0.0
    assert (equiv["stabilizer_statistical_dev"]
            < equiv["stabilizer_statistical_tol"])
    # The compiled superoperator density engine's acceptance bar is
    # >= 10x (really ~40x; 3.0 absorbs CI noise on tiny smoke sizes).
    assert bench["density_inference"]["speedup"] > 3.0
    # Full relaxation + readout channel set: the reference pays even
    # more per-Kraus passes, so the compiled stream must stay ahead.
    assert bench["density_relaxation"]["speedup"] > 3.0
    # The acceptance bar for the batched training engine: >= 2x over the
    # per-sample reference loop (really ~20x; 2.0 absorbs CI noise).
    assert bench["training_step"]["speedup"] > 2.0
    assert bench["stacked_noise_training"]["speedup"] > 1.0
    # Coalesced serving's acceptance bar is >= 3x requests/sec over
    # naive per-request dispatch at quick scale; 1.5 absorbs CI noise
    # on the tiny smoke batches.  Every flush was already replayed
    # bit-identically by verify_flush_log inside the harness.
    assert bench["serve_throughput"]["speedup"] > 1.5
    assert equiv["serve_vs_naive_max_err"] < 1e-10
    assert equiv["serve_flushes_verified"] > 0
    # Chaos goodput is deterministic (pinned seed, tick clock, explicit
    # flush waves), so it is exact here, not a noisy bound.  Every
    # non-completed request failed with exactly one typed error and
    # every executed flush replayed bit-identically.
    chaos = bench["serve_chaos_goodput"]
    assert chaos["completed"] + sum(chaos["failures"].values()) \
        == chaos["n_requests"]
    assert chaos["goodput"] > 0.0
    assert chaos["breaker_trips"] > 0  # the breaker path was exercised
    assert equiv["serve_chaos_untyped_failures"] == 0
    assert equiv["serve_chaos_value_max_err"] < 1e-10
    assert equiv["serve_chaos_flushes_verified"] > 0


def test_regression_gate_against_fresh_self(tmp_path):
    """The gate passes trivially when fresh == baseline (same report)."""
    engine = _load_engine()
    out = tmp_path / "BENCH_engine.json"
    engine.run_benchmarks(scale="smoke", out_path=out)

    import importlib.util

    gate_path = Path(__file__).parent / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", gate_path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    code = gate.main(
        ["--baseline", str(out), "--fresh", str(out)]
    )
    assert code == 0

"""Sharded-trajectory worker-scaling benchmark.

Sweeps ``trajectory_probabilities`` over worker counts (1/2/4/8 by
default) on both shard backends (``thread`` and ``process``), against a
serial baseline with the *same* chunk layout, and reports the scaling
curve.  Every swept point is asserted **bit-identical** to the serial
run -- the chunk layout and per-chunk RNG streams never depend on the
worker count, so any divergence is a correctness bug and the harness
raises.

The regression-gated number is the speedup at the *effective* worker
point: the largest swept worker count that the host can actually
parallelize (``<= os.cpu_count()``).  Gating the literal 4-worker point
on a 1-core CI runner would measure scheduler overhead, not the code,
so the floor table is keyed by that effective point and the harness
records the floor it expects alongside the measurement
(``check_regression.py`` enforces ``speedup >= floor`` as a hard gate,
plus the usual collapse-vs-committed check).

Usage::

    PYTHONPATH=src python benchmarks/perf/scaling.py --scale quick
    PYTHONPATH=src python benchmarks/perf/scaling.py --scale quick \
        --workers 1 2 --check   # CI smoke: exit nonzero below floor
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import get_device, paper_model
from repro.compiler import transpile
from repro.noise.trajectory import trajectory_probabilities
from repro.runtime import PoolLease

BACKENDS = ("thread", "process")

SCALE_PARAMS = {
    # seconds-scale smoke for CI: small stacks, 2 workers max
    "smoke": dict(batch=4, n_trajectories=16, shard_size=2, repeats=2,
                  workers=(1, 2)),
    "quick": dict(batch=16, n_trajectories=64, shard_size=8, repeats=5,
                  workers=(1, 2, 4, 8)),
    "full": dict(batch=32, n_trajectories=128, shard_size=16, repeats=8,
                 workers=(1, 2, 4, 8)),
}

#: Minimum acceptable speedup-vs-serial, keyed by the *effective* gated
#: worker point (the largest swept count ``<= os.cpu_count()``).  One
#: worker through a pool must stay within ~1.4x of serial dispatch
#: overhead; real parallel points must win outright (the ISSUE targets:
#: 4 workers >= 2.0x at quick scale).
FLOORS = {1: 0.7, 2: 1.3, 4: 2.0, 8: 2.5}


def _best_of(f, repeats: int) -> float:
    """Best (minimum) wall-clock over ``repeats`` runs (caller warms up)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def run_scaling(
    scale: str = "quick",
    seed: int = 0,
    workers: "tuple[int, ...] | None" = None,
) -> "tuple[dict, dict]":
    """Sweep worker counts on both backends; return (record, equivalence).

    The record is one benchmark row (``fast_s`` / ``speedup`` /
    ``floor`` / per-point table); ``equivalence`` carries the max
    bit-identity error (always 0.0 -- the sweep raises otherwise).
    """
    cfg = SCALE_PARAMS[scale]
    sweep = tuple(workers) if workers else cfg["workers"]
    rng = np.random.default_rng(seed)
    device = get_device("santiago")
    qnn = paper_model(4, 2, 2, 16, 4)
    compiled = transpile(qnn.blocks[0], device, 2)
    weights = qnn.init_weights(rng)
    inputs = rng.normal(0, 1, (cfg["batch"], 16))
    hardware = device.noise_model
    call = dict(
        batch=cfg["batch"], n_trajectories=cfg["n_trajectories"],
        shard_size=cfg["shard_size"], rng=2,
    )

    def run(n_workers=0, backend="thread", pool=None):
        return trajectory_probabilities(
            compiled, hardware, weights, inputs,
            n_workers=n_workers, shard_backend=backend, pool=pool, **call,
        )

    run()  # warm plan/fusion caches before the serial baseline
    t_serial = _best_of(run, cfg["repeats"])
    p_serial = run()

    max_err = 0.0
    points = []
    for n_workers in sweep:
        for backend in BACKENDS:
            with PoolLease(n_workers, backend) as pool:
                # Warmup primes the pool (process spawn, worker-side
                # plan caches) so the timed region measures steady state
                # -- the regime persistent pools put a training loop in.
                p = run(n_workers, backend, pool)
                if not np.array_equal(p_serial, p):
                    raise AssertionError(
                        f"sharded output diverged from serial at "
                        f"{n_workers} {backend} worker(s)"
                    )
                max_err = max(max_err, float(np.abs(p_serial - p).max()))
                t = _best_of(lambda: run(n_workers, backend, pool),
                             cfg["repeats"])
            points.append({
                "workers": n_workers, "backend": backend,
                "seconds": t, "speedup": t_serial / t,
            })

    cpu_count = os.cpu_count() or 1
    affordable = [w for w in sweep if w <= cpu_count]
    gated_workers = max(affordable) if affordable else min(sweep)
    gated = min(
        (p for p in points if p["workers"] == gated_workers),
        key=lambda p: p["seconds"],
    )
    record = {
        "serial_s": t_serial,
        "fast_s": gated["seconds"],
        "speedup": gated["speedup"],
        "workers": gated_workers,
        "backend": gated["backend"],
        "cpu_count": cpu_count,
        "points": points,
    }
    if scale != "smoke":
        # Smoke stacks are too small for stable slope measurement; the
        # smoke run still enforces bit-identity, just not the floor.
        record["floor"] = FLOORS.get(gated_workers, FLOORS[min(FLOORS)])
    equivalence = {"sharded_scaling_max_err": max_err}
    return record, equivalence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALE_PARAMS), default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="override the swept worker counts")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if the gated point is below floor")
    args = parser.parse_args()
    record, equivalence = run_scaling(args.scale, args.seed, args.workers)
    for p in record["points"]:
        print(f"  {p['workers']}x {p['backend']:8s} "
              f"{p['seconds']*1e3:8.2f} ms   {p['speedup']:5.2f}x")
    print(f"serial {record['serial_s']*1e3:.2f} ms; gated point: "
          f"{record['workers']} {record['backend']} worker(s) "
          f"-> {record['speedup']:.2f}x "
          f"(floor {record.get('floor', 'n/a')}, "
          f"{record['cpu_count']} cpu)")
    print("equivalence:", json.dumps(equivalence))
    if args.check:
        floor = record.get("floor", FLOORS.get(record["workers"]))
        if record["cpu_count"] < 2:
            # A 1-core host cannot demonstrate a parallel slope; the
            # bit-identity sweep above is the meaningful check here.
            print("single-CPU host: slope check skipped (bit-identity held)")
        elif floor is not None and record["speedup"] < floor:
            print(f"FAIL: gated speedup {record['speedup']:.2f}x "
                  f"< floor {floor}x")
            raise SystemExit(1)


if __name__ == "__main__":
    main()

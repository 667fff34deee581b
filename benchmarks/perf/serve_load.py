"""Load-test harness for the coalescing serving layer (`repro/serve/`).

Simulates heavy single-row traffic against an :class:`InferenceServer`
and measures what the front door is for: the throughput gap between
naive per-request dispatch (one ``model.predict`` sweep per request --
what callers did before the serving layer) and window-coalesced
dispatch (requests stacked into one sweep per window on the same
engine).

Two arrival patterns:

* ``burst`` -- every request in flight at once (the worst-case thundering
  herd; also the *gated* pattern: its fast/naive ratio is measured on
  one host in one run, so it is machine-independent the same way the
  other ``speedup`` columns are);
* ``poisson`` -- seeded exponential inter-arrival gaps sized so several
  requests land per coalescing window (steady heavy traffic; reported
  alongside, never gated, because wall-clock sleeps dominate its
  absolute numbers).

Both report p50/p99 per-request latency, requests/sec and mean
coalesced batch size.  Correctness rides along: the server records
every flush and replays it (`verify_flush_log` -- coalesced output must
be *bit-identical* to the serial predict over the same stack), and the
coalesced logits are compared against the naive baseline's row by row.
Every phase serves the same model, weights and noise-model object, so
every cache key must repeat: once the naive phase has warmed the caches,
a coalesced or Poisson phase that adds a miss to any
:func:`repro.utils.cache.cache_stats` row raises.

Usage::

    PYTHONPATH=src python benchmarks/perf/serve_load.py --scale quick --pattern burst

The ``serve_throughput`` scenario in ``BENCH_engine.json`` is produced
by :func:`run_serve_load` via ``benchmarks/perf/engine.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (
    QuantumNATConfig,
    QuantumNATModel,
    get_device,
    paper_model,
)
from repro.core.engine import create_engine, engine_spec
from repro.serve import InferenceServer, ServeConfig
from repro.utils.cache import cache_stats

#: Request counts / coalescing knobs per harness scale.
SERVE_SCALES = {
    "smoke": dict(n_requests=96, window_s=0.002, max_batch=32),
    "quick": dict(n_requests=512, window_s=0.002, max_batch=64),
    "full": dict(n_requests=2048, window_s=0.002, max_batch=64),
}


def _make_endpoint(seed: int):
    """A 4-qubit noisy endpoint: model, weights, one request row each."""
    rng = np.random.default_rng(seed)
    device = get_device("santiago")
    qnn = paper_model(4, 1, 2, 16, 4)
    model = QuantumNATModel(qnn, device, QuantumNATConfig.baseline(), rng=seed)
    weights = qnn.init_weights(rng)
    return model, weights, rng


def _noise_model_for(engine: str, model):
    if not engine_spec(engine).capabilities.channels:
        return None
    return model.device.noise_model


def _naive_baseline(model, weights, executor, requests) -> "tuple[float, np.ndarray]":
    """Per-request dispatch: one single-row sweep per arriving request."""
    t0 = time.perf_counter()
    outputs = [model.predict(weights, x[None, :], executor)[0] for x in requests]
    return time.perf_counter() - t0, np.stack(outputs)


def _check_keys_repeat(warm: dict) -> None:
    """Raise if any cache row gained a miss since the ``warm`` snapshot."""
    new_misses = {
        name: row["misses"] - warm[name]["misses"]
        for name, row in cache_stats().items()
        if name in warm and row["misses"] > warm[name]["misses"]
    }
    if new_misses:
        raise RuntimeError(
            "serving the same model, weights and noise model missed "
            f"caches after warm-up (a key that never repeats): {new_misses}"
        )


async def _drive_burst(session, requests) -> np.ndarray:
    outs = await asyncio.gather(*[session.predict(x) for x in requests])
    return np.stack(outs)


async def _drive_poisson(
    session, requests, gaps_s: np.ndarray
) -> np.ndarray:
    """Arrivals spaced by seeded exponential gaps; all results awaited."""

    async def arrive(i: int) -> np.ndarray:
        return await session.predict(requests[i])

    tasks = []
    for i in range(len(requests)):
        tasks.append(asyncio.ensure_future(arrive(i)))
        if gaps_s[i] > 0:
            await asyncio.sleep(gaps_s[i])
    outs = await asyncio.gather(*tasks)
    return np.stack(outs)


def run_serve_load(
    scale: str = "quick",
    *,
    seed: int = 0,
    engine: str = "density",
    window_s: "float | None" = None,
    max_batch: "int | None" = None,
) -> "tuple[dict, dict]":
    """Run the load test; returns (benchmark record, equivalence record).

    The benchmark record's ``speedup`` column is coalesced vs naive
    requests/sec under the ``burst`` pattern; ``poisson`` metrics ride
    along under their own key.
    """
    cfg = SERVE_SCALES[scale]
    window_s = cfg["window_s"] if window_s is None else window_s
    max_batch = cfg["max_batch"] if max_batch is None else max_batch
    n_requests = cfg["n_requests"]

    model, weights, rng = _make_endpoint(seed)
    requests = rng.normal(0, 1, (n_requests, 16))

    # Naive baseline: what per-request dispatch costs on the same engine.
    naive_executor = create_engine(
        engine, _noise_model_for(engine, model), rng=seed
    )
    naive_s, naive_out = _naive_baseline(model, weights, naive_executor, requests)
    warm = cache_stats()

    # Coalesced burst: the gated fast path.
    server = InferenceServer(
        ServeConfig(window_s=window_s, max_batch=max_batch, record_flushes=True)
    )
    session = server.session(model, weights, engine=engine, rng=seed)
    t0 = time.perf_counter()
    served_out = asyncio.run(_drive_burst(session, requests))
    fast_s = time.perf_counter() - t0
    flushes_verified = server.verify_flush_log()
    burst = server.metrics.snapshot(elapsed_s=fast_s)
    server.close()

    # Poisson arrivals: steady heavy traffic, several requests per window.
    gap_rng = np.random.default_rng(seed + 1)
    gaps = gap_rng.exponential(window_s / 8, size=n_requests)
    server_p = InferenceServer(
        ServeConfig(window_s=window_s, max_batch=max_batch)
    )
    session_p = server_p.session(model, weights, engine=engine, rng=seed)
    t0 = time.perf_counter()
    poisson_out = asyncio.run(_drive_poisson(session_p, requests, gaps))
    poisson_s = time.perf_counter() - t0
    poisson = server_p.metrics.snapshot(elapsed_s=poisson_s)
    server_p.close()
    _check_keys_repeat(warm)

    record = {
        "reference_s": naive_s,
        "fast_s": fast_s,
        "speedup": naive_s / fast_s,
        "requests_per_s": n_requests / fast_s,
        "naive_requests_per_s": n_requests / naive_s,
        "p50_ms": burst["p50_ms"],
        "p99_ms": burst["p99_ms"],
        "mean_batch": burst["mean_batch"],
        "flushes": int(burst["flushes"]),
        "n_requests": n_requests,
        "engine": engine,
        "window_ms": window_s * 1e3,
        "max_batch": max_batch,
        "poisson": {
            "requests_per_s": poisson["requests_per_s"],
            "p50_ms": poisson["p50_ms"],
            "p99_ms": poisson["p99_ms"],
            "mean_batch": poisson["mean_batch"],
        },
    }
    equivalence = {
        "serve_flushes_verified": flushes_verified,
        "serve_vs_naive_max_err": float(np.abs(served_out - naive_out).max()),
        "serve_poisson_vs_naive_max_err": float(
            np.abs(poisson_out - naive_out).max()
        ),
    }
    return record, equivalence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SERVE_SCALES), default="quick")
    parser.add_argument("--engine", default="density")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window-ms", type=float, default=None,
                        help="coalescing window (default: the scale's)")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="rows per sweep before overflow flush")
    args = parser.parse_args()
    record, equivalence = run_serve_load(
        args.scale,
        seed=args.seed,
        engine=args.engine,
        window_s=None if args.window_ms is None else args.window_ms * 1e-3,
        max_batch=args.max_batch,
    )
    print(json.dumps({"serve_throughput": record, "equivalence": equivalence},
                     indent=2))
    print(
        f"\ncoalesced {record['requests_per_s']:,.0f} req/s vs naive "
        f"{record['naive_requests_per_s']:,.0f} req/s "
        f"({record['speedup']:.2f}x), p50 {record['p50_ms']:.2f} ms, "
        f"p99 {record['p99_ms']:.2f} ms, "
        f"mean batch {record['mean_batch']:.1f}"
    )


if __name__ == "__main__":
    main()

"""serve_open_loop: single-row requests against the coalescing server.

The paper_cell +Post Quant model (weights drawn from the seed,
normalization statistics pinned with ``profile_statistics``) is served
on the ``density`` engine through ``InferenceServer`` sessions.  Requests
arrive in an open loop: seeded Poisson schedules at three fixed rates,
each followed by bursts of requests due at once; traced runs add a fixed
rate ladder for the highest sustainable rate.  Every request is timed
from when it was due, so a stall also delays the requests queued behind
it; the generator's own lateness is reported.
"""

from __future__ import annotations

import asyncio
import math
import time

import numpy as np

from benchmarks.common import build_model
from harness import Outcome, median, settle, tail, timed
from repro import (
    InferenceServer,
    QuantumNATConfig,
    ServeConfig,
    load_task,
    make_noise_model_executor,
)

DEVICE = "santiago"
TASK = "mnist-4"
BLOCKS, LAYERS, DESIGN = 2, 4, "u3cu3"
N_TRAIN, N_VALID, N_TEST = 128, 32, 64
ENGINE = "density"
WINDOW_S, MAX_BATCH, MAX_PENDING_ROWS = 0.002, 64, 1024

#: Fixed arrival rates (requests/s), request counts at 25 s of
#: measurement and the segment each rate's requests are split into.
#: Every segment runs on a freshly set-up server, so one host stall
#: spoils one segment.
RATES = {"lo": 200.0, "mid": 500.0, "hi": 1500.0}
REQUESTS = {"lo": 2000, "mid": 2000, "hi": 2000}
SEGMENT = {"lo": 500, "mid": 1000, "hi": 2000}
#: Rate ladder for the highest sustainable rate, its p99 limit and the
#: requests per rung.
LADDER = tuple(round(1000.0 * 1.15**k) for k in range(12))
LADDER_REQUESTS = 1000
P99_LIMIT_MS = 100.0
#: Flushes per server replayed by ``verify_flush_log`` (a seeded sample).
VERIFY_FLUSHES = 30
#: Saturation throughput: bursts of single-row requests, all in flight,
#: after every fixed-rate phase.
BURST, BURSTS_PER_PHASE = 1024, 2
#: Latency recorded for a failed or refused request.
FAILED_MS = 1e9
NOMINAL_SECONDS = 25.0

SIZES = (
    f"{DEVICE} {TASK} 4 qubits {BLOCKS}Bx{LAYERS}L {DESIGN} +Post Quant on "
    f"{ENGINE}, window {WINDOW_S * 1e3:g} ms, max batch {MAX_BATCH}, rates "
    + ", ".join(f"{k} {v:g}/s x {REQUESTS[k]}" for k, v in RATES.items())
    + f", ladder {LADDER[0]}..{LADDER[-1]}/s x {LADDER_REQUESTS}, "
    f"p99 limit {P99_LIMIT_MS:g} ms"
)

BUSY = ("compiler.compile", "core.predict", "core.transform")
IDLE = ("noise.sample", "core.train_step", "runtime.chunk",
        "noise.trajectory")


def _setup(seed: int):
    task = load_task(TASK, n_train=N_TRAIN, n_valid=N_VALID, n_test=N_TEST,
                     seed=seed)
    model = build_model(task, DEVICE, QuantumNATConfig.full(0.25, 6),
                        BLOCKS, LAYERS, DESIGN, seed=seed)
    weights = model.qnn.init_weights(np.random.default_rng(seed), 0.3)
    model.fixed_stats = model.profile_statistics(
        weights, task.valid_x, make_noise_model_executor(model)
    )
    server = InferenceServer(ServeConfig(
        window_s=WINDOW_S, max_batch=MAX_BATCH, record_flushes=True,
        max_pending_rows=MAX_PENDING_ROWS, shed="reject",
    ))
    session = server.session(model, weights, engine=ENGINE, rng=seed)
    asyncio.run(session.predict(task.test_x[0]))
    return task, server, session


async def _burst(session, task) -> np.ndarray:
    """Every request of a burst due at once; each one's latency in ms."""
    rows = task.test_x[np.arange(BURST) % N_TEST]
    start = time.perf_counter()

    async def request(row) -> float:
        await session.predict(row)
        return (time.perf_counter() - start) * 1e3

    return np.array(await asyncio.gather(*[request(row) for row in rows]))


def probe(seed: int):
    """A small job (one burst of single-row requests) for the overhead probe."""
    task, _server, session = _setup(seed)
    return lambda: asyncio.run(_burst(session, task))


class Phase:
    """One open-loop schedule and what happened to each request."""

    def __init__(self, name: str, rate: float, rows: np.ndarray,
                 rng: np.random.Generator) -> None:
        self.name, self.rate, self.rows = name, rate, rows
        n = rows.shape[0]
        self.due = np.cumsum(rng.exponential(1.0 / rate, n))
        self.sent = np.zeros(n)
        self.done = np.zeros(n)
        self.ok = np.zeros(n, dtype=bool)
        self.outputs: "list[np.ndarray | None]" = [None] * n
        self.errors: "dict[str, int]" = {}
        self.start = self.end = 0.0
        #: flush-log records of this phase's flushes, in flush order.
        self.records: list = []

    def run(self, server, session) -> None:
        """Drive the schedule to completion and keep its flush records."""
        first = len(server.flush_log)
        asyncio.run(self._drive(session))
        self.records = server.flush_log[first:]

    async def _drive(self, session) -> None:
        n = self.due.size

        async def request(i: int) -> None:
            try:
                self.outputs[i] = await session.predict(self.rows[i])
            except Exception as exc:  # a refusal is a result, not a crash
                name = type(exc).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                return
            self.done[i] = time.perf_counter()
            self.ok[i] = True

        tasks = []
        self.start = time.perf_counter()
        i = 0
        while i < n:
            now = time.perf_counter() - self.start
            while i < n and self.due[i] <= now:
                self.sent[i] = now
                tasks.append(asyncio.ensure_future(request(i)))
                i += 1
            if i < n:
                await asyncio.sleep(
                    max(0.0, self.due[i] - (time.perf_counter() - self.start))
                )
        await asyncio.gather(*tasks)
        self.end = time.perf_counter()

    @property
    def latency_ms(self) -> np.ndarray:
        """Completion minus due time; a failed request misses any limit."""
        latency = (self.done - (self.start + self.due)) * 1e3
        return np.where(self.ok, latency, FAILED_MS)

    @property
    def lag_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    @property
    def failed(self) -> int:
        return int((~self.ok).sum())


def _phase_rows(task, rng, n: int) -> np.ndarray:
    return task.test_x[rng.integers(0, N_TEST, n)]


def _rung(phase: Phase) -> "tuple[float, float, float]":
    """(rate, p99 ms, median ms of the last quarter) of one ladder rung."""
    latency = phase.latency_ms
    return (phase.rate, float(np.percentile(latency, 99)),
            float(np.median(latency[-(latency.size // 4):])))


def _max_rps(rungs: "list[tuple[float, float, float]]") -> float:
    """Rate at which p99 reaches the limit, from a robust trend fit.

    A single rung's p99 is noisy, so p99 is fitted against rate over the
    whole ladder (Theil-Sen line in log-log space) and the rate where the
    line crosses the limit is reported.  It is capped at the first rung
    whose last-quarter median latency exceeds the limit -- a backlog that
    grows through the rung.
    """
    rates = np.log([r for r, _p99, _last in rungs])
    p99 = np.log([min(p, FAILED_MS) for _r, p, _last in rungs])
    i, j = np.triu_indices(rates.size, k=1)
    slope = float(np.median((p99[j] - p99[i]) / (rates[j] - rates[i])))
    intercept = float(np.median(p99 - slope * rates))
    crossing = math.exp(rates[-1])
    if slope > 0:
        crossing = math.exp((math.log(P99_LIMIT_MS) - intercept) / slope)
    growing = [r for r, _p99, last in rungs if last > P99_LIMIT_MS]
    return min([crossing] + growing)


def _check_rows(out: Outcome, phases) -> None:
    """Every served row equals the matching row of its flush's output."""
    mismatches = 0
    for phase in phases:
        order = iter(np.flatnonzero(phase.ok))
        for record in phase.records:
            for j in range(record.inputs.shape[0]):
                i = next(order)
                if not (np.array_equal(record.inputs[j], phase.rows[i])
                        and np.array_equal(record.outputs[j],
                                           phase.outputs[i])):
                    mismatches += 1
    out.check("every served row equals its flush's serial predict row",
              mismatches == 0, f"{mismatches} mismatching rows")


def _replay_sample(server, rng) -> "tuple[bool, int]":
    """Replay a seeded sample of the server's flushes; (all equal, count)."""
    log = server.flush_log
    keep = np.sort(rng.choice(len(log), min(VERIFY_FLUSHES, len(log)),
                              replace=False))
    server.flush_log = [log[k] for k in keep]
    try:
        return server.verify_flush_log() == keep.size, int(keep.size)
    except AssertionError:
        return False, int(keep.size)


def _rate_layers(out: Outcome, tracer, name: str, phases) -> None:
    """Queue wait, flush time and rows per flush at one rate.

    Queue wait runs from a request's due time to the start of the
    ``model.predict`` span of the flush that carried it.
    """
    waits, flush_ms = [], []
    rows = [r.inputs.shape[0] for phase in phases for r in phase.records]
    out.layers[f"serve.rows_per_flush.{name}"] = float(np.mean(rows))
    if tracer is None:
        return
    for phase in phases:
        spans = sorted(tracer.spans_between("core.predict", phase.start,
                                            phase.end), key=lambda s: s[2])
        if len(spans) != len(phase.records):
            out.check(f"one predict span per flush at {name}", False,
                      f"{len(spans)} spans, {len(phase.records)} flushes")
            return
        order = iter(np.flatnonzero(phase.ok))
        for record, span in zip(phase.records, spans):
            flush_ms.append((span[3] - span[2]) * 1e3)
            for _ in range(record.inputs.shape[0]):
                waits.append(
                    (span[2] - (phase.start + phase.due[next(order)])) * 1e3)
    out.layers[f"serve.queue_wait_ms.p50.{name}"] = median(waits)
    out.layers[f"serve.queue_wait_ms.p99.{name}"] = tail(waits)[1]
    out.layers[f"serve.flush_ms.p50.{name}"] = median(flush_ms)
    out.layers[f"serve.flush_ms.p99.{name}"] = tail(flush_ms)[1]


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    """Each fixed-rate phase runs on a freshly set-up server, followed by
    bursts, so set-up, latency and throughput samples spread over the
    whole run instead of one stretch of it."""
    out = Outcome()
    scale = min(1.0, seconds / NOMINAL_SECONDS)
    rng = np.random.default_rng([seed, 1])
    verify_rng = np.random.default_rng(seed)
    task = load_task(TASK, n_train=N_TRAIN, n_valid=N_VALID, n_test=N_TEST,
                     seed=seed)
    fixed = []
    for name, rate in RATES.items():
        n = max(100, int(REQUESTS[name] * scale))
        size = min(SEGMENT[name], n)
        fixed += [Phase(name, rate, _phase_rows(task, rng, size), rng)
                  for _ in range(max(1, n // size))]

    burst_rows_per_s, burst_p50_ms, replays = [], [], []
    settle()
    for phase in fixed:
        with out.window("setup", tracer):
            task, server, session = _setup(seed)
        with out.window("job", tracer):
            phase.run(server, session)
        for _ in range(BURSTS_PER_PHASE):
            burst_s, latency = timed(asyncio.run, _burst(session, task))
            burst_rows_per_s.append(BURST / burst_s)
            burst_p50_ms.append(median(latency))
        replays.append(_replay_sample(server, verify_rng))
        server.close()

    ladder, rungs = [], []
    if tracer is not None:
        task, server, session = _setup(seed)
        n = max(100, int(LADDER_REQUESTS * scale))
        ladder = [Phase("ladder", rate, _phase_rows(task, rng, n), rng)
                  for rate in LADDER]
        for phase in ladder:
            phase.run(server, session)
        server.close()
        rungs = [_rung(phase) for phase in ladder]
        out.layers["serve.max_rps"] = _max_rps(rungs)

    out.attempted = sum(p.due.size for p in fixed)
    out.failed = sum(p.failed for p in fixed)
    out.jobs = out.attempted
    # The gated latency is the median request of a burst: on a contended
    # host the fixed-rate latencies swing by 25 % (200/s median) to 2-4x
    # (p99, and the 500/s median once slower flushes let batches grow),
    # so they are reported per layer instead.
    out.metrics = {
        "setup_s": median(out.seconds("setup")),
        "latency_ms": median(burst_p50_ms),
        "rows_per_s": median(burst_rows_per_s),
    }

    by_rate = {name: [p for p in fixed if p.name == name] for name in RATES}
    for name, phases in by_rate.items():
        _rate_layers(out, tracer, name, phases)
        latency = np.concatenate([p.latency_ms for p in phases])
        lag_pct, lag = tail(np.concatenate([p.lag_ms for p in phases]))
        pct, p_tail = tail(latency)
        out.layers[f"serve.p50_ms.{name}"] = median(latency)
        out.layers[f"serve.p99_ms.{name}"] = p_tail
        out.layers[f"loadgen.lag_ms.p99.{name}"] = lag
        out.info.append(
            f"serve_p50_ms.{name} {np.percentile(latency, 50):.3f} ms, "
            f"serve_p{pct:g}_ms.{name} {p_tail:.3f} ms, generator lag "
            f"p{lag_pct:g} {lag:.3f} ms ({latency.size} requests at "
            f"{RATES[name]:g}/s)"
        )
    out.layers["serve.shed"] = sum(
        sum(p.errors.values()) for p in fixed + ladder)

    _check_rows(out, fixed + ladder)
    out.check("verify_flush_log replays sampled flushes bit-identically",
              all(ok for ok, _n in replays),
              f"{sum(n for _ok, n in replays)} flushes on {len(replays)} "
              "servers")
    out.check("no request failed at the fixed rates", out.failed == 0,
              f"{out.failed} of {out.attempted}")
    out.info += [
        f"sizes: {SIZES}",
        "computed state bytes per density sweep: 16x16 complex density "
        "x 16 B = 4096 B per row",
        f"burst capacity: {median(burst_rows_per_s):.1f} rows/s, median "
        f"request {median(burst_p50_ms):.3f} ms (medians of "
        f"{len(burst_rows_per_s)} bursts of {BURST} requests)",
        f"serve_fail_frac: {out.failed}/{out.attempted}",
    ]
    if rungs:
        out.info.append(
            "serve_max_rps: {:.1f}/s (rate: p99 / last-quarter p50 ms: "
            "{})".format(out.layers["serve.max_rps"], ", ".join(
                f"{r:g}: {p:.1f}/{last:.1f}" for r, p, last in rungs)))
    return out

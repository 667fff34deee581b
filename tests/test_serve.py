"""Serving-layer semantics: coalescer, admission, deadlines, equivalence.

The coalescer tests drive :class:`repro.serve.BatchCoalescer` directly
with a recording execute stub (window flush ordering, max-batch
splitting, per-key isolation, cancellation mid-window); the end-to-end
tests stand up an :class:`InferenceServer` over real registry engines
and assert the serving layer's core contract -- a coalesced flush is
*bit-identical* to the serial ``predict`` a lone caller would have run
over the same stack with the same executor RNG state.

No pytest-asyncio in the environment: each test owns its loop via
``asyncio.run``.
"""

import asyncio

import numpy as np
import pytest

from repro.core.engine import create_engine
from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
from repro.noise import get_device
from repro.qnn import paper_model
from repro.runtime.errors import DegradedExecution
from repro.serve import (
    AdmissionError,
    AdmissionPolicy,
    BatchCoalescer,
    BreakerConfig,
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    InferenceServer,
    LatencyReservoir,
    Overloaded,
    ServeConfig,
    ServeMetrics,
    ServerClosed,
    TickClock,
)


# ---------------------------------------------------------------------------
# coalescer semantics (no engines: recording execute stub)
# ---------------------------------------------------------------------------


class RecordingExecute:
    """Execute stub: logs every (key, stacked rows) sweep it receives.

    Outputs echo the input rows so slicing bugs surface as value bugs.
    """

    def __init__(self):
        self.sweeps = []

    def __call__(self, key, rows):
        self.sweeps.append((key, rows.copy()))
        return rows * 2.0


def test_window_flush_preserves_submission_order():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(execute, window_s=0.005, max_batch=64)
        rows = [np.full((1, 3), float(i)) for i in range(5)]
        futures = [coalescer.submit("k", r) for r in rows]
        return await asyncio.gather(*futures)

    outs = asyncio.run(main())
    assert len(execute.sweeps) == 1
    key, stacked = execute.sweeps[0]
    assert key == "k"
    # Stacked in submission order...
    np.testing.assert_array_equal(stacked[:, 0], [0, 1, 2, 3, 4])
    # ...and each caller got exactly its own slice back.
    for i, out in enumerate(outs):
        np.testing.assert_array_equal(out, np.full((1, 3), 2.0 * i))


def test_overflow_flush_at_max_batch_splits_at_request_granularity():
    execute = RecordingExecute()

    async def main():
        # window far longer than the test: only the size trigger fires.
        coalescer = BatchCoalescer(execute, window_s=10.0, max_batch=4)
        futures = [
            coalescer.submit("k", np.full((3, 2), float(i))) for i in range(2)
        ]
        return await asyncio.gather(*futures)

    outs = asyncio.run(main())
    # 3 + 3 rows crossed max_batch=4 -> immediate flush, split into two
    # sweeps because 6 rows exceed max_batch but neither request does.
    assert [s[1].shape[0] for s in execute.sweeps] == [3, 3]
    assert all(out.shape == (3, 2) for out in outs)


def test_oversized_single_request_splits_by_rows():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(execute, window_s=10.0, max_batch=4)
        return await coalescer.submit("k", np.arange(20.0).reshape(10, 2))

    out = asyncio.run(main())
    assert [s[1].shape[0] for s in execute.sweeps] == [4, 4, 2]
    np.testing.assert_array_equal(out, np.arange(20.0).reshape(10, 2) * 2)


def test_per_key_isolation():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(execute, window_s=0.005, max_batch=64)
        fa = coalescer.submit("a", np.zeros((2, 2)))
        fb = coalescer.submit("b", np.ones((3, 2)))
        return await asyncio.gather(fa, fb)

    asyncio.run(main())
    # One sweep per key; rows from different keys never stack together.
    assert sorted((key, rows.shape[0]) for key, rows in execute.sweeps) == [
        ("a", 2),
        ("b", 3),
    ]


def test_cancellation_mid_window_drops_rows_before_execution():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(execute, window_s=0.01, max_batch=64)
        doomed = coalescer.submit("k", np.full((2, 2), -1.0))
        kept = coalescer.submit("k", np.zeros((1, 2)))
        doomed.cancel()
        out = await kept
        with pytest.raises(asyncio.CancelledError):
            await doomed
        return out

    out = asyncio.run(main())
    # The cancelled request's rows never reached the engine.
    assert len(execute.sweeps) == 1
    assert execute.sweeps[0][1].shape[0] == 1
    np.testing.assert_array_equal(out, np.zeros((1, 2)))


def test_execution_error_propagates_to_every_request_in_the_sweep():
    def explode(key, rows):
        raise RuntimeError("engine on fire")

    async def main():
        coalescer = BatchCoalescer(explode, window_s=0.005, max_batch=64)
        futures = [coalescer.submit("k", np.zeros((1, 2))) for _ in range(3)]
        return await asyncio.gather(*futures, return_exceptions=True)

    results = asyncio.run(main())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_drain_flushes_pending_requests():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(execute, window_s=10.0, max_batch=64)
        future = coalescer.submit("k", np.ones((2, 2)))
        coalescer.drain()
        out = await future
        # Draining stops admission: later submits are refused, typed.
        with pytest.raises(ServerClosed):
            coalescer.submit("k", np.zeros((1, 2)))
        return out

    out = asyncio.run(main())
    np.testing.assert_array_equal(out, np.full((2, 2), 2.0))
    assert len(execute.sweeps) == 1


def test_close_fails_parked_requests_with_typed_error():
    """S1 regression: an abrupt close must not leave parked futures
    unresolved or window timers armed -- parked requests fail with the
    passed exception, and their rows never execute."""
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(execute, window_s=10.0, max_batch=64)
        future = coalescer.submit("k", np.ones((2, 2)))
        coalescer.close(ServerClosed("bye", state="closed"))
        with pytest.raises(ServerClosed):
            await future
        with pytest.raises(ServerClosed):
            coalescer.submit("k", np.zeros((1, 2)))
        # Idempotent; nothing pending afterwards.
        coalescer.close()
        return coalescer

    coalescer = asyncio.run(main())
    assert execute.sweeps == []
    assert coalescer.pending_rows == 0


# ---------------------------------------------------------------------------
# end-to-end serving over real engines
# ---------------------------------------------------------------------------


def _endpoint(n_qubits=4, device="santiago", config=None, seed=0):
    qnn = paper_model(n_qubits, 1, 1 if n_qubits > 4 else 2, 36 if n_qubits > 4 else 16, 4)
    model = QuantumNATModel(
        qnn, get_device(device), config or QuantumNATConfig.baseline(),
        rng=seed,
    )
    return model, qnn.init_weights(seed)


def test_coalesced_density_bit_equivalent_to_serial_predict():
    """The tentpole contract, exact engine: every flush replays bitwise."""
    model, weights = _endpoint()
    rng = np.random.default_rng(0)
    requests = rng.normal(size=(12, 16))

    async def main():
        server = InferenceServer(
            ServeConfig(window_s=0.005, max_batch=8, record_flushes=True)
        )
        session = server.session(model, weights, engine="density", rng=0)
        outs = await asyncio.gather(*[session.predict(x) for x in requests])
        return server, np.stack(outs)

    server, coalesced = asyncio.run(main())
    assert server.verify_flush_log() == server.metrics.flushes >= 2
    # Serial replay of the flush stream on a *fresh* identically seeded
    # executor reproduces exactly what the server returned.
    serial_ex = create_engine("density", model.device.noise_model, rng=0)
    for rec in server.flush_log:
        serial = model.predict(weights, rec.inputs, serial_ex)
        np.testing.assert_array_equal(serial, rec.outputs)
    server.close()


def test_coalesced_trajectory_bit_equivalent_to_serial_stream():
    """Stochastic engine: the coalesced run consumes the same RNG stream
    a serial caller would, so a fresh executor seeded identically
    reproduces every flush bit for bit in order."""
    model, weights = _endpoint()
    rng = np.random.default_rng(1)
    requests = rng.normal(size=(10, 16))

    async def main():
        server = InferenceServer(
            ServeConfig(window_s=0.005, max_batch=4, record_flushes=True)
        )
        session = server.session(
            model, weights, engine="trajectory", rng=7, samples=4, shots=None
        )
        outs = await asyncio.gather(*[session.predict(x) for x in requests])
        return server, np.stack(outs)

    server, coalesced = asyncio.run(main())
    assert server.verify_flush_log() == server.metrics.flushes
    serial_ex = create_engine(
        "trajectory", model.device.noise_model, rng=7, samples=4, shots=None
    )
    served = []
    for rec in server.flush_log:
        serial = model.predict(weights, rec.inputs, serial_ex)
        np.testing.assert_array_equal(serial, rec.outputs)
        served.append(rec.outputs)
    # And the flush stream covers exactly the submitted rows in order.
    np.testing.assert_array_equal(np.concatenate(served), coalesced)
    server.close()


def test_sessions_sharing_a_key_coalesce_across_users():
    model, weights = _endpoint()

    async def main():
        server = InferenceServer(ServeConfig(window_s=0.005, max_batch=64))
        alice = server.session(model, weights, engine="density", rng=0)
        bob = server.session(model, weights, engine="density")
        assert alice.key == bob.key
        assert alice.executor is bob.executor
        await asyncio.gather(
            alice.predict(np.zeros(16)), bob.predict(np.ones(16))
        )
        return server

    server = asyncio.run(main())
    # Both users' rows executed as one stacked sweep.
    assert server.metrics.flush_sizes == [2]
    server.close()


def test_single_row_and_batch_shapes():
    model, weights = _endpoint()

    async def main():
        server = InferenceServer(ServeConfig(window_s=0.002))
        session = server.session(model, weights)
        one = await session.predict(np.zeros(16))
        many = await session.predict(np.zeros((3, 16)))
        server.close()
        return one, many

    one, many = asyncio.run(main())
    assert one.shape == (4,)
    assert many.shape == (3, 4)


def test_admission_fallback_routes_wide_request():
    """10 qubits exceed density's width cap: the session degrades to the
    registry's fallback chain instead of failing."""
    model, weights = _endpoint(n_qubits=10, device="melbourne")

    async def main():
        server = InferenceServer(ServeConfig(window_s=0.002))
        with pytest.warns(DegradedExecution):
            session = server.session(
                model, weights, engine="density", rng=0, samples=2
            )
        out = await session.predict(np.zeros(36))
        server.close()
        return out

    out = asyncio.run(main())
    assert out.shape == (4,)


def test_admission_reject_policy_refuses_unservable_sessions():
    model, weights = _endpoint(n_qubits=10, device="melbourne")
    server = InferenceServer(
        ServeConfig(admission=AdmissionPolicy(on_unservable="reject"))
    )
    with pytest.raises(AdmissionError, match="width cap"):
        server.session(model, weights, engine="density")
    assert server.metrics.rejected == 1
    # The refusal carries the capability matrix so callers can re-route.
    with pytest.raises(AdmissionError, match="max qubits"):
        server.session(model, weights, engine="density")


def test_admission_max_rows_per_request():
    model, weights = _endpoint()

    async def main():
        server = InferenceServer(
            ServeConfig(admission=AdmissionPolicy(max_rows_per_request=4))
        )
        session = server.session(model, weights)
        with pytest.raises(AdmissionError, match="max_rows_per_request"):
            await session.predict(np.zeros((5, 16)))
        out = await session.predict(np.zeros((4, 16)))
        server.close()
        return server, out

    server, out = asyncio.run(main())
    assert out.shape == (4, 4)
    assert server.metrics.rejected == 1


def test_deadline_exceeded_cancels_parked_request():
    model, weights = _endpoint()

    async def main():
        # Window much longer than the deadline: the request must die
        # parked, and its rows must never execute.
        server = InferenceServer(ServeConfig(window_s=0.5, max_batch=64))
        session = server.session(model, weights)
        with pytest.raises(DeadlineExceeded):
            await session.predict(np.zeros(16), deadline_s=0.01)
        # A later request on the same key is unaffected.
        out = await session.predict(np.ones(16), deadline_s=5.0)
        server.close()
        return server, out

    server, out = asyncio.run(main())
    assert out.shape == (4,)
    assert server.metrics.deadline_misses == 1
    # Only the surviving request's row ever reached the engine.
    assert server.metrics.flush_sizes == [1]


def test_supervised_flushes_run_under_chunk_supervisor():
    from repro.runtime.supervisor import SupervisorConfig

    model, weights = _endpoint()

    async def main():
        server = InferenceServer(
            ServeConfig(
                window_s=0.002,
                supervised=True,
                supervisor_config=SupervisorConfig(deadline_s=30.0),
                record_flushes=True,
            )
        )
        session = server.session(
            model, weights, engine="trajectory", rng=3, samples=2, shots=None
        )
        outs = await asyncio.gather(
            *[session.predict(np.full(16, float(i))) for i in range(3)]
        )
        return server, outs

    server, outs = asyncio.run(main())
    assert len(outs) == 3
    assert server.verify_flush_log() >= 1
    endpoint = server._endpoints[next(iter(server._endpoints))]
    assert endpoint.supervisor is not None
    assert endpoint.supervisor.last_report.chunks == 1
    server.close()


def test_batch_stats_normalization_requires_fixed_stats():
    """Batch-statistics normalization depends on who coalesces with whom
    -- the server refuses it until fixed validation statistics are
    pinned (paper Table 13)."""
    model, weights = _endpoint(
        config=QuantumNATConfig(normalize=True, quantize=False)
    )
    server = InferenceServer(ServeConfig())
    with pytest.raises(ValueError, match="fixed_stats"):
        server.session(model, weights)

    model.fixed_stats = model.profile_statistics(
        weights, np.random.default_rng(0).normal(size=(32, 16))
    )

    async def main():
        session = server.session(model, weights)
        return await session.predict(np.zeros(16))

    out = asyncio.run(main())
    assert out.shape == (4,)
    server.close()


# ---------------------------------------------------------------------------
# bounded backpressure: deterministic load shedding
# ---------------------------------------------------------------------------


def test_shed_reject_refuses_arrival_with_queue_snapshot():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(
            execute, window_s=10.0, max_batch=64,
            max_pending_rows_per_key=4, shed="reject",
        )
        kept = coalescer.submit("k", np.zeros((3, 2)))
        with pytest.raises(Overloaded) as exc_info:
            coalescer.submit("k", np.zeros((2, 2)))
        coalescer.drain()
        await kept
        return coalescer, exc_info.value

    coalescer, err = asyncio.run(main())
    # The parked request survived; only the arrival was refused.
    assert [s[1].shape[0] for s in execute.sweeps] == [3]
    assert coalescer.shed_count == 1
    snap = err.snapshot()
    assert snap["shed"] == "reject"
    assert snap["n_rows"] == 2
    assert snap["pending_rows_key"] == 3
    assert snap["max_pending_rows_per_key"] == 4


def test_shed_oldest_evicts_lowest_sequence_parked_request():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(
            execute, window_s=10.0, max_batch=64,
            max_pending_rows_per_key=4, shed="oldest",
        )
        first = coalescer.submit("k", np.full((2, 2), 1.0))
        second = coalescer.submit("k", np.full((2, 2), 2.0))
        third = coalescer.submit("k", np.full((2, 2), 3.0))  # evicts first
        with pytest.raises(Overloaded):
            await first
        coalescer.drain()
        return await asyncio.gather(second, third)

    outs = asyncio.run(main())
    # The surviving queue is [second, third], in arrival order.
    assert len(execute.sweeps) == 1
    np.testing.assert_array_equal(
        execute.sweeps[0][1][:, 0], [2.0, 2.0, 3.0, 3.0]
    )
    np.testing.assert_array_equal(outs[0], np.full((2, 2), 4.0))


def test_shed_newest_evicts_highest_sequence_parked_request():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(
            execute, window_s=10.0, max_batch=64,
            max_pending_rows_per_key=4, shed="newest",
        )
        first = coalescer.submit("k", np.full((2, 2), 1.0))
        second = coalescer.submit("k", np.full((2, 2), 2.0))
        third = coalescer.submit("k", np.full((2, 2), 3.0))  # evicts second
        with pytest.raises(Overloaded):
            await second
        coalescer.drain()
        return await asyncio.gather(first, third)

    asyncio.run(main())
    np.testing.assert_array_equal(
        execute.sweeps[0][1][:, 0], [1.0, 1.0, 3.0, 3.0]
    )


def test_server_wide_cap_evicts_across_keys():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(
            execute, window_s=10.0, max_batch=64,
            max_pending_rows=4, shed="oldest",
        )
        a = coalescer.submit("a", np.zeros((2, 2)))
        b = coalescer.submit("b", np.ones((2, 2)))
        # Key "c" is fine on its own, but the server-wide cap is full:
        # the globally oldest parked request ("a") is sacrificed.
        c = coalescer.submit("c", np.full((2, 2), 2.0))
        with pytest.raises(Overloaded):
            await a
        coalescer.drain()
        return await asyncio.gather(b, c)

    asyncio.run(main())
    assert sorted(key for key, _ in execute.sweeps) == ["b", "c"]
    assert execute.sweeps[0][0] != "a" and execute.sweeps[1][0] != "a"


def test_request_wider_than_cap_always_refused():
    execute = RecordingExecute()

    async def main():
        coalescer = BatchCoalescer(
            execute, window_s=10.0, max_batch=64,
            max_pending_rows_per_key=4, shed="oldest",
        )
        parked = coalescer.submit("k", np.zeros((2, 2)))
        # 5 rows can never fit under a cap of 4: refused even though the
        # policy is eviction -- and the parked request is NOT evicted.
        with pytest.raises(Overloaded):
            coalescer.submit("k", np.zeros((5, 2)))
        coalescer.drain()
        return await parked

    asyncio.run(main())
    assert [s[1].shape[0] for s in execute.sweeps] == [2]


def test_shedding_is_a_pure_function_of_arrival_order():
    """Same arrival sequence -> same shed victims, run after run."""

    def run_once():
        execute = RecordingExecute()
        survivors = []

        async def main():
            coalescer = BatchCoalescer(
                execute, window_s=10.0, max_batch=64,
                max_pending_rows=6, shed="oldest",
            )
            futures = [
                coalescer.submit(f"k{i % 2}", np.full((2, 2), float(i)))
                for i in range(6)
            ]
            coalescer.drain()
            results = await asyncio.gather(*futures, return_exceptions=True)
            for i, res in enumerate(results):
                if not isinstance(res, Exception):
                    survivors.append(i)
            return survivors

        return asyncio.run(main())

    assert run_once() == run_once() == [3, 4, 5]


def test_server_shed_metrics_and_overloaded_from_predict():
    model, weights = _endpoint()

    async def main():
        server = InferenceServer(
            ServeConfig(window_s=10.0, max_pending_rows=2, shed="reject")
        )
        session = server.session(model, weights)
        parked = asyncio.ensure_future(session.predict(np.zeros((2, 16))))
        await asyncio.sleep(0)  # let the first predict park its rows
        with pytest.raises(Overloaded):
            await session.predict(np.ones(16))
        server.drain()
        await parked
        return server

    server = asyncio.run(main())
    assert server.metrics.shed == 1
    assert server.health().shed == 1


# ---------------------------------------------------------------------------
# circuit breaker state machine (unit, deterministic TickClock)
# ---------------------------------------------------------------------------


def _tripped_breaker(threshold=2, cooldown=2.0, **kwargs):
    from repro.runtime.errors import RetryExhausted

    breaker = CircuitBreaker(BreakerConfig(
        failure_threshold=threshold, cooldown_s=cooldown,
        clock=TickClock(), **kwargs,
    ))
    for _ in range(threshold):
        assert breaker.before_flush() == "closed"
        breaker.record_failure(RetryExhausted(0, 3))
    return breaker


def test_breaker_trips_after_consecutive_taxonomy_failures():
    breaker = _tripped_breaker(threshold=3)
    assert breaker.state == "open"
    assert breaker.trips == 1
    err = breaker.reject("serve:density:abc")
    assert isinstance(err, CircuitOpen)
    assert err.endpoint == "serve:density:abc"
    assert err.consecutive_failures == 3
    assert "RetryExhausted" in err.last_failure


def test_breaker_success_resets_consecutive_failures():
    from repro.runtime.errors import RetryExhausted

    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=2, clock=TickClock())
    )
    breaker.record_failure(RetryExhausted(0, 3))
    breaker.record_success()
    breaker.record_failure(RetryExhausted(0, 3))
    # Never two *consecutive* failures: still closed.
    assert breaker.state == "closed"
    assert breaker.failures == 2 and breaker.successes == 1


def test_breaker_ignores_non_taxonomy_exceptions():
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=1, clock=TickClock())
    )
    breaker.record_failure(ValueError("caller bug, not endpoint health"))
    assert breaker.state == "closed"
    assert breaker.failures == 1


def test_breaker_half_open_probe_closes_on_success():
    breaker = _tripped_breaker(threshold=1, cooldown=2.0)
    # Tick 1 of cooldown: still open.
    assert breaker.before_flush() == "open"
    # Tick 2 reaches the cooldown: half-open, one probe readmitted.
    assert breaker.before_flush() == "probe"
    assert breaker.state == "half_open"
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.before_flush() == "closed"
    assert breaker.probes == 1


def test_breaker_failed_probe_reopens_with_fresh_cooldown():
    from repro.runtime.errors import WorkerCrash

    breaker = _tripped_breaker(threshold=1, cooldown=1.0)
    assert breaker.before_flush() == "probe"
    breaker.record_failure(WorkerCrash(0, 0, "boom"))
    assert breaker.state == "open"
    assert breaker.trips == 2
    # The next decision starts a fresh cooldown before the next probe.
    assert breaker.before_flush() == "probe"  # cooldown_s=1: one tick


# ---------------------------------------------------------------------------
# graceful drain, abrupt close, health (server level)
# ---------------------------------------------------------------------------


def test_server_drain_flushes_parked_work_then_refuses():
    model, weights = _endpoint()

    async def main():
        server = InferenceServer(
            ServeConfig(window_s=10.0, record_flushes=True)
        )
        session = server.session(model, weights)
        parked = asyncio.ensure_future(session.predict(np.zeros(16)))
        await asyncio.sleep(0)
        server.drain()
        out = await parked  # parked work completed, not failed
        with pytest.raises(ServerClosed) as exc_info:
            await session.predict(np.ones(16))
        return server, out, exc_info.value

    server, out, err = asyncio.run(main())
    assert out.shape == (4,)
    assert err.state == "closed"
    assert server.state == "closed"
    assert server.health().status == "closed"
    # Endpoints survive a drain: the flush log still verifies.
    assert server.verify_flush_log() == 1


def test_server_close_mid_window_leaves_nothing_armed():
    """S1 regression at the server level: close() with requests parked
    mid-window must fail them typed, not flush them and not hang."""
    model, weights = _endpoint()

    async def main():
        server = InferenceServer(ServeConfig(window_s=10.0))
        session = server.session(model, weights)
        parked = asyncio.ensure_future(session.predict(np.zeros(16)))
        await asyncio.sleep(0)
        server.close()
        with pytest.raises(ServerClosed):
            await parked
        with pytest.raises(ServerClosed):
            await session.predict(np.ones(16))
        return server

    server = asyncio.run(main())
    assert server.metrics.flushes == 0
    assert server.coalescer.pending_rows == 0


def test_session_after_drain_is_refused():
    model, weights = _endpoint()
    server = InferenceServer(ServeConfig())
    server.drain()
    with pytest.raises(ServerClosed):
        server.session(model, weights)


def test_health_snapshot_ready_and_shape():
    model, weights = _endpoint()

    async def main():
        server = InferenceServer(
            ServeConfig(breaker=BreakerConfig(clock=TickClock()))
        )
        session = server.session(model, weights, engine="density", rng=0)
        await session.predict(np.zeros(16))
        return server

    server = asyncio.run(main())
    health = server.health()
    assert health.status == "ready" and health.ready
    assert health.state == "serving"
    assert health.pending_rows == 0
    assert health.admission["on_unservable"] == "fallback"
    assert len(health.endpoints) == 1
    ep = health.endpoints[0]
    assert ep.engine == "density"
    assert ep.endpoint.startswith("serve:density:")
    assert ep.breaker_state == "closed"
    assert ep.flushes == 1 and ep.healthy
    payload = health.to_dict()
    assert payload["status"] == "ready"
    server.close()
    assert server.health().status == "closed"


# ---------------------------------------------------------------------------
# bounded metrics reservoir (S2)
# ---------------------------------------------------------------------------


def test_latency_reservoir_is_bounded_and_deterministic():
    res = LatencyReservoir(capacity=64)
    for i in range(10_000):
        res.record(float(i))
    assert len(res) < 64
    assert res.count == 10_000
    # Stride doubling keeps an evenly spaced subsample: indices are
    # exact multiples of the final stride, a pure function of count.
    assert all(s % res.stride == 0 for s in res.samples)
    twin = LatencyReservoir(capacity=64)
    for i in range(10_000):
        twin.record(float(i))
    assert res.samples == twin.samples


def test_reservoir_quantiles_track_the_stream():
    rng = np.random.default_rng(42)
    stream = rng.exponential(scale=0.01, size=20_000)
    metrics = ServeMetrics(reservoir_capacity=512)
    for v in stream:
        metrics.record_latency(float(v))
    snap = metrics.snapshot()
    true_p50 = float(np.percentile(stream, 50) * 1e3)
    true_p99 = float(np.percentile(stream, 99) * 1e3)
    assert abs(snap["p50_ms"] - true_p50) / true_p50 < 0.15
    assert abs(snap["p99_ms"] - true_p99) / true_p99 < 0.25
    # Exact aggregates never decimate.
    assert snap["requests"] == 20_000
    np.testing.assert_allclose(snap["mean_ms"], stream.mean() * 1e3)


def test_metrics_reset_clears_resilience_counters():
    metrics = ServeMetrics()
    metrics.record_latency(0.001)
    metrics.record_flush(8)
    metrics.shed = 2
    metrics.breaker_rejections = 1
    metrics.reset()
    snap = metrics.snapshot()
    assert snap["requests"] == 0 and snap["shed"] == 0
    assert snap["breaker_rejections"] == 0


# ---------------------------------------------------------------------------
# exports / version (S6)
# ---------------------------------------------------------------------------


def test_typed_errors_are_runtime_faults_and_exported_at_top_level():
    import repro
    from repro.runtime.errors import RuntimeFault

    assert repro.__version__ == "3.0.0"
    for err in (repro.Overloaded, repro.CircuitOpen, repro.ServerClosed):
        assert issubclass(err, RuntimeFault)
        assert err.__name__ in repro.__all__

"""One chunk-execution path: supervised chunk runs on leased worker pools.

Every chunked sweep in the library -- trajectory chunks
(:func:`repro.noise.trajectory.trajectory_probabilities`), tableau
chunks (:class:`repro.core.executors.StabilizerEvalExecutor`) and the
row bands of stacked training sweeps -- hands its work to
:func:`run_chunks` as ordered :class:`ChunkTask` s and gets the results
back in task order.  Chunk payloads are pure functions of their inputs:
each stochastic chunk owns a ``SeedSequence.spawn``-derived stream
(:func:`chunk_seeds`), the chunk layout never depends on the worker
count, and callers reduce in fixed chunk order.  That determinism is
what makes supervision cheap and *exact*: a chunk that timed out,
crashed its worker, or came back corrupted can simply be re-run -- the
retry reproduces the identical payload, so a recovered run is
bit-identical to a fault-free one (the cross-backend and chaos suites
assert this).

:class:`ChunkSupervisor` is the failure policy:

* **per-chunk deadlines** -- ``future.result(timeout=...)`` on pooled
  runs (covering queue + run time), post-hoc elapsed checks on serial
  ones;
* **crash detection** -- a worker raising, or a process pool breaking
  under a killed worker, classifies as :class:`WorkerCrash`;
* **payload validation** -- chunks return a CRC32 alongside their
  arrays; a mismatch on receipt classifies as
  :class:`ChunkCorruption`;
* **bounded retry with backoff** -- every fault re-enqueues the chunk
  up to ``max_retries`` times with exponential backoff, then raises
  :class:`RetryExhausted` chained from the terminal fault;
* **graceful pool degradation** -- a pool that cannot spawn, or breaks
  and cannot be respawned, leaves the remaining chunks to run serially
  in the parent under a :class:`DegradedExecution` warning.

An unsupervised run is the same machinery under a module-private null
policy: no retry, deadline, checksum or fault injection; a failing
chunk's own exception is re-raised and its unstarted siblings are
cancelled.

:class:`PoolLease` owns a worker pool's lifetime for whoever shards:
it spawns a pool only when a run has more than one task, keeps it
across calls, respawns it when ``(backend, n_workers)`` changes, is
discarded after an escaped exception or a degraded report, and is
reaped by :meth:`PoolLease.close`, the context manager, or -- leak
guard -- a finalizer when the lease is collected.  Callers holding no
lease share one per ``(backend, n_workers)`` (:func:`shared_lease`).

:meth:`ChunkSupervisor.call` extends the same guarantees to *unchunked*
stochastic executors (e.g. gate-insertion training forwards): it
snapshots the caller's RNG state before each attempt and restores it on
retry, so a retried call consumes the exact same stream the failed
attempt did.

Fault injection (:mod:`repro.runtime.faults`) plugs in here: the
supervisor resolves the ambient/explicit :class:`FaultPlan` into a
picklable :class:`FaultSpec` per (chunk, attempt) in the parent and
ships it with the task, so chaos reaches process workers without any
global state crossing the pickle boundary.
"""

from __future__ import annotations

import threading
import time
import warnings
import weakref
import zlib
from types import SimpleNamespace

# Late-bound module reference (not `from ... import`): spawn-failure
# paths are tested by monkeypatching the pool classes on this module,
# and the process-pool machinery is only imported once a pool spawns.
import concurrent.futures as _futures
from dataclasses import dataclass

import numpy as np

from repro.runtime.errors import (
    ChunkCorruption,
    ChunkFault,
    ChunkTimeout,
    DegradedExecution,
    RetryExhausted,
    WorkerCrash,
)
from repro.runtime.faults import (
    FaultSpec,
    active_fault_plan,
    apply_fault,
    corrupt_payload,
)

__all__ = [
    "ChunkSupervisor",
    "ChunkTask",
    "PoolLease",
    "SupervisionReport",
    "SupervisorConfig",
    "check_shard_args",
    "chunk_seeds",
    "payload_checksum",
    "run_chunks",
    "shared_lease",
    "shutdown_shared_pools",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/deadline policy for supervised chunk execution.

    ``max_retries`` bounds *additional* attempts per chunk (total
    attempts = 1 + max_retries).  ``deadline_s`` is the per-chunk
    deadline; ``None`` disables timeout detection.  Backoff before the
    k-th retry is ``backoff_s * backoff_factor**k`` seconds.
    ``checksum`` turns CRC32 payload validation on (the cost is a
    linear pass over each chunk's result array -- noise against the
    statevector sweep that produced it).  ``degrade_to_serial`` lets a
    pool that cannot be spawned or respawned fall back to in-parent
    serial execution instead of failing the run.
    """

    max_retries: int = 2
    deadline_s: "float | None" = 60.0
    backoff_s: float = 0.02
    backoff_factor: float = 2.0
    checksum: bool = True
    degrade_to_serial: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive or None, got {self.deadline_s}"
            )
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )


#: The unsupervised policy: one attempt, no deadline, no checksum, no
#: fault injection, and a failing chunk's own exception re-raised.
_NULL_POLICY = SupervisorConfig(
    max_retries=0, deadline_s=None, backoff_s=0.0, checksum=False,
    degrade_to_serial=False,
)


@dataclass(frozen=True)
class ChunkTask:
    """One unit of chunked work: a deterministic, re-runnable call.

    ``fn(*args)`` must be pure given its arguments (chunk functions
    derive their randomness from shipped seeds, never from ambient
    state), and picklable for process-pool execution.
    """

    index: int
    fn: object
    args: tuple = ()


@dataclass
class SupervisionReport:
    """What one supervised run observed and survived."""

    chunks: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    corruptions: int = 0
    #: Fallback hops taken, e.g. ("process-pool", "serial").
    degraded: "tuple[str, ...]" = ()
    faults_injected: int = 0

    def merge_fault(self, fault: ChunkFault) -> None:
        if isinstance(fault, ChunkTimeout):
            self.timeouts += 1
        elif isinstance(fault, ChunkCorruption):
            self.corruptions += 1
        else:
            self.crashes += 1


def payload_checksum(payload) -> int:
    """CRC32 over a chunk payload (an ndarray or a list of ndarrays)."""
    crc = 0
    items = payload if isinstance(payload, list) else [payload]
    for arr in items:
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc


def _guarded_call(
    fn,
    args: tuple,
    spec: "FaultSpec | None",
    want_crc: bool,
):
    """Run one chunk attempt (in the worker): (payload, crc, seconds).

    Raising faults fire before the body; ``"corrupt"`` faults perturb
    the payload *after* its checksum is computed, so validation on the
    receiving side must catch them.  Top-level so process pools can
    pickle it.
    """
    start = time.perf_counter()
    apply_fault(spec)
    payload = fn(*args)
    crc = payload_checksum(payload) if want_crc else None
    if spec is not None and spec.kind == "corrupt":
        payload = corrupt_payload(payload)
    return payload, crc, time.perf_counter() - start


def check_shard_args(
    n_workers: int, shard_size: "int | None" = None, shard_backend: str = "thread"
) -> None:
    """Reject sharding settings eagerly, even on runs that never shard."""
    if shard_backend not in ("thread", "process"):
        raise ValueError(
            f"shard_backend must be 'thread' or 'process', got {shard_backend!r}"
        )
    if shard_size is not None and int(shard_size) < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0, got {n_workers}")


def chunk_seeds(
    n_items: int, size: int, rng: np.random.Generator
) -> "list[tuple[int, np.random.SeedSequence]]":
    """``(chunk size, seed)`` pairs: chunks of at most ``size`` items.

    One draw off ``rng`` roots the spawned per-chunk seeds, so layout and
    streams never depend on the worker count.
    """
    sizes = [size] * (n_items // size)
    if n_items % size:
        sizes.append(n_items % size)
    root = np.random.SeedSequence(int(rng.integers(0, 2**63)))
    return list(zip(sizes, root.spawn(len(sizes))))


def _reap(pool) -> None:
    """Finalizer target: shut a leaked worker pool down without waiting."""
    pool.shutdown(wait=False, cancel_futures=True)


class PoolLease:
    """Owns one worker pool's lifetime across calls (see module docs).

    ``n_workers`` and ``backend`` (``"thread"`` or ``"process"``) are
    the settings :meth:`acquire` spawns, or respawns, the pool for.
    """

    def __init__(self, n_workers: int = 0, backend: str = "thread"):
        check_shard_args(n_workers, None, backend)
        self.n_workers = n_workers
        self.backend = backend
        #: The live pool and its ``(backend, n_workers)``, or None.
        self.pool = None
        self.key = None
        self._finalizer = None
        self._lock = threading.Lock()

    def acquire(self):
        """The live pool for the current settings (spawn may raise)."""
        with self._lock:
            key = (self.backend, self.n_workers)
            if self.pool is not None and self.key != key:
                self._release(wait=True)
            if self.pool is None:
                cls = (
                    _futures.ThreadPoolExecutor
                    if self.backend == "thread"
                    else _futures.ProcessPoolExecutor
                )
                self.pool = cls(max_workers=self.n_workers)
                self.key = key
                self._finalizer = weakref.finalize(self, _reap, self.pool)
            return self.pool

    def discard(self) -> None:
        """Drop the pool without waiting on its workers (a broken pool)."""
        with self._lock:
            self._release(wait=False)

    def close(self) -> None:
        """Shut the pool down and wait for its workers (idempotent)."""
        with self._lock:
            self._release(wait=True)

    def _release(self, wait: bool) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        pool, self.pool, self.key = self.pool, None, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_SHARED: "dict[tuple[str, int], PoolLease]" = {}
_SHARED_LOCK = threading.Lock()


def shared_lease(backend: str, n_workers: int) -> PoolLease:
    """The process-wide lease for sharded calls that hold none.

    Repeat calls reuse one warm pool; sharing is safe because tasks carry
    their whole payload and worker caches are keyed by content digest.
    """
    key = (backend, int(n_workers))
    with _SHARED_LOCK:
        lease = _SHARED.get(key)
        if lease is None:
            lease = _SHARED[key] = PoolLease(key[1], backend)
        return lease


def shutdown_shared_pools() -> None:
    """Shut down every shared lease's pool (they respawn on next use)."""
    with _SHARED_LOCK:
        leases = list(_SHARED.values())
    for lease in leases:
        lease.close()


class _Deferred:
    """A serial "future": the task runs when its result is read, so a
    failed run never starts the siblings after the failing chunk."""

    def __init__(self, fn, *args):
        self._fn, self._args = fn, args

    def result(self, timeout=None):
        return self._fn(*self._args)

    def cancel(self) -> bool:
        return True


#: The serial stand-in for a pool.
_INLINE = SimpleNamespace(submit=_Deferred)


class ChunkSupervisor:
    """The failure policy for chunk runs (:func:`run_chunks`).

    One instance may be reused across calls (executors hold one for
    their lifetime); :attr:`last_report` describes the most recent run.
    ``fault_plan`` defaults to the ambient plan installed by
    :func:`repro.runtime.faults.inject_faults` (``None`` outside chaos
    tests -- the supervision fast path then never touches the fault
    machinery).
    """

    def __init__(
        self,
        config: "SupervisorConfig | None" = None,
        fault_plan=None,
        label: str = "chunks",
    ):
        self.config = config or SupervisorConfig()
        self._explicit_plan = fault_plan
        self.label = label
        self.last_report = SupervisionReport()

    # -- fault schedule -----------------------------------------------------

    def _fault_for(self, index: int, attempt: int) -> "FaultSpec | None":
        if self.config is _NULL_POLICY:
            return None
        plan = self._explicit_plan or active_fault_plan()
        if plan is None:
            return None
        spec = plan.fault_for(self.label, index, attempt)
        if spec is not None:
            self.last_report.faults_injected += 1
        return spec

    def _backoff(self, attempt: int) -> None:
        cfg = self.config
        if cfg.backoff_s > 0:
            time.sleep(cfg.backoff_s * cfg.backoff_factor**attempt)

    def _register(self, fault: ChunkFault) -> None:
        """Count a fault and fail hard once the retry budget is spent."""
        if self.config is _NULL_POLICY:
            raise fault
        report = self.last_report
        report.merge_fault(fault)
        if fault.attempt >= self.config.max_retries:
            raise RetryExhausted(fault.index, fault.attempt + 1) from fault
        report.retries += 1

    def _degrade(self, cause: str, path: "tuple[str, str]") -> None:
        self.last_report.degraded += path
        warnings.warn(
            DegradedExecution(
                f"{cause}; chunks run serially in the parent (results are "
                "unaffected: chunk payloads are worker-independent)",
                path,
            ),
            stacklevel=5,
        )

    # -- public API ---------------------------------------------------------

    def call(self, fn, *args, rng=None, index: int = 0):
        """One supervised call with RNG-snapshot retry determinism.

        For unchunked stochastic executors: ``fn`` may consume ``rng``;
        the generator's state is snapshotted before every attempt and
        restored on retry, so the successful attempt always sees the
        stream the first attempt saw -- a recovered call is
        bit-identical to a fault-free one.
        """
        snapshot = None if rng is None else rng.bit_generator.state

        def attempt():
            if rng is not None:
                rng.bit_generator.state = snapshot
            return fn(*args)

        return self._run([ChunkTask(index, attempt)], None)[0]

    # -- execution ----------------------------------------------------------

    def _run(self, tasks: "list[ChunkTask]", lease: "PoolLease | None") -> list:
        self.last_report = SupervisionReport(chunks=len(tasks))
        pool = _INLINE
        if lease is not None and lease.n_workers > 0 and len(tasks) > 1:
            try:
                pool = lease.acquire()
            except OSError as exc:
                if not self.config.degrade_to_serial:
                    raise
                self._degrade(
                    f"{lease.backend} pool spawn failed ({exc})",
                    (f"{lease.backend}-pool", "serial"),
                )
        results: "dict[int, object]" = {}
        queue = [(task, 0) for task in tasks]
        try:
            while queue:
                queue, pool = self._pass(queue, pool, lease, results)
        except BaseException:
            # Queued chunks may still sit in the pool: never reuse it, and
            # wait for its workers so none outlive the failed call.
            if lease is not None:
                lease.close()
            raise
        if lease is not None and self.last_report.degraded:
            lease.close()
        return [results[task.index] for task in tasks]

    def _pass(self, queue, pool, lease, results):
        """Submit one attempt per queued task; classify every failure.

        Returns ``(retry_queue, pool)``: tasks that faulted re-enter the
        queue with their attempt incremented, and a broken pool comes
        back respawned (or inline -- degraded to serial).
        """
        cfg = self.config
        submitted = []
        for task, attempt in queue:
            self.last_report.attempts += 1
            spec = self._fault_for(task.index, attempt)
            future = pool.submit(
                _guarded_call, task.fn, task.args, spec, cfg.checksum
            )
            submitted.append((task, attempt, future))
        retry: "list[tuple[ChunkTask, int]]" = []
        broken = False
        max_backoff_attempt = -1
        try:
            for task, attempt, future in submitted:
                if broken:
                    # The pool died under us; everything unharvested gets a
                    # fresh attempt on whatever executes the retry queue.
                    retry.append((task, attempt + 1))
                    continue
                try:
                    results[task.index] = self._receive(future, task, attempt)
                    continue
                except ChunkFault as fault:
                    observed = fault
                except BaseException as exc:
                    if cfg is _NULL_POLICY:
                        raise
                    broken = isinstance(exc, _futures.BrokenExecutor)
                    cause = "process pool broke" if broken else type(exc).__name__
                    observed = WorkerCrash(task.index, attempt, f"{cause}: {exc}")
                    observed.__cause__ = exc
                self._register(observed)
                retry.append((task, attempt + 1))
                max_backoff_attempt = max(max_backoff_attempt, attempt)
        except BaseException:
            # The run failed (retries exhausted, or a chunk's own error
            # under the null policy): cancel the unharvested siblings
            # instead of leaving them to run uselessly on the pool.
            for _task, _attempt, future in submitted:
                future.cancel()
            raise
        if max_backoff_attempt >= 0:
            self._backoff(max_backoff_attempt)
        if broken:
            pool = self._recover_pool(lease)
        return retry, pool

    def _receive(self, future, task: ChunkTask, attempt: int):
        """One attempt's payload, once its deadline and checksum hold."""
        deadline = self.config.deadline_s
        try:
            payload, crc, elapsed = future.result(timeout=deadline)
        except _futures.TimeoutError:
            if deadline is None:
                raise
            future.cancel()
            raise ChunkTimeout(task.index, attempt, deadline) from None
        if deadline is not None and elapsed > deadline:
            # Serial execution cannot preempt; detect the overrun
            # post-hoc so a hung-chunk regression still surfaces as a
            # typed timeout instead of silent slowness.
            raise ChunkTimeout(task.index, attempt, deadline)
        if crc is not None and payload_checksum(payload) != crc:
            raise ChunkCorruption(task.index, attempt)
        return payload

    def _recover_pool(self, lease: PoolLease):
        """Respawn a broken pool on its lease, or degrade to serial."""
        lease.discard()
        try:
            pool = lease.acquire()
        except Exception:
            pool = None
        if pool is not None:
            self.last_report.degraded += ("pool-rebuilt",)
            return pool
        if not self.config.degrade_to_serial:
            raise WorkerCrash(-1, 0, "process pool broke and could not respawn")
        self._degrade("worker pool broke", ("process-pool", "serial"))
        return _INLINE


def run_chunks(
    tasks: "list[ChunkTask]",
    supervisor: "ChunkSupervisor | None" = None,
    lease: "PoolLease | None" = None,
) -> list:
    """Run ordered chunk tasks; results come back in task order.

    A run of more than one task uses the ``lease``'s pool when it has
    workers, and runs serially in the caller otherwise.  Without a
    ``supervisor`` the run is unsupervised (the null policy).
    """
    if supervisor is None:
        supervisor = ChunkSupervisor(_NULL_POLICY)
    return supervisor._run(tasks, lease)

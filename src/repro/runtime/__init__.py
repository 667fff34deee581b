"""Fault-tolerant execution runtime.

The numerics layers (compiled sweeps, sharded trajectory pools, the
engine registry) assume nothing ever fails; this package makes the
execution layer survive failure without changing a single result:

* :mod:`repro.runtime.errors` -- the structured failure taxonomy
  (typed chunk faults, :class:`EngineUnavailable`, the
  :class:`DegradedExecution` warning);
* :mod:`repro.runtime.supervisor` -- the one chunk-execution path:
  :func:`run_chunks` runs ordered chunk tasks on a :class:`PoolLease`
  (the single owner of worker-pool lifetime; callers without one share
  a lease per ``(backend, n_workers)``), under a
  :class:`ChunkSupervisor` with per-chunk deadlines, crash detection,
  checksum validation and bounded deterministic retry (recovered runs
  are bit-identical to fault-free runs) -- or under the null policy
  when unsupervised;
* :mod:`repro.runtime.faults` -- the seed-driven fault-injection
  harness the chaos suite and CI chaos job drive;
* :mod:`repro.runtime.checkpoint` -- atomic epoch-boundary training
  checkpoints with bit-identical resume.
"""

from repro.runtime.checkpoint import (
    TrainCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.errors import (
    ChunkCorruption,
    ChunkFault,
    ChunkTimeout,
    DegradedExecution,
    EngineUnavailable,
    RetryExhausted,
    RuntimeFault,
    WorkerCrash,
)
from repro.runtime.faults import (
    ALL_FAULT_KINDS,
    FAULT_KINDS,
    SERVE_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFlushError,
    chaos_seed,
    inject_faults,
)
from repro.runtime.supervisor import (
    ChunkSupervisor,
    ChunkTask,
    PoolLease,
    SupervisionReport,
    SupervisorConfig,
    run_chunks,
    shared_lease,
    shutdown_shared_pools,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "ChunkCorruption",
    "ChunkFault",
    "ChunkSupervisor",
    "ChunkTask",
    "ChunkTimeout",
    "DegradedExecution",
    "EngineUnavailable",
    "FaultPlan",
    "FaultSpec",
    "InjectedFlushError",
    "PoolLease",
    "RetryExhausted",
    "RuntimeFault",
    "SupervisionReport",
    "SupervisorConfig",
    "TrainCheckpoint",
    "WorkerCrash",
    "chaos_seed",
    "inject_faults",
    "load_checkpoint",
    "run_chunks",
    "save_checkpoint",
    "shared_lease",
    "shutdown_shared_pools",
]

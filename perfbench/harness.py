"""Shared pieces of the benchmark: statistics, timing windows, result shape."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

#: Worker processes/threads the benchmark lets the program use.
N_WORKERS = min(2, os.cpu_count() or 1)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail(values) -> "tuple[float, float]":
    """(percentile, value): the highest percentile with >= 10 samples beyond.

    With fewer than 11 samples no percentile qualifies and the maximum
    is reported (percentile 100).  p99 needs at least 1000 samples.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 11:
        return 100.0, float(values.max())
    pct = min(99.0, 100.0 * (1.0 - 10.0 / n))
    return pct, float(np.percentile(values, pct))


def timed(fn, *args, **kwargs):
    """(seconds, result) of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def settle() -> None:
    """Collect garbage and freeze survivors before a timed phase.

    Frozen objects are skipped by later full collections, so a timed
    phase does not pay for scanning the set-up heap.
    """
    gc.collect()
    gc.freeze()


def digest(array) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: end-to-end metric values by name (units live in BENCHMARK.json).
    metrics: "dict[str, float]" = field(default_factory=dict)
    #: per-layer metrics the spans cannot give (queue waits, ratios, ...).
    layers: "dict[str, float]" = field(default_factory=dict)
    #: human-readable lines printed ahead of the result.
    info: "list[str]" = field(default_factory=list)
    #: (check name, passed, detail).
    checks: "list[tuple[str, bool, str]]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: kind ("setup" or "job") -> [(start, end, counters before, after)].
    windows: "dict[str, list[tuple]]" = field(
        default_factory=lambda: {"setup": [], "job": []})
    #: jobs the job windows hold (a window may hold many requests).
    jobs: int = 0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @contextlib.contextmanager
    def window(self, kind: str, tracer=None):
        """Time a set-up or job window; per-layer metrics count only what
        falls inside job windows (and transpiles inside set-up ones)."""
        before = tracer.counters() if tracer is not None else {}
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            after = tracer.counters() if tracer is not None else {}
            self.windows[kind].append((start, end, before, after))

    def seconds(self, kind: str) -> "list[float]":
        return [end - start for start, end, _b, _a in self.windows[kind]]

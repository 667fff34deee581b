"""In-memory span tracer that wraps the program's layer functions.

The traced run installs wrappers around public layer entry points (and
the trajectory chunk worker) from the benchmark's own files; nothing in
``src/`` is edited.  A function imported by name into other modules is
patched in *every* loaded ``repro``/``benchmarks`` module that holds it,
so a caller that bound the name at import time still reaches the
wrapper.  Each wrapped call records a span ``(id, layer, start, end,
parent, thread)``; parents come from a per-thread stack, so spans opened
in worker threads start their own trees.  Hot kernels are counted
instead of spanned (a span per gate apply would distort the run).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Modules whose globals are searched for references to a wrapped function.
_PATCH_PREFIXES = ("repro", "benchmarks")


class Tracer:
    """Spans and per-thread counters for one traced run."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_sets: "list[defaultdict]" = []
        self._lock = threading.Lock()
        self._patches: "list[tuple[object, str, object]]" = []

    # -- recording -------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = defaultdict(int)
            local.counters = defaultdict(float)
            with self._lock:
                self._counter_sets.append(local.counters)
        return local

    def count(self, name: str, amount: float = 1) -> None:
        self._thread_state().counters[name] += amount

    def counters(self) -> "dict[str, float]":
        total: "defaultdict[str, float]" = defaultdict(float)
        with self._lock:
            for counters in self._counter_sets:
                for name, value in list(counters.items()):
                    total[name] += value
        return dict(total)

    def _spanned(self, layer: str, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._thread_state()
            span_id = next(tracer._ids)
            parent = state.stack[-1] if state.stack else 0
            nested = state.active[layer] > 0
            state.stack.append(span_id)
            state.active[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.active[layer] -= 1
                state.stack.pop()
                tracer.spans.append(
                    (span_id, layer, start, end, parent,
                     threading.get_ident(), nested)
                )
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, calls: str, nbytes: str, fn):
        tracer = self

        def wrapper(state, *args, **kwargs):
            counters = tracer._thread_state().counters
            counters[calls] += 1
            counters[nbytes] += state.nbytes
            return fn(state, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch_everywhere(self, module_name: str, attr: str, make) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(_PATCH_PREFIXES):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def wrap_function(self, module_name: str, attr: str, layer: str,
                      on_result=None) -> None:
        self._patch_everywhere(
            module_name, attr,
            lambda fn: self._spanned(layer, fn, on_result),
        )

    def count_function(self, module_name: str, attr: str,
                       calls: str, nbytes: str) -> None:
        self._patch_everywhere(
            module_name, attr, lambda fn: self._counted(calls, nbytes, fn)
        )

    def wrap_method(self, cls, attr: str, layer: str, on_result=None) -> None:
        raw = cls.__dict__[attr]
        self._patches.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._spanned(layer, raw.__func__, on_result))
        else:
            wrapped = self._spanned(layer, raw, on_result)
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def between(self, start: float, end: float) -> list:
        """Spans that began inside ``[start, end)``."""
        return [s for s in self.spans if start <= s[2] < end]

    def spans_between(self, layer: str, start: float, end: float) -> list:
        """Outermost spans of ``layer`` that began inside ``[start, end)``."""
        return [s for s in self.between(start, end)
                if s[1] == layer and not s[6]]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread", "nested")
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda s: s[2]):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_table(spans: list) -> "dict[str, dict]":
    """Per layer: outermost calls and durations, inclusive and self seconds.

    Self time is a span's duration minus its child spans' durations
    (children run inside their parent on the same thread).
    """
    child_time: "defaultdict[int, float]" = defaultdict(float)
    for _sid, _layer, start, end, parent, _tid, _nested in spans:
        if parent:
            child_time[parent] += end - start
    table: "dict[str, dict]" = {}
    for sid, layer, start, end, _parent, _tid, nested in spans:
        row = table.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        duration = end - start
        row["self_s"] += duration - child_time.get(sid, 0.0)
        if not nested:
            row["calls"] += 1
            row["total_s"] += duration
            row["durations"].append(duration)
    return table


def _record_insertions(tracer: Tracer, _args, result) -> None:
    _circuit, stats = result
    tracer.count("noise.inserted_gates", stats.n_inserted)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.core.pipeline import QuantumNATModel
    from repro.core.quantization import Quantizer
    from repro.noise.sampler import ErrorGateSampler
    from repro.sim.statevector import BindPlan

    wrap = tracer.wrap_function
    wrap("repro.compiler.passes", "transpile", "compiler.compile")
    wrap("repro.sim.statevector", "bind_circuit", "compiler.bind")
    tracer.wrap_method(BindPlan, "bind", "compiler.bind")
    tracer.wrap_method(ErrorGateSampler, "sample", "noise.sample",
                       on_result=_record_insertions)
    wrap("repro.noise.trajectory", "trajectory_probabilities",
         "noise.trajectory")
    for kernel in ("apply_matrix", "apply_grouped_1q"):
        tracer.count_function("repro.sim.statevector", kernel,
                              "sim.kernel_calls", "sim.state_bytes")
    wrap("repro.core.gradients", "forward_with_tape", "sim.forward")
    wrap("repro.core.gradients", "adjoint_backward", "grad.adjoint")
    wrap("repro.noise.trajectory", "stacked_noisy_backward", "grad.adjoint")
    tracer.wrap_method(QuantumNATModel, "loss_and_gradients", "core.train_step")
    tracer.wrap_method(QuantumNATModel, "evaluate", "core.eval")
    tracer.wrap_method(QuantumNATModel, "predict", "core.predict")
    for fn in ("normalize", "normalize_backward", "normalize_with_stats"):
        wrap("repro.core.normalization", fn, "core.transform")
    for method in ("forward", "backward", "quantize"):
        tracer.wrap_method(Quantizer, method, "core.transform")
    wrap("repro.noise.readout", "apply_readout_to_expectations",
         "core.transform")
    # The chunk worker is private, but it is the one place every chunk
    # of the unsupervised serial and thread-sharded paths passes through.
    wrap("repro.noise.trajectory", "_segment_chunk", "runtime.chunk")

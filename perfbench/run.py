"""Benchmark entry point: one workload, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_cell --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first times a small probe job untraced and traced, three
times each (the difference is the tracing overhead), then wraps the
program's layer functions (see ``spans.py``) and reports the per-layer
metrics, per job of the workload, from spans and counters inside the
job windows.
Spans are written to ``.perfbench/`` at the end.  Either way the
workload's correctness checks run, informational lines go first, and the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

import cell  # noqa: E402
import serving  # noqa: E402
import wide  # noqa: E402
from harness import median, timed  # noqa: E402
from spans import Tracer, install_layer_wrappers, layer_table  # noqa: E402

WORKLOADS = {
    "paper_cell": cell,
    "realqc_wide": wide,
    "serve_open_loop": serving,
}

#: Metric names and units come from the benchmark definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Per-layer metrics read from spans: name -> (layer, table column).
SPAN_METRICS = {
    "compiler.bind_calls": ("compiler.bind", "calls"),
    "compiler.bind_s": ("compiler.bind", "total_s"),
    "noise.sample_calls": ("noise.sample", "calls"),
    "noise.sample_s": ("noise.sample", "total_s"),
    "noise.trajectory_s": ("noise.trajectory", "total_s"),
    "sim.forward_s": ("sim.forward", "total_s"),
    "grad.adjoint_calls": ("grad.adjoint", "calls"),
    "grad.adjoint_s": ("grad.adjoint", "total_s"),
    "core.eval_s": ("core.eval", "total_s"),
    "core.transform_s": ("core.transform", "total_s"),
    "runtime.chunks": ("runtime.chunk", "calls"),
}
#: Layers whose self time (duration minus child spans) is reported.
SELF_TIMED = ("compiler.bind", "noise.sample", "noise.trajectory",
              "sim.forward", "grad.adjoint", "core.train_step", "core.eval",
              "core.predict", "core.transform", "runtime.chunk")
#: Untraced/traced probe pairs timed for the tracing overhead.
PROBE_PAIRS = 3


def _inside(spans: list, windows: list) -> list:
    return [s for s in spans
            if any(start <= s[2] < end for start, end, _b, _a in windows)]


def layer_metrics(out, tracer: Tracer, overhead_pct: float):
    """(values, span table, calls per job) inside the job windows.

    Values are per job, except compile, which is per set-up window and
    counts transpiles in set-up and job windows alike.
    """
    jobs = max(1, out.jobs)
    table = layer_table(_inside(tracer.spans, out.windows["job"]))
    values = dict.fromkeys(PER_LAYER, 0.0)

    compiled = [s for s in _inside(tracer.spans, out.windows["setup"]
                                   + out.windows["job"])
                if s[1] == "compiler.compile" and not s[6]]
    setups = max(1, len(out.windows["setup"]))
    values["compiler.compile_s"] = sum(s[3] - s[2] for s in compiled) / setups
    for name, (layer, column) in SPAN_METRICS.items():
        values[name] = table.get(layer, {}).get(column, 0.0) / jobs
    steps = table.get("core.train_step", {}).get("durations", [])
    if steps:
        values["core.train_step_ms.p50"] = median(steps) * 1e3
        values["core.train_step_ms.p90"] = float(np.percentile(steps, 90)) * 1e3
    for counter in ("sim.kernel_calls", "sim.state_bytes",
                    "noise.inserted_gates"):
        values[counter] = sum(
            after.get(counter, 0) - before.get(counter, 0)
            for _s, _e, before, after in out.windows["job"]) / jobs
    for layer in SELF_TIMED:
        values[f"{layer}.self_s"] = table.get(layer, {}).get("self_s", 0.0) / jobs
    values.update(out.layers)
    values["trace.overhead"] = overhead_pct
    calls = {layer: row["calls"] / jobs for layer, row in table.items()}
    calls["sim.kernel"] = values["sim.kernel_calls"]
    calls["compiler.compile"] = len(compiled) / setups
    return values, table, calls


def tracing_overhead(job, tracer: Tracer) -> float:
    """Percent slowdown of the probe job with the layer wrappers installed."""
    job()
    plain, traced = [], []
    for _ in range(PROBE_PAIRS):
        plain.append(timed(job)[0])
        install_layer_wrappers(tracer)
        traced.append(timed(job)[0])
        tracer.uninstall()
    return (median(traced) / median(plain) - 1.0) * 100.0


def check_layers(out, module, calls: dict) -> None:
    """Busy layers must record calls in the window; idle layers none.

    A busy layer with no calls means a wrapper sits where the program
    never looks, so its per-layer numbers would silently read zero.
    """
    for layer in module.BUSY:
        n = calls.get(layer, 0.0)
        out.check(f"traced layer {layer} records calls", n > 0,
                  f"{n:g} per job")
    for layer in module.IDLE:
        n = calls.get(layer, 0.0)
        out.check(f"traced layer {layer} stays idle", n == 0,
                  f"{n:g} per job")


def measure(args) -> "tuple[dict, bool]":
    module = WORKLOADS[args.workload]
    tracer = None
    overhead_pct = 0.0
    if args.trace:
        tracer = Tracer()
        overhead_pct = tracing_overhead(module.probe(args.seed), tracer)
        install_layer_wrappers(tracer)
    out = module.run(args.seed, args.seconds, tracer)

    for line in out.info:
        print(f"# {line}")
    if tracer is not None:
        tracer.uninstall()
        values, table, calls = layer_metrics(out, tracer, overhead_pct)
        check_layers(out, module, calls)
        print(f"# spans per job ({out.jobs} jobs): layer, calls, total s, self s")
        for layer, row in sorted(table.items()):
            print(f"#   {layer:18s} {row['calls'] / max(1, out.jobs):12.2f} "
                  f"{row['total_s'] / max(1, out.jobs):10.5f} "
                  f"{row['self_s'] / max(1, out.jobs):10.5f}")
        print(f"# tracing overhead on the probe job: {overhead_pct:+.2f} %")
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": float(out.metrics[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = all(passed for _name, passed, _detail in out.checks)
    for name, passed, detail in out.checks:
        print(f"# check {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    result = {"correct": correct, "attempted": int(out.attempted),
              "failed": int(out.failed), "metrics": metrics}
    return result, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, correct = measure(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""paper_cell: train and evaluate the four Table-1 stages on one cell.

Follows ``benchmarks.common.run_stages`` (Baseline -> +Post Norm ->
+Gate Insert -> +Post Quant at T=0.25 and 6 levels, evaluated noise-free,
under the published noise model and on the real-QC surrogate) at a fixed
small epoch count, so one run fits several whole cells.  A job is one
cell; its set-up (task generation, model construction and transpile) is
timed separately before every cell.
"""

from __future__ import annotations

import time

from benchmarks.common import STAGES, build_model, eval_suite
from harness import Outcome, digest, median, settle, tail, timed
from repro import TrainConfig, load_task, train

DEVICE = "santiago"
TASK = "mnist-4"
BLOCKS, LAYERS, DESIGN = 2, 4, "u3cu3"
NOISE_FACTOR, LEVELS = 0.25, 6
EPOCHS = 3
N_TRAIN, N_VALID, N_TEST = 128, 32, 64
BATCH = TrainConfig().batch_size
MIN_CELLS = 2
QNAT = STAGES[-1][0]

SIZES = (
    f"{DEVICE} {TASK} 4 qubits {BLOCKS}Bx{LAYERS}L {DESIGN}, "
    f"{N_TRAIN}/{N_VALID}/{N_TEST} train/valid/test rows, "
    f"{EPOCHS} epochs x batch {BATCH} per stage, T={NOISE_FACTOR}, "
    f"{LEVELS} levels"
)

#: Layers this workload must exercise, and layers it must leave idle.
BUSY = ("compiler.compile", "compiler.bind", "noise.sample", "sim.kernel",
        "sim.forward", "grad.adjoint", "core.train_step", "core.eval",
        "core.transform")
IDLE = ("runtime.chunk", "noise.trajectory")


def _build(seed: int):
    task = load_task(TASK, n_train=N_TRAIN, n_valid=N_VALID, n_test=N_TEST,
                     seed=seed)
    models = [
        (label, build_model(task, DEVICE, make(NOISE_FACTOR, LEVELS),
                            BLOCKS, LAYERS, DESIGN, seed=seed))
        for label, make in STAGES
    ]
    return task, models


def _cell(task, models, seed: int, epochs: int = EPOCHS) -> dict:
    """Train and evaluate every stage; per-stage times, accuracies, digests."""
    stages = {}
    for label, model in models:
        train_s, result = timed(
            train, model, task.train_x, task.train_y, task.valid_x,
            task.valid_y, TrainConfig(epochs=epochs, seed=seed),
        )
        stages[label] = {
            "train_s": train_s,
            "acc": eval_suite(model, result.weights, task, rng_seed=seed),
            "digest": digest(result.weights),
        }
    return stages


def probe(seed: int):
    """A small job (one-epoch cell) for the tracing-overhead probe."""
    task, models = _build(seed)
    return lambda: _cell(task, models, seed, epochs=1)


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    # One throwaway one-epoch cell keeps first-call costs out of timing.
    probe(seed)()

    cells, rows_per_s = [], []
    settle()
    start = time.perf_counter()
    while len(cells) < MIN_CELLS or time.perf_counter() - start < seconds:
        with out.window("setup", tracer):
            task, models = _build(seed)
        with out.window("job", tracer):
            stages = _cell(task, models, seed)
        cells.append(stages)
        train_s = sum(s["train_s"] for s in stages.values())
        rows_per_s.append(len(stages) * EPOCHS * N_TRAIN / train_s)
    out.jobs = len(cells)
    out.attempted = len(cells) * len(STAGES)

    cell_s = out.seconds("job")
    pct, tail_s = tail(cell_s)
    out.metrics = {
        "setup_s": median(out.seconds("setup")),
        "latency_ms": median(cell_s) * 1e3,
        "rows_per_s": median(rows_per_s),
    }

    digests = [[s["digest"] for s in c.values()] for c in cells]
    out.check("training is deterministic under the seed",
              all(d == digests[0] for d in digests),
              f"{len(cells)} cells, weight digests {digests[0]}")
    accs = [c[QNAT]["acc"]["real_qc"] for c in cells]
    out.check("qnat_acc repeats under the seed", len(set(accs)) == 1,
              str(accs))
    out.check("every accuracy is a fraction",
              all(0.0 <= a <= 1.0 for c in cells for s in c.values()
                  for a in s["acc"].values()))

    first = cells[0]
    qnat_epoch_s = median([c[QNAT]["train_s"] for c in cells]) / EPOCHS
    out.info += [
        f"sizes: {SIZES}",
        f"computed state bytes per kernel call: {BATCH} rows x 16 amplitudes"
        f" x 16 B = {BATCH * 16 * 16} B",
        f"cell_s: {median(cell_s):.3f} s median of {len(cell_s)} cells "
        f"(p{pct:g} {tail_s:.3f} s)",
        f"qnat_acc: {accs[0]:.4f} (real-QC accuracy of {QNAT}, "
        f"{N_TEST} test rows)",
        f"{QNAT} training: {qnat_epoch_s:.3f} s/epoch",
    ]
    for label, stage in first.items():
        acc = stage["acc"]
        out.info.append(
            f"  {label:16s} noise-free {acc['noise_free']:.3f}  "
            f"noise-model {acc['noise_model']:.3f}  "
            f"real-QC {acc['real_qc']:.3f}"
        )
    return out

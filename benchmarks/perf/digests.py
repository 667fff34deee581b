"""SHA-1 digests of the outputs every fused stream and noise draw produces.

A change that should not move a single bit -- a refactor of fusion, of
noise sampling or of an engine -- is checked by digesting one fixed set
of outputs on both sides and comparing.  Run from a checkout root; the
script imports that checkout's ``src/``, ``benchmarks/`` and
``perfbench/``, so one copy of it digests any checkout::

    python benchmarks/perf/digests.py --out change.json
    (cd ../parent && python ../repo/benchmarks/perf/digests.py --out ../parent.json)
    python benchmarks/perf/digests.py --compare ../parent.json change.json

``--compare`` prints every key whose digest differs or that one side
lacks, and exits 1 if there is any.  Each digest hashes an array's
dtype, shape and bytes (and the repr of anything else), so two outputs
share one exactly when they are equal bit for bit.  Keys, each with the
post-call generator state (``.../rng``) wherever the call draws:

* ``noiseless/``: predicts of a santiago 2Bx4L model, cold, warm and with
  new weights, plus each block's tape-free forward and its training
  forward and adjoint;
* ``density/``: ``DensityEvalExecutor`` on the published, hardware and
  relaxation models at T 1 and 2, with and without shots, two weight
  vectors each predicted twice, and ``DensityTrainExecutor`` forward
  and backward;
* ``trajectory/``: ``TrajectoryEvalExecutor`` ``pauli`` (published,
  hardware) and ``jump`` (relaxation), serial, 2 threads and 2
  processes, with and without shots, on santiago 2Bx4L and melbourne
  2Bx1L (10 qubits);
* ``realqc_wide/``: the benchmark workload's 40-row logits at seeds 1-3;
* ``stabilizer/``: ``StabilizerEvalExecutor`` on a random 8-qubit
  Clifford block, serial, 2 threads and 2 processes, two calls each;
* ``sample/``: ``ErrorGateSampler.sample`` circuits and stats at T 0,
  0.25, 1 and 5, three calls on one generator;
* ``stacked/``: ``stacked_noisy_forward_with_tape`` expectations, tape
  state and insertion count at R 1 and 3;
* ``train/gate_insertion/`` and ``train/mcwf/``: two training steps
  (logits, weight and input gradients, tape state, insertion stats) of
  ``GateInsertionExecutor`` (published and hardware, T 0.25 and 1, R 1
  and 3, 0 and 2 workers) and of ``MCWFTrainExecutor`` (relaxation, R 1
  and 3) on santiago's and melbourne's first blocks.

Every ``relaxation`` key under ``stacked/`` and ``train/mcwf/`` runs the
quantum-jump sweep.  About a minute and a half on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.getcwd()
_PATHS = [os.path.join(ROOT, "src"), ROOT, os.path.join(ROOT, "perfbench")]
sys.path[:0] = _PATHS
# Process-pool workers import the same checkout.
os.environ["PYTHONPATH"] = os.pathsep.join(
    _PATHS + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

import numpy as np  # noqa: E402


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value, key=repr):
            h.update(repr(key).encode())
            _feed(h, value[key])
        h.update(b"}")
    else:
        h.update(repr(value).encode())


class Digests(dict):
    """key -> SHA-1 hex digest of the value recorded under it."""

    def add(self, key: str, value) -> None:
        if key in self:
            raise KeyError(f"duplicate digest key {key!r}")
        h = hashlib.sha1()
        _feed(h, value)
        self[key] = h.hexdigest()

    def rng(self, key: str, rng) -> None:
        self.add(f"{key}/rng", rng.bit_generator.state)


def _models(device):
    relaxation = device.hardware_model.with_relaxation(
        {q: (50.0 + 10 * q, 60.0 + 8 * q) for q in range(device.n_qubits)},
        (0.035, 0.30),
    )
    return {
        "published": device.noise_model,
        "hardware": device.hardware_model,
        "relaxation": relaxation,
    }


def _block_inputs(compiled, rows: int, seed: int):
    n_inputs = compiled.circuit.parameter_table.num_inputs
    return np.random.default_rng(seed).normal(0, 1, (rows, n_inputs))


def _santiago_model():
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
    from repro.noise import get_device
    from repro.qnn import paper_model

    device = get_device("santiago")
    model = QuantumNATModel(
        paper_model(4, 2, 4, 16, 4), device, QuantumNATConfig(), rng=0
    )
    return device, model


def _melbourne_model():
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
    from repro.noise import get_device
    from repro.qnn import paper_model

    device = get_device("melbourne")
    model = QuantumNATModel(
        paper_model(10, 2, 1, 36, 10), device, QuantumNATConfig(), rng=0
    )
    return device, model


def _weights(model, k: int):
    return model.qnn.init_weights(np.random.default_rng(100 + k), 0.5)


def noiseless(out: Digests) -> None:
    from repro.core.executors import NoiselessExecutor
    from repro.core.gradients import adjoint_backward, forward_with_tape

    _device, model = _santiago_model()
    x = np.random.default_rng(1).normal(0, 1, (16, 16))
    w0, w1 = _weights(model, 0), _weights(model, 1)
    out.add("noiseless/predict/cold", model.predict(w0, x))
    out.add("noiseless/predict/warm", model.predict(w0, x))
    out.add("noiseless/predict/new_weights", model.predict(w1, x))
    for b, compiled in enumerate(model.compiled):
        inputs = _block_inputs(compiled, 8, 10 + b)
        key = f"noiseless/block{b}"
        out.add(f"{key}/inference", NoiselessExecutor().forward_inference(
            compiled, w0, inputs))
        expectations, tape = forward_with_tape(compiled.circuit, w0, inputs)
        upstream = np.random.default_rng(20 + b).normal(size=expectations.shape)
        out.add(f"{key}/train/expectations", expectations)
        out.add(f"{key}/train/state", tape.state)
        out.add(f"{key}/train/grads", adjoint_backward(tape, upstream))


def density(out: Digests) -> None:
    from repro.core.executors import DensityEvalExecutor, DensityTrainExecutor

    device, model = _santiago_model()
    x = np.random.default_rng(2).normal(0, 1, (8, 16))
    weights = [_weights(model, 0), _weights(model, 1)]
    for name, noise in _models(device).items():
        for factor in (1.0, 2.0):
            for shots in (None, 8192):
                key = f"density/eval/{name}/T{factor:g}/shots{shots}"
                executor = DensityEvalExecutor(noise, factor, shots, rng=3)
                for k, w in enumerate(weights):
                    for call in range(2):
                        out.add(f"{key}/w{k}/call{call}",
                                model.predict(w, x, executor))
                        out.rng(f"{key}/w{k}/call{call}", executor.rng)
        compiled = model.compiled[0]
        inputs = _block_inputs(compiled, 4, 4)
        executor = DensityTrainExecutor(noise, 1.0)
        for k, w in enumerate(weights):
            key = f"density/train/{name}/w{k}"
            logits, cache = executor.forward(compiled, w, inputs)
            upstream = np.random.default_rng(5 + k).normal(size=logits.shape)
            out.add(f"{key}/logits", logits)
            out.add(f"{key}/grads", executor.backward(cache, upstream))


def trajectory(out: Digests) -> None:
    from repro.core.executors import TrajectoryEvalExecutor

    for label, build in (("santiago", _santiago_model),
                         ("melbourne", _melbourne_model)):
        device, model = build()
        width = model.compiled[0].circuit.parameter_table.num_inputs
        x = np.random.default_rng(6).normal(0, 1, (4, width))
        weights = [_weights(model, 0), _weights(model, 1)]
        models = _models(device)
        runs = (("pauli", "published"), ("pauli", "hardware"),
                ("jump", "relaxation"))
        for unravel, name in runs:
            for backend, workers in (("serial", 0), ("thread", 2),
                                     ("process", 2)):
                for shots in (None, 8192):
                    key = f"trajectory/{label}/{unravel}/{name}/{backend}/shots{shots}"
                    executor = TrajectoryEvalExecutor(
                        models[name], n_trajectories=32, shots=shots, rng=7,
                        n_workers=workers,
                        shard_backend="thread" if workers == 0 else backend,
                        unravel=unravel,
                    )
                    with executor:
                        for k, w in enumerate(weights):
                            out.add(f"{key}/w{k}", model.predict(w, x, executor))
                            out.rng(f"{key}/w{k}", executor.rng)


def realqc_wide(out: Digests) -> None:
    import wide

    for seed in (1, 2, 3):
        task, model, weights, executor = wide._setup(seed)
        with executor:
            logits = model.predict(weights, task.test_x, executor)
        out.add(f"realqc_wide/seed{seed}/logits", logits)


def stabilizer(out: Digests) -> None:
    from benchmarks.perf.stabilizer_smoke import (
        _clifford_compiled,
        _pauli_readout_model,
    )
    from repro.core.executors import StabilizerEvalExecutor

    compiled = _clifford_compiled(8, 32, 15)
    noise = _pauli_readout_model(8)
    weights, inputs = np.zeros(0), np.zeros((1, 0))
    for backend, workers in (("serial", 0), ("thread", 2), ("process", 2)):
        executor = StabilizerEvalExecutor(
            noise, n_trajectories=256, rng=16, n_workers=workers,
            shard_backend="thread" if workers == 0 else backend,
        )
        with executor:
            for call in range(2):
                key = f"stabilizer/{backend}/call{call}"
                out.add(key, executor.forward(compiled, weights, inputs)[0])
                out.rng(key, executor.rng)


def sample(out: Digests) -> None:
    from repro.noise.sampler import ErrorGateSampler

    device, model = _santiago_model()
    compiled = model.compiled[0]
    for name in ("published", "hardware"):
        noise = _models(device)[name]
        for factor in (0.0, 0.25, 1.0, 5.0):
            sampler = ErrorGateSampler(noise, factor)
            rng = np.random.default_rng(8)
            for call in range(3):
                key = f"sample/{name}/T{factor:g}/call{call}"
                circuit, stats = sampler.sample(
                    compiled.circuit, compiled.physical_qubits, rng
                )
                out.add(f"{key}/circuit", [
                    (g.name, g.qubits, [repr(p) for p in g.params])
                    for g in circuit.gates
                ])
                out.add(f"{key}/stats",
                        (stats.n_original, stats.n_inserted, stats.choices))
                out.rng(key, rng)


def stacked(out: Digests) -> None:
    from repro.noise.sampler import ErrorGateSampler
    from repro.noise.trajectory import stacked_noisy_forward_with_tape

    device, model = _santiago_model()
    compiled = model.compiled[0]
    inputs = _block_inputs(compiled, 4, 9)
    w = _weights(model, 0)
    for name, noise in _models(device).items():
        sampler = ErrorGateSampler(noise, 1.0, allow_exact=True)
        for realizations in (1, 3):
            key = f"stacked/{name}/R{realizations}"
            rng = np.random.default_rng(10)
            expectations, tape, n_inserted = stacked_noisy_forward_with_tape(
                compiled, sampler, w, inputs, realizations, rng
            )
            out.add(f"{key}/expectations", expectations)
            out.add(f"{key}/state", tape.state)
            out.add(f"{key}/n_inserted", n_inserted)
            out.rng(key, rng)


def _steps(out: Digests, key: str, executor, compiled, weights, inputs) -> None:
    for step in range(2):
        logits, cache = executor.forward(compiled, weights, inputs)
        upstream = np.random.default_rng(11 + step).normal(size=logits.shape)
        grads = executor.backward(cache, upstream)
        stats = executor.last_insertion_stats
        out.add(f"{key}/step{step}/logits", logits)
        out.add(f"{key}/step{step}/grads", grads)
        out.add(f"{key}/step{step}/state", cache.tape.state)
        out.add(f"{key}/step{step}/stats", (stats.n_original, stats.n_inserted))
        out.rng(f"{key}/step{step}", executor.rng)


def train(out: Digests) -> None:
    from repro.core.executors import GateInsertionExecutor, MCWFTrainExecutor

    for label, build in (("santiago", _santiago_model),
                         ("melbourne", _melbourne_model)):
        device, model = build()
        compiled = model.compiled[0]
        inputs = _block_inputs(compiled, 4, 12)
        w = _weights(model, 0)
        models = _models(device)
        for name in ("published", "hardware"):
            for factor in (0.25, 1.0):
                for realizations in (1, 3):
                    for workers in (0, 2):
                        key = (f"train/gate_insertion/{label}/{name}/T{factor:g}"
                               f"/R{realizations}/workers{workers}")
                        executor = GateInsertionExecutor(
                            models[name], factor, rng=13,
                            n_realizations=realizations, n_workers=workers,
                        )
                        with executor:
                            _steps(out, key, executor, compiled, w, inputs)
        for realizations in (1, 3):
            key = f"train/mcwf/{label}/relaxation/R{realizations}"
            executor = MCWFTrainExecutor(
                models["relaxation"], 1.0, rng=14, n_realizations=realizations
            )
            with executor:
                _steps(out, key, executor, compiled, w, inputs)


SECTIONS = (
    noiseless, density, trajectory, realqc_wide, stabilizer, sample, stacked,
    train,
)


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in differ:
        side = "" if key in a and key in b else (
            f"  (only in {a_path if key in a else b_path})"
        )
        print(f"{key}{side}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} keys differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="digests.json",
                        help="where to write the digests (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the keys whose digests differ, then exit")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    out = Digests()
    for section in SECTIONS:
        section(out)
        print(f"{section.__name__}: {len(out)} digests so far", flush=True)
    with open(args.out, "w") as f:
        json.dump(dict(sorted(out.items())), f, indent=1)
    print(f"wrote {len(out)} digests of {ROOT} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

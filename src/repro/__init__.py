"""repro: a from-scratch reproduction of QuantumNAT (DAC 2022).

QuantumNAT (Wang et al.) is a noise-aware training and inference pipeline
for parameterized quantum circuits built from three techniques:
post-measurement normalization, realistic noise injection during
training, and post-measurement quantization.

This package re-implements the paper *and every substrate it depends on*
in pure numpy: batched statevector and density-matrix simulators with
analytic adjoint gradients, a basis-gate compiler with noise-adaptive
layout, a synthetic IBMQ-style device catalog with Pauli + readout noise
models and calibration drift, the QNN model zoo across five design
spaces, and the full training stack.

Quickstart::

    from repro import (
        load_task, paper_model, get_device,
        QuantumNATModel, QuantumNATConfig, TrainConfig, train, predict,
    )

    task = load_task("mnist-4")
    qnn = paper_model(4, n_blocks=2, n_layers=2, n_features=16, n_classes=4)
    device = get_device("santiago")
    model = QuantumNATModel(qnn, device, QuantumNATConfig.full())
    result = train(model, task.train_x, task.train_y,
                   task.valid_x, task.valid_y, TrainConfig(epochs=10))
    logits = predict(model, result.weights, task.test_x, engine="trajectory")

Serving (coalesced asyncio front door, :mod:`repro.serve`)::

    from repro.serve import InferenceServer, ServeConfig

    server = InferenceServer(ServeConfig(window_s=0.002, max_batch=64))
    session = server.session(model, result.weights, engine="density")
    logits = await session.predict(x)   # coalesced across callers
"""

from repro.characterization import (
    calibrate_readout,
    characterize_device,
    run_rb_experiment,
)
from repro.circuits import Circuit, Gate, ParamExpr
from repro.core import (
    QuantumNATConfig,
    QuantumNATModel,
    InjectionConfig,
    Quantizer,
    TrainConfig,
    TrainResult,
    train,
    predict,
    grid_search,
    EvalExecutor,
    InferenceExecutor,
    NoiselessExecutor,
    GateInsertionExecutor,
    DensityEvalExecutor,
    DensityTrainExecutor,
    MCWFTrainExecutor,
    TrajectoryEvalExecutor,
    make_real_qc_executor,
    make_noise_model_executor,
    EngineSpec,
    EngineCapabilities,
    capability_matrix,
    create_engine,
    create_engine_with_fallback,
    engine_names,
    engine_spec,
    register_engine,
    ParameterShiftEngine,
    accuracy,
)
from repro.compiler import transpile, CompiledCircuit, optimize_circuit
from repro.core import (
    FinetuneConfig,
    adapt_model,
    device_with_updated_calibration,
    finetune,
    minimize_spsa,
)
from repro.data import load_task, load_scalar_pair_task, TaskData, TASK_NAMES
from repro.metrics import snr, rmd, mse, per_qubit_snr
from repro.mitigation import zne_expectations, mitigate_expectations
from repro.noise import get_device, list_devices, Device, NoiseModel, PauliError
from repro.qasm import from_qasm, to_qasm
from repro.qnn import QNN, QNNArchitecture, paper_model, head_matrix
from repro.serve import (
    CircuitOpen,
    InferenceServer,
    Overloaded,
    ServeConfig,
    ServerClosed,
    Session,
)
from repro import serve
from repro.viz import draw_circuit

__version__ = "3.0.0"

__all__ = [
    "Circuit",
    "Gate",
    "ParamExpr",
    "QuantumNATConfig",
    "QuantumNATModel",
    "InjectionConfig",
    "Quantizer",
    "TrainConfig",
    "TrainResult",
    "train",
    "predict",
    "grid_search",
    "EvalExecutor",
    "InferenceExecutor",
    "NoiselessExecutor",
    "GateInsertionExecutor",
    "DensityEvalExecutor",
    "DensityTrainExecutor",
    "MCWFTrainExecutor",
    "TrajectoryEvalExecutor",
    "make_real_qc_executor",
    "make_noise_model_executor",
    "EngineSpec",
    "EngineCapabilities",
    "capability_matrix",
    "create_engine",
    "create_engine_with_fallback",
    "engine_names",
    "engine_spec",
    "register_engine",
    "ParameterShiftEngine",
    "accuracy",
    "transpile",
    "CompiledCircuit",
    "load_task",
    "load_scalar_pair_task",
    "TaskData",
    "TASK_NAMES",
    "snr",
    "rmd",
    "mse",
    "per_qubit_snr",
    "get_device",
    "list_devices",
    "Device",
    "NoiseModel",
    "PauliError",
    "QNN",
    "QNNArchitecture",
    "paper_model",
    "head_matrix",
    "optimize_circuit",
    "run_rb_experiment",
    "calibrate_readout",
    "characterize_device",
    "FinetuneConfig",
    "finetune",
    "adapt_model",
    "device_with_updated_calibration",
    "minimize_spsa",
    "zne_expectations",
    "mitigate_expectations",
    "from_qasm",
    "to_qasm",
    "draw_circuit",
    "serve",
    "InferenceServer",
    "ServeConfig",
    "Session",
    "Overloaded",
    "CircuitOpen",
    "ServerClosed",
    "__version__",
]

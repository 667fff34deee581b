"""Engine registry round-trip, capability queries and resolution policy.

The registry (:mod:`repro.core.engine`) is the single place execution
backends enroll; TrainConfig, the pipeline's executor construction, the
``make_*_executor`` helpers, the sampler's capability error and the
cross-backend harness all resolve through it.  These tests pin the
registration contract and the resolution policies.
"""

import pytest

from repro.core.engine import (
    ALL_CHANNEL_KINDS,
    CHANNEL_PAULI,
    CHANNEL_RELAXATION,
    EngineCapabilities,
    EngineSpec,
    capability_matrix,
    create_engine,
    engine_names,
    engine_spec,
    engine_specs,
    engines_supporting,
    register_engine,
    resolve_eval_engine,
    resolve_train_engine,
    train_engine_names,
    unregister_engine,
)
from repro.core.executors import (
    DensityEvalExecutor,
    GateInsertionExecutor,
    NoiselessExecutor,
    TrajectoryEvalExecutor,
    make_noise_model_executor,
    make_real_qc_executor,
)
from repro.noise import get_device


# ---------------------------------------------------------------------------
# registration round trip
# ---------------------------------------------------------------------------


def test_default_fleet_is_registered():
    names = engine_names()
    for expected in (
        "fast", "reference", "gate_insertion", "density", "trajectory",
        "mcwf", "noiseless",
    ):
        assert expected in names


def test_engine_spec_round_trip():
    spec = engine_spec("density")
    assert spec.name == "density"
    assert spec.capabilities.exact
    assert spec.capabilities.max_qubits is not None
    assert spec in engine_specs()


def test_unknown_engine_error_lists_registered_names():
    with pytest.raises(ValueError, match="density"):
        engine_spec("warp_drive")


def test_register_rejects_duplicates_and_supports_replace():
    spec = EngineSpec("registry_dummy", "a test engine")
    register_engine(spec)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_engine(spec)
        replacement = EngineSpec("registry_dummy", "a replaced test engine")
        assert register_engine(replacement, replace=True) is replacement
        assert engine_spec("registry_dummy").description.startswith("a replaced")
    finally:
        unregister_engine("registry_dummy")
    assert "registry_dummy" not in engine_names()


def test_newly_registered_engine_appears_in_capability_queries():
    """A registered engine auto-enrolls in every registry-driven surface."""
    spec = EngineSpec(
        "registry_dummy_relax",
        "a relaxation-capable dummy",
        EngineCapabilities(channels=ALL_CHANNEL_KINDS, shots=True),
        factory=lambda noise_model=None, **kw: NoiselessExecutor(),
    )
    register_engine(spec)
    try:
        names = [s.name for s in engines_supporting(CHANNEL_RELAXATION)]
        assert "registry_dummy_relax" in names
        assert "registry_dummy_relax" in capability_matrix()
        assert isinstance(
            create_engine("registry_dummy_relax"), NoiselessExecutor
        )
    finally:
        unregister_engine("registry_dummy_relax")


# ---------------------------------------------------------------------------
# capability queries
# ---------------------------------------------------------------------------


def test_train_engine_names_cover_all_training_backends():
    names = train_engine_names()
    assert names[:2] == ("fast", "reference")
    for expected in ("gate_insertion", "density", "mcwf"):
        assert expected in names


def test_engines_supporting_relaxation():
    names = {s.name for s in engines_supporting(CHANNEL_RELAXATION)}
    assert {"density", "mcwf"} <= names
    assert "trajectory" not in names
    assert "gate_insertion" not in names


def test_engines_supporting_validates_channel_kinds():
    with pytest.raises(ValueError, match="unknown channel kinds"):
        engines_supporting("gravity")


def test_engines_supporting_width_filter():
    narrow = {s.name for s in engines_supporting(CHANNEL_RELAXATION, max_width=4)}
    wide = {s.name for s in engines_supporting(CHANNEL_RELAXATION, max_width=10)}
    assert "density" in narrow
    assert "density" not in wide
    assert "mcwf" in wide


def test_capability_matrix_renders_all_engines_and_kinds():
    table = capability_matrix()
    for name in engine_names():
        assert name in table
    for kind in ALL_CHANNEL_KINDS:
        assert kind in table


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_create_engine_builds_the_right_executors():
    device = get_device("santiago")
    model = device.noise_model
    assert isinstance(create_engine("noiseless"), NoiselessExecutor)
    assert isinstance(
        create_engine("gate_insertion", model), GateInsertionExecutor
    )
    assert isinstance(create_engine("density", model), DensityEvalExecutor)
    trajectory = create_engine("trajectory", model, samples=16)
    assert isinstance(trajectory, TrajectoryEvalExecutor)
    assert trajectory.unravel == "pauli"
    assert trajectory.n_trajectories == 16
    mcwf = create_engine("mcwf", model, samples=16)
    assert isinstance(mcwf, TrajectoryEvalExecutor)
    assert mcwf.unravel == "jump"


def test_create_engine_rejects_pseudo_engines():
    with pytest.raises(ValueError, match="training-loop"):
        create_engine("fast")


# ---------------------------------------------------------------------------
# resolution policy
# ---------------------------------------------------------------------------


def test_resolve_train_engine_prefers_gate_insertion_for_pauli_models():
    assert resolve_train_engine(frozenset({CHANNEL_PAULI}), 4).name == (
        "gate_insertion"
    )


def test_resolve_train_engine_relaxation_narrow_vs_wide():
    relax = frozenset({CHANNEL_RELAXATION})
    assert resolve_train_engine(relax, 4).name == "density"
    assert resolve_train_engine(relax, 10).name == "mcwf"


def test_resolve_eval_engine_prefers_exact_then_sampled():
    pauli = frozenset({CHANNEL_PAULI})
    relax = frozenset({CHANNEL_RELAXATION})
    assert resolve_eval_engine(pauli, 4).name == "density"
    assert resolve_eval_engine(pauli, 10).name == "trajectory"
    assert resolve_eval_engine(relax, 10).name == "mcwf"


def test_stabilizer_engine_is_registered():
    assert "stabilizer" in engine_names()
    spec = engine_spec("stabilizer")
    caps = spec.capabilities
    assert caps.clifford_only
    assert caps.shots
    assert caps.shardable
    assert caps.max_qubits is None  # polynomial cost: no width cap
    assert not caps.exact
    assert "clifford" in capability_matrix()


def test_resolve_eval_engine_clifford_routing():
    from repro.core.engine import CHANNEL_COHERENT

    pauli = frozenset({CHANNEL_PAULI})
    # Default resolution never hands a general circuit to a
    # Clifford-only engine.
    assert resolve_eval_engine(pauli, 4).name == "density"
    assert resolve_eval_engine(pauli, 10).name == "trajectory"
    # Clifford-aware resolution prefers the tableau at any width...
    assert resolve_eval_engine(pauli, 4, clifford=True).name == "stabilizer"
    assert resolve_eval_engine(pauli, 100, clifford=True).name == "stabilizer"
    # ...but falls back when the model carries channels the tableau
    # cannot represent.
    coherent = frozenset({CHANNEL_PAULI, CHANNEL_COHERENT})
    assert resolve_eval_engine(coherent, 4, clifford=True).name == "density"


def test_create_engine_builds_stabilizer_executor():
    from repro.core.executors import StabilizerEvalExecutor

    model = get_device("santiago").noise_model
    executor = create_engine("stabilizer", model, samples=32)
    assert isinstance(executor, StabilizerEvalExecutor)
    assert executor.n_trajectories == 32
    assert not executor.differentiable


def test_stabilizer_executor_rejects_coherent_models():
    from repro.core.executors import StabilizerEvalExecutor

    hardware = get_device("santiago").hardware_model
    with pytest.raises(ValueError, match="Clifford"):
        StabilizerEvalExecutor(hardware)


def test_make_executors_resolve_through_registry():
    from dataclasses import replace

    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
    from repro.qnn import paper_model

    device = get_device("santiago")
    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), device, QuantumNATConfig.baseline(),
        rng=0,
    )
    assert isinstance(make_real_qc_executor(model), DensityEvalExecutor)
    assert isinstance(make_noise_model_executor(model), DensityEvalExecutor)

    wide_device = get_device("melbourne")
    wide = QuantumNATModel(
        paper_model(10, 1, 1, 36, 4), wide_device,
        QuantumNATConfig.baseline(), rng=0,
    )
    assert isinstance(make_real_qc_executor(wide), TrajectoryEvalExecutor)
    assert make_real_qc_executor(wide).unravel == "pauli"

    exact = wide_device.noise_model.with_relaxation(
        {q: (60.0, 70.0) for q in range(wide_device.n_qubits)}, (0.035, 0.3)
    )
    wide_exact = QuantumNATModel(
        paper_model(10, 1, 1, 36, 4),
        replace(wide_device, noise_model=exact),
        QuantumNATConfig.baseline(),
        rng=0,
    )
    resolved = make_noise_model_executor(wide_exact)
    assert isinstance(resolved, TrajectoryEvalExecutor)
    assert resolved.unravel == "jump"


def _shim_model():
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
    from repro.qnn import paper_model

    return QuantumNATModel(
        paper_model(4, 1, 1, 16, 4), get_device("santiago"),
        QuantumNATConfig.baseline(), rng=0,
    )


def test_make_executor_keyword_form_warns_nothing():
    """The unified keyword-only signature is the supported spelling."""
    import warnings

    model = _shim_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_real_qc_executor(model, shots=512, rng=1, samples=4)
        make_noise_model_executor(model, rng=1, samples=4, noise_factor=1.0)


def test_sampler_error_names_registry_engines():
    """The exact-channel refusal lists capable engines from the registry."""
    from repro.noise import noise_model_from_relaxation
    from repro.noise.relaxation import QubitRelaxation
    from repro.noise.sampler import ErrorGateSampler

    model = noise_model_from_relaxation(
        [QubitRelaxation(60.0, 70.0)], [], 0.035, 0.3, exact_channels=True
    )
    with pytest.raises(ValueError) as excinfo:
        ErrorGateSampler(model)
    message = str(excinfo.value)
    for name in (s.name for s in engines_supporting(CHANNEL_RELAXATION)):
        assert name in message


def test_train_config_validates_engine_through_registry():
    from repro.core.training import TrainConfig

    with pytest.raises(ValueError, match="mcwf"):
        TrainConfig(engine="warp_drive")
    for name in train_engine_names():
        TrainConfig(engine=name)


def test_density_executor_capabilities_match_backend_bound():
    from repro.noise.density_backend import MAX_DENSITY_QUBITS

    assert engine_spec("density").capabilities.max_qubits == MAX_DENSITY_QUBITS


def test_channel_kinds_reported_by_models():
    device = get_device("santiago")
    kinds = device.noise_model.channel_kinds
    assert CHANNEL_PAULI in kinds
    assert CHANNEL_RELAXATION not in kinds
    exact = device.noise_model.with_relaxation(
        {q: (60.0, 70.0) for q in range(device.n_qubits)}, (0.035, 0.3)
    )
    assert CHANNEL_RELAXATION in exact.channel_kinds


def test_zero_duration_relaxation_stays_pauli_representable():
    """channel_kinds and has_exact_channels agree on duration gating.

    A relaxation dict over zero gate durations never produces a Kraus
    channel, so the model must resolve to (and be accepted by) the
    sampled gate-insertion backend -- a disagreement here made the
    registry pick an engine whose sampler then refused the model.
    """
    from repro.core.executors import GateInsertionExecutor
    from repro.core.pipeline import QuantumNATConfig, QuantumNATModel
    from repro.qnn import paper_model

    device = get_device("santiago")
    degenerate = device.noise_model.with_relaxation(
        {q: (60.0, 70.0) for q in range(device.n_qubits)}, (0.0, 0.0)
    )
    assert not degenerate.has_exact_channels
    assert CHANNEL_RELAXATION not in degenerate.channel_kinds
    from dataclasses import replace

    model = QuantumNATModel(
        paper_model(4, 1, 1, 16, 4),
        replace(device, noise_model=degenerate),
        QuantumNATConfig.full(0.5),
        rng=0,
    )
    assert type(model._train_executor) is GateInsertionExecutor

"""Noise substrate: models, device catalog, error sampling and noisy backends."""

from repro.noise.model import (
    NoiseModel,
    PauliError,
    NO_ERROR,
    uniform_pauli_error,
    readout_matrix,
    validate_relaxation_times,
    VIRTUAL_GATES,
)
from repro.noise.devices import Device, DeviceSpec, get_device, list_devices
from repro.noise.sampler import ErrorGateSampler, InsertionStats
from repro.noise.readout import (
    readout_affine,
    apply_readout_to_expectations,
    apply_readout_to_joint_probabilities,
    noisy_probability_pair,
)
from repro.noise.twirling import (
    twirl_to_pauli_probs,
    twirl_to_pauli_error,
    pauli_error_from_gate_fidelity,
)
from repro.noise.trajectory import (
    mcwf_probabilities_reference,
    run_noisy_trajectories,
    trajectory_probabilities,
    trajectory_probabilities_reference,
)
from repro.noise.density_backend import (
    run_noisy_density,
    run_noisy_density_reference,
    MAX_DENSITY_QUBITS,
)
from repro.noise.relaxation import (
    QubitRelaxation,
    noise_model_from_relaxation,
    relaxation_pauli_error,
)

__all__ = [
    "NoiseModel",
    "PauliError",
    "NO_ERROR",
    "uniform_pauli_error",
    "readout_matrix",
    "validate_relaxation_times",
    "VIRTUAL_GATES",
    "Device",
    "DeviceSpec",
    "get_device",
    "list_devices",
    "ErrorGateSampler",
    "InsertionStats",
    "readout_affine",
    "apply_readout_to_expectations",
    "apply_readout_to_joint_probabilities",
    "noisy_probability_pair",
    "twirl_to_pauli_probs",
    "twirl_to_pauli_error",
    "pauli_error_from_gate_fidelity",
    "mcwf_probabilities_reference",
    "run_noisy_trajectories",
    "trajectory_probabilities",
    "trajectory_probabilities_reference",
    "run_noisy_density",
    "run_noisy_density_reference",
    "MAX_DENSITY_QUBITS",
    "QubitRelaxation",
    "relaxation_pauli_error",
    "noise_model_from_relaxation",
]

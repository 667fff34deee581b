"""Quantum circuit compiler: lowering, layout, routing, cleanup, transpile.

Beyond the transpile pipeline, the package hosts two execution-oriented
compilation passes:

* **gate fusion** (:mod:`repro.compiler.fusion`), the one fusion pass
  every fused stream goes through: ``fusion_layout`` cuts a gate stream
  into runs, singletons and breaks, ``greedy_runs`` groups a stretch
  into runs of at most two qubits and ``RunStack`` materializes all of
  a plan's statevector runs in one batched pass.  ``FusionPlan`` is
  the one statevector plan: its ``fused_ops`` caches the fused runs per
  weight vector for tape-free inference and, with the error sites as
  breaks, for the trajectory engine; its ``sweep`` runs every
  statevector training forward and the adjoint on fused runs, with
  closed-form gradients;
* **superoperator compilation** (:mod:`repro.compiler.superop`): for the
  exact noisy density backend, precompiles each bound gate *together
  with* its Pauli error channel, its exact T1/T2 thermal-relaxation
  channel (general amplitude/phase-damping Kraus sets, when the noise
  model carries them) and its coherent miscalibration into one cached
  ``(4**k, 4**k)`` superoperator per site, then fuses runs of sites
  through the same pass into segment operators -- channel composition is
  plain matrix multiplication in superoperator form, so noise fuses as
  freely as unitaries.  ``run_noisy_density`` executes the compiled
  stream in one transpose + GEMM pass per operator
  (:func:`repro.sim.density.apply_superop_to_density`), ~10x+ over the
  retained per-Kraus reference; the same per-site
  superoperators drive the exact-channel training backend's
  adjoint-on-superops sweep (:mod:`repro.core.density_training`).  The
  cross-backend harness (``tests/test_cross_backend.py``) holds every
  engine to the per-Kraus reference across randomized channel mixes.
"""

from repro.compiler.decompositions import (
    BASIS_GATES,
    euler_zyz,
    expand_gate,
    lower_to_basis,
)
from repro.compiler.coupling import (
    CouplingMap,
    line_coupling,
    t_coupling,
    bowtie_coupling,
    ladder_coupling,
)
from repro.compiler.layout import (
    trivial_layout,
    noise_adaptive_layout,
    apply_layout,
)
from repro.compiler.routing import route, routing_overhead
from repro.compiler.cleanup import cleanup
from repro.compiler.fusion import (
    FusedOp,
    FusionPlan,
    constant_op,
    fusion_plan_for,
)
from repro.compiler.superop import (
    SuperOp,
    SuperopPlan,
    embed_superop,
    fuse_superops,
    superop_plan_for,
)
from repro.compiler.optimize import (
    cancel_inverse_pairs,
    merge_rotations,
    optimize_circuit,
    resynthesize_1q_runs,
)
from repro.compiler.passes import CompiledCircuit, transpile

__all__ = [
    "BASIS_GATES",
    "euler_zyz",
    "expand_gate",
    "lower_to_basis",
    "CouplingMap",
    "line_coupling",
    "t_coupling",
    "bowtie_coupling",
    "ladder_coupling",
    "trivial_layout",
    "noise_adaptive_layout",
    "apply_layout",
    "route",
    "routing_overhead",
    "cleanup",
    "FusedOp",
    "FusionPlan",
    "constant_op",
    "fusion_plan_for",
    "SuperOp",
    "SuperopPlan",
    "embed_superop",
    "fuse_superops",
    "superop_plan_for",
    "cancel_inverse_pairs",
    "merge_rotations",
    "optimize_circuit",
    "resynthesize_1q_runs",
    "CompiledCircuit",
    "transpile",
]

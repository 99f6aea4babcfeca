"""Inverse engineering of four-level Hamiltonians via 4D rotation geometry."""

from .hamiltonian import PhaseSchedule, analytic_evolution, phase_operator, total_hamiltonian
from .propagator import Trajectory, compare_with_analytic, fidelity, propagate
from .quat4 import (
    Quaternion,
    RotationDecomposition,
    RotationKind,
    cayley_rotation,
    decompose_rotation,
    left_isoclinic,
    quat_exp,
    quat_mul,
    right_isoclinic,
)
from .rotation import (
    AnglePair,
    CosineRamp,
    CouplingSet,
    final_state,
    hr_analytic,
    rotation_vectors,
    spherical_to_quats,
    ur_of_angles,
)
from .solvers import (
    LevelConfig,
    SolvedAngles,
    TargetSpec,
    solve_diamond,
    solve_ntype,
    solve_tripod,
)

__all__ = [
    "AnglePair",
    "CosineRamp",
    "CouplingSet",
    "LevelConfig",
    "PhaseSchedule",
    "Quaternion",
    "RotationDecomposition",
    "RotationKind",
    "SolvedAngles",
    "TargetSpec",
    "Trajectory",
    "analytic_evolution",
    "cayley_rotation",
    "compare_with_analytic",
    "decompose_rotation",
    "fidelity",
    "final_state",
    "hr_analytic",
    "left_isoclinic",
    "phase_operator",
    "propagate",
    "quat_exp",
    "quat_mul",
    "right_isoclinic",
    "rotation_vectors",
    "solve_diamond",
    "solve_ntype",
    "solve_tripod",
    "spherical_to_quats",
    "total_hamiltonian",
    "ur_of_angles",
]

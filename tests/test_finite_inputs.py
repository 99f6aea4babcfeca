"""One finite-input contract for the public API: a NaN or +-inf in any one
numeric argument of a name in fourlevel.__all__ raises ValueError (or a
subclass), SolverError or AccuracyError, with no RuntimeWarning first
(pytest turns one into an error), and no call returns a non-finite number.

Each case is a call on a flat list of floats, which builds the checked
arguments it needs (a Quaternion, an AnglePair of angles, a PhaseSchedule)
inside the call, so a bad number is caught wherever the library first meets
it; times go in both as a float and as one entry of a time array.  The
methods of time of CosineRamp and PhaseSchedule count as their class's
names.  Exempt by design:
- AnglePair and CouplingSet, records that check nothing: every function that
  takes one checks its fields (the angle maps, coupling_entries);
- RotationDecomposition, SolvedAngles and Trajectory, the results of
  decompose_rotation, the solvers and propagate, which check their inputs
  (built here by them);
- LevelConfig and RotationKind, enums that take no numbers.
"""

import dataclasses
import enum
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourlevel
from fourlevel import (
    AnglePair,
    CosineRamp,
    CouplingSet,
    PhaseSchedule,
    Quaternion,
    TargetSpec,
    analytic_evolution,
    cayley_rotation,
    compare_with_analytic,
    decompose_rotation,
    fidelity,
    final_state,
    hr_analytic,
    left_isoclinic,
    phase_operator,
    propagate,
    quat_exp,
    quat_mul,
    right_isoclinic,
    rotation_vectors,
    solve_diamond,
    solve_ntype,
    solve_tripod,
    spherical_to_quats,
    total_hamiltonian,
    ur_of_angles,
)
from fourlevel.propagator import AccuracyError
from fourlevel.solvers import SolverError

TYPED = (ValueError, SolverError, AccuracyError)
EXEMPT = {
    "AnglePair", "CouplingSet", "RotationDecomposition", "SolvedAngles", "Trajectory",
    "LevelConfig", "RotationKind",
}

B = [0.5, 0.5, 0.5, 0.5]
SOLVED = solve_diamond(TargetSpec([0.0, math.sqrt(0.5), math.sqrt(0.5), 0.0]), 1.0)
PH = PhaseSchedule([0.1, 0.2, 0.3], [0.4, 0.5, 0.6], 1.0)
PSI0 = [1.0, 0.0, 0.0, 0.0]
TRAJ = propagate(lambda t: np.diag([0.0, 1.0, 2.0, 3.0]), PSI0, 1.0, 100)
ANGLES = [0.7, 0.4, 0.2, -0.3, 1.1, 0.5]
RATES = [0.2, -0.1, 0.3, 0.4, 0.6, -0.5]
Q = [0.5, 0.5, 0.5, 0.5]
P = [math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0]
TIMES = [0.0, 0.3, 0.5, 1.0]


def time_cases(name, f):
    """f at one time, and on a time array."""
    return {
        f"{name}(t)": ([0.3], lambda x: f(x[0])),
        f"{name}(times)": (TIMES, lambda x: f(np.array(x))),
    }


# name: (the valid numbers, the call on a list of them)
CASES = {
    "CosineRamp": ([0.3, -0.2, 0.5, 0.1, 0.4, -0.6, 2.0], lambda x: CosineRamp(x[0:3], x[3:6], x[6])),
    **time_cases("CosineRamp.value", SOLVED.schedule.value),
    **time_cases("CosineRamp.rate", SOLVED.schedule.rate),
    **time_cases("CosineRamp.ramp_rate", SOLVED.schedule.ramp_rate),
    **time_cases("CosineRamp.couplings", SOLVED.schedule.couplings),
    "PhaseSchedule": ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0], lambda x: PhaseSchedule(x[0:3], x[3:6], x[6])),
    **time_cases("PhaseSchedule.phases", PH.phases),
    **time_cases("PhaseSchedule.frame", PH.frame),
    "Quaternion": (Q, lambda x: Quaternion(*x)),
    "Quaternion.unit": (Q, lambda x: Quaternion.unit(*x)),
    "Quaternion.from_array": (Q, lambda x: Quaternion.from_array(np.array(x))),
    "TargetSpec": (B + [0.7], lambda x: TargetSpec(x[:4], {"theta1": x[4]})),
    **time_cases("analytic_evolution", lambda t: analytic_evolution(SOLVED, PH, t)),
    "cayley_rotation": (Q + P, lambda x: cayley_rotation(Quaternion(*x[:4]), Quaternion(*x[4:]))),
    "compare_with_analytic": (
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0],
        lambda x: compare_with_analytic(TRAJ, SOLVED, PhaseSchedule(x[0:3], x[3:6], x[6])),
    ),
    "decompose_rotation": (Q + P, lambda x: decompose_rotation(Quaternion(*x[:4]), Quaternion(*x[4:]))),
    "fidelity": (PSI0 + B, lambda x: fidelity(x[:4], x[4:])),
    "final_state": (ANGLES, lambda x: final_state(AnglePair(*x))),
    "hr_analytic": (ANGLES + RATES, lambda x: hr_analytic(AnglePair(*x[:6]), AnglePair(*x[6:]))),
    "left_isoclinic": (Q, lambda x: left_isoclinic(Quaternion(*x))),
    **time_cases("phase_operator", lambda t: phase_operator(PH, t)),
    "propagate": (
        [0.0, 1.0, 2.0, 3.0, *PSI0, 1.0],
        lambda x: propagate(lambda t: np.diag(x[:4]), x[4:8], x[8], 100),
    ),
    "quat_exp": ([0.0, 1.0, 0.0, 0.0, 0.7], lambda x: quat_exp(Quaternion(*x[:4]), x[4])),
    "quat_mul": (Q + P, lambda x: quat_mul(Quaternion(*x[:4]), Quaternion(*x[4:]))),
    "right_isoclinic": (P, lambda x: right_isoclinic(Quaternion(*x))),
    "rotation_vectors": (ANGLES, lambda x: rotation_vectors(AnglePair(*x))),
    "solve_diamond": (B + [1.0], lambda x: solve_diamond(TargetSpec(x[:4]), x[4])),
    "solve_ntype": (
        B + [1.0, 0.4, 0.3, 2.0],
        lambda x: solve_ntype(TargetSpec(x[:4]), x[4], initial_guess=x[5:8]),
    ),
    "solve_tripod": (B + [1.0], lambda x: solve_tripod(TargetSpec(x[:4]), x[4])),
    "spherical_to_quats": (ANGLES, lambda x: spherical_to_quats(AnglePair(*x))),
    **time_cases(
        "total_hamiltonian",
        lambda t: total_hamiltonian(SOLVED.schedule.couplings(0.5), PH, t),
    ),
    "total_hamiltonian(couplings)": (
        [0.3, -0.2, 0.1, 0.5, 0.4, -0.7],
        lambda x: total_hamiltonian(CouplingSet(*x), PH, 0.5),
    ),
    "ur_of_angles": (ANGLES, lambda x: ur_of_angles(AnglePair(*x))),
}


def numbers(result):
    """The numeric arrays a result holds, through tuples, dataclasses and mappings."""
    if isinstance(result, (enum.Enum, str)) or result is None:
        return
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, Mapping):
        result = list(result.values())
    if isinstance(result, (tuple, list)):
        for part in result:
            yield from numbers(part)
    else:
        yield np.asarray(result)


def all_finite(result) -> bool:
    return all(np.isfinite(a).all() for a in numbers(result))


def test_every_public_name_is_a_case_or_exempt():
    covered = {name.split("(")[0].split(".")[0] for name in CASES}
    assert covered | EXEMPT == set(fourlevel.__all__)
    assert not covered & EXEMPT


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_case_returns_finite_numbers_at_its_valid_numbers(name):
    valid, call = CASES[name]
    assert all_finite(call(list(valid)))


@settings(max_examples=2000, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data())
def test_a_non_finite_number_raises_a_typed_error(name, data):
    valid, call = CASES[name]
    x = list(valid)
    x[data.draw(st.integers(0, len(x) - 1), label="position")] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf]), label="value"
    )
    try:
        result = call(x)
    except TYPED:
        return
    assert all_finite(result), f"{name} returned a non-finite number for {x}"

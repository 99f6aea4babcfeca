"""Functions of time take a time array and return, bit for bit, the stack of
their scalar-time results."""

import dataclasses
import math

import numpy as np
import pytest

from fourlevel.hamiltonian import (
    PhaseSchedule,
    analytic_evolution,
    phase_operator,
    total_hamiltonian,
)
from fourlevel.propagator import _CHUNK, _NODES, propagate
from fourlevel.qo import (
    TRANSITIONS,
    engineered_to_qo,
    interaction_hamiltonian,
    lab_hamiltonian,
    rwa_hamiltonian,
)
from fourlevel.rotation import (
    AnglePair,
    CosineRamp,
    final_state,
    hr_analytic,
    rotation_vectors,
    ur_of_angles,
)
from fourlevel.solvers import LevelConfig, SolvedAngles, TargetSpec, solve_diamond

T = 1.7


def stacked(f, times):
    """f called on each time as a Python float, stacked in the shape of times."""
    out = np.array([f(float(t)) for t in times.ravel()])
    return out.reshape(times.shape + out.shape[1:])


@pytest.fixture
def times(rng):
    # a 2-D time array, endpoints included
    return np.concatenate([[0.0, T], rng.uniform(0.0, T, 13)]).reshape(3, 5)


@pytest.fixture
def pipeline(rng):
    boundary = AnglePair.from_array(rng.uniform(-2 * math.pi, 2 * math.pi, 6))
    sched = CosineRamp(*rotation_vectors(boundary), T)
    ph = PhaseSchedule(eps=rng.normal(size=3), eps_prime=rng.normal(size=3), T=T)
    solved = SolvedAngles(LevelConfig.DIAMOND, sched)

    b = rng.normal(size=4)
    diamond = solve_diamond(TargetSpec(b / np.linalg.norm(b)), T).schedule
    qo = engineered_to_qo(
        lambda t: hr_analytic(diamond.value(t), diamond.rate(t)),
        ph,
        np.array([1.0, 1.35, 2.6]) * 1000.0,
    )
    # non-zero field phases, so that the closed-loop phase enters too
    qo = dataclasses.replace(
        qo, field_phases={k: float(v) for k, v in zip(TRANSITIONS, rng.normal(size=4))}
    )

    def couplings(t):
        return hr_analytic(sched.value(t), sched.rate(t))

    return {
        "value": lambda t: sched.value(t).as_array(),
        "rate": lambda t: sched.rate(t).as_array(),
        "hr_analytic": lambda t: couplings(t).as_array(),
        "ramp_couplings": lambda t: sched.couplings(t).as_array(),
        "ur_of_angles": lambda t: ur_of_angles(sched.value(t)),
        "final_state": lambda t: final_state(sched.value(t)),
        "frame": ph.frame,
        "phase_operator": lambda t: phase_operator(ph, t),
        "total_hamiltonian": lambda t: total_hamiltonian(couplings(t), ph, t),
        "analytic_evolution": lambda t: analytic_evolution(solved, ph, t),
        "rabi": qo.rabi,
        "lab_hamiltonian": lambda t: lab_hamiltonian(qo, t),
        "rwa_hamiltonian": lambda t: rwa_hamiltonian(qo, t),
        "interaction_hamiltonian": lambda t: interaction_hamiltonian(qo, t),
    }


@pytest.mark.parametrize(
    "name",
    [
        "value",
        "rate",
        "hr_analytic",
        "ramp_couplings",
        "ur_of_angles",
        "final_state",
        "frame",
        "phase_operator",
        "total_hamiltonian",
        "analytic_evolution",
        "rabi",
        "lab_hamiltonian",
        "rwa_hamiltonian",
        "interaction_hamiltonian",
    ],
)
def test_array_equals_stacked_scalars(pipeline, times, name):
    f = pipeline[name]
    assert np.array_equal(f(times), stacked(f, times))


def test_propagate_evaluates_the_grid_once():
    # every Gauss node once, in time order, one Hamiltonian call per chunk
    # of _CHUNK steps; concatenated, the calls give the one-call grid
    def run(steps):
        nodes = []

        def h(t):
            nodes.append(t)
            return np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)  # constant: one 4x4

        traj = propagate(h, np.array([1.0, 0, 0, 0], dtype=complex), 1.0, steps=steps)
        assert traj.norm_drift < 1e-14
        return nodes

    nodes = run(100)
    assert len(nodes) == 1 and nodes[0].shape == (200,)
    assert np.all(np.diff(nodes[0]) > 0) and 0.0 < nodes[0][0] and nodes[0][-1] < 1.0

    steps = 2 * _CHUNK + 37
    nodes = run(steps)
    assert [len(t) for t in nodes] == [2 * _CHUNK, 2 * _CHUNK, 74]
    times = np.linspace(0.0, 1.0, steps + 1)
    grid = (times[:-1, None] + _NODES * (1.0 / steps)).ravel()
    assert np.concatenate(nodes).tobytes() == grid.tobytes()

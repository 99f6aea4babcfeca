import math

import numpy as np
import pytest
from hypothesis import strategies as st

from fourlevel.quat4 import Quaternion
from fourlevel.rotation import CouplingSet
from fourlevel.solvers import LevelConfig


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    v = rng.normal(size=4)
    return Quaternion.from_array(v / np.linalg.norm(v))


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


angles = st.floats(
    min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False, allow_infinity=False
)


@st.composite
def unit_quaternions(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0, 0.0])
        n = 1.0
    return Quaternion.from_array(v / n)


def topology_couplings(config: LevelConfig, solved, t: float) -> CouplingSet:
    """Per-topology closed-form coupling waveforms, an oracle for hr_analytic.

    For the diamond and N-type these are the generator read-off.  The tripod
    form is the spherical-coordinate pulse (gamma rate times the direction
    cosines); the generator rotates the state through 2*gamma, so it is -2
    times this form, which satisfies the pulse-area identity
    integral of Omega_12 dt = gamma(T) cos(theta).
    """
    a = solved.schedule.value(t)
    adot = solved.schedule.rate(t)
    if config is LevelConfig.INVERSE_TRIPOD:
        dg, th, ph = adot.gamma1, a.theta1, a.phi1
        return CouplingSet(
            dg * math.cos(th),
            dg * math.sin(th) * math.cos(ph),
            dg * math.sin(th) * math.sin(ph),
            0.0,
            0.0,
            0.0,
        )
    if config is LevelConfig.DIAMOND:
        dg1, dg2 = adot.gamma1, adot.gamma2
        t1, t2 = a.theta1, a.theta2
        return CouplingSet(
            -(dg1 * math.cos(t1) + dg2 * math.cos(t2)),
            -(dg1 * math.sin(t1) + dg2 * math.sin(t2)),
            0.0,
            0.0,
            dg1 * math.sin(t1) - dg2 * math.sin(t2),
            -(dg1 * math.cos(t1) - dg2 * math.cos(t2)),
        )
    dg2 = adot.gamma2
    t1, t2 = a.theta1, a.theta2
    cot1 = math.cos(t1) / math.sin(t1)
    return CouplingSet(
        dg2 * (math.sin(t2) * cot1 - math.cos(t2)),
        0.0,
        0.0,
        2.0 * dg2 * math.sin(t2),
        0.0,
        dg2 * (math.sin(t2) * cot1 + math.cos(t2)),
    )

"""Evolution operator and rotation generator from generalized spherical angles.

The six angles (gamma1, theta1, phi1, gamma2, theta2, phi2) parameterize the
two unit quaternions of a 4D rotation.  The rotation generator is read off
in the convention

    H_r = i * hbar * sum_{n<m} Omega_nm (|n><m| - |m><n|),

i.e. Omega_nm is the (n, m) entry (n < m) of the real antisymmetric matrix
dUr/dt * Ur^T.  U_r, its generator and the final state all come from the
quaternion pair (q, p) through one angle-to-quaternion map and the Hamilton
product: U_r = M_L(q) M_R(p), dUr/dt Ur^T = M_L(dq/dt conj(q)) +
M_R(conj(p) dp/dt) and U_r e_1 = q p.  The finite-difference read-off
hr_numeric is kept as an independent check.  A schedule evaluated on a
time array gives an AnglePair of arrays, and the maps above then return
one result per time, on the leading axes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quat4 import Quaternion, hamilton


#: Row and column of the couplings (1,2), (1,3), (1,4), (2,3), (2,4), (3,4).
_UPPER = np.triu_indices(4, 1)


def _stack_last(parts) -> np.ndarray:
    """np.stack(parts, axis=-1) for parts of one shape, at np.array's cost on floats."""
    a = np.array(parts)
    return a.transpose(*range(1, a.ndim), 0)


@dataclass(frozen=True)
class AnglePair:
    """Generalized spherical angles of the two quaternion factors (radians).

    All real values are accepted; the solvers occasionally need angles
    outside [0, pi] (e.g. theta2 = -3*pi/4 for the diamond example).
    The fields may also be arrays of one shape (one entry per time
    sample); as_array stacks them on the last axis.
    """

    gamma1: float
    theta1: float
    phi1: float
    gamma2: float
    theta2: float
    phi2: float

    def as_array(self) -> np.ndarray:
        return _stack_last(tuple(vars(self).values()))

    @classmethod
    def from_array(cls, a) -> "AnglePair":
        return cls(*np.asarray(a, dtype=float))


@dataclass(frozen=True)
class CouplingSet:
    """The six real couplings of the rotation Hamiltonian (hbar = 1), floats
    or arrays of one shape."""

    omega12: float
    omega13: float
    omega14: float
    omega23: float
    omega24: float
    omega34: float

    def as_array(self) -> np.ndarray:
        return _stack_last(tuple(vars(self).values()))

    @classmethod
    def from_matrix(cls, omega: np.ndarray) -> "CouplingSet":
        """Read the upper triangle of a real antisymmetric generator matrix."""
        o = np.asarray(omega)
        return cls(o[0, 1], o[0, 2], o[0, 3], o[1, 2], o[1, 3], o[2, 3])

    def to_matrix(self) -> np.ndarray:
        """The antisymmetric matrix (..., 4, 4), one per sample."""
        o = self.as_array()
        m = np.zeros(o.shape[:-1] + (4, 4))
        m[..., _UPPER[0], _UPPER[1]] = o
        return m - np.swapaxes(m, -1, -2)


@dataclass(frozen=True)
class AngleSchedule:
    """Time-dependent angles as paired (value, rate) closures over [0, T].

    The closures take a time or an array of times and return an AnglePair
    whose fields are floats or arrays of t's shape.  They must be
    side-effect-free and mutually consistent; see check_consistency for the
    finite-difference test.
    """

    value: Callable[[np.ndarray], AnglePair]
    rate: Callable[[np.ndarray], AnglePair]
    horizon: float

    def check_consistency(self, samples: int = 33, rtol: float = 1e-6) -> float:
        """Max mismatch between rate() and a centered difference of value()."""
        T = self.horizon
        h = 1e-6 * T
        grid = np.linspace(h, T - h, samples)
        rate = self.rate(grid).as_array()
        scale = max(1.0, np.max(np.abs(rate)))
        fd = (self.value(grid + h).as_array() - self.value(grid - h).as_array()) / (2 * h)
        worst = np.max(np.abs(fd - rate))
        if worst > rtol * scale:
            raise ValueError(
                f"angle schedule value/rate mismatch {worst:.3e} exceeds {rtol * scale:.3e}"
            )
        return worst


def constant_schedule(angles: AnglePair, horizon: float) -> AngleSchedule:
    zero = AnglePair(0, 0, 0, 0, 0, 0)
    return AngleSchedule(value=lambda t: angles, rate=lambda t: zero, horizon=horizon)


def cosine_ramp_schedule(final: AnglePair, horizon: float) -> AngleSchedule:
    """gamma_i(t) = gamma_i(T) * [1 - cos(pi t / T)] / 2 with constant
    theta and phi; smooth switch-on/off (zero rate at both endpoints)."""
    T = horizon
    gf1, gf2 = final.gamma1, final.gamma2

    def value(t) -> AnglePair:
        ramp = 0.5 * (1.0 - np.cos(np.pi * t / T))
        one = 0.0 * ramp + 1.0  # 1 in t's shape, for the constant angles
        return AnglePair(
            gf1 * ramp, final.theta1 * one, final.phi1 * one,
            gf2 * ramp, final.theta2 * one, final.phi2 * one,
        )

    def rate(t) -> AnglePair:
        dramp = 0.5 * np.pi / T * np.sin(np.pi * t / T)
        zero = 0.0 * dramp + 0.0  # +0 in t's shape
        return AnglePair(gf1 * dramp, zero, zero, gf2 * dramp, zero, zero)

    return AngleSchedule(value=value, rate=rate, horizon=T)


def _unit_quat(g, th, ph, dg=None, dth=None, dph=None):
    """Unit quaternion cos(g) + sin(g) n(th, ph), and given the angle rates
    (dg, dth, dph) the pair (quaternion, its time derivative).

    n = (cos th, sin th cos ph, sin th sin ph) is the pure unit axis.  The
    quaternions are (w, x, y, z) tuples of floats or of broadcast arrays.
    This is the one map from angles to quaternions.

    cos and sin come from math when all three angles are exact Python
    floats (the solvers' boundary angles), and from numpy otherwise.  On
    the math route every later product is float arithmetic, several times
    cheaper than on numpy scalars.  The two routes give the same bits
    (tests/test_rotation.py checks this as a property), except that math
    raises ValueError on an infinite angle where numpy gives NaN.
    np.float64 is a float subclass but stays on numpy: a schedule evaluated
    at a scalar time gives np.float64 angles, so such a call takes the
    array call's route, and "a float time equals the array call bit for
    bit" does not rest on the two trig sources agreeing.
    """
    if type(g) is float and type(th) is float and type(ph) is float:
        cos, sin = math.cos, math.sin
    else:
        cos, sin = np.cos, np.sin
    cg, sg = cos(g), sin(g)
    ct, st = cos(th), sin(th)
    cp, sp = cos(ph), sin(ph)
    ny, nz = st * cp, st * sp
    q = (cg, sg * ct, sg * ny, sg * nz)
    if dg is None:
        return q
    gd, sdt, sdp = cg * dg, sg * dth, sg * dph
    dq = (
        -sg * dg,
        gd * ct - sdt * st,
        gd * ny + sdt * ct * cp - sdp * nz,
        gd * nz + sdt * ct * sp + sdp * ny,
    )
    return q, dq


def _quat_pair(a: AnglePair):
    return _unit_quat(a.gamma1, a.theta1, a.phi1), _unit_quat(a.gamma2, a.theta2, a.phi2)


def spherical_to_quats(a: AnglePair) -> tuple[Quaternion, Quaternion]:
    """Map the six angles to the (left, right) unit quaternion pair."""
    q, p = _quat_pair(a)
    return Quaternion(*q), Quaternion(*p)


def ur_of_angles(a: AnglePair) -> np.ndarray:
    """Evolution operator U_r = M_L(q) M_R(p) (real rotation, (..., 4, 4)).

    Column k is the quaternion q e_k p for the basis e_k = 1, i, j, k;
    cayley_rotation(*spherical_to_quats(a)) builds the same matrix from
    the isoclinic factors and serves as its check.
    """
    q, p = _quat_pair(a)
    w, x, y, z = p
    # e_k p for e_k = 1, i, j, k: the columns of M_R(p)
    u = _stack_last(
        hamilton(q, p)
        + hamilton(q, (-x, w, -z, y))
        + hamilton(q, (-y, z, w, -x))
        + hamilton(q, (-z, -y, x, w))
    )  # u[..., 4 k + i] = (q e_k p)_i
    return np.swapaxes(u.reshape(u.shape[:-1] + (4, 4)), -1, -2)


def final_state(a: AnglePair) -> np.ndarray:
    """U_r e_1 = q p: the real state reached from level 1, shape (..., 4)."""
    return _stack_last(hamilton(*_quat_pair(a)))


def hr_analytic(a: AnglePair, adot: AnglePair) -> CouplingSet:
    """Couplings of the rotation generator dUr/dt Ur^T = M_L(l) + M_R(r).

    l = dq/dt conj(q) and r = conj(p) dp/dt are pure quaternions, and the
    upper triangle of M_L(l) + M_R(r) reads off from their components.
    """
    (qw, qx, qy, qz), dq = _unit_quat(
        a.gamma1, a.theta1, a.phi1, adot.gamma1, adot.theta1, adot.phi1
    )
    (pw, px, py, pz), dp = _unit_quat(
        a.gamma2, a.theta2, a.phi2, adot.gamma2, adot.theta2, adot.phi2
    )
    _, lx, ly, lz = hamilton(dq, (qw, -qx, -qy, -qz))
    _, rx, ry, rz = hamilton((pw, -px, -py, -pz), dp)
    return CouplingSet(-(lx + rx), -(ly + ry), -(lz + rz), rz - lz, ly - ry, rx - lx)


def hr_numeric(
    schedule: AngleSchedule, t: float, h: float | None = None
) -> CouplingSet:
    """Couplings extracted from a finite-difference dUr/dt Ur^T.

    Centered difference of second order inside (0, T); falls back to a
    one-sided first-order difference at the boundary.  The raw generator is
    antisymmetrized before read-off to suppress the symmetric O(h^2) error.
    """
    T = schedule.horizon
    if not 0.0 <= t <= T:
        raise ValueError(f"t={t} outside [0, {T}]")
    if h is None:
        h = 1e-5 * T
    if h <= 0:
        raise ValueError("h must be positive")

    def ur(s: float) -> np.ndarray:
        return ur_of_angles(schedule.value(s))

    if t - h >= 0.0 and t + h <= T:
        dudt = (ur(t + h) - ur(t - h)) / (2.0 * h)
    else:
        warnings.warn(
            "t within h of the horizon boundary: one-sided difference, first order",
            stacklevel=2,
        )
        if t + h <= T:
            dudt = (ur(t + h) - ur(t)) / h
        else:
            dudt = (ur(t) - ur(t - h)) / h
    omega = dudt @ ur(t).T
    omega = 0.5 * (omega - omega.T)
    return CouplingSet.from_matrix(omega)

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
hr_numeric is kept as an independent check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quat4 import Quaternion, hamilton


@dataclass(frozen=True)
class AnglePair:
    """Generalized spherical angles of the two quaternion factors (radians).

    All real values are accepted; the solvers occasionally need angles
    outside [0, pi] (e.g. theta2 = -3*pi/4 for the diamond example).
    """

    gamma1: float
    theta1: float
    phi1: float
    gamma2: float
    theta2: float
    phi2: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.gamma1, self.theta1, self.phi1, self.gamma2, self.theta2, self.phi2]
        )

    @classmethod
    def from_array(cls, a) -> "AnglePair":
        return cls(*np.asarray(a, dtype=float))


@dataclass(frozen=True)
class CouplingSet:
    """The six real couplings of the rotation Hamiltonian (hbar = 1)."""

    omega12: float
    omega13: float
    omega14: float
    omega23: float
    omega24: float
    omega34: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.omega12,
                self.omega13,
                self.omega14,
                self.omega23,
                self.omega24,
                self.omega34,
            ]
        )

    @classmethod
    def from_matrix(cls, omega: np.ndarray) -> "CouplingSet":
        """Read the upper triangle of a real antisymmetric generator matrix."""
        o = np.asarray(omega)
        return cls(o[0, 1], o[0, 2], o[0, 3], o[1, 2], o[1, 3], o[2, 3])

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[0, 1], m[0, 2], m[0, 3] = self.omega12, self.omega13, self.omega14
        m[1, 2], m[1, 3] = self.omega23, self.omega24
        m[2, 3] = self.omega34
        return m - m.T


@dataclass(frozen=True)
class AngleSchedule:
    """Time-dependent angles as paired (value, rate) closures over [0, T].

    The closures must be side-effect-free and mutually consistent; see
    check_consistency for the finite-difference test.
    """

    value: Callable[[float], AnglePair]
    rate: Callable[[float], AnglePair]
    horizon: float

    def check_consistency(self, samples: int = 33, rtol: float = 1e-6) -> float:
        """Max mismatch between rate() and a centered difference of value()."""
        T = self.horizon
        h = 1e-6 * T
        grid = np.linspace(h, T - h, samples)
        worst = 0.0
        scale = max(
            1.0, max(np.max(np.abs(self.rate(t).as_array())) for t in grid)
        )
        for t in grid:
            fd = (self.value(t + h).as_array() - self.value(t - h).as_array()) / (2 * h)
            worst = max(worst, np.max(np.abs(fd - self.rate(t).as_array())))
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

    def value(t: float) -> AnglePair:
        ramp = 0.5 * (1.0 - math.cos(math.pi * t / T))
        return AnglePair(
            gf1 * ramp, final.theta1, final.phi1, gf2 * ramp, final.theta2, final.phi2
        )

    def rate(t: float) -> AnglePair:
        dramp = 0.5 * math.pi / T * math.sin(math.pi * t / T)
        return AnglePair(gf1 * dramp, 0.0, 0.0, gf2 * dramp, 0.0, 0.0)

    return AngleSchedule(value=value, rate=rate, horizon=T)


def _unit_quat(g, th, ph, dg, dth, dph):
    """Unit quaternion cos(g) + sin(g) n(th, ph) and its time derivative.

    n = (cos th, sin th cos ph, sin th sin ph) is the pure unit axis and
    (dg, dth, dph) are the angle rates.  Both quaternions come back as
    (w, x, y, z) float tuples.  This is the one map from angles to
    quaternions; callers that need no derivative pass zero rates.
    """
    cg, sg = math.cos(g), math.sin(g)
    ct, st = math.cos(th), math.sin(th)
    cp, sp = math.cos(ph), math.sin(ph)
    ny, nz = st * cp, st * sp
    gd, sdt, sdp = cg * dg, sg * dth, sg * dph
    q = (cg, sg * ct, sg * ny, sg * nz)
    dq = (
        -sg * dg,
        gd * ct - sdt * st,
        gd * ny + sdt * ct * cp - sdp * nz,
        gd * nz + sdt * ct * sp + sdp * ny,
    )
    return q, dq


def _quat_pair(a: AnglePair):
    q, _ = _unit_quat(a.gamma1, a.theta1, a.phi1, 0.0, 0.0, 0.0)
    p, _ = _unit_quat(a.gamma2, a.theta2, a.phi2, 0.0, 0.0, 0.0)
    return q, p


def spherical_to_quats(a: AnglePair) -> tuple[Quaternion, Quaternion]:
    """Map the six angles to the (left, right) unit quaternion pair."""
    q, p = _quat_pair(a)
    return Quaternion(*q), Quaternion(*p)


def ur_of_angles(a: AnglePair) -> np.ndarray:
    """Evolution operator U_r = M_L(q) M_R(p) (real 4x4 rotation matrix).

    Column k is the quaternion q e_k p for the basis e_k = 1, i, j, k;
    cayley_rotation(*spherical_to_quats(a)) builds the same matrix from
    the isoclinic factors and serves as its check.
    """
    q, p = _quat_pair(a)
    w, x, y, z = p
    # e_k p for e_k = 1, i, j, k: the columns of M_R(p)
    return np.array(
        hamilton(q, p)
        + hamilton(q, (-x, w, -z, y))
        + hamilton(q, (-y, z, w, -x))
        + hamilton(q, (-z, -y, x, w))
    ).reshape(4, 4).T


def final_state(a: AnglePair) -> np.ndarray:
    """U_r e_1 = q p: the real state reached from level 1."""
    return np.array(hamilton(*_quat_pair(a)))


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

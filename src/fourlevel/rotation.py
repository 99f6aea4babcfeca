"""Evolution operator and rotation generator from generalized spherical angles.

The six angles (gamma1, theta1, phi1, gamma2, theta2, phi2) parameterize the
two unit quaternions of a 4D rotation.  The rotation generator is read off
in the convention

    H_r = i * hbar * sum_{n<m} Omega_nm (|n><m| - |m><n|),

i.e. Omega_nm is the (n, m) entry (n < m) of the real antisymmetric matrix
dUr/dt * Ur^T.  U_r, its generator and the final state all come from the
quaternion pair (q, p) through one angle-to-quaternion map and the Hamilton
product: U_r = M_L(q) M_R(p), dUr/dt Ur^T = M_L(dq/dt conj(q)) +
M_R(conj(p) dp/dt) and U_r e_1 = q p; the public maps reject a NaN or
infinite angle or rate with a ValueError that names its field.  On a
cosine ramp the generator is r'(t) G for one constant G
(CosineRamp.generator, computed from final).  A ramp evaluated on a time
array gives an AnglePair of arrays, and the maps above then return one
result per time, on the leading axes.  AnglePair, CouplingSet and
CosineRamp (final, horizon) are immutable named tuples, cheap to build.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .quat4 import Quaternion, hamilton


#: Row and column of the couplings (1,2), (1,3), (1,4), (2,3), (2,4), (3,4).
_UPPER = np.triu_indices(4, 1)


def _stack_last(parts) -> np.ndarray:
    """np.stack(parts, axis=-1) for parts of one shape, at np.array's cost on floats."""
    a = np.array(parts)
    return a.transpose(*range(1, a.ndim), 0)


class AnglePair(NamedTuple):
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
        return _stack_last(self)

    @classmethod
    def from_array(cls, a) -> AnglePair:
        return cls(*np.asarray(a, dtype=float))


class CouplingSet(NamedTuple):
    """The six real couplings of the rotation Hamiltonian (hbar = 1), floats
    or arrays of one shape."""

    omega12: float
    omega13: float
    omega14: float
    omega23: float
    omega24: float
    omega34: float

    def as_array(self) -> np.ndarray:
        return _stack_last(self)

    def to_matrix(self) -> np.ndarray:
        """The antisymmetric matrix (..., 4, 4), one per sample."""
        o = self.as_array()
        m = np.zeros(o.shape[:-1] + (4, 4))
        m[..., _UPPER[0], _UPPER[1]] = o
        return m - np.swapaxes(m, -1, -2)


def _unit_quat(g, th, ph, dg=None, dth=None, dph=None):
    """Unit quaternion cos(g) + sin(g) n(th, ph), and given the angle rates
    (dg, dth, dph) the pair (quaternion, its time derivative).

    n = (cos th, sin th cos ph, sin th sin ph) is the pure unit axis.  The
    quaternions are (w, x, y, z) tuples of numpy floats or of broadcast
    arrays.  This is the one map from angles to quaternions, by numpy's cos
    and sin for every input type.  It checks nothing: NaN in, NaN out.
    """
    cg, sg = np.cos(g), np.sin(g)
    ct, st = np.cos(th), np.sin(th)
    cp, sp = np.cos(ph), np.sin(ph)
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


def _require_finite(values: NamedTuple, what: str) -> None:
    """Raise ValueError naming each field (a float or an array, tested on its
    own as shapes may differ) that is or holds NaN or +-inf."""
    bad = [name for name, v in zip(values._fields, values) if not np.isfinite(v).all()]
    if bad:
        raise ValueError(f"{what} not finite: {', '.join(bad)}")


def _quat_pair(a: AnglePair):
    _require_finite(a, "angles")
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


def _unchecked_state(a: AnglePair) -> np.ndarray:
    """final_state unchecked, for the N-type search's irregular candidates."""
    return _stack_last(hamilton(_unit_quat(*a[:3]), _unit_quat(*a[3:])))


def hr_analytic(a: AnglePair, adot: AnglePair) -> CouplingSet:
    """Couplings of the rotation generator dUr/dt Ur^T = M_L(l) + M_R(r).

    l = dq/dt conj(q) and r = conj(p) dp/dt are pure quaternions, and the
    upper triangle of M_L(l) + M_R(r) reads off from their components.
    """
    _require_finite(a, "angles")
    _require_finite(adot, "angle rates")
    (qw, qx, qy, qz), dq = _unit_quat(*a[:3], *adot[:3])
    (pw, px, py, pz), dp = _unit_quat(*a[3:], *adot[3:])
    return _read_off(
        hamilton(dq, (qw, -qx, -qy, -qz))[1:], hamilton((pw, -px, -py, -pz), dp)[1:]
    )


def _read_off(left, right) -> CouplingSet:
    """The couplings of M_L(l) + M_R(r), from the vectors l = left, r = right."""
    (lx, ly, lz), (rx, ry, rz) = left, right
    return CouplingSet(-(lx + rx), -(ly + ry), -(lz + rz), rz - lz, ly - ry, rx - lx)


def ramp_generator(final: AnglePair) -> CouplingSet:
    """The constant G of the generator r'(t) G of the cosine ramp to final.

    With theta, phi constant, q and p turn about fixed axes n1, n2:
    dq/dt conj(q) = gamma1(T) r'(t) n1, conj(p) dp/dt = gamma2(T) r'(t) n2.
    So G = gamma1(T) M_L(n1) + gamma2(T) M_R(n2), and U_r(t) = exp(r(t) G)
    as isoclinic factors commute.  G is read in floats from gamma_i(T) n_i,
    n = (cos theta, sin theta cos phi, sin theta sin phi): equal factors
    (tripod) and phi = 0 (diamond) give forbidden entries of exactly 0.
    """
    g1, th1, ph1, g2, th2, ph2 = final
    st1, st2 = math.sin(th1), math.sin(th2)
    return _read_off(
        (g1 * math.cos(th1), g1 * (st1 * math.cos(ph1)), g1 * (st1 * math.sin(ph1))),
        (g2 * math.cos(th2), g2 * (st2 * math.cos(ph2)), g2 * (st2 * math.sin(ph2))),
    )


def _check_horizon(horizon: float) -> None:
    """Reject a horizon T that is not finite and positive, or so near 0 or
    the float range that pi/T or pi*T overflows (a ramp's rate and phase, a
    phase schedule's detunings): the one test of T, where either is built."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon T must be finite and positive, got {horizon}")
    if not (math.isfinite(math.pi / horizon) and math.isfinite(math.pi * horizon)):
        raise ValueError(f"horizon T = {horizon} out of range: pi/T or pi*T overflows")


class CosineRamp(NamedTuple("_CosineRamp", [("final", AnglePair), ("horizon", float)])):
    """The pulse of every solver: gamma_i(t) = gamma_i(T) r(t) with
    r(t) = [1 - cos(pi t/T)] / 2, and theta, phi constant at their values
    in final; smooth switch-on/off (zero rate at both endpoints).

    value and rate take a time or an array of times and return an
    AnglePair of floats or arrays of t's shape.  Its generator is r'(t) G,
    G = ramp_generator(final), computed at each read; __new__ checks T.
    """

    __slots__ = ()

    def __new__(cls, final: AnglePair, horizon: float):
        _check_horizon(horizon)
        return tuple.__new__(cls, (final, horizon))

    @classmethod
    def _make(cls, fields):  # built by __new__, so _replace checks the horizon too
        return cls(*fields)

    @property
    def generator(self) -> CouplingSet:
        """The constant G of the generator r'(t) G."""
        return ramp_generator(self.final)

    @property
    def peak_rate(self) -> float:
        """The largest r'(t), pi/(2T), at t = T/2."""
        return 0.5 * math.pi / self.horizon

    def ramp_rate(self, t):
        """r'(t) = pi/(2T) sin(pi t/T)."""
        return self.peak_rate * np.sin(np.pi * t / self.horizon)

    def value(self, t) -> AnglePair:
        f = self.final
        ramp = 0.5 * (1.0 - np.cos(np.pi * t / self.horizon))
        one = 0.0 * ramp + 1.0  # 1 in t's shape, for the constant angles
        return AnglePair(
            f.gamma1 * ramp, f.theta1 * one, f.phi1 * one,
            f.gamma2 * ramp, f.theta2 * one, f.phi2 * one,
        )

    def rate(self, t) -> AnglePair:
        f = self.final
        dramp = self.ramp_rate(t)
        zero = 0.0 * dramp + 0.0  # +0 in t's shape
        return AnglePair(f.gamma1 * dramp, zero, zero, f.gamma2 * dramp, zero, zero)

    def couplings(self, t) -> CouplingSet:
        """The couplings r'(t) G of the generator at a time or a time array."""
        return CouplingSet(*np.multiply.outer(self.generator.as_array(), self.ramp_rate(t)))

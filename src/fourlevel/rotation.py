"""Evolution operator and rotation generator from generalized spherical angles.

The six angles (gamma1, theta1, phi1, gamma2, theta2, phi2) parameterize the
two unit quaternions of a 4D rotation.  The rotation generator is read off
in the convention

    H_r = i * hbar * sum_{n<m} Omega_nm (|n><m| - |m><n|),

i.e. Omega_nm is the (n, m) entry (n < m) of the real antisymmetric matrix
dUr/dt * Ur^T.  This module keeps the angle maps, and quat4 the algebra they
feed: U_r = M_L(q) M_R(p) is quat4's builder at the pair (q, p) of the one
angle-to-quaternion map, and dUr/dt Ur^T = M_L(dq/dt conj(q)) +
M_R(conj(p) dp/dt) and U_r e_1 = q p are Hamilton products; the public maps
reject a NaN or infinite angle or rate with a ValueError that names it.  A solved
pulse is a CosineRamp of the rotation vectors v_i = gamma_i(T) n_i, whose
generator r'(t) (M_L(v1) + M_R(v2)) is read off them with no trig and whose
angles are a view of them.  A ramp evaluated on a time array gives an
AnglePair of arrays, and the maps above then return one result per time, on
the leading axes.  AnglePair, CouplingSet and CosineRamp are immutable named
tuples, cheap to build; hot paths build one by tuple.__new__, not through the
named tuple's Python-level __new__, which checks nothing.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .quat4 import Quaternion, _require_finite, _sandwich, _stack_last, hamilton


#: Row and column of the couplings (1,2), (1,3), (1,4), (2,3), (2,4), (3,4).
_UPPER = np.triu_indices(4, 1)


class AnglePair(NamedTuple):
    """Generalized spherical angles of the two quaternion factors (radians).

    All real values are accepted.  The solvers' angles, the view
    CosineRamp.final, keep theta in [0, pi] and phi in [0, pi) and sign
    only gamma (theta2 = pi/4 for the diamond example).
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


def _quat_pair(a: AnglePair):
    _require_finite("angles", a._fields, a)
    return _unit_quat(a.gamma1, a.theta1, a.phi1), _unit_quat(a.gamma2, a.theta2, a.phi2)


def spherical_to_quats(a: AnglePair) -> tuple[Quaternion, Quaternion]:
    """Map the six angles to the (left, right) unit quaternion pair."""
    q, p = _quat_pair(a)
    return Quaternion(*q), Quaternion(*p)


def ur_of_angles(a: AnglePair) -> np.ndarray:
    """Evolution operator U_r = M_L(q) M_R(p) (real rotation, (..., 4, 4)).

    quat4's builder at the angles' pair (q, p): column k is q e_k p for
    e_k = 1, i, j, k.  cayley_rotation(*spherical_to_quats(a)) multiplies
    the isoclinic factors instead and serves as its check.
    """
    return _sandwich(*_quat_pair(a))


def final_state(a: AnglePair) -> np.ndarray:
    """U_r e_1 = q p: the real state reached from level 1, shape (..., 4)."""
    return _stack_last(hamilton(*_quat_pair(a)))


def hr_analytic(a: AnglePair, adot: AnglePair) -> CouplingSet:
    """Couplings of the rotation generator dUr/dt Ur^T = M_L(l) + M_R(r).

    l = dq/dt conj(q) and r = conj(p) dp/dt are pure quaternions, and the
    upper triangle of M_L(l) + M_R(r) reads off from their components.
    """
    _require_finite("angles", a._fields, a)
    _require_finite("angle rates", adot._fields, adot)
    (qw, qx, qy, qz), dq = _unit_quat(*a[:3], *adot[:3])
    (pw, px, py, pz), dp = _unit_quat(*a[3:], *adot[3:])
    return _read_off(
        hamilton(dq, (qw, -qx, -qy, -qz))[1:], hamilton((pw, -px, -py, -pz), dp)[1:]
    )


def _read_off(left, right) -> CouplingSet:
    """The couplings of M_L(l) + M_R(r), from the vectors l = left, r = right."""
    (lx, ly, lz), (rx, ry, rz) = left, right
    return tuple.__new__(CouplingSet, (-(lx + rx), -(ly + ry), -(lz + rz), rz - lz, ly - ry, rx - lx))


def rotation_vectors(a: AnglePair) -> tuple[tuple, tuple]:
    """The rotation vectors gamma_i n(theta_i, phi_i) of the two factors at
    the angles a (floats), n = (cos theta, sin theta cos phi, sin theta sin
    phi): the one map from angles to a CosineRamp's stored form."""
    _require_finite("angles", a._fields, a)
    g1, t1, p1, g2, t2, p2 = a
    s1, s2 = math.sin(t1), math.sin(t2)
    return (
        (g1 * math.cos(t1), g1 * (s1 * math.cos(p1)), g1 * (s1 * math.sin(p1))),
        (g2 * math.cos(t2), g2 * (s2 * math.cos(p2)), g2 * (s2 * math.sin(p2))),
    )


def _angles(v) -> tuple[float, float, float]:
    """(gamma, theta, phi) with gamma n(theta, phi) = v, theta in [0, pi],
    phi in [0, pi) and gamma = +-|v|; phi = 0 where v_y = v_z = 0, theta = 0
    where v = 0."""
    x, y, z = v
    s = 1.0 if z > 0.0 or (z == 0.0 and y >= 0.0) else -1.0
    rho = math.hypot(y, z)
    # + 0.0 turns a -0.0 into 0.0, so atan2 gives 0, not pi
    return s * math.hypot(x, y, z), math.atan2(rho, s * x + 0.0), math.atan2(abs(z), s * y + 0.0)


def _check_horizon(horizon: float) -> None:
    """Reject a horizon T that is not finite and positive, or so near 0 or
    the float range that pi/T or pi*T overflows (a ramp's rate and phase, a
    phase schedule's detunings): the one test of T, where either is built."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon T must be finite and positive, got {horizon}")
    if not (math.isfinite(math.pi / horizon) and math.isfinite(math.pi * horizon)):
        raise ValueError(f"horizon T = {horizon} out of range: pi/T or pi*T overflows")


def _largest_magnitude(t) -> float:
    """The entry of largest |t| of a time or time array t (0.0 if empty, NaN
    if t holds a NaN), from two ufunc reductions: no temporary the size of
    t.  An overflow test of a term monotone in |t| needs only this entry."""
    return float(max(np.minimum.reduce(t, None, initial=0.0), np.maximum.reduce(t, None, initial=0.0), key=abs))


class CosineRamp(NamedTuple("_CosineRamp", [("v1", tuple), ("v2", tuple), ("horizon", float)])):
    """The pulse of every solver: q(t) = exp(r(t) v1), p(t) = exp(r(t) v2),
    r(t) = [1 - cos(pi t/T)] / 2, for the rotation vectors v1, v2 (3-tuples
    of floats, checked finite by __new__, as is T); zero rate at both ends.
    The factors turn about fixed axes, so the generator is r'(t) G, G =
    M_L(v1) + M_R(v2), and U_r(t) = exp(r(t) G).  final is the AnglePair view
    of v1, v2; value and rate give that of gamma_i(T) r(t), theta, phi and of
    its rate, at a time or on an array of times, and reject (ValueError) a t
    at which pi t/T is not finite, as couplings does."""

    __slots__ = ()

    def __new__(cls, v1, v2, horizon: float):
        (x1, y1, z1), (x2, y2, z2) = v1, v2  # a ValueError unless three components each
        if not math.isfinite(x1 + y1 + z1 + x2 + y2 + z2):  # else every component is finite
            _require_finite("rotation vectors", ("v1", "v2"), (v1, v2))
        _check_horizon(horizon)
        return tuple.__new__(cls, ((x1, y1, z1), (x2, y2, z2), horizon))

    @classmethod
    def _make(cls, fields):  # built by __new__, so _replace checks the fields too
        return cls(*fields)

    @property
    def generator(self) -> CouplingSet:
        """The constant G of the generator r'(t) G."""
        return _read_off(self.v1, self.v2)

    @property
    def final(self) -> AnglePair:
        """The boundary angles, gamma_i(T) signed, theta in [0, pi], phi in [0, pi)."""
        return AnglePair(*_angles(self.v1), *_angles(self.v2))

    @property
    def peak_rate(self) -> float:
        """The largest r'(t), pi/(2T), at t = T/2."""
        return 0.5 * math.pi / self.horizon

    def _phase(self, t):
        """pi t/T; ValueError naming the t of largest |t| where it is not finite."""
        worst = _largest_magnitude(t)
        if not math.isfinite(math.pi * worst / self.horizon):
            raise ValueError(f"time t not finite, or pi t/T overflows there: {worst}")
        return np.pi * t / self.horizon

    def ramp_rate(self, t):
        """r'(t) = pi/(2T) sin(pi t/T)."""
        return self.peak_rate * np.sin(self._phase(t))

    def value(self, t) -> AnglePair:
        f = self.final
        ramp = 0.5 * (1.0 - np.cos(self._phase(t)))
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
        """The couplings r'(t) G of the generator at a time or a time array;
        one that overflows is +-inf, which H(t) rejects by name."""
        with np.errstate(over="ignore"):
            return CouplingSet(*np.multiply.outer(self.generator.as_array(), self.ramp_rate(t)))

"""Quaternion algebra and 4D rotations via isoclinic factors.

A 4D rotation is represented as C -> q C p with unit quaternions q, p, or
equivalently as the commuting product of a left- and a right-isoclinic
matrix acting on the column vector (w, x, y, z)^T.  This module owns the
quaternion algebra: the Hamilton product, the rotation-vector exp and log,
and the one builder of the matrix of C -> q C p that gives U_r
(rotation.ur_of_angles), M_L(q) and M_R(p), checked by their product
cayley_rotation; and the two invariant rotation planes and angles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

UNIT_NORM_ATOL = 1e-6
ROTATION_ATOL = 1e-10
ANGLE_ATOL = 1e-9


class RotationKind(enum.Enum):
    DOUBLE = "double"
    SIMPLE = "simple"
    LEFT_ISOCLINIC = "left_isoclinic"
    RIGHT_ISOCLINIC = "right_isoclinic"
    IDENTITY = "identity"


def _require_finite(what: str, names, values) -> None:
    """Raise ValueError naming each of values (a float, array or tuple, each
    tested on its own as shapes may differ) that is or holds NaN or +-inf.
    The fields are tested only when math.fsum of them, through which NaN and
    +-inf carry, is not finite or raises (inf - inf, an overflow, an array or
    a tuple)."""
    try:
        if math.isfinite(math.fsum(values)):
            return
    except (TypeError, ValueError, OverflowError):
        pass
    bad = [name for name, v in zip(names, values) if not np.isfinite(v).all()]
    if bad:
        raise ValueError(f"{what} not finite: {', '.join(bad)}")


def _stack_last(parts) -> np.ndarray:
    """np.stack(parts, axis=-1) for parts of one shape, at np.array's cost on floats."""
    a = np.array(parts)
    return a.transpose(*range(1, a.ndim), 0)


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion w + x*i + y*j + z*k; rejects a non-finite component, float or array."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite("quaternion components", "wxyz", (self.w, self.x, self.y, self.z))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = np.asarray(a, dtype=float)
        return cls(w, x, y, z)

    @classmethod
    def unit(cls, w: float, x: float, y: float, z: float) -> "Quaternion":
        """Construct a unit quaternion, normalizing away rounding error.

        Inputs farther than UNIT_NORM_ATOL from unit norm, or with a
        non-finite component, are rejected so that genuine bugs are not
        silently absorbed.
        """
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if not abs(n - 1.0) <= UNIT_NORM_ATOL:
            raise ValueError(f"quaternion ({w}, {x}, {y}, {z}) has norm {n}, not within {UNIT_NORM_ATOL} of 1")
        return cls(w / n, x / n, y / n, z / n)

    @property
    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def is_pure_unit(self, atol: float = 1e-12) -> bool:
        return abs(self.w) <= atol and abs(self.norm - 1.0) <= atol

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


def hamilton(a: tuple, b: tuple) -> tuple:
    """Hamilton product of (w, x, y, z) float tuples, i^2 = j^2 = k^2 = ijk = -1.

    Plain floats keep the per-call cost low on the library's hot paths;
    quat_mul is the same product on Quaternion values.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product, i^2 = j^2 = k^2 = ijk = -1."""
    return Quaternion(*hamilton((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z)))


def _exp(v) -> tuple:
    """exp(v) = cos|v| + sin|v| v/|v|, (w, x, y, z), of the rotation vector
    v = (x, y, z) of arrays, or of floats on math's functions, with the same
    bits; (1, 0, 0, 0) at v = 0.  Unchecked."""
    x, y, z = v
    xp = math if isinstance(x, float) else np
    g = xp.sqrt(x * x + y * y + z * z)
    s = xp.sin(g) / (g + (g == 0.0))  # v = 0 at g = 0
    return xp.cos(g), s * x, s * y, s * z


def _log(w: float, x: float, y: float, z: float) -> tuple[float, float, float]:
    """The rotation vector of the unit quaternion (w, x, y, z): angle
    atan2(|u|, w) in [0, pi] along u = (x, y, z), along i where u = 0 (pi i
    for -1)."""
    h = math.hypot(x, y, z)
    if h == 0.0:
        return math.atan2(0.0, w), 0.0, 0.0
    a = math.atan2(h, w)
    if h < 1e-300:  # a subnormal h leaves x / h few bits: scale by 2**600 first, exactly
        x, y, z = x * 2.0**600, y * 2.0**600, z * 2.0**600
        h = math.hypot(x, y, z)
    return a * (x / h), a * (y / h), a * (z / h)


def quat_exp(u: Quaternion, gamma: float) -> Quaternion:
    """exp(u*gamma) = cos(gamma) + u*sin(gamma) for a pure unit quaternion u."""
    if not u.is_pure_unit(atol=1e-9):
        raise ValueError(f"u = {u} must be a pure unit quaternion")
    if not math.isfinite(gamma):
        raise ValueError(f"angle gamma = {gamma} is not finite")
    c, s = math.cos(gamma), math.sin(gamma)
    return Quaternion(c, s * u.x, s * u.y, s * u.z)


def _sandwich(q: tuple, p: tuple) -> np.ndarray:
    """The matrix (..., 4, 4) of C -> q C p for (w, x, y, z) tuples of floats
    or arrays, column k = q e_k p (e_k = 1, i, j, k): M_L(q) at p = 1, M_R(p)
    at q = 1, and with both U_r = M_L(q) M_R(p)."""
    w, x, y, z = p
    # e_k p for e_k = 1, i, j, k: the columns of M_R(p)
    u = _stack_last(
        hamilton(q, p)
        + hamilton(q, (-x, w, -z, y))
        + hamilton(q, (-y, z, w, -x))
        + hamilton(q, (-z, -y, x, w))
    )  # u[..., 4 k + i] = (q e_k p)_i
    return np.swapaxes(u.reshape(u.shape[:-1] + (4, 4)), -1, -2)


def left_isoclinic(q: Quaternion) -> np.ndarray:
    """Matrix of left multiplication by the unit quaternion q."""
    q = Quaternion.unit(q.w, q.x, q.y, q.z)
    return _sandwich((q.w, q.x, q.y, q.z), (1.0, 0.0, 0.0, 0.0))


def right_isoclinic(p: Quaternion) -> np.ndarray:
    """Matrix of right multiplication by the unit quaternion p."""
    p = Quaternion.unit(p.w, p.x, p.y, p.z)
    return _sandwich((1.0, 0.0, 0.0, 0.0), (p.w, p.x, p.y, p.z))


def cayley_rotation(q: Quaternion, p: Quaternion) -> np.ndarray:
    """General 4D rotation R = M_L(q) M_R(p), acting as C -> q C p."""
    return left_isoclinic(q) @ right_isoclinic(p)


def is_rotation_matrix(m: np.ndarray, atol: float = ROTATION_ATOL) -> bool:
    m = np.asarray(m)
    if m.shape != (4, 4):
        return False
    ortho = np.max(np.abs(m.T @ m - np.eye(4)))
    return ortho <= atol and abs(np.linalg.det(m) - 1.0) <= atol


@dataclass(frozen=True)
class RotationDecomposition:
    """Invariant planes and angles of a 4D rotation.

    plane1 rotates through angle1 = |gamma1 + gamma2| and plane2 through
    angle2 = |gamma1 - gamma2| (both folded into [0, pi]), where q and p
    are written as exp(u*gamma1), exp(v*gamma2).
    """

    plane1: np.ndarray  # (2, 4) orthonormal rows
    plane2: np.ndarray
    angle1: float
    angle2: float
    kind: RotationKind


def _axis_angle(q: Quaternion):
    """Split a unit quaternion into (pure unit axis, angle in [0, pi])."""
    h = math.hypot(q.x, math.hypot(q.y, q.z))
    gamma = math.atan2(h, q.w)
    if math.sin(gamma) < 1e-15:
        return None, gamma
    # h, not sin(gamma): near gamma = pi, sin(gamma) carries pi's rounding of ~1e-16.
    return Quaternion(0.0, q.x / h, q.y / h, q.z / h), gamma


def _fold_angle(a: float) -> float:
    """Fold an angle into [0, pi] (rotation angle of a plane, orientation-free)."""
    a = abs(a) % (2.0 * math.pi)
    return 2.0 * math.pi - a if a > math.pi else a


def decompose_rotation(q: Quaternion, p: Quaternion) -> RotationDecomposition:
    """Invariant-plane/angle decomposition of the rotation C -> q C p.

    With q = exp(u*g1) and p = exp(v*g2), S: C -> u C v is a symmetric
    involution that commutes with the rotation (q commutes with u, p with v).
    Where u C v = -C, u C = C v and q C p = cos(g1 + g2) C + sin(g1 + g2) C v;
    where u C v = C, q C p = cos(g1 - g2) C - sin(g1 - g2) C v.  So one eigh
    of S gives plane1 (eigenvalue -1) and plane2 (+1).  A factor +-1 has no
    axis and takes the other's; i stands in when neither has one.

    Both factor angles are taken in [0, pi], which resolves the (q, p) vs
    (-q, -p) ambiguity deterministically.
    """
    q = Quaternion.unit(q.w, q.x, q.y, q.z)
    p = Quaternion.unit(p.w, p.x, p.y, p.z)
    u, g1 = _axis_angle(q)
    v, g2 = _axis_angle(p)

    a1 = _fold_angle(g1 + g2)
    a2 = _fold_angle(g1 - g2)

    u = u or v or Quaternion(0.0, 1.0, 0.0, 0.0)
    v = v or u
    # eigh sorts the eigenvalues ascending: -1, -1, +1, +1.
    _, basis = np.linalg.eigh(left_isoclinic(u) @ right_isoclinic(v))
    plane1, plane2 = basis[:, :2].T, basis[:, 2:].T

    q_trivial = abs(math.sin(g1)) < ANGLE_ATOL
    p_trivial = abs(math.sin(g2)) < ANGLE_ATOL
    if q_trivial and p_trivial:
        kind = RotationKind.IDENTITY
    elif p_trivial:
        kind = RotationKind.LEFT_ISOCLINIC
    elif q_trivial:
        kind = RotationKind.RIGHT_ISOCLINIC
    elif a1 < ANGLE_ATOL or a2 < ANGLE_ATOL:
        kind = RotationKind.SIMPLE
    else:
        kind = RotationKind.DOUBLE
    return RotationDecomposition(plane1, plane2, a1, a2, kind)

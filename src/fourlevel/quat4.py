"""Quaternion algebra and 4D rotations via isoclinic factors.

A 4D rotation is represented as C -> q C p with unit quaternions q, p, or
equivalently as the commuting product of a left- and a right-isoclinic
matrix acting on the column vector (w, x, y, z)^T.  This module provides
the quaternion algebra, the isoclinic matrices, their composition into a
general rotation, and the extraction of the two invariant rotation planes
and angles.
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


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion w + x*i + y*j + z*k."""

    w: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = np.asarray(a, dtype=float)
        return cls(w, x, y, z)

    @classmethod
    def unit(cls, w: float, x: float, y: float, z: float) -> "Quaternion":
        """Construct a unit quaternion, normalizing away rounding error.

        Inputs farther than UNIT_NORM_ATOL from unit norm are rejected so
        that genuine bugs are not silently absorbed.
        """
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if abs(n - 1.0) > UNIT_NORM_ATOL:
            raise ValueError(f"quaternion norm {n} is not within {UNIT_NORM_ATOL} of 1")
        return cls(w / n, x / n, y / n, z / n)

    @property
    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def is_unit(self, atol: float = 1e-12) -> bool:
        return abs(self.norm - 1.0) <= atol

    def is_pure_unit(self, atol: float = 1e-12) -> bool:
        return abs(self.w) <= atol and abs(self.norm - 1.0) <= atol

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return quat_mul(self, other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


IDENTITY_QUAT = Quaternion(1.0, 0.0, 0.0, 0.0)


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


def quat_exp(u: Quaternion, gamma: float) -> Quaternion:
    """exp(u*gamma) = cos(gamma) + u*sin(gamma) for a pure unit quaternion u."""
    if not u.is_pure_unit(atol=1e-9):
        raise ValueError("u must be a pure unit quaternion")
    c, s = math.cos(gamma), math.sin(gamma)
    return Quaternion(c, s * u.x, s * u.y, s * u.z)


def left_isoclinic(q: Quaternion) -> np.ndarray:
    """Matrix of left multiplication by the unit quaternion q."""
    q = Quaternion.unit(q.w, q.x, q.y, q.z)
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def right_isoclinic(p: Quaternion) -> np.ndarray:
    """Matrix of right multiplication by the unit quaternion p."""
    p = Quaternion.unit(p.w, p.x, p.y, p.z)
    w, x, y, z = p.w, p.x, p.y, p.z
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ]
    )


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
    gamma = math.atan2(math.hypot(q.x, math.hypot(q.y, q.z)), q.w)
    s = math.sin(gamma)
    if s < 1e-15:
        return None, gamma
    return Quaternion(0.0, q.x / s, q.y / s, q.z / s), gamma


def _fold_angle(a: float) -> float:
    """Fold an angle into [0, pi] (rotation angle of a plane, orientation-free)."""
    a = abs(a) % (2.0 * math.pi)
    return 2.0 * math.pi - a if a > math.pi else a


def _orthonormal_plane(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    basis, _ = np.linalg.qr(np.column_stack([v1, v2]))
    return basis.T


def _complete_plane(plane: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of a 2-plane in R^4."""
    _, _, vt = np.linalg.svd(plane)
    return vt[2:]


def decompose_rotation(q: Quaternion, p: Quaternion) -> RotationDecomposition:
    """Invariant-plane/angle decomposition of the rotation C -> q C p.

    Sign canonicalization: both factor angles are taken in [0, pi], which
    resolves the (q, p) vs (-q, -p) ambiguity deterministically.
    """
    q = Quaternion.unit(q.w, q.x, q.y, q.z)
    p = Quaternion.unit(p.w, p.x, p.y, p.z)
    u, g1 = _axis_angle(q)
    v, g2 = _axis_angle(p)

    a1 = _fold_angle(g1 + g2)
    a2 = _fold_angle(g1 - g2)

    if u is None and v is None:
        return RotationDecomposition(
            plane1=np.eye(4)[:2],
            plane2=np.eye(4)[2:],
            angle1=a1,
            angle2=a2,
            kind=RotationKind.IDENTITY,
        )

    one = IDENTITY_QUAT.as_array()
    anti_aligned = (
        u is not None
        and v is not None
        and np.allclose(u.as_array(), (-v).as_array(), atol=1e-12)
    )
    if u is None or v is None or anti_aligned \
            or np.allclose(u.as_array(), v.as_array(), atol=1e-12):
        # Coincident (or undefined) axes: planes are span{1, u} and its complement.
        axis = u if u is not None else v
        span1u = _orthonormal_plane(one, axis.as_array())
        if anti_aligned:
            # For v = -u the identity element rotates through gamma1 - gamma2,
            # so span{1, u} is the plane carrying angle2.
            plane1, plane2 = _complete_plane(span1u), span1u
        else:
            plane1, plane2 = span1u, _complete_plane(span1u)
    else:
        uv = quat_mul(u, v).as_array()
        plane1 = _orthonormal_plane(u.as_array() + v.as_array(), uv - one)
        plane2 = _orthonormal_plane(v.as_array() - u.as_array(), uv + one)

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

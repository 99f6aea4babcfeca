"""Boundary-value solvers for the three four-level coupling topologies.

Each solver takes a normalized real target amplitude vector b (the system
starts in level 1), imposes the constraint set that cancels the couplings
forbidden by the topology, and returns the boundary angles together with a
smooth cosine-ramp schedule reaching them.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .quat4 import hamilton
from .rotation import (
    AnglePair,
    AngleSchedule,
    _unit_quat,
    cosine_ramp_schedule,
    final_state,
    hr_analytic,
)

#: N-type Levenberg-Marquardt iteration cap and initial damping, and the least
#: |sin(theta1)| of a root.
_NTYPE_MAX_ITER = 40
_NTYPE_DAMPING = 1e-2
_NTYPE_MIN_SIN = 1e-6
#: N-type loop search: lock samples, 16-part bracket cuts, and the turns k, m
#: added to gamma1(T), gamma2(T) in units of 2 pi (every root of pulse area
#: at most 3 pi has k, m in -1..1).
_NTYPE_LOOP_POINTS = 128
_NTYPE_REFINE_STEPS = 11
_NTYPE_TURNS = np.array([-1.0, 0.0, 1.0])


class LevelConfig(enum.Enum):
    INVERSE_TRIPOD = "tripod"
    DIAMOND = "diamond"
    N_TYPE = "ntype"


#: CouplingSet field names that must vanish identically for each topology.
FORBIDDEN = {
    LevelConfig.INVERSE_TRIPOD: ("omega23", "omega24", "omega34"),
    LevelConfig.DIAMOND: ("omega14", "omega23"),
    LevelConfig.N_TYPE: ("omega13", "omega14", "omega24"),
}


class SolverError(Exception):
    pass


class SingularParameterizationError(SolverError):
    """The free parameter choice makes the closed-form solution singular."""


class DegenerateBranchError(SolverError):
    """A degenerate sub-case was hit and no documented branch applies."""


class NoSolutionFoundError(SolverError):
    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


#: Names a TargetSpec's free_params may set: theta1 is the diamond's free
#: angle (default pi/2); the other topologies have no free parameter.
FREE_PARAMS = frozenset({"theta1"})


@dataclass(frozen=True)
class TargetSpec:
    """Target final amplitudes b1..b4 (real, normalized), and free
    parameters by name (FREE_PARAMS), each a finite real number."""

    b: np.ndarray
    free_params: dict = field(default_factory=dict)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (4,):
            raise ValueError("target must have four components")
        if not np.all(np.isfinite(b)):
            raise ValueError("target components must be finite")
        if abs(b @ b - 1.0) > 1e-10:
            raise ValueError(f"target norm^2 = {b @ b} is not 1 within 1e-10")
        object.__setattr__(self, "b", b)
        if not isinstance(self.free_params, Mapping):
            raise ValueError("free_params must map names to numbers")
        unknown = set(self.free_params) - FREE_PARAMS
        if unknown:
            raise ValueError(
                f"unknown free_params keys: {sorted(map(str, unknown))}"
                f" (allowed: {sorted(FREE_PARAMS)})"
            )
        for name, value in self.free_params.items():
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            try:
                finite = real and math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"free_params.{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SolvedAngles:
    config: LevelConfig
    schedule: AngleSchedule
    boundary: AnglePair
    constraint_residual: float
    within_canonical_ranges: bool


def _within_canonical_ranges(a: AnglePair) -> bool:
    """Whether the boundary angles fall in gamma, theta in [0, pi],
    phi in [0, 2*pi]."""
    return (
        0.0 <= a.gamma1 <= math.pi
        and 0.0 <= a.gamma2 <= math.pi
        and 0.0 <= a.theta1 <= math.pi
        and 0.0 <= a.theta2 <= math.pi
        and 0.0 <= a.phi1 <= 2.0 * math.pi
        and 0.0 <= a.phi2 <= 2.0 * math.pi
    )


#: max sin(pi u) over the unit grid u = linspace(1e-6, 1 - 1e-6, samples), by samples
_RAMP_PEAK: dict[int, float] = {}


def _forbidden_residual(
    config: LevelConfig, boundary: AnglePair, horizon: float, samples: int = 50
) -> float:
    """Max forbidden-coupling magnitude of the cosine-ramp generator on a
    grid of `samples` times inside (0, T).

    The ramp keeps theta and phi constant, so q(t) = exp(gamma1(T) r(t) n1)
    about a fixed axis n1 and dq/dt conj(q) = gamma1(T) r'(t) n1; likewise
    conj(p) dp/dt = gamma2(T) r'(t) n2, with r(t) = (1 - cos(pi t/T))/2.  The
    generator is therefore r'(t) G with one constant matrix
    G = gamma1(T) M_L(n1) + gamma2(T) M_R(n2), and as left- and
    right-isoclinic matrices commute (Cayley's factorization),
    U_r(t) = exp(r(t) G).  G is read by one hr_analytic call at the boundary
    angles with rates (gamma1(T), 0, 0, gamma2(T), 0, 0), and the grid enters
    only through the peak of r'(t) = pi/(2T) sin(pi t/T) on it.
    """
    peak = _RAMP_PEAK.get(samples)
    if peak is None:
        unit = np.linspace(1e-6, 1.0 - 1e-6, samples)
        peak = _RAMP_PEAK[samples] = float(np.max(np.sin(np.pi * unit)))
    rates = AnglePair(boundary.gamma1, 0.0, 0.0, boundary.gamma2, 0.0, 0.0)
    g = hr_analytic(boundary, rates)
    worst = max(abs(getattr(g, n)) for n in FORBIDDEN[config])
    return float(worst * (0.5 * math.pi / horizon * peak))


def _check_horizon(horizon: float) -> None:
    """Reject a horizon T that is not finite and positive, or so near 0 or
    the float range that pi/T or pi*T overflows (the ramp's rate and phase)."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not (math.isfinite(math.pi / horizon) and math.isfinite(math.pi * horizon)):
        raise ValueError(f"horizon {horizon} out of range: pi/T or pi*T overflows")


def _finish(
    config: LevelConfig, boundary: AnglePair, horizon: float
) -> SolvedAngles:
    return SolvedAngles(
        config=config,
        schedule=cosine_ramp_schedule(boundary, horizon),
        boundary=boundary,
        constraint_residual=_forbidden_residual(config, boundary, horizon),
        within_canonical_ranges=_within_canonical_ranges(boundary),
    )


def solve_tripod(target: TargetSpec, horizon: float = 1.0) -> SolvedAngles:
    """Closed-form boundary angles for the inverse-tripod topology.

    Both quaternion factors share the same angles (gamma, theta, phi), so
    b1 = cos(2 gamma(T)), b2 = sin(2 gamma(T)) cos(theta), etc.  Degenerate
    targets resolve the undetermined angles to zero.
    """
    _check_horizon(horizon)
    b1, b2, b3, b4 = target.b.tolist()
    B = math.sqrt(b2 * b2 + b3 * b3 + b4 * b4)
    gamma_T = 0.5 * math.atan2(B, b1)
    if B < 1e-15:
        theta = phi = 0.0  # target is +-|1>; theta, phi undetermined
    else:
        r34 = math.hypot(b3, b4)
        theta = math.atan2(r34, b2)
        phi = 0.0 if r34 < 1e-15 else math.atan2(b4, b3)
    boundary = AnglePair(gamma_T, theta, phi, gamma_T, theta, phi)
    return _finish(LevelConfig.INVERSE_TRIPOD, boundary, horizon)


def solve_diamond(target: TargetSpec, horizon: float = 1.0) -> SolvedAngles:
    """Boundary angles for the diamond topology, with theta1 free.

    The constraint set is phi1 = phi2 = 0 with constant theta1, theta2.
    The remaining angles follow from the closed-form solution in terms of
    the target coefficients; the square-root branch of sin(gamma2(T)) is
    chosen by checking the reconstruction residual.
    """
    _check_horizon(horizon)
    theta1 = float(target.free_params.get("theta1", math.pi / 2))
    b = target.b.tolist()
    b1, b2, b3, b4 = b

    if math.hypot(b1 - 1.0, b2, b3, b4) < 1e-12:
        # Identity target: the closed form is 0/0 here.
        boundary = AnglePair(0.0, theta1, 0.0, 0.0, 0.0, 0.0)
        return _finish(LevelConfig.DIAMOND, boundary, horizon)

    E, G = math.cos(theta1), math.sin(theta1)
    S = (b3 * b3 + b4 * b4) * E * E - 2 * b2 * b3 * E * G + (b2 * b2 + b4 * b4) * G * G
    if abs(S) < 1e-12:
        raise SingularParameterizationError(
            f"theta1 = {theta1} makes the parameterization singular for this target"
        )
    r = math.sqrt(b4 * b4 + (b3 * E - b2 * G) ** 2)
    A = (b3 * E - b2 * G) / r
    C = b4 / r
    numB = (b1 * b3 + b2 * b4) * E + (b3 * b4 - b1 * b2) * G
    B = numB * r / S
    D2 = 1.0 - B * B
    if D2 < -1e-10:
        raise DegenerateBranchError(
            f"no consistent sin(gamma2): 1 - B^2 = {D2:.3e} < 0"
        )
    D = math.sqrt(max(D2, 0.0))
    gamma1 = math.atan2(C, A)

    candidates = []
    if D < 1e-9:
        # sin(gamma2) = 0: theta2 drops out; pick 0 by convention.
        candidates.append(AnglePair(gamma1, theta1, 0.0, math.atan2(0.0, B), 0.0, 0.0))
    else:
        for d in (D, -D):
            F = -((b4 * b1 - b2 * b3) * E + (b2 * b2 + b4 * b4) * G) * r / (S * d)
            H = ((b3 * b3 + b4 * b4) * E - (b2 * b3 + b1 * b4) * G) * r / (S * d)
            candidates.append(
                AnglePair(gamma1, theta1, 0.0, math.atan2(d, B), math.atan2(H, F), 0.0)
            )

    best, best_res = None, math.inf
    for cand in candidates:
        res = math.dist(final_state(cand).tolist(), b)
        if res < best_res:
            best, best_res = cand, res
    if best_res > 1e-9:
        raise DegenerateBranchError(
            f"no branch reconstructs the target (best residual {best_res:.3e})"
        )
    return _finish(LevelConfig.DIAMOND, best, horizon)


def _ntype_residual(x: np.ndarray, b: np.ndarray):
    """q p - b (n, 4) at x = (theta1, theta2, gamma2(T)) (n, 3), gamma1 set by the
    lock, and its exact Jacobian d(q p)/dx = (dq) p + q (dp) (n, 4, 3)."""
    th1, th2, g2 = x[:, 0:1], x[:, 1:2], x[:, 2:3]
    s1, s2 = np.sin(th1), np.sin(th2)
    g1 = -s2 / s1 * g2
    dg1 = np.concatenate((-g1 * np.cos(th1) / s1, -np.cos(th2) / s1 * g2, -s2 / s1), axis=1)
    q, dq = _unit_quat(g1, th1, math.pi / 2, dg1, np.eye(3)[0], 0.0)
    p, dp = _unit_quat(g2, th2, math.pi / 2, np.eye(3)[2], np.eye(3)[1], 0.0)
    # columns q p, (dq) p and q (dp), all from one product
    left = [np.concatenate((u, du, u, u, u), axis=1) for u, du in zip(q, dq)]
    right = [np.concatenate((v, v, v, v, dv), axis=1) for v, dv in zip(p, dp)]
    prod = np.stack(hamilton(left, right), axis=1)
    return prod[:, :, 0] - b, prod[:, :, 1:4] + prod[:, :, 4:]


def _ntype_lm(x: np.ndarray, b: np.ndarray, residual_tol: float):
    """Levenberg-Marquardt on every start of x (n, 3) at once.

    A step is taken if it lowers the residual and is regular: finite, with
    |sin(theta1)| >= _NTYPE_MIN_SIN (nearer 0, one rounding of theta1 moves
    the lock's gamma1 beyond the tolerance).  A start leaves at an irregular
    step or once converged (residual <= residual_tol, no further decrease).
    Returns the end points, theta in [0, 2 pi), and residuals, inf if never
    regular."""
    x, x_new, i = x.copy(), x.copy(), np.arange(len(x))
    f, jac = np.zeros((len(x), 4)), np.zeros((len(x), 4, 3))
    res, damping = np.full(len(x), np.inf), np.full(len(x), _NTYPE_DAMPING)
    for _ in range(_NTYPE_MAX_ITER + 1):
        x_new[:, :2] %= 2 * math.pi
        f_new, jac_new = _ntype_residual(x_new, b)
        res_new = np.linalg.norm(f_new, axis=1)
        regular = np.isfinite(res_new) & np.all(np.isfinite(jac_new), axis=(1, 2))
        regular &= np.abs(np.sin(x_new[:, 0])) >= _NTYPE_MIN_SIN
        ok = regular & (res_new < res[i])
        x[i[ok]], f[i[ok]], jac[i[ok]] = x_new[ok], f_new[ok], jac_new[ok]
        res[i[ok]] = res_new[ok]
        damping[i] = np.where(ok, damping[i] / 10.0, damping[i] * 10.0)
        i = i[regular & (ok | (res[i] > residual_tol))]
        if i.size == 0:
            break
        # damped step -V diag(s / (s^2 + damping)) U^T f from J = U diag(s) V^T,
        # finite for every finite J, rank-deficient or not
        u, sv, vt = np.linalg.svd(jac[i], full_matrices=False)
        uf = np.einsum("nki,nk->ni", u, f[i]) * sv / (sv * sv + damping[i, None])
        x_new = x[i] - np.einsum("nij,ni->nj", vt, uf)
    return x, res


def _ntype_loop(psi, b):
    """(gamma1, theta1, gamma2, theta2) at psi on the loop of states with q p = b.

    With c_i = cos(gamma_i), s_i = sin(gamma_i) and Delta = theta1 - theta2,
    q p = (c1 c2 - s1 s2 cos Delta, c1 s2 cos theta2 + c2 s1 cos theta1,
    s1 s2 sin Delta, c1 s2 sin theta2 + c2 s1 sin theta1).  For b of unit
    norm and gamma2 in (0, pi) that gives c1 = b1 c2 +- root, root =
    sqrt(s2^2 (b2^2 + b4^2) - c2^2 b3^2), gamma1 in [0, pi], and from
    b2 + i b4 = e^(i theta2) (c1 s2 + c2 s1 e^(i Delta)), with w = atan2(b4, b2),
    theta2 = w - atan2(c2 b3, c1 - b1 c2) and theta1 = w + atan2(c1 b3,
    c2 - b1 c1); c2 - b1 c1 = c2 (1 - b1^2) - b1 root keeps its accuracy
    near b = +-e1.  Real roots need gamma2 in [pi/2 - h, pi/2 + h],
    h = atan2(hypot(b2, b4), |b3|).  The loop runs gamma2 = pi/2 - h cos(psi)
    with the sign of root that of sin(psi), so that the two branches join
    smoothly at the folds root = 0 (psi = 0, pi).  root is the product form
    |(b2, b3, b4)| sqrt(sin(h - u) sin(h + u)), u = h cos(psi), with
    h - u = 2 h sin^2(psi/2) and h + u = 2 h cos^2(psi/2): it keeps its
    relative accuracy at the folds.
    """
    b1, b2, b3, b4 = b
    r = math.hypot(b2, b4)
    h = math.atan2(r, abs(b3))
    u = h * np.cos(psi)
    c2, s2 = np.sin(u), np.cos(u)
    root = np.sqrt(np.sin(2 * h * np.sin(psi / 2) ** 2) * np.sin(2 * h * np.cos(psi / 2) ** 2))
    root = np.copysign(math.hypot(r, b3) * root, np.sin(psi))
    c1 = b1 * c2 + root
    s1 = np.hypot(c2 * root - b1 * s2 * s2, b3) / s2  # s1 s2 = |(c1 c2 - b1, b3)|
    w = math.atan2(b4, b2)
    theta1 = w + np.arctan2(c1 * b3, c2 * (r * r + b3 * b3) - b1 * root)
    theta2 = w - np.arctan2(c2 * b3, root)
    return np.arctan2(s1, c1), theta1, math.pi / 2 - u, theta2


def _ntype_lock(psi, b, k, m):
    """The lock gamma1 sin(theta1) + gamma2 sin(theta2) on the loop, with
    gamma1 = gamma1(psi) + 2 pi k and gamma2 = gamma2(psi) + 2 pi m."""
    g1, theta1, g2, theta2 = _ntype_loop(psi, b)
    return (g1 + 2 * math.pi * k) * np.sin(theta1) + (g2 + 2 * math.pi * m) * np.sin(theta2)


def _ntype_loop_roots(b) -> np.ndarray:
    """(theta1, theta2, gamma2(T)) (n, 3) at every sign change of the lock
    along the loop, for every turn pair (k, m), refined all at once.

    The lock is sampled at _NTYPE_LOOP_POINTS points; each bracket is then cut
    into 16 parts _NTYPE_REFINE_STEPS times, keeping the part where the sign
    first changes.  Candidates come out in the order k, m, psi.
    """
    step = 2 * math.pi / _NTYPE_LOOP_POINTS
    psi = (np.arange(_NTYPE_LOOP_POINTS + 1) + 0.5) * step  # closed: last = first + 2 pi
    f = _ntype_lock(psi, b, _NTYPE_TURNS[:, None, None], _NTYPE_TURNS[:, None])
    pos, finite = f > 0, np.isfinite(f)
    ki, mi, j = np.nonzero(
        (pos[..., :-1] != pos[..., 1:]) & finite[..., :-1] & finite[..., 1:]
    )
    k, m, sign = _NTYPE_TURNS[ki, None], _NTYPE_TURNS[mi, None], pos[ki, mi, j, None]
    left, cut = psi[j], np.arange(1, 16) / 16
    for _ in range(_NTYPE_REFINE_STEPS):
        flip = (_ntype_lock(left[:, None] + step * cut, b, k, m) > 0) != sign
        flip = np.concatenate((flip, np.ones_like(sign)), axis=1)  # the right end
        left = left + step / 16 * np.argmax(flip, axis=1)
        step /= 16
    _, theta1, g2, theta2 = _ntype_loop(left + step / 2, b)
    return np.stack((theta1, theta2, g2 + 2 * math.pi * m[:, 0]), axis=1)


def _ntype_axis_roots(b) -> np.ndarray:
    """(theta1, theta2, gamma2(T)) (n, 3) of the root families the loop
    cannot reach, where the lock rather than b sets one angle.

    One factor is +-1, gamma_i(T) = j pi: the other is (-1)^j b, which
    needs b3 = 0, and the lock sets theta_i, sin(theta_i) =
    -gamma_o sin(theta_o) / (j pi) (theta_i = pi/2 if j = 0).  Both
    gamma_i(T) odd multiples of pi/2: q p = b needs b2 = b4 = 0, and the
    lock sets theta2.  Each candidate ignores the components it needs to
    vanish; the residual check decides.
    """
    b1, b2, b3, b4 = b
    j = np.arange(-2.0, 3.0)[:, None]
    sign = 1.0 - 2.0 * (j % 2)
    g = np.arctan2(math.hypot(b2, b4), sign * b1) + 2 * math.pi * _NTYPE_TURNS
    theta = np.arctan2(sign * b4, sign * b2)
    free = np.where(j == 0, math.pi / 2, np.arcsin(-g * np.sin(theta) / (math.pi * j)))
    unit_q = np.broadcast_arrays(free, theta, g)  # q = +-1
    unit_p = np.broadcast_arrays(theta, free, math.pi * j)  # p = +-1
    half = (np.arange(-2.0, 2.0) + 0.5) * math.pi
    g1, g2 = half[:, None], half
    s = np.sin(g1) * np.sin(g2)
    delta = np.arctan2(s * b3, -s * b1)
    theta2 = np.arctan2(-g1 * np.sin(delta), g1 * np.cos(delta) + g2)
    quarter = np.broadcast_arrays(theta2 + delta, theta2, g2)
    return np.concatenate([np.stack(f, axis=-1).reshape(-1, 3) for f in (unit_q, unit_p, quarter)])


def _ntype_root(b, initial_guess, residual_tol: float) -> np.ndarray:
    """The chosen (theta1, theta2, gamma2(T)) of solve_ntype, in two stages."""
    guess_residual = math.inf
    if initial_guess is not None:  # stage 1: the caller's guess alone
        guess = np.reshape(np.asarray(initial_guess, dtype=float), (1, 3))
        x, res = _ntype_lm(guess, b, residual_tol)
        if res[0] <= residual_tol:
            return x[0]
        guess_residual = res[0]
    # stage 2: the lock's roots along the loop, and the axis families
    unit_b = b / np.linalg.norm(b)
    x = np.concatenate((_ntype_loop_roots(unit_b), _ntype_axis_roots(unit_b)))
    x[:, :2] %= 2 * math.pi
    t1, t2, g2 = x.T
    g1 = -np.sin(t2) / np.sin(t1) * g2
    state = final_state(AnglePair(g1, t1, math.pi / 2, g2, t2, math.pi / 2))
    res = np.linalg.norm(state - b, axis=1)
    res = np.where(np.isfinite(res) & (np.abs(np.sin(t1)) >= _NTYPE_MIN_SIN), res, np.inf)
    converged = res <= residual_tol
    if not np.any(converged):
        raise NoSolutionFoundError(
            "N-type boundary-value solve did not converge",
            float(min(guess_residual, np.min(res))),
        )
    area = np.where(converged, np.abs(g1) + np.abs(g2), np.inf)
    return x[np.argmin(area)]


def solve_ntype(
    target: TargetSpec,
    horizon: float = 1.0,
    initial_guess: tuple[float, float, float] | None = None,
    seed: int = 0,
    residual_tol: float = 1e-8,
) -> SolvedAngles:
    """Boundary angles for the N-type (chain) topology.

    Constraints: phi1 = phi2 = pi/2, constant thetas, and the gamma rates
    locked by gamma1 = -(sin(theta2)/sin(theta1)) gamma2 (both start at 0).
    (theta1, theta2, gamma2(T)) solve q p = b in two stages.  Stage 1 runs
    Levenberg-Marquardt on the caller's initial_guess alone; if that
    converges (final-state residual at most residual_tol), it is the root.
    Otherwise, or with no guess, stage 2 needs no start: for each gamma2(T)
    the state q p = b fixes gamma1(T), theta1 and theta2 in closed form, on
    a loop through both square-root branches (_ntype_loop), so the lock is
    one scalar equation in gamma2(T).  Its sign changes along the loop, for
    gamma1(T), gamma2(T) shifted by 2 pi k, 2 pi m with k, m in -1..1 (every
    root of pulse area at most 3 pi), are refined at once and joined by the
    axis families (_ntype_axis_roots).  A candidate is a root if its
    residual is at most residual_tol and |sin(theta1)| >= 1e-6; the root
    returned has the least pulse area |gamma1(T)| + |gamma2(T)| among the
    roots found in this searched box, ties going to the earlier candidate
    (loop roots in the order k, m, psi, then the axis families).
    seed is validated but changes no result.  A failed solve reports the
    least residual over the guess and every regular candidate.  theta1,
    theta2 are returned modulo 2 pi, in [0, 2 pi), as the state and the
    lock are 2 pi-periodic in both.
    """
    _check_horizon(horizon)
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # irregular points
        root = _ntype_root(target.b, initial_guess, residual_tol)
    theta1, theta2, gamma2_T = (float(v) for v in root)
    gamma1_T = -math.sin(theta2) / math.sin(theta1) * gamma2_T
    boundary = AnglePair(gamma1_T, theta1, math.pi / 2, gamma2_T, theta2, math.pi / 2)
    return _finish(LevelConfig.N_TYPE, boundary, horizon)

"""Boundary-value solvers for the three four-level coupling topologies.

Each solver takes a normalized real target amplitude vector b (the system
starts in level 1), imposes the constraint set that cancels the couplings
forbidden by the topology, and returns the boundary angles together with a
smooth cosine-ramp schedule reaching them.
"""

from __future__ import annotations

import enum
import math
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

E1 = np.array([1.0, 0.0, 0.0, 0.0])

#: N-type Levenberg-Marquardt: iteration cap, initial damping, least |sin(theta1)|.
_NTYPE_MAX_ITER = 40
_NTYPE_DAMPING = 1e-2
_NTYPE_MIN_SIN = 1e-6


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


@dataclass(frozen=True)
class TargetSpec:
    """Target final amplitudes b1..b4 (real, normalized)."""

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


def _forbidden_residual(
    config: LevelConfig, schedule: AngleSchedule, samples: int = 50
) -> float:
    """Max forbidden-coupling magnitude of the generator on a grid inside (0, T)."""
    T = schedule.horizon
    grid = np.linspace(1e-6 * T, T - 1e-6 * T, samples)
    cs = hr_analytic(schedule.value(grid), schedule.rate(grid))
    return float(max(np.max(np.abs(getattr(cs, n))) for n in FORBIDDEN[config]))


def _check_horizon(horizon: float) -> None:
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")


def _finish(
    config: LevelConfig, boundary: AnglePair, horizon: float
) -> SolvedAngles:
    schedule = cosine_ramp_schedule(boundary, horizon)
    return SolvedAngles(
        config=config,
        schedule=schedule,
        boundary=boundary,
        constraint_residual=_forbidden_residual(config, schedule),
        within_canonical_ranges=_within_canonical_ranges(boundary),
    )


def solve_tripod(target: TargetSpec, horizon: float = 1.0) -> SolvedAngles:
    """Closed-form boundary angles for the inverse-tripod topology.

    Both quaternion factors share the same angles (gamma, theta, phi), so
    b1 = cos(2 gamma(T)), b2 = sin(2 gamma(T)) cos(theta), etc.  Degenerate
    targets resolve the undetermined angles to zero.
    """
    _check_horizon(horizon)
    b1, b2, b3, b4 = target.b
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
    b = target.b
    b1, b2, b3, b4 = b

    if np.linalg.norm(b - E1) < 1e-12:
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
        res = np.linalg.norm(final_state(cand) - b)
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


def _ntype_root(b, initial_guess, seed: int, residual_tol: float) -> np.ndarray:
    """The chosen (theta1, theta2, gamma2(T)) of solve_ntype, in two stages."""
    guess_residual = math.inf
    if initial_guess is not None:  # stage 1: the caller's guess alone
        guess = np.reshape(np.asarray(initial_guess, dtype=float), (1, 3))
        x, res = _ntype_lm(guess, b, residual_tol)
        if res[0] <= residual_tol:
            return x[0]
        guess_residual = res[0]
    # stage 2: the grid and the seeded draws in one batch
    k = np.pi * np.array([1.0, 2.0, 4.0, 5.0]) / 6
    grid = np.stack(np.meshgrid(k, k, [-np.pi / 2, np.pi / 2], indexing="ij"), axis=-1)
    low, high = [0.15, 0.15, -math.pi], [math.pi - 0.15, math.pi - 0.15, math.pi]
    draws = np.random.default_rng(seed).uniform(low, high, size=(8, 3))
    x, res = _ntype_lm(np.concatenate((grid.reshape(-1, 3), draws)), b, residual_tol)
    converged = res <= residual_tol
    if not np.any(converged):
        raise NoSolutionFoundError(
            "N-type boundary-value solve did not converge",
            float(min(guess_residual, np.min(res))),
        )
    t1, t2, g2 = x.T
    area = np.abs(g2) * (1.0 + np.abs(np.sin(t2) / np.sin(t1)))
    area[~converged] = np.inf
    return x[np.argmin(area)]


def solve_ntype(
    target: TargetSpec,
    horizon: float = 1.0,
    initial_guess: tuple[float, float, float] | None = None,
    seed: int = 0,
    residual_tol: float = 1e-8,
) -> SolvedAngles:
    """Numeric boundary angles for the N-type (chain) topology.

    Constraints: phi1 = phi2 = pi/2, constant thetas, and the gamma rates
    locked by gamma1 = -(sin(theta2)/sin(theta1)) gamma2 (both start at 0).
    (theta1, theta2, gamma2(T)) solve q p = b by Levenberg-Marquardt in two
    stages.  Stage 1 runs it on the caller's initial_guess alone; if that
    converges (final-state residual at most residual_tol), it is the root.
    Otherwise, or with no guess, stage 2 runs it at once on a fixed grid and
    seeded random starts, and the converged start with the least pulse area
    |gamma1(T)| + |gamma2(T)| wins, ties going to the earlier start.  A
    failed solve reports the least residual over the guess and every start.
    theta1, theta2 are returned modulo 2 pi, in [0, 2 pi), as the state and
    the lock are 2 pi-periodic in both.
    """
    _check_horizon(horizon)
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # irregular points
        root = _ntype_root(target.b, initial_guess, seed, residual_tol)
    theta1, theta2, gamma2_T = (float(v) for v in root)
    gamma1_T = -math.sin(theta2) / math.sin(theta1) * gamma2_T
    boundary = AnglePair(gamma1_T, theta1, math.pi / 2, gamma2_T, theta2, math.pi / 2)
    return _finish(LevelConfig.N_TYPE, boundary, horizon)

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

from .rotation import (
    AnglePair,
    AngleSchedule,
    cosine_ramp_schedule,
    final_state,
    hr_analytic,
)

E1 = np.array([1.0, 0.0, 0.0, 0.0])


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


class ConstraintSingularityError(SolverError):
    """The constraint manifold itself is singular (e.g. sin(theta1) = 0)."""


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


def _ntype_boundary(theta1: float, theta2: float, gamma2_T: float) -> AnglePair:
    gamma1_T = -math.sin(theta2) / math.sin(theta1) * gamma2_T
    return AnglePair(
        gamma1_T, theta1, math.pi / 2, gamma2_T, theta2, math.pi / 2
    )


def _ntype_residual(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    theta1, theta2, gamma2_T = x
    if abs(math.sin(theta1)) < 1e-9:
        return np.full(4, 1e6)
    return final_state(_ntype_boundary(theta1, theta2, gamma2_T)) - b


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
    The unknowns (theta1, theta2, gamma2(T)) are found by multi-start
    Levenberg-Marquardt on the final-state residual; starts are a fixed
    coarse grid plus seeded random draws, and selection is deterministic
    (lowest residual, ties by start order).
    """
    import scipy.optimize  # here, not at the top: 0.3 s of every CLI start

    b = target.b

    starts: list[tuple[float, float, float]] = []
    if initial_guess is not None:
        starts.append(tuple(float(v) for v in initial_guess))
    grid = [math.pi / 6, math.pi / 3, 2 * math.pi / 3, 5 * math.pi / 6]
    gammas = [-math.pi / 2, math.pi / 2]
    starts.extend((t1, t2, g) for t1 in grid for t2 in grid for g in gammas)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        t1 = rng.uniform(0.15, math.pi - 0.15)
        t2 = rng.uniform(0.15, math.pi - 0.15)
        g = rng.uniform(-math.pi, math.pi)
        starts.append((t1, t2, g))

    best_x, best_res = None, math.inf
    for x0 in starts:
        try:
            sol = scipy.optimize.least_squares(
                _ntype_residual, x0, args=(b,), method="lm", xtol=1e-14, ftol=1e-14
            )
        except Exception:
            continue
        res = np.linalg.norm(_ntype_residual(sol.x, b))
        if res < best_res - 1e-15:
            best_x, best_res = sol.x, res
        if best_res < residual_tol and initial_guess is not None:
            break  # honor the caller's seed: keep the first converged root

    if best_x is None or best_res > residual_tol:
        raise NoSolutionFoundError(
            "N-type boundary-value solve did not converge", best_res
        )
    theta1, theta2, gamma2_T = (float(v) for v in best_x)
    if abs(math.sin(theta1)) < 1e-9:
        raise ConstraintSingularityError("sin(theta1) = 0 on the returned root")
    boundary = _ntype_boundary(theta1, theta2, gamma2_T)
    return _finish(LevelConfig.N_TYPE, boundary, horizon)

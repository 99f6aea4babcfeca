"""Boundary-value solvers for the three four-level coupling topologies.

Each solver takes a normalized real target amplitude vector b (the system
starts in level 1), imposes the constraint set that cancels the couplings
forbidden by the topology, and returns the smooth cosine ramp to the
boundary angles.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .rotation import AnglePair, CosineRamp, final_state

#: The least |sin(theta1)| of an N-type root, and of a guess that selects one.
_NTYPE_MIN_SIN = 1e-6
#: The largest final-state residual |q p - b| of a converged N-type candidate.
_NTYPE_RESIDUAL_TOL = 1e-8
#: N-type loop search: lock sample points; the final bracket width, one sample step
#: over 16 to the power _NTYPE_REFINE_STEPS (as many 16-part cuts would give;
#: 0 refines nothing); the 16-part cuts that open each refinement, and the
#: most secant steps after them; the distance from an axis +-e_k within
#: which every step is a cut; and the turns k, m added to gamma1(T),
#: gamma2(T) in units of 2 pi (every root of pulse area at most 3 pi has
#: k, m in -1..1).
_NTYPE_LOOP_POINTS = 128
_NTYPE_REFINE_STEPS = 11
_NTYPE_CUTS = 3
_NTYPE_SECANT_STEPS = 4
_NTYPE_AXIS_DISTANCE = 1e-3
_NTYPE_TURNS = np.array([-1.0, 0.0, 1.0])
#: The lock sample points added for a guess lie this far in psi to either side of
#: its loop points; rounding in the guess moves those by up to about 1e-8.
_NTYPE_GUESS_OFFSET = 1e-6


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
            if not _finite_real(value):
                raise ValueError(f"free_params.{name} must be a finite number, got {value!r}")


def _finite_real(value) -> bool:
    """Whether value is a finite real number, a bool not counting as one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class SolvedAngles:
    """The cosine ramp to the boundary angles, whose generator is r'(t) G
    with G = schedule.generator; constraint_residual is G's largest
    forbidden entry times the ramp's peak rate pi/(2T)."""

    config: LevelConfig
    schedule: CosineRamp
    constraint_residual: float
    within_canonical_ranges: bool

    @property
    def boundary(self) -> AnglePair:
        return self.schedule.final


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


def _check_horizon(horizon: float) -> None:
    """Reject a horizon T that is not finite and positive, or so near 0 or
    the float range that pi/T or pi*T overflows (the ramp's rate and phase)."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not (math.isfinite(math.pi / horizon) and math.isfinite(math.pi * horizon)):
        raise ValueError(f"horizon {horizon} out of range: pi/T or pi*T overflows")


def _finish(config: LevelConfig, boundary: AnglePair, horizon: float) -> SolvedAngles:
    ramp = CosineRamp(boundary, horizon)
    worst = max(abs(getattr(ramp.generator, n)) for n in FORBIDDEN[config])
    return SolvedAngles(
        config=config,
        schedule=ramp,
        constraint_residual=worst * ramp.peak_rate,
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


def _ntype_loop_roots(b, guess=None) -> np.ndarray:
    """(theta1, theta2, gamma2(T)) (n, 3) at every sign change of the lock
    along the loop, for every turn pair (k, m) with k, m in _NTYPE_TURNS,
    refined all at once; with guess = (k, m, points), also for the guess's
    turn pair, and with the guess's points added to the sample points.

    The lock is sampled at _NTYPE_LOOP_POINTS points.  Each refinement step
    evaluates it at a few points inside every bracket, in one call, and keeps
    the part between neighbouring points where the sign first changes.  The
    first _NTYPE_CUTS steps cut each bracket into 16 equal parts.  The next,
    at most _NTYPE_SECANT_STEPS, are bracketed secant steps that reuse the
    lock values known at the bracket's ends: regula falsi with the Illinois
    modification (Dowell & Jarratt, BIT 11 (1971) 168; an end kept by two
    steps in a row has its value halved) gives a point, and 8 points half a
    final width apart straddle it, so the step closes the bracket once the
    point is within 3.5 final widths of the sign change.  The point always
    lies in its bracket (the end values differ in sign) and is moved in far
    enough for the straddle.  A bracket still wider than the final width,
    one sample step over 16**_NTYPE_REFINE_STEPS, is finished by 16-part
    cuts.  Within _NTYPE_AXIS_DISTANCE of an axis +-e_k, one final width in
    psi moves a root's angles, and its pulse area, by up to about 1e-8, so
    there every step is a cut and the roots stay those of the cut sequence.
    A root is the midpoint of its bracket.  Candidates come out in the
    order k, m (the guess's pair last), psi.
    """
    step = 2 * math.pi / _NTYPE_LOOP_POINTS
    psi = (np.arange(_NTYPE_LOOP_POINTS + 1) + 0.5) * step  # closed: last = first + 2 pi
    steps = np.full(_NTYPE_LOOP_POINTS, step)
    pairs = np.stack(np.meshgrid(_NTYPE_TURNS, _NTYPE_TURNS, indexing="ij"), axis=-1)
    pairs = pairs.reshape(-1, 2)
    if guess is not None:
        k, m, points = guess
        pairs = np.concatenate((pairs, [[k, m]]))
        psi = np.sort(np.concatenate((psi, (points - psi[0]) % (2 * math.pi) + psi[0])))
        steps = np.diff(psi)
    f = _ntype_lock(psi, b, pairs[:, :1], pairs[:, 1:])
    pos, finite = f > 0, np.isfinite(f)
    n, j = np.nonzero((pos[:, :-1] != pos[:, 1:]) & finite[:, :-1] & finite[:, 1:])
    k, m, sign = pairs[n, :1], pairs[n, 1:], pos[n, j, None]
    # bracket [left, left + width], with the lock f_lo, f_hi at its ends
    left, width = psi[j, None], steps[j, None]
    f_lo, f_hi = f[n, j, None], f[n, j + 1, None]
    final = step / 16.0**_NTYPE_REFINE_STEPS
    cut, straddle = np.arange(1, 16) / 16, np.arange(-3.5, 4.0)
    near_axis = max(abs(b)) ** 2 > 1.0 - _NTYPE_AXIS_DISTANCE**2
    secants = range(_NTYPE_CUTS, _NTYPE_CUTS + (0 if near_axis else _NTYPE_SECANT_STEPS))
    r, kept = np.arange(len(left)), np.full(len(left), -1)  # the part each secant step kept
    # the cuts and secant steps, then at most the cuts a bracket still needs
    for n_step in range(_NTYPE_SECANT_STEPS + _NTYPE_REFINE_STEPS):
        if width.max(initial=0.0) <= final:
            break
        secant = n_step in secants
        if secant:  # points half a final width apart, closer in a narrower bracket
            gap = np.minimum(final / 2, width / 8)
            x = left + width * (f_lo / (f_lo - f_hi))
            x = np.fmin(np.fmax(x, left + 3.5 * gap), left + width - 3.5 * gap)
            points = x + gap * straddle
            # Illinois: an end the last step kept counts half if this step keeps it too
            f_lo[kept == 0] /= 2
            f_hi[kept == len(straddle)] /= 2
        else:
            points = left + width * cut
        values = np.concatenate((f_lo, _ntype_lock(points, b, k, m), f_hi), axis=1)
        a = np.argmax((values[:, 1:] > 0) != sign, axis=1)  # the right end always flips
        grid = np.concatenate((left, points, left + width), axis=1)
        left = grid[r, a, None]
        width = grid[r, a + 1, None] - left if secant else width / 16
        f_lo, f_hi = values[r, a, None], values[r, a + 1, None]
        kept = a if secant else kept
    _, theta1, g2, theta2 = _ntype_loop(left[:, 0] + width[:, 0] / 2, b)
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


def _ntype_guess_points(b, gamma1: float, gamma2: float):
    """The turn pair (k, m) of a guess, and its loop points: gamma_i or
    -gamma_i, whichever has a non-negative sine, is g_i + 2 pi k_i with g_i
    in [0, pi], as a loop root's gamma_i(psi) + 2 pi k_i is, and the points
    lie _NTYPE_GUESS_OFFSET to either side of the psi with gamma2(psi) = g_2
    (the nearest fold if none) on both branches.  At a guess that is a root
    the lock changes sign between them, unless another root lies as near."""
    folded = [g if math.sin(g) >= 0.0 else -g for g in (gamma1, gamma2)]
    k, m = (g // (2 * math.pi) for g in folded)
    h = math.atan2(math.hypot(b[1], b[3]), abs(b[2]))
    u = (math.pi / 2 - (folded[1] - 2 * math.pi * m)) / h if h > 0.0 else 1.0
    psi = math.acos(max(-1.0, min(1.0, u)))
    return k, m, (np.array([[psi], [-psi]]) + [-_NTYPE_GUESS_OFFSET, _NTYPE_GUESS_OFFSET]).ravel()


def _ntype_root(b, guess) -> np.ndarray:
    """The chosen (theta1, theta2, gamma2(T)) of solve_ntype for a guess of
    three floats, or None."""
    unit_b = b / np.linalg.norm(b)
    if guess is not None:
        theta_g = np.array(guess[:2])
        gamma_g = guess[2] * np.array([-np.sin(theta_g[1]) / np.sin(theta_g[0]), 1.0])
        if abs(np.sin(theta_g[0])) < _NTYPE_MIN_SIN or not np.isfinite(gamma_g[0]):
            guess = None  # a singular guess, or one whose gamma1(T) overflows
    loop = np.empty((0, 3))
    if math.hypot(unit_b[1], unit_b[3]) > 0.0:  # else the loop is one point
        own = None if guess is None else _ntype_guess_points(unit_b, *gamma_g)
        loop = _ntype_loop_roots(unit_b, own)
    x = np.concatenate((loop, _ntype_axis_roots(unit_b)))
    x[:, :2] %= 2 * math.pi
    t1, t2, g2 = x.T
    g1 = -np.sin(t2) / np.sin(t1) * g2
    state = final_state(AnglePair(g1, t1, math.pi / 2, g2, t2, math.pi / 2))
    res = np.linalg.norm(state - b, axis=1)
    res = np.where(np.isfinite(res) & (np.abs(np.sin(t1)) >= _NTYPE_MIN_SIN), res, np.inf)
    converged = np.flatnonzero(res <= _NTYPE_RESIDUAL_TOL)
    if converged.size == 0:
        raise NoSolutionFoundError(
            "N-type boundary-value solve did not converge", float(np.min(res))
        )
    if guess is None:
        return x[converged[np.argmin((np.abs(g1) + np.abs(g2))[converged])]]
    # the rotation vectors gamma_i e^(i theta_i), equal for (gamma, theta)
    # and (-gamma, theta + pi), which give the same factor
    rotation = np.stack((g1, g2), axis=1) * np.exp(1j * x[:, :2])
    dist = np.sum(np.abs(rotation - gamma_g * np.exp(1j * theta_g)) ** 2, axis=1)
    root = x[converged[np.argmin(dist[converged])]]
    flip = np.cos(root[:2] - theta_g) < 0  # to the guess's form
    root[:2] = np.where(flip, root[:2] + math.pi, root[:2]) % (2 * math.pi)
    root[2] = -root[2] if flip[1] else root[2]
    return root


def solve_ntype(
    target: TargetSpec,
    horizon: float = 1.0,
    initial_guess: tuple[float, float, float] | None = None,
) -> SolvedAngles:
    """Boundary angles for the N-type (chain) topology.

    Constraints: phi1 = phi2 = pi/2, constant thetas, and the gamma rates
    locked by gamma1 = -(sin(theta2)/sin(theta1)) gamma2 (both start at 0).
    (theta1, theta2, gamma2(T)) solve q p = b with no start point: for each
    gamma2(T) the state q p = b fixes gamma1(T), theta1 and theta2 in closed
    form, on a loop through both square-root branches (_ntype_loop), so the
    lock is one scalar equation in gamma2(T).  Its sign changes along the
    loop, for gamma1(T), gamma2(T) shifted by 2 pi k, 2 pi m with k, m in
    -1..1 (every root of pulse area at most 3 pi), are sampled at 128 points
    and refined to brackets 2 pi / 128 / 16**11 wide (_ntype_loop_roots).
    For b2 = b4 = 0 the loop is one point, whose sign changes are rounding,
    and it is skipped.  The axis families (_ntype_axis_roots) join the loop
    roots.  A candidate converges if its residual |q p - b| is at most
    _NTYPE_RESIDUAL_TOL = 1e-8 and |sin(theta1)| >= 1e-6.

    initial_guess = (theta1, theta2, gamma2(T)), three finite real numbers
    (ValueError otherwise), selects a root; it is not a start point.  The
    search also runs at the guess's own turns (k, m), with sample points 1e-6
    to either side of its place on the loop (_ntype_guess_points), and returns
    the converged candidate nearest the guess by sum_i |gamma_i e^(i
    theta_i) - gamma_i' e^(i theta_i')|^2, gamma1 from the lock on both
    sides.  It comes in the guess's form: where cos(theta_i - theta_i') < 0,
    theta_i gets + pi, and for i = 2 gamma2(T) is negated.  With no guess,
    or one with |sin(theta1)| < 1e-6 or gamma1(T) beyond the float range,
    the root has the least pulse area |gamma1(T)| + |gamma2(T)|.  Ties go
    to the earlier candidate (loop roots by k, m, the guess's pair last,
    and psi; then the axis families).  A failed solve reports the least
    residual over every candidate.  theta1, theta2 are returned modulo
    2 pi, in [0, 2 pi), as the state and the lock are 2 pi-periodic in both.
    """
    _check_horizon(horizon)
    if initial_guess is not None:
        guess = tuple(initial_guess) if isinstance(initial_guess, (Sequence, np.ndarray)) else ()
        if len(guess) != 3 or not all(map(_finite_real, guess)):
            raise ValueError(
                f"initial_guess must be three finite real numbers, got {initial_guess!r}"
            )
        initial_guess = tuple(map(float, guess))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # irregular points
        root = _ntype_root(target.b, initial_guess)
    theta1, theta2, gamma2_T = (float(v) for v in root)
    gamma1_T = -math.sin(theta2) / math.sin(theta1) * gamma2_T
    boundary = AnglePair(gamma1_T, theta1, math.pi / 2, gamma2_T, theta2, math.pi / 2)
    return _finish(LevelConfig.N_TYPE, boundary, horizon)

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

import fourlevel.solvers
from fourlevel.quat4 import Quaternion, _exp, _stack_last, hamilton
from fourlevel.rotation import (
    AnglePair,
    CouplingSet,
    _unit_quat,
    ur_of_angles,
)
from fourlevel.solvers import LevelConfig, NoSolutionFoundError


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    v = rng.normal(size=4)
    return Quaternion.from_array(v / np.linalg.norm(v))


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


angles = st.floats(
    min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False, allow_infinity=False
)


@st.composite
def unit_quaternions(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0, 0.0])
        n = 1.0
    return Quaternion.from_array(v / n)


def topology_couplings(config: LevelConfig, solved, t) -> CouplingSet:
    """Per-topology closed-form coupling waveforms, an oracle for hr_analytic.

    For the diamond and N-type these are the generator read-off.  The tripod
    form is the spherical-coordinate pulse (gamma rate times the direction
    cosines); the generator rotates the state through 2*gamma, so it is -2
    times this form, which satisfies the pulse-area identity
    integral of Omega_12 dt = gamma(T) cos(theta).  Like the library's
    functions of time, it takes a time or an array of times.
    """
    a = solved.schedule.value(t)
    adot = solved.schedule.rate(t)
    zero = np.zeros_like(adot.gamma1)
    if config is LevelConfig.INVERSE_TRIPOD:
        dg, th, ph = adot.gamma1, a.theta1, a.phi1
        return CouplingSet(
            dg * np.cos(th),
            dg * np.sin(th) * np.cos(ph),
            dg * np.sin(th) * np.sin(ph),
            zero,
            zero,
            zero,
        )
    if config is LevelConfig.DIAMOND:
        dg1, dg2 = adot.gamma1, adot.gamma2
        t1, t2 = a.theta1, a.theta2
        return CouplingSet(
            -(dg1 * np.cos(t1) + dg2 * np.cos(t2)),
            -(dg1 * np.sin(t1) + dg2 * np.sin(t2)),
            zero,
            zero,
            dg1 * np.sin(t1) - dg2 * np.sin(t2),
            -(dg1 * np.cos(t1) - dg2 * np.cos(t2)),
        )
    dg2 = adot.gamma2
    t1, t2 = a.theta1, a.theta2
    cot1 = np.cos(t1) / np.sin(t1)
    return CouplingSet(
        dg2 * (np.sin(t2) * cot1 - np.cos(t2)),
        zero,
        zero,
        2.0 * dg2 * np.sin(t2),
        zero,
        dg2 * (np.sin(t2) * cot1 + np.cos(t2)),
    )


def couplings_from_matrix(omega: np.ndarray) -> CouplingSet:
    """The upper triangle of a real antisymmetric generator matrix."""
    o = np.asarray(omega)
    return CouplingSet(o[0, 1], o[0, 2], o[0, 3], o[1, 2], o[1, 3], o[2, 3])


def hr_numeric(schedule, t: float, h: float | None = None) -> CouplingSet:
    """Couplings extracted from a finite-difference dUr/dt Ur^T, an oracle
    for the library's generator.

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
    return couplings_from_matrix(omega)


def check_consistency(schedule, samples: int = 33, rtol: float = 1e-6) -> float:
    """Max mismatch between a schedule's rate() and a centered difference
    of its value()."""
    T = schedule.horizon
    h = 1e-6 * T
    grid = np.linspace(h, T - h, samples)
    rate = schedule.rate(grid).as_array()
    scale = max(1.0, np.max(np.abs(rate)))
    fd = (schedule.value(grid + h).as_array() - schedule.value(grid - h).as_array()) / (2 * h)
    worst = np.max(np.abs(fd - rate))
    if worst > rtol * scale:
        raise ValueError(
            f"angle schedule value/rate mismatch {worst:.3e} exceeds {rtol * scale:.3e}"
        )
    return worst


@dataclass(frozen=True)
class Schedule:
    """A pulse other than the library's CosineRamp, for the oracles that take
    any schedule: value and rate closures of a time, and the horizon T."""

    value: Callable
    rate: Callable
    horizon: float


def constant_schedule(angles: AnglePair, horizon: float) -> Schedule:
    zero = AnglePair(0, 0, 0, 0, 0, 0)
    return Schedule(value=lambda t: angles, rate=lambda t: zero, horizon=horizon)


def full_matrix_total_hamiltonian(couplings: CouplingSet, ph, t) -> np.ndarray:
    """H(t) = K(t) (i Omega) K(t)^dag - diag(0, Delta_k) as full 4x4 complex
    products, an oracle for total_hamiltonian.  Its two triangles are rounded
    separately, so it is Hermitian only to rounding."""
    hr = 1j * couplings.to_matrix()
    k = ph.frame(t)
    h = (k[..., :, None] * hr) * k.conj()[..., None, :]
    h[..., 1:, 1:] -= np.diag(ph.detunings)
    return h


def rotation_angles_from_matrix(r: np.ndarray) -> tuple[float, float]:
    """Rotation angles of a 4D rotation matrix, from its real Schur form.

    Independent of the quaternion route: an oracle for decompose_rotation.
    Returns the two angles sorted ascending.
    """
    schur = pytest.importorskip("scipy.linalg").schur
    t, _ = schur(np.asarray(r, dtype=float), output="real")
    block_angles = []
    real_eigs = []
    i = 0
    while i < 4:
        if i < 3 and abs(t[i + 1, i]) > 1e-12:
            block_angles.append(abs(math.atan2(t[i + 1, i], t[i, i])))
            i += 2
        else:
            real_eigs.append(t[i, i])
            i += 1
    # Real eigenvalues of a rotation are +-1 and pair up into planes with
    # angle 0 (for +1, +1) or pi (for -1, -1).
    real_eigs.sort()
    for j in range(0, len(real_eigs), 2):
        block_angles.append(0.0 if real_eigs[j] > 0 else math.pi)
    return tuple(sorted(block_angles))


def ntype_loop_brackets(b, guess=None):
    """The N-type lock's sign changes along the loop, sampled here: an oracle
    for _ntype_loop_brackets, with the same brackets (k, m, left, width,
    f_lo, f_hi), each (n, 1).  The lock at 129 points psi = (j + 1/2) 2 pi
    / 128, j = 0..128, for the turn pairs (k, m) in _NTYPE_TURNS squared,
    in that order, and with guess = (k, m, points), the guess's pair last,
    with its points merged into the sample modulo 2 pi; a bracket between
    neighbouring samples with finite lock values of opposite sign.  For
    b2 = b4 = 0 the loop is one point and there are no brackets."""
    solvers = fourlevel.solvers
    if math.hypot(b[1], b[3]) == 0.0:
        return (np.empty((0, 1)),) * 6
    pairs = [(k, m) for k in solvers._NTYPE_TURNS for m in solvers._NTYPE_TURNS]
    step = 2 * math.pi / solvers._NTYPE_LOOP_POINTS
    psi = (np.arange(solvers._NTYPE_LOOP_POINTS + 1) + 0.5) * step
    width = np.full(solvers._NTYPE_LOOP_POINTS, step)
    if guess is not None:
        k, m, points = guess
        pairs.append((k, m))
        psi = np.sort(np.concatenate((psi, (np.asarray(points) - psi[0]) % (2 * math.pi) + psi[0])))
        width = np.diff(psi)
    pairs = np.array(pairs)
    f = solvers._ntype_lock(psi, b, pairs[:, :1], pairs[:, 1:])
    pos, finite = f > 0, np.isfinite(f)
    n, j = np.nonzero((pos[:, :-1] != pos[:, 1:]) & finite[:, :-1] & finite[:, 1:])
    return pairs[n, :1], pairs[n, 1:], psi[j, None], width[j, None], f[n, j, None], f[n, j + 1, None]


def ntype_cut_refine(b, k, m, left, width, f_lo, f_hi):
    """N-type brackets (k, m, left, width, f_lo, f_hi) refined by 16-part
    cuts alone: _NTYPE_REFINE_STEPS times, each keeping the part where the
    lock's sign first changes, and yields the root (gamma1(T), theta1,
    gamma2(T), theta2) at the midpoint of the last part, with the loop's
    gammas plus the turns.  An oracle for _ntype_refine, whose interpolation
    steps end each bracket at most as wide; the same candidates in the same
    order."""
    solvers = fourlevel.solvers
    left, width, sign = left[:, 0], width[:, 0], f_lo > 0
    cut = np.arange(1, 16) / 16
    for _ in range(solvers._NTYPE_REFINE_STEPS):
        flip = (solvers._ntype_lock(left[:, None] + width[:, None] * cut, b, k, m) > 0) != sign
        flip = np.concatenate((flip, np.ones_like(sign)), axis=1)  # the right end
        left = left + width / 16 * np.argmax(flip, axis=1)
        width = width / 16
    g1, theta1, g2, theta2 = solvers._ntype_loop(left + width / 2, b)
    turns = 2 * math.pi * np.concatenate((k, m), axis=1)
    yield from np.stack((g1 + turns[:, 0], theta1, g2 + turns[:, 1], theta2), axis=1).tolist()


def ntype_cut_loop_roots(b, guess=None) -> np.ndarray:
    """The N-type loop search's candidates from this module's own sample
    (ntype_loop_brackets), every bracket refined by 16-part cuts alone
    (ntype_cut_refine): an oracle for the library's loop search."""
    return np.reshape([*ntype_cut_refine(b, *ntype_loop_brackets(b, guess))], (-1, 4))


def _vector_state(v1, v2) -> np.ndarray:
    """q p, (..., 4), for q = exp(v1), p = exp(v2) of rotation vectors (x, y,
    z) of floats or arrays, from quat4's exp and Hamilton product: an oracle
    for the N-type search's float candidates."""
    return _stack_last(hamilton(_exp(v1), _exp(v2)))


def ntype_vector_candidates(b, rows):
    """The rotation vectors (v1, v2) of the N-type roots (gamma1(T), theta1,
    gamma2(T), theta2), v1 = (x1, 0, z) and v2 = (x2, 0, -z) with x_i =
    gamma_i cos(theta_i) and z the mean of gamma1 sin(theta1) and -gamma2
    sin(theta2), as float tuples; and each one's final-state residual |q p
    - b|, inf where not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g1, t1, g2, t2 = np.asarray(rows, dtype=float).T
        x1, x2, z = g1 * np.cos(t1), g2 * np.cos(t2), (g1 * np.sin(t1) - g2 * np.sin(t2)) / 2
        res = np.linalg.norm(_vector_state((x1, 0.0, z), (x2, 0.0, -z)) - b, axis=1)
    res[~np.isfinite(res)] = np.inf
    vectors = [((u, 0.0, w), (v, 0.0, -w)) for u, v, w in zip(x1.tolist(), x2.tolist(), z.tolist())]
    return vectors, res


def pulse_area(vectors) -> float:
    """|v1| + |v2| of a vector pair, or of a CosineRamp's."""
    return math.hypot(*vectors[0]) + math.hypot(*vectors[1])


def ntype_all_pairs_root(b):
    """The guess-free N-type vectors (v1, v2) of the search over every turn
    pair at once and every axis family: this module's sample
    (ntype_loop_brackets) refined by _ntype_refine, then _ntype_axis_roots,
    as vector candidates, and the converged one (residual at most 1e-8) of
    least pulse area, ties going to the earlier one; NoSolutionFoundError
    with the least residual over every candidate if none converges.  The
    reference that solve_ntype's staged search equals bit for bit."""
    solvers = fourlevel.solvers
    b = np.asarray(b, dtype=float)
    unit_b = b / np.linalg.norm(b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        loop = np.reshape([*solvers._ntype_refine(unit_b, *ntype_loop_brackets(unit_b))], (-1, 4))
        rows = np.concatenate((loop, solvers._ntype_axis_roots(unit_b, True, True)))
    vectors, res = ntype_vector_candidates(b, rows)
    if not np.any(res <= 1e-8):
        raise NoSolutionFoundError("N-type boundary-value solve did not converge", float(np.min(res)))
    area = [pulse_area(v) if r <= 1e-8 else math.inf for v, r in zip(vectors, res)]
    return vectors[int(np.argmin(area))]


#: N-type Levenberg-Marquardt iteration cap, initial damping, and least
#: |sin(theta1)| of a regular step (nearer 0, one rounding of theta1 moves
#: the lock's gamma1 beyond the tolerance)
LM_MAX_ITER = 40
LM_DAMPING = 1e-2
LM_MIN_SIN = 1e-6


def ntype_residual(x: np.ndarray, b: np.ndarray):
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


def ntype_lm(x: np.ndarray, b: np.ndarray, residual_tol: float):
    """Levenberg-Marquardt on every start of x (n, 3) at once, an oracle
    for solve_ntype's root search.

    A step is taken if it lowers the residual and is regular: finite, with
    |sin(theta1)| >= LM_MIN_SIN.  A start leaves at an irregular
    step or once converged (residual <= residual_tol, no further decrease).
    Returns the end points, theta in [0, 2 pi), and residuals, inf if never
    regular."""
    x, x_new, i = x.copy(), x.copy(), np.arange(len(x))
    f, jac = np.zeros((len(x), 4)), np.zeros((len(x), 4, 3))
    res, damping = np.full(len(x), np.inf), np.full(len(x), LM_DAMPING)
    for _ in range(LM_MAX_ITER + 1):
        x_new[:, :2] %= 2 * math.pi
        f_new, jac_new = ntype_residual(x_new, b)
        res_new = np.linalg.norm(f_new, axis=1)
        regular = np.isfinite(res_new) & np.all(np.isfinite(jac_new), axis=(1, 2))
        regular &= np.abs(np.sin(x_new[:, 0])) >= LM_MIN_SIN
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


def ntype_fold(gamma) -> tuple[float, float]:
    """(k, g) with g in [0, pi] and gamma or -gamma equal to g + 2 pi k, a
    loop root's form: gamma lies in [2 pi n, 2 pi (n + 1)); in the lower
    half of that turn gamma = g + 2 pi n, in the upper half -gamma =
    (2 pi - r) + 2 pi (-n - 1) with r = gamma - 2 pi n."""
    n = math.floor(gamma / (2 * math.pi))
    r = gamma - 2 * math.pi * n
    return (float(n), r) if r <= math.pi else (float(-n - 1), 2 * math.pi - r)


def rotation_distance(a, b) -> float:
    """|v1 - v1'|^2 + |v2 - v2'|^2 between two vector pairs (v1, v2), or
    CosineRamps."""
    return sum((x - y) ** 2 for u, w in zip(a[:2], b[:2]) for x, y in zip(u, w))


def ntype_boundary(theta1, theta2, gamma2) -> AnglePair:
    """The N-type boundary of (theta1, theta2, gamma2(T)), gamma1 by the lock."""
    gamma1 = -math.sin(theta2) / math.sin(theta1) * gamma2
    return AnglePair(gamma1, theta1, math.pi / 2, gamma2, theta2, math.pi / 2)


def ntype_vectors(theta1, theta2, gamma2):
    """The vectors (v1, v2) of (theta1, theta2, gamma2(T)), v1 = (x1, 0, z)
    and v2 = (x2, 0, -z), gamma1 by the lock: a guess's, in the library's
    coordinates."""
    z = -gamma2 * math.sin(theta2)
    gamma1 = z / math.sin(theta1)
    return (gamma1 * math.cos(theta1), 0.0, z), (gamma2 * math.cos(theta2), 0.0, -z)


def ntype_converged_candidates(b, guess, residual_tol=1e-8) -> list:
    """The converged N-type vector candidates that a finite guess selects
    from: the cut oracle's loop roots at the fixed turns and at the guess's
    own, with samples 1e-6 to either side of the guess's place on the loop,
    and the axis families, each with a final-state residual at most
    residual_tol."""
    b = np.asarray(b, dtype=float)
    (k, _), (m, g2) = ntype_fold(ntype_boundary(*guess).gamma1), ntype_fold(guess[2])
    # the loop runs gamma2(psi) = pi/2 - h cos(psi)
    h = math.atan2(math.hypot(b[1], b[3]), abs(b[2]))
    psi = math.acos(np.clip((math.pi / 2 - g2) / h, -1.0, 1.0)) if h > 0.0 else 0.0  # b2 = b4 = 0: no loop
    points = (np.outer([psi, -psi], [1.0, 1.0]) + [-1e-6, 1e-6]).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        loop = ntype_cut_loop_roots(b, (k, m, points))
        rows = np.concatenate((loop, fourlevel.solvers._ntype_axis_roots(b, True, True)))
    vectors, res = ntype_vector_candidates(b, rows)
    return [v for v, r in zip(vectors, res) if r <= residual_tol]


def ntype_single_batch_root(b, initial_guess=None, seed=0, residual_tol=1e-8):
    """The N-type vectors (v1, v2) from one Levenberg-Marquardt batch over the guess,
    the grid and the seeded draws: a converged guess wins, else the converged
    start of least pulse area, ties going to the earlier start; a failure
    reports the least residual over the guess and every start.  A reference
    for solve_ntype: a converged guess is the root it selects, and its
    loop-search root with no guess has no larger pulse area."""
    k = np.pi * np.array([1.0, 2.0, 4.0, 5.0]) / 6
    grid = np.stack(np.meshgrid(k, k, [-np.pi / 2, np.pi / 2], indexing="ij"), axis=-1)
    low, high = [0.15, 0.15, -math.pi], [math.pi - 0.15, math.pi - 0.15, math.pi]
    draws = np.random.default_rng(seed).uniform(low, high, size=(8, 3))
    guess = np.reshape([] if initial_guess is None else initial_guess, (-1, 3))
    starts = np.concatenate((guess, grid.reshape(-1, 3), draws))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, res = ntype_lm(starts, np.asarray(b, dtype=float), residual_tol)
        t1, t2, g2 = x.T
        area = np.abs(g2) * (1.0 + np.abs(np.sin(t2) / np.sin(t1)))
    converged = res <= residual_tol
    if not np.any(converged):
        raise NoSolutionFoundError(
            "N-type boundary-value solve did not converge", float(np.min(res))
        )
    area[~converged] = np.inf
    if len(guess) and converged[0]:
        area[0] = -1.0
    return ntype_vectors(*(float(v) for v in x[np.argmin(area)]))

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st

import fourlevel.solvers
from fourlevel.quat4 import Quaternion
from fourlevel.rotation import AnglePair, CouplingSet
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
    t, _ = scipy.linalg.schur(np.asarray(r, dtype=float), output="real")
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


def ntype_cut_loop_roots(b) -> np.ndarray:
    """The N-type loop search's candidates with every bracket refined by
    16-part cuts alone: _NTYPE_REFINE_STEPS times, each keeping the part
    where the lock's sign first changes, and the root at the midpoint of the
    last part.  An oracle for _ntype_loop_roots, whose secant steps end each
    bracket at most as wide; the same candidates in the same order."""
    solvers = fourlevel.solvers
    turns = solvers._NTYPE_TURNS
    step = 2 * math.pi / solvers._NTYPE_LOOP_POINTS
    psi = (np.arange(solvers._NTYPE_LOOP_POINTS + 1) + 0.5) * step
    f = solvers._ntype_lock(psi, b, turns[:, None, None], turns[:, None])
    pos, finite = f > 0, np.isfinite(f)
    ki, mi, j = np.nonzero(
        (pos[..., :-1] != pos[..., 1:]) & finite[..., :-1] & finite[..., 1:]
    )
    k, m, sign = turns[ki, None], turns[mi, None], pos[ki, mi, j, None]
    left, cut = psi[j], np.arange(1, 16) / 16
    for _ in range(solvers._NTYPE_REFINE_STEPS):
        flip = (solvers._ntype_lock(left[:, None] + step * cut, b, k, m) > 0) != sign
        flip = np.concatenate((flip, np.ones_like(sign)), axis=1)  # the right end
        left = left + step / 16 * np.argmax(flip, axis=1)
        step /= 16
    _, theta1, g2, theta2 = solvers._ntype_loop(left + step / 2, b)
    return np.stack((theta1, theta2, g2 + 2 * math.pi * m[:, 0]), axis=1)


def ntype_single_batch_root(b, initial_guess=None, seed=0, residual_tol=1e-8) -> AnglePair:
    """The N-type boundary from one Levenberg-Marquardt batch over the guess,
    the grid and the seeded draws: a converged guess wins, else the converged
    start of least pulse area, ties going to the earlier start; a failure
    reports the least residual over the guess and every start.  A reference
    for solve_ntype: equal to it where the guess converges alone, and of no
    smaller pulse area than its loop-search root otherwise."""
    k = np.pi * np.array([1.0, 2.0, 4.0, 5.0]) / 6
    grid = np.stack(np.meshgrid(k, k, [-np.pi / 2, np.pi / 2], indexing="ij"), axis=-1)
    low, high = [0.15, 0.15, -math.pi], [math.pi - 0.15, math.pi - 0.15, math.pi]
    draws = np.random.default_rng(seed).uniform(low, high, size=(8, 3))
    guess = np.reshape([] if initial_guess is None else initial_guess, (-1, 3))
    starts = np.concatenate((guess, grid.reshape(-1, 3), draws))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, res = fourlevel.solvers._ntype_lm(starts, np.asarray(b, dtype=float), residual_tol)
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
    theta1, theta2, gamma2_T = (float(v) for v in x[np.argmin(area)])
    gamma1_T = -math.sin(theta2) / math.sin(theta1) * gamma2_T
    return AnglePair(gamma1_T, theta1, math.pi / 2, gamma2_T, theta2, math.pi / 2)

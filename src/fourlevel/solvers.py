"""Boundary-value solvers for the three four-level coupling topologies.

Each solver takes a normalized real target amplitude vector b (the system
starts in level 1) and returns the smooth cosine ramp to the rotation
vectors v1, v2 of the two factors as a SolvedAngles, an immutable named
tuple.  Each topology's forbidden couplings are a linear condition on (v1,
v2), which the solver meets by assignment (tripod v1 = v2, diamond v1z =
v2z = 0, N-type v1y = v2y = 0, v1z = -v2z): each is exactly 0.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter, sub
from typing import NamedTuple

import numpy as np

from .quat4 import _exp, _log, hamilton
from .rotation import AnglePair, CosineRamp, CouplingSet, _check_horizon

#: The largest final-state residual |q p - b| of a converged N-type candidate.
_NTYPE_RESIDUAL_TOL = 1e-8
#: N-type loop search: lock sample points; the final bracket width, one sample step
#: over 16 to the power _NTYPE_REFINE_STEPS (as many 16-part cuts would give;
#: 0 refines nothing); the interpolation steps a bracket may take before it is
#: only halved (_ntype_falsi); the distance from an axis +-e_k within which
#: every step is a 16-part cut; and the turns k, m added to gamma1(T),
#: gamma2(T) in units of 2 pi (every root of pulse area at most 3 pi has
#: k, m in -1..1).
_NTYPE_LOOP_POINTS = 128
_NTYPE_REFINE_STEPS = 11
_NTYPE_FALSI_STEPS = 16
_NTYPE_AXIS_DISTANCE = 1e-3
_NTYPE_TURNS = np.array([-1.0, 0.0, 1.0])
#: The lock sample's inputs, each computed once: the closed grid of psi (last =
#: first + 2 pi), the steps between its points, the grid's trig in _ntype_loop
#: (cos psi, sin^2(psi/2), cos^2(psi/2), sin psi), and the turn pairs (k, m) in
#: _NTYPE_TURNS, k-major, as the angles (2 pi k, 2 pi m) that the lock adds.
_NTYPE_SAMPLE_PSI = (np.arange(_NTYPE_LOOP_POINTS + 1) + 0.5) * (2 * math.pi / _NTYPE_LOOP_POINTS)
_NTYPE_SAMPLE_STEPS = np.full(_NTYPE_LOOP_POINTS, 2 * math.pi / _NTYPE_LOOP_POINTS)
_NTYPE_SAMPLE_TRIG = (
    np.cos(_NTYPE_SAMPLE_PSI), np.sin(_NTYPE_SAMPLE_PSI / 2) ** 2,
    np.cos(_NTYPE_SAMPLE_PSI / 2) ** 2, np.sin(_NTYPE_SAMPLE_PSI),
)
_NTYPE_PAIRS = np.stack(np.meshgrid(_NTYPE_TURNS, _NTYPE_TURNS, indexing="ij"), axis=-1).reshape(-1, 2)
_NTYPE_PAIR_TURNS = 2 * math.pi * _NTYPE_PAIRS
#: _ntype_bounds' terms for the sample's bracket of pair n and step j: the pair's
#: pi (max(2k, -2k - 1) + |2m + 1/2|), and the most of cos(psi - pi [m < 0]) over
#: the bracket, 1 where it holds a multiple of 2 pi, else at an end (solve_ntype).
_NTYPE_PAIR_AREA = math.pi * (
    np.maximum(2 * _NTYPE_PAIRS[:, 0], -2 * _NTYPE_PAIRS[:, 0] - 1) + np.abs(2 * _NTYPE_PAIRS[:, 1] + 0.5)
)
_lo = _NTYPE_SAMPLE_PSI[:-1] - math.pi * (_NTYPE_PAIRS[:, 1:] < 0)
_hi = _lo + _NTYPE_SAMPLE_STEPS
_NTYPE_SAMPLE_TOP = np.where(_hi // (2 * math.pi) > _lo // (2 * math.pi), 1.0, np.maximum(np.cos(_lo), np.cos(_hi)))
del _lo, _hi
#: The lock sample points added for a guess lie this far in psi to either side of
#: its loop points; rounding in the guess moves those by up to about 1e-8.
_NTYPE_GUESS_OFFSET = 1e-6
#: A guess-free solve stops at the first bracket whose _ntype_bounds exceeds the
#: least converged area by more than this (a converged candidate's |v1| + |v2|
#: differs from |gamma1(T)| + |gamma2(T)| by at most 1.4e-8 on stress targets).
_NTYPE_STAGE_MARGIN = 1e-6
#: The axis families are built only where their candidates can converge (see
#: solve_ntype): q = +-1 and p = +-1 for |b1 b3| <= _NTYPE_UNIT_REACH (1 + |b1|),
#: the odd multiples of pi/2 for hypot(b2, b4) <= _NTYPE_QUARTER_REACH.
_NTYPE_UNIT_REACH = _NTYPE_RESIDUAL_TOL + 1e-15
_NTYPE_QUARTER_REACH = _NTYPE_RESIDUAL_TOL + 3e-15


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
#: The forbidden entries of a CouplingSet, read by index.
_FORBIDDEN_ITEMS = {c: itemgetter(*map(CouplingSet._fields.index, n)) for c, n in FORBIDDEN.items()}


class SolverError(Exception):
    pass


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
        with np.errstate(over="ignore"):  # an overflow is rejected here
            norm2 = b @ b
        if abs(norm2 - 1.0) > 1e-10:
            raise ValueError(f"target norm^2 = {norm2} is not 1 within 1e-10")
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


class SolvedAngles(NamedTuple):
    """The cosine ramp to the rotation vectors v1, v2, with generator r'(t)
    G, G = schedule.generator, and its views: boundary, the AnglePair, and
    constraint_residual, G's largest forbidden entry times the ramp's peak
    rate pi/(2T), 0.0 for every solve.  It checks nothing (built by tuple.__new__)."""

    config: LevelConfig
    schedule: CosineRamp

    @property
    def boundary(self) -> AnglePair:
        return self.schedule.final

    @property
    def constraint_residual(self) -> float:
        return max(map(abs, _FORBIDDEN_ITEMS[self.config](self.schedule.generator))) * self.schedule.peak_rate

    @property
    def within_canonical_ranges(self) -> bool:
        """Whether boundary falls in gamma, theta in [0, pi], phi in [0, 2 pi]:
        the view's theta and phi always do, so whether both gamma_i do."""
        a = self.boundary
        return 0.0 <= a.gamma1 <= math.pi and 0.0 <= a.gamma2 <= math.pi


def solve_tripod(target: TargetSpec, horizon: float = 1.0) -> SolvedAngles:
    """Closed-form rotation vectors for the inverse-tripod topology.

    Both factors share one rotation vector v, so q p = exp(2 v) = b and v =
    log(b) / 2: the angle atan2(|(b2, b3, b4)|, b1) / 2 along (b2, b3, b4),
    along i for b = -e1 (and v = 0 for b = e1).
    """
    x, y, z = _log(*target.b.tolist())
    v = (0.5 * x, 0.5 * y, 0.5 * z)
    return tuple.__new__(SolvedAngles, (LevelConfig.INVERSE_TRIPOD, CosineRamp(v, v, horizon)))


def solve_diamond(target: TargetSpec, horizon: float = 1.0) -> SolvedAngles:
    """Rotation vectors for the diamond topology, with theta1 free.

    The constraint set is v1z = v2z = 0, so q = cos(gamma1) + sin(gamma1)
    (E i + G j), E = cos(theta1), G = sin(theta1), and p likewise has no k
    part.  The state q p = b fixes p = conj(q) b for every gamma1, and the k
    part of conj(q) b is cos(gamma1) b4 - sin(gamma1) (b3 E - b2 G).  It
    vanishes at gamma1 = atan2(b4, b3 E - b2 G); then v1 = gamma1 (E, G, 0)
    and v2 = log(p) with p's k part set to 0.  The construction is exact for
    every unit target and theta1: on the plane b4 = b3 E - b2 G = 0, which q
    alone reaches, every gamma1 zeroes the k part and atan2 picks one.
    """
    theta1 = float(target.free_params.get("theta1", math.pi / 2))
    b = target.b.tolist()
    _, b2, b3, b4 = b
    E, G = math.cos(theta1), math.sin(theta1)
    gamma1 = math.atan2(b4, b3 * E - b2 * G)
    s1 = math.sin(gamma1)
    pw, px, py, _ = hamilton((math.cos(gamma1), -s1 * E, -s1 * G, 0.0), b)
    v1 = (gamma1 * E, gamma1 * G, 0.0)
    return tuple.__new__(SolvedAngles, (LevelConfig.DIAMOND, CosineRamp(v1, _log(pw, px, py, 0.0), horizon)))


def _ntype_loop_constants(b) -> tuple:
    """_ntype_loop's constants of a unit target b, floats, once per solve: (b1, b3,
    r^2 + b3^2, hypot(r, b3), 2 h, h, w), r = hypot(b2, b4), as named there."""
    b1, b2, b3, b4 = b.tolist()
    r = math.hypot(b2, b4)
    h = math.atan2(r, abs(b3))
    return b1, b3, r * r + b3 * b3, math.hypot(r, b3), 2 * h, h, math.atan2(b4, b2)


def _ntype_loop(psi, loop):
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
    relative accuracy at the folds.  One body serves arrays, with xp = numpy,
    and floats (the per-bracket refinement), with xp = math; it reads b from
    loop = _ntype_loop_constants(b), and the grid's trig from _NTYPE_SAMPLE_TRIG."""
    xp, atan2 = (math, math.atan2) if isinstance(psi, float) else (np, np.arctan2)
    b1, b3, rb, hyp, h2, h, w = loop
    if psi is _NTYPE_SAMPLE_PSI:
        cos_psi, sin2_half, cos2_half, sin_psi = _NTYPE_SAMPLE_TRIG
    else:
        cos_psi, sin2_half, cos2_half, sin_psi = xp.cos(psi), xp.sin(psi / 2) ** 2, xp.cos(psi / 2) ** 2, xp.sin(psi)
    u = h * cos_psi
    c2, s2 = xp.sin(u), xp.cos(u)
    root = xp.copysign(hyp * xp.sqrt(xp.sin(h2 * sin2_half) * xp.sin(h2 * cos2_half)), sin_psi)
    c1 = b1 * c2 + root
    s1 = xp.hypot(c2 * root - b1 * s2 * s2, b3) / s2  # s1 s2 = |(c1 c2 - b1, b3)|
    theta1 = w + atan2(c1 * b3, c2 * rb - b1 * root)
    theta2 = w - atan2(c2 * b3, root)
    return atan2(s1, c1), theta1, math.pi / 2 - u, theta2


def _ntype_lock(psi, loop, turn1, turn2):
    """The lock gamma1 sin(theta1) + gamma2 sin(theta2) on the loop (floats or arrays),
    with gamma_i = gamma_i(psi) + turn_i, the turns (2 pi k, 2 pi m) of a pair."""
    g1, theta1, g2, theta2 = _ntype_loop(psi, loop)
    sin = math.sin if isinstance(psi, float) else np.sin
    return (g1 + turn1) * sin(theta1) + (g2 + turn2) * sin(theta2)


def _ntype_loop_brackets(loop, guess=None):
    """The sign changes of the lock along the loop of _ntype_loop_constants
    loop, as (loop, turns, psi, steps, f, n, j): the lock f[p, s] at psi[s]
    for the turns (2 pi k, 2 pi m) = turns[p]; bracket i is the step j[i] of
    the pair n[i], in the order k, m (the guess's pair last), psi.  The lock
    is sampled at _NTYPE_LOOP_POINTS points for every turn pair with k, m in
    _NTYPE_TURNS (module constants); with guess = (k, m, points), also for
    the guess's pair, with its points added to the sample.  Off the axes
    _ntype_falsi closes each bracket in at most 61 lock evaluations: on
    3,000 seeded random targets (55,328 brackets) 4.9 on average and 51 at
    most.  It tests no target: _ntype_root calls it only where the loop can
    hold a root that no axis family holds."""
    psi, steps, turns = _NTYPE_SAMPLE_PSI, _NTYPE_SAMPLE_STEPS, _NTYPE_PAIR_TURNS
    if guess is not None:
        k, m, points = guess
        turns = np.concatenate((turns, [[2 * math.pi * k, 2 * math.pi * m]]))
        psi = np.sort(np.concatenate((psi, (points - psi[0]) % (2 * math.pi) + psi[0])))
        steps = np.diff(psi)
    f = _ntype_lock(psi, loop, turns[:, :1], turns[:, 1:])
    pos, finite = f > 0, np.isfinite(f)
    n, j = np.nonzero((pos[:, :-1] != pos[:, 1:]) & finite[:, :-1] & finite[:, 1:])
    return loop, turns, psi, steps, f, n, j


def _ntype_bounds(brackets) -> list:
    """A lower bound on the pulse area |gamma1(T)| + |gamma2(T)| of a root in
    each bracket of a guess-free _ntype_loop_brackets (solve_ntype): the
    least |gamma1(psi) + 2 pi k| over the loop plus the least |gamma2(psi) +
    2 pi m| over the bracket, from _NTYPE_PAIR_AREA and _NTYPE_SAMPLE_TOP."""
    (*_, h, _), *_, n, j = brackets
    return (_NTYPE_PAIR_AREA[n] - h * _NTYPE_SAMPLE_TOP[n, j]).tolist()


def _ntype_refine(b, brackets, order):
    """Yields (gamma1(T), theta1, gamma2(T), theta2), gamma_i(T) the loop's
    plus the turns, at the lock's sign change in each bracket i of
    _ntype_loop_brackets, for i in order.

    Each bracket is closed to the final width, one sample step over
    16**_NTYPE_REFINE_STEPS, and its root is the midpoint: it depends on its
    own bracket alone, so refining the brackets in parts, or not at all,
    changes no other root.  Off the axes each bracket is read and refined on
    its own, on floats, when its root is asked for (_ntype_falsi: at most 61
    lock evaluations, 4.9 on average), and its root is read off by the float
    _ntype_loop at its midpoint.  Within _NTYPE_AXIS_DISTANCE of an axis
    +-e_k, one final width in psi moves a root's pulse area by up to about
    1e-8, so there, at the first ask, every step cuts every open bracket
    into 16 parts, in one lock call, and keeps the part where the sign
    first changes: the cut sequence's roots, read off in one array
    _ntype_loop call.
    """
    final = 2 * math.pi / _NTYPE_LOOP_POINTS / 16.0**_NTYPE_REFINE_STEPS
    loop, turns, psi, steps, f, n, j = brackets
    n, j = n[order], j[order]
    if max(abs(b)) ** 2 <= 1.0 - _NTYPE_AXIS_DISTANCE**2:
        for p, s in zip(n.tolist(), j.tolist()):
            t, u = turns[p].tolist()
            root = _ntype_falsi(loop, t, u, psi[s].item(), steps[s].item(), *f[p, s : s + 2].tolist(), final)
            g1, theta1, g2, theta2 = _ntype_loop(root, loop)
            yield g1 + t, theta1, g2 + u, theta2
        return
    k, m, left, width, f_hi = turns[n, :1], turns[n, 1:], psi[j, None], steps[j, None], f[n, j + 1, None]
    sign, cut = f[n, j, None] > 0, np.arange(1, 16) / 16
    for _ in range(_NTYPE_REFINE_STEPS):
        part = width / 16 * (width > final)  # 0 for a closed bracket, which keeps its ends
        values = np.concatenate((_ntype_lock(left + width * cut, loop, k, m), f_hi), axis=1)
        left = left + part * np.argmax((values > 0) != sign, axis=1)[:, None]  # the right end always flips
        width = np.where(part > 0, part, width)
    g1, theta1, g2, theta2 = _ntype_loop(left[:, 0] + width[:, 0] / 2, loop)
    yield from np.stack((g1 + k[:, 0], theta1, g2 + m[:, 0], theta2), axis=1).tolist()


def _ntype_falsi(loop, turn1, turn2, lo, width, f_lo, f_hi, final) -> float:
    """The midpoint, once at most final wide, of one bracket [lo, lo + width]
    of the lock (on floats), whose end values f_lo, f_hi differ in sign
    (> 0 against <= 0).  Each step evaluates the lock at one point and keeps
    the part where the sign changes.  The point is the inverse quadratic
    interpolation through both ends and the point the last step dropped,
    wherever it falls inside the bracket (as in Brent's zeroin, 1973, ch. 4),
    and otherwise regula falsi's point with the Illinois rule (Dowell &
    Jarratt, BIT 11 (1971) 168; an end kept twice in a row counts half); it
    is held final/2 inside either end, as in zeroin, so that a point within
    final/2 of the sign change closes the bracket at the next step.  The
    point is the midpoint after _NTYPE_FALSI_STEPS steps or at equal
    Illinois end values.  A bracket of at most one sample step then closes
    in 4 _NTYPE_REFINE_STEPS + 1 halvings (one for rounding): at most 61
    lock evaluations, and about 4.9 on average off the axes."""
    hi, pos, kept = lo + width, f_lo > 0, 0  # kept: the end the last step kept, -1 lo, 1 hi
    w_lo, w_hi, d, f_d = f_lo, f_hi, lo, f_lo  # the Illinois end values; the dropped point
    for n in range(_NTYPE_FALSI_STEPS + 4 * _NTYPE_REFINE_STEPS + 1):
        if width <= final:
            break
        if n < _NTYPE_FALSI_STEPS and w_lo != w_hi:
            x = math.nan  # no dropped point before the first step: d, f_d = lo, f_lo
            if f_d != f_lo and f_d != f_hi:  # Lagrange weights of hi and d; no divisor is 0
                x = lo + width * (f_lo / (f_lo - f_hi)) * (f_d / (f_d - f_hi))
                x += (d - lo) * (f_lo / (f_lo - f_d)) * (f_hi / (f_hi - f_d))
            if not lo < x < hi:
                x = lo + width * (w_lo / (w_lo - w_hi))
            x = min(max(x, lo + final / 2), hi - final / 2)
        else:
            x = lo + width / 2
        f = _ntype_lock(x, loop, turn1, turn2)
        if (f > 0) == pos:
            d, f_d, lo, f_lo, w_lo = lo, f_lo, x, f, f
            w_hi, kept = (w_hi / 2 if kept == 1 else w_hi), 1
        else:
            d, f_d, hi, f_hi, w_hi = hi, f_hi, x, f, f
            w_lo, kept = (w_lo / 2 if kept == -1 else w_lo), -1
        width = hi - lo
    return lo + width / 2


def _ntype_axis_roots(b, unit: bool, quarter: bool) -> np.ndarray:
    """(gamma1(T), theta1, gamma2(T), theta2) (n, 4) of the root families the
    loop cannot reach, where the lock rather than b sets one angle: with unit,
    the two families with one factor +-1, then with quarter the one with
    both gamma_i(T) odd multiples of pi/2.

    One factor is +-1, gamma_i(T) = j pi: the other is (-1)^j b, which
    needs b3 = 0, and the lock sets theta_i, sin(theta_i) =
    -gamma_o sin(theta_o) / (j pi) (theta_i = pi/2 if j = 0).  Both
    gamma_i(T) odd multiples of pi/2: q p = b needs b2 = b4 = 0, and the
    lock sets theta2.  Each candidate ignores the components it needs to
    vanish; the residual check decides.
    """
    b1, b2, b3, b4 = b
    families = []
    if unit:
        j = np.arange(-2.0, 3.0)[:, None]
        sign = 1.0 - 2.0 * (j % 2)
        g = np.arctan2(math.hypot(b2, b4), sign * b1) + 2 * math.pi * _NTYPE_TURNS
        theta = np.arctan2(sign * b4, sign * b2)
        free = np.where(j == 0, math.pi / 2, np.arcsin(-g * np.sin(theta) / (math.pi * j)))
        families.append(np.broadcast_arrays(math.pi * j, free, g, theta))  # q = +-1
        families.append(np.broadcast_arrays(g, theta, math.pi * j, free))  # p = +-1
    if quarter:
        half = (np.arange(-2.0, 2.0) + 0.5) * math.pi
        g1, g2 = half[:, None], half
        s = np.sin(g1) * np.sin(g2)
        delta = np.arctan2(s * b3, -s * b1)
        theta2 = np.arctan2(-g1 * np.sin(delta), g1 * np.cos(delta) + g2)
        families.append(np.broadcast_arrays(g1, theta2 + delta, g2, theta2))
    return np.concatenate([np.stack(f, axis=-1).reshape(-1, 4) for f in families])


def _ntype_guess_points(loop, gamma1: float, gamma2: float):
    """The turn pair (k, m) of a guess, and its loop points: gamma_i or
    -gamma_i, whichever has a non-negative sine, is g_i + 2 pi k_i with g_i
    in [0, pi], as a loop root's gamma_i(psi) + 2 pi k_i is, and the points
    lie _NTYPE_GUESS_OFFSET to either side of the psi with gamma2(psi) = g_2
    (the nearest fold if none) on both branches.  At a guess that is a root
    the lock changes sign between them, unless another root lies as near."""
    folded = [g if math.sin(g) >= 0.0 else -g for g in (gamma1, gamma2)]
    k, m = (g // (2 * math.pi) for g in folded)
    *_, h, _ = loop
    u = (math.pi / 2 - (folded[1] - 2 * math.pi * m)) / h
    psi = math.acos(max(-1.0, min(1.0, u)))
    return k, m, (np.array([[psi], [-psi]]) + [-_NTYPE_GUESS_OFFSET, _NTYPE_GUESS_OFFSET]).ravel()


def _ntype_candidate(b, root):
    """The candidate (x1, x2, z), v1 = (x1, 0, z), v2 = (x2, 0, -z), of a root
    (gamma1(T), theta1, gamma2(T), theta2), on floats (b a list): x_i =
    gamma_i cos(theta_i) and z the mean of z1 = gamma1 sin(theta1) and -z2,
    which splits the lock's rounding z1 + z2; its residual |q p - b| (inf if
    not finite), with the bits of numpy's norm over the same products; and
    its area |v1| + |v2| where converged, else inf."""
    g1, theta1, g2, theta2 = root
    x1, x2, z = g1 * math.cos(theta1), g2 * math.cos(theta2), (g1 * math.sin(theta1) - g2 * math.sin(theta2)) / 2
    try:
        res = math.sqrt(sum(map(pow, map(sub, hamilton(_exp((x1, 0.0, z)), _exp((x2, 0.0, -z))), b), (2,) * 4)))
    except ValueError:  # sin |v| at |v| = inf, for a guess's turns near the float range
        res = math.inf
    area = math.hypot(x1, z) + math.hypot(x2, z) if res <= _NTYPE_RESIDUAL_TOL else math.inf
    return (x1, x2, z), res if res < math.inf else math.inf, area


def _ntype_root(b, guess) -> tuple:
    """The chosen candidate (x1, x2, z) of solve_ntype for a guess of three
    floats, or None.  Before any lock sample it decides by solve_ntype's
    rule whether the loop is searched: not for b2 = b4 = 0, nor for b3 = 0
    unless a guess is given and |b4| <= _NTYPE_RESIDUAL_TOL.  A guess has
    every bracket refined; with none, the bound prunes them (solve_ntype),
    or near the axes, where one pass refines them all, their candidates."""
    unit_b = b / np.linalg.norm(b)
    if guess is not None:
        theta1, theta2, gamma2 = guess
        z = -gamma2 * math.sin(theta2)  # the lock: gamma1 sin(theta1) = z
        gamma1 = z / np.sin(theta1)
        guess_x = np.array([gamma1 * math.cos(theta1), gamma2 * math.cos(theta2), z])
        if not np.isfinite(guess_x).all():
            guess = None  # gamma1(T) beyond the float range, or 0 / 0
    b1, b2, b3, b4 = unit_b.tolist()
    families = (
        abs(b1 * b3) <= _NTYPE_UNIT_REACH * (1.0 + abs(b1)),
        math.hypot(b2, b4) <= _NTYPE_QUARTER_REACH,
    )
    brackets, n, candidate = None, 0, partial(_ntype_candidate, b.tolist())
    if not (b2 == b4 == 0.0 or b3 == 0.0 and (guess is None or abs(b4) > _NTYPE_RESIDUAL_TOL)):
        loop = _ntype_loop_constants(unit_b)  # else the axis families hold every root (solve_ntype)
        brackets = _ntype_loop_brackets(loop, None if guess is None else _ntype_guess_points(loop, gamma1, gamma2))
        n = len(brackets[-1])
    # (x, residual, area) of the loop roots by bracket (inf until refined), then of the axis families
    found = [(None, math.inf, math.inf)] * n
    found += map(candidate, _ntype_axis_roots(unit_b, *families).tolist()) if any(families) else ()
    best = min(map(itemgetter(2), found), default=math.inf)  # the least converged area
    bound = _ntype_bounds(brackets) if guess is None and n else [-math.inf] * n  # a guess refines every bracket
    order = sorted(range(n), key=bound.__getitem__)
    roots = _ntype_refine(unit_b, brackets, order)
    for i in order:
        if bound[i] > best + _NTYPE_STAGE_MARGIN:
            break
        found[i] = candidate(next(roots))
        best = min(best, found[i][2])
    if best == math.inf:  # every bracket was refined; the least residual over every family too
        res = found[:n] + list(map(candidate, _ntype_axis_roots(unit_b, True, True).tolist()))
        raise NoSolutionFoundError("N-type boundary-value solve did not converge", min(map(itemgetter(1), res)))
    if guess is None:
        return min(found, key=itemgetter(2))[0]
    x, _, area = map(np.array, zip(*found))
    converged = np.flatnonzero(area < math.inf)
    weight = np.array([1.0, 1.0, 2.0])  # |v1 - v1'|^2 + |v2 - v2'|^2, with v1z = z and v2z = -z on both sides
    dist = (((x - guess_x) ** 2) @ weight)[converged]
    # each distance is within 5 roundings (2^-53) of its exact value, so those
    # within 2^-48 of the least (every one if all overflow) are told apart by
    # the same less |v'|^2, on a scale where no term overflows
    tied = converged[dist <= dist.min() * (1.0 + 2.0**-48)]
    y, scale = x[tied], np.max(np.abs(x[tied]), initial=np.max(np.abs(guess_x)))
    return found[tied[np.argmin((y / scale * (y / scale - 2 * (guess_x / scale))) @ weight)]][0]


def solve_ntype(
    target: TargetSpec,
    horizon: float = 1.0,
    initial_guess: tuple[float, float, float] | None = None,
) -> SolvedAngles:
    """Rotation vectors v1 = (x1, 0, z), v2 = (x2, 0, -z) for the N-type
    (chain) topology: in angles phi1 = phi2 = pi/2, and the z parts are the
    lock gamma1 sin(theta1) + gamma2 sin(theta2) = 0.

    The search has no start point.  For each gamma2(T) the state q p = b
    fixes gamma1(T), theta1 and theta2 in closed form, on a loop through both
    square-root branches (_ntype_loop), so the lock is one scalar equation
    on the loop.  Its sign changes, for gamma1(T), gamma2(T) shifted by 2 pi
    k, 2 pi m with k, m in -1..1 (every root of pulse area at most 3 pi), are
    sampled at 128 points (_ntype_loop_brackets, on the _NTYPE_SAMPLE_*
    constants) and refined to brackets 2 pi / 128 / 16**11 wide
    (_ntype_refine), off the axes each on its own by inverse quadratic and
    Illinois steps on floats (at most 61 lock evaluations of about 1.2 us,
    4.9 on average on random targets), within 1e-3 of an axis +-e_k all at once by 16-part cuts; each bracket stops at that width, so
    its root does not depend on the brackets refined with it.  The axis
    families (_ntype_axis_roots) join the loop roots, or, where they hold
    every root (below), stand alone.  Each root becomes the candidate (x1,
    x2, z) of _ntype_candidate, which meets the constraints by assignment,
    with no division by sin(theta1); it converges if its residual |q p - b|
    is at most _NTYPE_RESIDUAL_TOL = 1e-8.

    An axis family is built only where its candidates can converge.  A
    q = +-1 candidate has q = +-exp(delta n1), delta its |v1| less j pi,
    and p = +-(b1, b2, 0, b4) / |(b1, b2, b4)|.  Its state cos(delta) p +
    sin(delta) n1 p differs from b, in components 1, 2, 4, by a part
    orthogonal to p of norm at least |b1 sin(delta)|, and in component 3 by
    at least |b3| - |sin(delta)|: a residual r needs |b1 b3| <= r (1 +
    |b1|).  A p = +-1 candidate's third component is below 4e-16.  Both
    families are built when |b1 b3| <= (1e-8 + 1e-15) (1 + |b1|), 1e-15
    covering the rounding of the state.  An odd-pi/2 candidate's components
    2 and 4 have norm below 3e-15 (on 20,000 seeded targets), so a residual
    r needs hypot(b2, b4) < r + 3e-15, and the family is built when
    hypot(b2, b4) <= 1e-8 + 3e-15.  A failed solve builds every family, for
    its least residual.

    One rule, checked before any lock sample, skips the loop where the
    axis families hold every root.  For b2 = b4 = 0 the loop is one point,
    whose sign changes are rounding.  For b3 = 0: with S_i = sin|v_i| /
    |v_i| and c_i = cos|v_i|, q p = (c1 c2 - S1 S2 (x1 x2 - z^2), c1 S2 x2 +
    c2 S1 x1, S1 S2 z (x1 + x2), z (c2 S1 - c1 S2)), so b3 = 0 needs q =
    +-1, p = +-1, z = 0 or v2 = -v1.  z = 0 gives q p = exp((x1 + x2) i)
    and v2 = -v1 gives q p = 1, both of residual at least |b4|.  So every
    root has q = +-1 or p = +-1, the unit families, unless b4 = 0, where the
    roots also fill the line z = 0, x1 + x2 = atan2(b2, b1) + 2 pi n; its
    least pulse area |x1| + |x2|, |atan2(b2, b1)|, is that of its point
    x1 = 0, a q = 1 root.  A solve with no guess therefore skips the loop
    for every b3 = 0.  A guess may select any point of the line, so it
    skips the loop only for |b4| > _NTYPE_RESIDUAL_TOL, where no candidate
    on the line or with v2 = -v1 converges.  No other component factors
    so: b4 = 0 also holds on the surface c2 S1 = c1 S2 (|v1| = |v2| among
    it), which no family holds.

    A solve with no guess refines only the brackets that can hold its root
    (branch and bound; Land & Doig, Econometrica 28 (1960) 497).  On the
    loop gamma1(psi) lies in [0, pi], so |gamma1(psi) + 2 pi k| >= 2 pi k
    for k >= 0 and 2 pi |k| - pi for k < 0; gamma2(psi) = pi/2 - h cos(psi)
    lies in [0, pi] and is monotone between the folds psi = 0, pi (mod 2
    pi), so over a bracket |gamma2(psi) + 2 pi m| is least at an end or at
    a fold it holds (pi/2 -+ h).  The sum bounds |gamma1(T)| + |gamma2(T)|
    for any root in the bracket (_ntype_bounds).  The brackets are refined
    in increasing bound, ties in the sample's order, up to the first whose
    bound exceeds the least converged area so far, the axis families' where
    built, by more than 1e-6.  A converged candidate's area |v1| + |v2|
    differs from |gamma1(T)| + |gamma2(T)| by at most the lock at its root
    (z splits it), 1.4e-8 at most on 2,000 stress targets, so no skipped
    bracket holds a candidate of smaller or equal area; and each bracket's
    root depends on that bracket alone.  So the solve returns the root of
    the search over every pair, bit for bit.  Without a converged candidate
    it refines every bracket.

    initial_guess = (theta1, theta2, gamma2(T)), three finite real numbers
    (ValueError otherwise), selects a root; it is not a start point.  Its
    vectors (x1', x2', z') take gamma1(T) from the lock.  Where the loop is
    searched, it also runs at the guess's turns (k, m), with sample points
    1e-6 to either side of its place on the loop (_ntype_guess_points).  The
    solve returns the converged candidate nearest the guess by |v1 - v1'|^2
    + |v2 - v2'|^2 (where each overflows, by that less |v1'|^2 + |v2'|^2,
    scaled so that no term overflows).  With no guess, or one whose vectors
    are not finite (sin(theta1) = 0, or gamma1(T) beyond the float range),
    the root has the least pulse area |v1| + |v2|.
    Ties go to the earlier candidate (loop roots by k, m, the guess's pair
    last, and psi; then the axis families).  A failed solve reports the
    least residual over every candidate.
    """
    _check_horizon(horizon)  # before the search, which may fail first
    if initial_guess is not None:
        guess = tuple(initial_guess) if isinstance(initial_guess, (Sequence, np.ndarray)) else ()
        if len(guess) != 3 or not all(map(_finite_real, guess)):
            raise ValueError(
                f"initial_guess must be three finite real numbers, got {initial_guess!r}"
            )
        initial_guess = tuple(map(float, guess))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # irregular points
        x1, x2, z = _ntype_root(target.b, initial_guess)
    return tuple.__new__(SolvedAngles, (LevelConfig.N_TYPE, CosineRamp((x1, 0.0, z), (x2, 0.0, -z), horizon)))

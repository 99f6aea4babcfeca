"""Schrodinger-equation propagation for time-dependent 4x4 Hamiltonians.

Fourth-order commutator-free Magnus integrator: each step applies two
matrix exponentials of Gauss-node-sampled Hamiltonian combinations H.
Each exp(-i dt H) is a Taylor polynomial of degree at most 12, with
scaling and squaring, evaluated by Paterson-Stockmeyer on stacks of 4x4
matrices stored as (4, 4, n) arrays, so that a stacked product is four
broadcast multiply-adds.  The truncation error is below 2^-53, so each step
map is unitary to rounding and the norm is conserved to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonian import analytic_evolution

DEFAULT_STEPS = 2000
_CHUNK = 1024  # steps per chunk: bounds the temporaries of exponentials and scan
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_W_PLUS = 0.25 + _GAUSS_OFFSET
_W_MINUS = 0.25 - _GAUSS_OFFSET
_NODES = np.array([0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET])  # in units of a step
# (early, late) node values @ _WEIGHTS = (right, left) Magnus factor exponents:
# the right factor weights the early node
_WEIGHTS = np.array([[_W_PLUS, _W_MINUS], [_W_MINUS, _W_PLUS]])


class InvalidHamiltonianError(ValueError):
    pass


class AccuracyError(RuntimeError):
    pass


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # (n,)
    states: np.ndarray  # (n, 4) complex
    populations: np.ndarray  # (n, 4)
    phases: np.ndarray  # (n, 3): phases of levels 2..4
    phase_relative_to_ground: np.ndarray  # (n,) bool, per-sample convention flag
    norm_drift: float

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _check_hermitian(h: np.ndarray, times: np.ndarray, atol: float = 1e-9) -> None:
    """Raise for the first sample of h (n, 4, 4) that is not finite and Hermitian."""
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite sample
        asymmetry = np.max(np.abs(h - np.swapaxes(h.conj(), -1, -2)), axis=(-2, -1))
    bad = ~(asymmetry <= atol)
    if np.any(bad):
        raise InvalidHamiltonianError(
            f"H(t={times[np.argmax(bad)]}) is not finite and Hermitian within {atol}"
        )


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of two stacks of 4x4 matrices in the (4, 4, ...) layout."""
    out = a[:, 0, None] * b[0]
    for k in range(1, 4):
        out += a[:, k, None] * b[k]
    return out


# The squarings leave each step map unitary to about 1e-15 dt |H|: past this
# step norm, the fewest steps allowed (100) would exceed the norm-drift gate.
_MAX_STEP_NORM = 1e8


def _taylor_degree(r: float) -> tuple[int, int]:
    """The smallest squaring count s, then the smallest degree m <= 12, with
    the Taylor remainder bound x^(m+1)/(m+1)! e^x <= 2^-53 at x = r / 2^s."""
    if not math.isfinite(r):
        raise InvalidHamiltonianError("dt * |H| overflows; H is too large")
    if r > _MAX_STEP_NORM:
        raise AccuracyError(
            f"dt * |H| = {r:.3e} exceeds {_MAX_STEP_NORM:.0e}; increase the step count"
        )
    # no degree suffices at x >= 2 (nor at x > 0.33), so start from x < 4
    s = max(0, math.frexp(r)[1] - 2)
    while True:
        x = r / 2.0**s
        for m in range(1, 13):
            if x ** (m + 1) / math.factorial(m + 1) * math.exp(x) <= 2.0**-53:
                return m, s
        s += 1


def _step_exponentials(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for a Hermitian stack H in the (4, 4, ...) layout.

    r is the largest Frobenius norm of -i dt H.  The Taylor polynomial
    sum_k X^k / k! of X = -i dt H / 2^s is evaluated by Paterson-Stockmeyer:
    with p = ceil(sqrt(m)) it takes the powers X^2..X^p and runs Horner's
    rule in X^p over blocks of p terms; the result is squared s times.
    """
    with np.errstate(over="ignore"):  # an overflow is rejected below
        r = dt * float(np.max(np.linalg.norm(h, axis=(0, 1))))
    m, s = _taylor_degree(r)
    p = math.isqrt(m - 1) + 1
    powers = [None, h * (-1j * dt / 2.0**s)]  # X^1..X^p; X^0 goes on the diagonal
    for _ in range(p - 1):
        powers.append(_matmul(powers[-1], powers[1]))

    def add_block(e: np.ndarray, j: int) -> np.ndarray:
        # e + sum_{i < p, jp + i <= m} X^i / (jp + i)!, in place
        for i in range(1, min(p, m - j * p + 1)):
            e += powers[i] * (1.0 / math.factorial(j * p + i))
        e[range(4), range(4)] += 1.0 / math.factorial(j * p)
        return e

    q, rem = divmod(m, p)
    if rem:
        e = add_block(np.zeros_like(powers[1]), q)
    else:  # the top block is X^0 / m! alone: start from X^p / m! in its place
        q -= 1
        e = add_block(powers[p] * (1.0 / math.factorial(m)), q)
    for j in range(q - 1, -1, -1):
        e = add_block(_matmul(e, powers[p]), j)
    for _ in range(s):
        e = _matmul(e, e)
    return e


def _scan(maps: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The states (n, 4) maps[k] ... maps[0] psi, k < n, of a (4, 4, n) stack.

    Blocks of about sqrt(n) steps are multiplied out side by side, then the
    block starts are chained: about 2 sqrt(n) Python iterations in place of n.
    """
    n = maps.shape[-1]
    size = math.isqrt(n - 1) + 1
    blocks = -(-n // size)
    # prefix[:, :, j, i]: the product of maps i, ..., 0 of block j; the zero
    # padding only feeds states past n
    prefix = np.pad(maps, ((0, 0), (0, 0), (0, blocks * size - n)))
    prefix = prefix.reshape(4, 4, blocks, size)
    for i in range(1, size):
        prefix[..., i] = _matmul(prefix[..., i], prefix[..., i - 1])
    starts = np.empty((4, blocks), dtype=complex)
    starts[:, 0] = psi
    for j in range(1, blocks):
        starts[:, j] = prefix[:, :, j - 1, -1] @ starts[:, j - 1]
    states = sum(prefix[:, k] * starts[k, :, None] for k in range(4))
    return states.reshape(4, -1)[:, :n].T


def _phase_readout(states: np.ndarray):
    """Relative phases of levels 2..4, referenced to level 1 when populated."""
    c1 = states[:, 0]
    relative = np.abs(c1) > 1e-8
    ref = np.where(relative, np.angle(np.where(relative, c1, 1.0)), 0.0)
    phases = np.angle(states[:, 1:]) - ref[:, None]
    phases = np.mod(phases + np.pi, 2 * np.pi) - np.pi
    return phases, relative


def propagate(
    h_of_t: Callable[[np.ndarray], np.ndarray],
    psi0: np.ndarray,
    T: float,
    steps: int = DEFAULT_STEPS,
) -> Trajectory:
    """Integrate i d/dt psi = H(t) psi from 0 to T on a uniform grid.

    h_of_t is called once, on the array of the 2 * steps Gauss nodes in
    time order; its result must broadcast to (2 * steps, 4, 4), so a
    constant Hamiltonian may return one 4x4 matrix.  Every node is checked
    before any exponential is taken.  Then, chunk by chunk, both Magnus
    factors of every step come from one stacked Taylor exponential, and the
    states from a blocked scan of the step maps.
    """
    if steps < 100:
        raise ValueError("steps must be at least 100")
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be positive and finite")
    psi = np.asarray(psi0, dtype=complex).copy()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")

    dt = T / steps
    times = np.linspace(0.0, T, steps + 1)
    states = np.empty((steps + 1, 4), dtype=complex)
    states[0] = psi
    nodes = (times[:-1, None] + _NODES * dt).ravel()
    h = np.broadcast_to(np.asarray(h_of_t(nodes), dtype=complex), (2 * steps, 4, 4))
    _check_hermitian(h, nodes)
    for lo in range(0, steps, _CHUNK):
        hi = min(lo + _CHUNK, steps)
        # (4, 4, step, early/late node) of this chunk
        pair = np.moveaxis(h[2 * lo : 2 * hi], 0, -1).reshape(4, 4, hi - lo, 2)
        right, left = np.moveaxis(_step_exponentials(pair @ _WEIGHTS, dt), -1, 0)
        states[lo + 1 : hi + 1] = _scan(_matmul(left, right), states[lo])

    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > 1e-6:
        raise AccuracyError(
            f"norm drift {drift:.3e} exceeds 1e-6; increase the step count"
        )
    phases, relative = _phase_readout(states)
    return Trajectory(
        times=times,
        states=states,
        populations=np.abs(states) ** 2,
        phases=phases,
        phase_relative_to_ground=relative,
        norm_drift=drift,
    )


def fidelity(psi: np.ndarray, target: np.ndarray, mod_global_phase: bool = True) -> float:
    """Overlap-squared between two normalized states.

    With mod_global_phase the usual |<target|psi>|^2; without it the
    squared real (Euclidean) overlap of the amplitude vectors, which is
    sensitive to a global phase difference.
    """
    psi = np.asarray(psi, dtype=complex)
    target = np.asarray(target, dtype=complex)
    for v in (psi, target):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("states must be normalized")
    overlap = np.vdot(target, psi)
    value = abs(overlap) ** 2 if mod_global_phase else overlap.real**2
    return float(min(value, 1.0))


def compare_with_analytic(traj: Trajectory, solved, ph) -> float:
    """Max deviation over the grid between the integrated trajectory and
    the exact evolution K(t) U_r(t) K(0)^dag applied to the initial state."""
    ref = analytic_evolution(solved, ph, traj.times) @ traj.states[0]
    return float(np.max(np.linalg.norm(traj.states - ref, axis=-1)))

"""Schrodinger-equation propagation for time-dependent 4x4 Hamiltonians.

Fourth-order commutator-free Magnus integrator: each step applies two
matrix exponentials of Gauss-node-sampled Hamiltonian combinations, so the
step map is exactly unitary (up to the accuracy of the Pade-based expm)
and the norm is conserved to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .hamiltonian import analytic_evolution

DEFAULT_STEPS = 2000
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_W_PLUS = 0.25 + _GAUSS_OFFSET
_W_MINUS = 0.25 - _GAUSS_OFFSET


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


def _check_hermitian(h: np.ndarray, t: float, atol: float = 1e-9) -> None:
    if np.max(np.abs(h - h.conj().T)) > atol:
        raise InvalidHamiltonianError(
            f"Hamiltonian sample at t={t} is not Hermitian within {atol}"
        )


def _phase_readout(states: np.ndarray):
    """Relative phases of levels 2..4, referenced to level 1 when populated."""
    c1 = states[:, 0]
    relative = np.abs(c1) > 1e-8
    ref = np.where(relative, np.angle(np.where(relative, c1, 1.0)), 0.0)
    phases = np.angle(states[:, 1:]) - ref[:, None]
    phases = np.mod(phases + np.pi, 2 * np.pi) - np.pi
    return phases, relative


def propagate(
    h_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    T: float,
    steps: int = DEFAULT_STEPS,
) -> Trajectory:
    """Integrate i d/dt psi = H(t) psi from 0 to T on a uniform grid."""
    if steps < 100:
        raise ValueError("steps must be at least 100")
    psi = np.asarray(psi0, dtype=complex).copy()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")

    dt = T / steps
    times = np.linspace(0.0, T, steps + 1)
    states = np.empty((steps + 1, 4), dtype=complex)
    states[0] = psi
    c_lo = 0.5 - _GAUSS_OFFSET
    c_hi = 0.5 + _GAUSS_OFFSET
    for n in range(steps):
        t = times[n]
        h1 = np.asarray(h_of_t(t + c_lo * dt), dtype=complex)
        h2 = np.asarray(h_of_t(t + c_hi * dt), dtype=complex)
        _check_hermitian(h1, t + c_lo * dt)
        _check_hermitian(h2, t + c_hi * dt)
        # commutator-free 4th order: right factor weights the early node
        psi = scipy.linalg.expm(-1j * dt * (_W_PLUS * h1 + _W_MINUS * h2)) @ psi
        psi = scipy.linalg.expm(-1j * dt * (_W_MINUS * h1 + _W_PLUS * h2)) @ psi
        states[n + 1] = psi

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
    psi0 = traj.states[0]
    worst = 0.0
    for t, psi in zip(traj.times, traj.states):
        ref = analytic_evolution(solved, ph, t) @ psi0
        worst = max(worst, float(np.linalg.norm(psi - ref)))
    return worst

"""Schrodinger-equation propagation for time-dependent 4x4 Hamiltonians.

Fourth-order commutator-free Magnus integrator: each step applies two
matrix exponentials of Gauss-node-sampled Hamiltonian combinations H, each
taken as V exp(-i dt w) V^dag from H = V diag(w) V^dag, so the step map is
unitary up to rounding and the norm is conserved to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonian import analytic_evolution

DEFAULT_STEPS = 2000
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_W_PLUS = 0.25 + _GAUSS_OFFSET
_W_MINUS = 0.25 - _GAUSS_OFFSET
_NODES = np.array([0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET])  # in units of a step


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


def _step_exponentials(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) = V exp(-i dt w) V^dag for a Hermitian stack H (n, 4, 4)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


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
    constant Hamiltonian may return one 4x4 matrix.  The step maps come from
    one batched eigh per Magnus factor; only the state product is sequential.
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
    # commutator-free 4th order: right factor weights the early node
    right = _step_exponentials(_W_PLUS * h[0::2] + _W_MINUS * h[1::2], dt)
    step_maps = _step_exponentials(_W_MINUS * h[0::2] + _W_PLUS * h[1::2], dt) @ right
    for n in range(steps):
        psi = step_maps[n] @ psi
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
    ref = analytic_evolution(solved, ph, traj.times) @ traj.states[0]
    return float(np.max(np.linalg.norm(traj.states - ref, axis=-1)))

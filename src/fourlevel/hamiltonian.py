"""Assembly of the physical (complex Hermitian) Hamiltonian.

The state carries relative phases through a diagonal unitary K(t); with
linear phase interpolation phi_k(t) = eps_k + Delta_k * t the phase rates
become constant detunings Delta_k on the diagonal, and the real rotation
generator picks up the phase factors on its off-diagonal couplings:

    H(t) = -hbar * sum_k Delta_k |k><k| + K(t) H_r(t) K(t)^dag,  hbar = 1.

Every function of t broadcasts over an array of times: the results gain
the time axes in front, e.g. total_hamiltonian returns (..., 4, 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rotation import CouplingSet, ur_of_angles
from .solvers import SolvedAngles


@dataclass(frozen=True)
class PhaseSchedule:
    """Linear phase interpolation between boundary phases.

    eps and eps_prime are the phases of levels 2..4 at t = 0 and t = T;
    phi_k(t) = eps_k + Delta_k t with Delta_k = (eps'_k - eps_k) / T.
    """

    eps: np.ndarray
    eps_prime: np.ndarray
    T: float

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        epsp = np.asarray(self.eps_prime, dtype=float)
        if eps.shape != (3,) or epsp.shape != (3,):
            raise ValueError("eps and eps_prime must each hold three phases")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(epsp))):
            raise ValueError("eps and eps_prime must be finite")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive and finite")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "eps_prime", epsp)

    @property
    def detunings(self) -> np.ndarray:
        return (self.eps_prime - self.eps) / self.T

    def phases(self, t) -> np.ndarray:
        """phi_k(t) for k = 2, 3, 4, shape (..., 3)."""
        return self.eps + np.multiply.outer(t, self.detunings)

    def frame(self, t) -> np.ndarray:
        """Diagonal of K(t): (1, e^{i phi_2}, e^{i phi_3}, e^{i phi_4}), phi_1 = 0."""
        k = np.ones(np.shape(t) + (4,), dtype=complex)
        k[..., 1:] = np.exp(1j * self.phases(t))
        return k


def phase_operator(ph: PhaseSchedule, t) -> np.ndarray:
    """Diagonal unitary K(t) = diag(1, e^{i phi_2}, e^{i phi_3}, e^{i phi_4})."""
    return np.where(np.eye(4, dtype=bool), ph.frame(t)[..., None], 0)


def total_hamiltonian(couplings: CouplingSet, ph: PhaseSchedule, t) -> np.ndarray:
    """Hermitian H(t) from the rotation couplings and the phase schedule.

    Diagonal is (0, -Delta_2, -Delta_3, -Delta_4); off-diagonal (n, m) is
    i * Omega_nm * e^{i (phi_n - phi_m)} with phi_1 = 0.
    """
    hr = 1j * couplings.to_matrix()  # Hermitian: i * (real antisymmetric)
    k = ph.frame(t)
    h = (k[..., :, None] * hr) * k.conj()[..., None, :]
    h[..., 1:, 1:] -= np.diag(ph.detunings)
    return h


def analytic_evolution(solved: SolvedAngles, ph: PhaseSchedule, t) -> np.ndarray:
    """Exact evolution operator U(t) = K(t) U_r(t) K(0)^dag."""
    ur = ur_of_angles(solved.schedule.value(t))
    return ph.frame(t)[..., :, None] * ur * ph.frame(0.0).conj()

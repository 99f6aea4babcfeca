"""Assembly of the physical (complex Hermitian) Hamiltonian.

The state carries relative phases through a diagonal unitary K(t); with
linear phase interpolation phi_k(t) = eps_k + Delta_k * t the phase rates
become constant detunings Delta_k on the diagonal, and the real rotation
generator picks up the phase factors on its off-diagonal couplings:

    H(t) = -hbar * sum_k Delta_k |k><k| + K(t) H_r(t) K(t)^dag,  hbar = 1.

Its exact evolution is K(t) U_r(t) K(0)^dag, U_r(t) the matrix of
C -> q C p at the pulse's q = exp(r(t) v1), p = exp(r(t) v2): quat4's exp
and builder on the two stored rotation vectors, with no angles.

Every function of t broadcasts over an array of times: the results gain
the time axes in front, e.g. total_hamiltonian returns (..., 4, 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat4 import _exp, _require_finite, _sandwich
from .rotation import _UPPER, CouplingSet, _check_horizon, _largest_magnitude
from .solvers import SolvedAngles


@dataclass(frozen=True)
class PhaseSchedule:
    """Linear phase interpolation between boundary phases.

    eps and eps_prime are the phases of levels 2..4 at t = 0 and t = T;
    phi_k(t) = eps_k + Delta_k t with Delta_k = (eps'_k - eps_k) / T, T
    checked by rotation._check_horizon and each Delta_k finite.
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
        _check_horizon(self.T)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "eps_prime", epsp)
        with np.errstate(over="ignore"):  # an overflow is rejected here
            object.__setattr__(self, "detunings", (epsp - eps) / self.T)
            if not np.all(np.isfinite(self.detunings)):
                raise ValueError(f"detunings (eps' - eps) / T not finite: {self.detunings}")
        # (|eps_k|, |Delta_k|) per level: |phi_k(t)| <= |eps_k| + |Delta_k| |t| (frame)
        object.__setattr__(self, "_reach", np.abs([eps, self.detunings]).T.tolist())

    def phases(self, t) -> np.ndarray:
        """phi_k(t) for k = 2, 3, 4, shape (..., 3); ValueError naming the t
        of largest |t| if some |eps_k| + |Delta_k| |t| is not finite there:
        that sum bounds |phi_k| at every smaller |t|, and is not finite for a
        t that is not finite."""
        worst = _largest_magnitude(t)
        for e, d in self._reach:
            if not math.isfinite(e + d * abs(worst)):
                raise ValueError(f"time t not finite, or a phase eps_k + Delta_k t overflows there: {worst}")
        return self.eps + np.multiply.outer(t, self.detunings)

    def frame(self, t) -> np.ndarray:
        """Diagonal of K(t): (1, e^{i phi_2}, e^{i phi_3}, e^{i phi_4}), phi_1 = 0,
        and phases' ValueError for a bad t."""
        k = np.ones(np.shape(t) + (4,), dtype=complex)
        k[..., 1:] = np.exp(1j * self.phases(t))
        return k


def _diagonal(d) -> np.ndarray:
    """The diagonal matrices (..., 4, 4) with the diagonals d (..., 4)."""
    return np.where(np.eye(4, dtype=bool), d[..., None], 0)


def _hermitian(diagonal, rows, cols, upper) -> np.ndarray:
    """The Hermitian matrices (..., 4, 4) with diagonal (0, *diagonal), the
    entries upper (..., n) at (rows, cols) above it and their conjugates
    below; the dtype follows the entries, so real ones give a real matrix."""
    h = np.zeros(upper.shape[:-1] + (4, 4), dtype=np.result_type(diagonal, upper))
    h[..., [1, 2, 3], [1, 2, 3]] = diagonal
    h[..., rows, cols] = upper
    h[..., cols, rows] = upper.conj()
    return h


def phase_operator(ph: PhaseSchedule, t) -> np.ndarray:
    """Diagonal unitary K(t) = diag(1, e^{i phi_2}, e^{i phi_3}, e^{i phi_4})."""
    return _diagonal(ph.frame(t))


def coupling_entries(couplings: CouplingSet, ph: PhaseSchedule, t) -> np.ndarray:
    """The six upper entries i * Omega_nm * e^{i (phi_n - phi_m)} of H(t),
    phi_1 = 0, in the order (1,2), (1,3), (1,4), (2,3), (2,4), (3,4): (..., 6).
    ValueError naming each non-finite coupling, or from ph.frame for a bad t."""
    k = ph.frame(t)
    with np.errstate(invalid="ignore", over="ignore"):  # tested below
        upper = (k[..., _UPPER[0]] * (1j * couplings.as_array())) * k[..., _UPPER[1]].conj()
        if not np.isfinite(upper.sum()):  # NaN and +-inf carry; it raises only for such a field
            _require_finite("couplings", CouplingSet._fields, couplings)
    return upper


def total_hamiltonian(couplings: CouplingSet, ph: PhaseSchedule, t) -> np.ndarray:
    """Hermitian H(t) from the rotation couplings and the phase schedule.

    Diagonal is (0, -Delta_2, -Delta_3, -Delta_4); the upper entries come
    from coupling_entries and the lower ones are their conjugates.
    """
    return _hermitian(-ph.detunings, *_UPPER, coupling_entries(couplings, ph, t))


def analytic_evolution(solved: SolvedAngles, ph: PhaseSchedule, t) -> np.ndarray:
    """Exact evolution operator U(t) = K(t) U_r(t) K(0)^dag (module docstring)."""
    ramp = solved.schedule
    r = ramp.ramp(t)
    ur = _sandwich(_exp([r * c for c in ramp.v1]), _exp([r * c for c in ramp.v2]))
    return ph.frame(t)[..., :, None] * ur * ph.frame(0.0).conj()

"""Quantum-optical realization of the diamond configuration.

Builds the lab-frame semiclassical Hamiltonian for a four-level atom
driven on the 1-2, 1-3, 2-4 and 3-4 transitions by quadrature-modulated
fields, transforms it to the laser-adapted interaction picture, applies
the rotating wave approximation under the four-photon resonance
condition, and maps the engineered Hamiltonian's detunings and couplings
to laser frequencies and complex Rabi amplitudes (and back).

hbar = 1 throughout.  Every function of t broadcasts over an array of
times, with the time axes in front of the matrix or amplitude axes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hamiltonian import PhaseSchedule, _diagonal, _hermitian, coupling_entries
from .rotation import _UPPER, CouplingSet
from .solvers import FORBIDDEN, LevelConfig

#: Position of each transition (a coupling the diamond does not forbid)
#: among coupling_entries' six upper entries.
_ENTRIES = [i for i, n in enumerate(CouplingSet._fields) if n not in FORBIDDEN[LevelConfig.DIAMOND]]
#: Lower and upper level index of each transition, in TRANSITIONS order.
_ROWS, _COLS = _UPPER[0][_ENTRIES], _UPPER[1][_ENTRIES]
TRANSITIONS = tuple(f"{m + 1}{n + 1}" for m, n in zip(_ROWS, _COLS))


class ResonanceViolationError(ValueError):
    pass


class UnsupportedConfigurationError(ValueError):
    pass


def _no_drive(t) -> np.ndarray:
    return np.zeros(np.shape(t) + (len(TRANSITIONS),), dtype=complex)


def _per_transition(values: dict[str, float]) -> np.ndarray:
    return np.array([values[k] for k in TRANSITIONS], dtype=float)


def _path_to_levels(values: dict[str, float]) -> np.ndarray:
    """A per-field quantity summed on the path 1 -> k: 0, x12, x13, x12 + x24."""
    return np.array([0.0, values["12"], values["13"], values["12"] + values["24"]])


@dataclass(frozen=True)
class QOParams:
    """Level frequencies, field frequencies/phases and the laser drive.

    rabi(t) returns the four complex Rabi amplitudes re + i im in
    TRANSITIONS order, shape np.shape(t) + (4,); re and im are the
    in-phase and out-of-phase quadratures of each field.
    """

    omega_levels: np.ndarray  # (3,): omega_2, omega_3, omega_4 (omega_1 = 0)
    omega_fields: dict[str, float]  # keys "12", "13", "24", "34"
    field_phases: dict[str, float] = field(
        default_factory=lambda: {k: 0.0 for k in TRANSITIONS}
    )
    rabi: Callable[[np.ndarray], np.ndarray] = _no_drive

    def __post_init__(self):
        levels = np.asarray(self.omega_levels, dtype=float)
        if levels.shape != (3,):
            raise ValueError("omega_levels must hold omega_2, omega_3, omega_4")
        object.__setattr__(self, "omega_levels", levels)
        for d in (self.omega_fields, self.field_phases):
            if set(d) != set(TRANSITIONS):
                raise ValueError(f"expected exactly the transitions {TRANSITIONS}")
        values = [*levels, *self.omega_fields.values(), *self.field_phases.values()]
        if not np.all(np.isfinite(values)):
            raise ValueError("level and field frequencies and phases must be finite")
        with np.errstate(over="ignore"):  # an overflow is rejected here
            detunings = self.rwa_detunings
        if not np.all(np.isfinite(detunings)):
            raise ValueError(f"rwa_detunings delta_2, delta_3, delta_4 not finite: {detunings}")

    @property
    def closed_loop_phase(self) -> float:
        p = self.field_phases
        return p["12"] - p["13"] + p["24"] - p["34"]

    @property
    def rwa_detunings(self) -> np.ndarray:
        """delta_k = 2 (omega_k - the field frequencies on the path 1 -> k),
        k = 2, 3, 4."""
        return 2.0 * (self.omega_levels - _path_to_levels(self.omega_fields)[1:])


def check_resonance(qo: QOParams) -> float:
    """Residual of the four-photon resonance condition
    omega_13 + omega_34 = omega_12 + omega_24."""
    w = qo.omega_fields
    return abs(w["13"] + w["34"] - w["12"] - w["24"])


def _drive(qo: QOParams, t) -> np.ndarray:
    """The four complex Rabi amplitudes at t, checked for shape."""
    z = np.array(qo.rabi(t), dtype=complex)
    if z.shape != np.shape(t) + (len(TRANSITIONS),):
        raise ValueError(
            f"rabi(t) must return {len(TRANSITIONS)} amplitudes per time, got shape {z.shape}"
        )
    return z


def lab_hamiltonian(qo: QOParams, t) -> np.ndarray:
    """Schrodinger-picture Hamiltonian with explicit carrier oscillations.

    Real symmetric: float64 (..., 4, 4), level frequencies on the diagonal
    and each field's real carrier-modulated drive on its transition, so
    propagate exponentiates it in real arithmetic.
    """
    z = _drive(qo, t)
    wf, fp = _per_transition(qo.omega_fields), _per_transition(qo.field_phases)
    phase = np.multiply.outer(t, wf) + fp
    drive = z.real * np.cos(phase) - z.imag * np.sin(phase)
    return _hermitian(qo.omega_levels, _ROWS, _COLS, drive)


def interaction_frame(qo: QOParams, t) -> np.ndarray:
    """Diagonal unitary of the laser-adapted rotating frame."""
    args = np.multiply.outer(t, _path_to_levels(qo.omega_fields))
    args += _path_to_levels(qo.field_phases)
    return _diagonal(np.exp(1j * args))


def interaction_hamiltonian(qo: QOParams, t) -> np.ndarray:
    """Full interaction-picture Hamiltonian U0 H U0^dag + i dU0/dt U0^dag,
    counter-rotating terms included."""
    u0 = interaction_frame(qo, t)
    shift = -np.diag(_path_to_levels(qo.omega_fields))
    return u0 @ lab_hamiltonian(qo, t) @ np.swapaxes(u0.conj(), -1, -2) + shift


def rwa_hamiltonian(qo: QOParams, t) -> np.ndarray:
    """Interaction-picture Hamiltonian after the rotating wave approximation.

    Requires the four-photon resonance condition; entries (1, 4) and
    (2, 3) are structural zeros of the diamond topology.
    """
    if check_resonance(qo) > 1e-9:
        raise ResonanceViolationError(
            f"four-photon resonance violated by {check_resonance(qo):.3e}"
        )
    z = _drive(qo, t)
    # the 3-4 field closes the loop; not *=, which on one time (a 0-d view)
    # rounds differently from the array product
    z[..., 3] = z[..., 3] * np.exp(-1j * qo.closed_loop_phase)
    return 0.5 * _hermitian(qo.rwa_detunings, _ROWS, _COLS, z)


def engineered_to_qo(
    couplings: Callable[[float], CouplingSet],
    ph: PhaseSchedule,
    omega_levels,
) -> QOParams:
    """Map an engineered diamond Hamiltonian to laser parameters.

    Laser frequencies absorb the constant detunings (so the RWA
    Hamiltonian's diagonal reproduces -Delta_k), the fourth frequency is
    fixed by four-photon resonance, the driving-field phases are zero
    (closed-loop phase 0), and each complex Rabi amplitude is twice the
    engineered Hamiltonian's entry, 2i e^{i(phi_j - phi_k)} Omega_jk with
    phi_1 = 0: rabi(t) reads these four of the six upper entries that
    hamiltonian.coupling_entries gives total_hamiltonian, so one
    evaluation of the couplings and of K(t) gives all four and no 4x4
    matrix is built.  couplings(t) must broadcast over an array of times.
    """
    levels = np.asarray(omega_levels, dtype=float)
    if levels.shape != (3,):
        raise ValueError("omega_levels must hold omega_2, omega_3, omega_4")
    probe = couplings(np.array([0.25, 0.5, 0.75]) * ph.T)
    if not np.isfinite(probe.as_array()).all():
        raise UnsupportedConfigurationError("couplings must be finite")
    forbidden = FORBIDDEN[LevelConfig.DIAMOND]
    if not np.max(np.abs([getattr(probe, name) for name in forbidden])) <= 1e-10:
        raise UnsupportedConfigurationError(
            f"couplings are not of diamond type ({', '.join(forbidden)} must vanish)"
        )

    w2, w3, w4 = levels.tolist()  # floats: an overflow gives inf, which QOParams rejects
    d2, d3, d4 = ph.detunings.tolist()
    omega_fields = {
        "12": w2 + d2,
        "13": w3 + d3,
        "24": w4 + d4 - w2 - d2,
        "34": w4 + d4 - w3 - d3,
    }
    if min(omega_fields.values()) > 0:
        spread = max(abs(d2 - d3), abs(d2 - d4), abs(d3 - d4), abs(d2), abs(d3), abs(d4))
        if spread > 1e-2 * min(omega_fields.values()):
            warnings.warn(
                "detuning spread is not small against the carrier frequencies; "
                "the quadrature envelopes may not be slowly varying",
                stacklevel=2,
            )

    def rabi(t) -> np.ndarray:
        return 2.0 * coupling_entries(couplings(t), ph, t)[..., _ENTRIES]

    return QOParams(
        omega_levels=levels,
        omega_fields=omega_fields,
        rabi=rabi,
    )

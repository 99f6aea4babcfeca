import math

import numpy as np
import pytest

from fourlevel.hamiltonian import PhaseSchedule, total_hamiltonian
from fourlevel.qo import (
    _COLS,
    _ROWS,
    QOParams,
    ResonanceViolationError,
    TRANSITIONS,
    UnsupportedConfigurationError,
    check_resonance,
    engineered_to_qo,
    interaction_hamiltonian,
    lab_hamiltonian,
    rwa_hamiltonian,
)
from fourlevel.rotation import CouplingSet, hr_analytic
from fourlevel.solvers import LevelConfig, TargetSpec, solve_diamond

from conftest import topology_couplings


def silent_params(omega_levels=(5.0, 6.0, 10.0), omega_fields=None):
    if omega_fields is None:
        omega_fields = {"12": 5.0, "13": 6.0, "24": 5.0, "34": 4.0}
    return QOParams(
        omega_levels=np.asarray(omega_levels, float), omega_fields=omega_fields
    )


def diamond_setup(eps_prime=(0.0, math.pi / 2, 0.0), T=1.0):
    solved = solve_diamond(
        TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
    )
    ph = PhaseSchedule(eps=np.zeros(3), eps_prime=np.asarray(eps_prime, float), T=T)

    def couplings(t):
        return hr_analytic(solved.schedule.value(t), solved.schedule.rate(t))

    return solved, ph, couplings


class TestQOParams:
    def test_rejects_wrong_levels(self):
        with pytest.raises(ValueError):
            QOParams(
                omega_levels=np.zeros(2),
                omega_fields={k: 1.0 for k in TRANSITIONS},
            )

    def test_rejects_missing_transition(self):
        with pytest.raises(ValueError):
            QOParams(
                omega_levels=np.zeros(3),
                omega_fields={"12": 1.0, "13": 1.0, "24": 1.0},
            )

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("omega_levels", np.array([1.0, math.nan, 2.0])),
            ("omega_fields", {"12": 1.0, "13": math.inf, "24": 1.0, "34": 1.0}),
            ("field_phases", {"12": 0.0, "13": 0.0, "24": math.nan, "34": 0.0}),
            # finite, but delta_2 = 2 (omega_2 - omega_12) overflows
            ("omega_levels", np.array([1e308, 1.0, 1.0])),
        ],
    )
    def test_rejects_non_finite(self, field, bad):
        kwargs = {"omega_levels": np.ones(3), "omega_fields": dict.fromkeys(TRANSITIONS, 1.0)}
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            QOParams(**kwargs)

    def test_closed_loop_phase(self):
        qo = QOParams(
            omega_levels=np.zeros(3),
            omega_fields={k: 1.0 for k in TRANSITIONS},
            field_phases={"12": 0.4, "13": 0.1, "24": 0.2, "34": 0.5},
        )
        assert qo.closed_loop_phase == pytest.approx(0.4 - 0.1 + 0.2 - 0.5)


class TestCheckResonance:
    def test_balanced_fields(self):
        qo = silent_params(omega_fields={"12": 1.0, "24": 1.0, "13": 1.0, "34": 1.0})
        assert check_resonance(qo) == 0.0

    def test_unbalanced_fields(self):
        qo = silent_params(omega_fields={"12": 1.0, "24": 1.0, "13": 1.0, "34": 1.5})
        assert check_resonance(qo) == pytest.approx(0.5)


class TestLabHamiltonian:
    def test_silent_fields_give_level_diagonal(self):
        h = lab_hamiltonian(silent_params(), 0.3)
        np.testing.assert_allclose(h, np.diag([0.0, 5.0, 6.0, 10.0]), atol=1e-15)

    def test_in_phase_quadrature_at_t0(self):
        qo = QOParams(
            omega_levels=np.array([5.0, 6.0, 10.0]),
            omega_fields={"12": 5.0, "13": 6.0, "24": 5.0, "34": 4.0},
            rabi=lambda t: np.array([0.7, 0.0, 0.0, 0.0], dtype=complex),
        )
        h = lab_hamiltonian(qo, 0.0)
        assert h[0, 1] == pytest.approx(0.7)
        assert h[1, 0] == pytest.approx(0.7)

    def test_hermitian(self, rng):
        qo = QOParams(
            omega_levels=rng.normal(size=3),
            omega_fields={k: float(rng.normal()) for k in TRANSITIONS},
            field_phases={k: float(rng.normal()) for k in TRANSITIONS},
            rabi=lambda t, ab=rng.normal(size=(4, 2)): ab[:, 0] + 1j * ab[:, 1],
        )
        h = lab_hamiltonian(qo, 0.7)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_real_symmetric_float64(self, rng):
        _, ph, couplings = diamond_setup()
        qo = engineered_to_qo(couplings, ph, [1000.0, 1350.0, 2600.0])
        h = lab_hamiltonian(qo, rng.uniform(0.0, 1.0, size=(30, 2)))
        assert h.dtype == np.float64 and h.shape == (30, 2, 4, 4)
        assert np.array_equal(h, np.swapaxes(h, -1, -2))

    def test_no_drive_on_forbidden_transitions(self, rng):
        qo = QOParams(
            omega_levels=np.zeros(3),
            omega_fields={k: 1.0 for k in TRANSITIONS},
            rabi=lambda t: np.full(4, 1.0 + 1.0j),
        )
        h = lab_hamiltonian(qo, 0.2)
        assert h[0, 3] == 0.0 and h[1, 2] == 0.0


class TestRwaHamiltonian:
    def test_detuning_convention(self):
        qo = silent_params(
            omega_levels=(5.0, 6.0, 10.0),
            omega_fields={"12": 4.9, "13": 6.0, "24": 5.1, "34": 4.0},
        )
        h = rwa_hamiltonian(qo, 0.0)
        assert h[1, 1] == pytest.approx(0.5 * 2 * (5.0 - 4.9))  # (hbar/2) * 0.2
        np.testing.assert_array_equal(np.diag(h)[1:], 0.5 * qo.rwa_detunings)

    def test_resonant_silent_fields_zero(self):
        qo = silent_params(
            omega_fields={"12": 5.0, "13": 6.0, "24": 5.0, "34": 4.0}
        )
        np.testing.assert_allclose(rwa_hamiltonian(qo, 0.1), 0, atol=1e-15)

    def test_structural_zeros(self, rng):
        qo = QOParams(
            omega_levels=rng.normal(size=3),
            omega_fields={"12": 1.0, "13": 1.5, "24": 2.0, "34": 1.5},
            rabi=lambda t: np.full(4, 1.0 - 1.0j),
        )
        h = rwa_hamiltonian(qo, 0.4)
        assert h[0, 3] == 0.0 and h[1, 2] == 0.0

    def test_rejects_resonance_violation(self):
        qo = silent_params(omega_fields={"12": 1.0, "24": 1.0, "13": 1.0, "34": 1.5})
        with pytest.raises(ResonanceViolationError):
            rwa_hamiltonian(qo, 0.0)


@pytest.mark.parametrize("hamiltonian", [lab_hamiltonian, rwa_hamiltonian])
@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), ()])
def test_rejects_wrong_drive_shape(hamiltonian, shape):
    qo = QOParams(
        omega_levels=np.array([5.0, 6.0, 10.0]),
        omega_fields={"12": 5.0, "13": 6.0, "24": 5.0, "34": 4.0},
        rabi=lambda t: np.zeros(shape, dtype=complex),
    )
    with pytest.raises(ValueError, match="amplitudes"):
        hamiltonian(qo, 0.3)


class TestEngineeredToQO:
    def test_resonance_satisfied_exactly(self):
        _, ph, couplings = diamond_setup()
        qo = engineered_to_qo(couplings, ph, [1000.0, 1350.0, 2600.0])
        assert check_resonance(qo) < 1e-12

    def test_zero_detuning_fields_are_level_resonant(self):
        _, ph, couplings = diamond_setup(eps_prime=(0.0, 0.0, 0.0))
        qo = engineered_to_qo(couplings, ph, [1000.0, 1350.0, 2600.0])
        assert qo.omega_fields["12"] == pytest.approx(1000.0)
        assert qo.omega_fields["13"] == pytest.approx(1350.0)
        assert qo.omega_fields["24"] == pytest.approx(1600.0)
        assert qo.omega_fields["34"] == pytest.approx(1250.0)

    def test_round_trip_closure(self):
        _, ph, couplings = diamond_setup()
        qo = engineered_to_qo(couplings, ph, [1000.0, 1350.0, 2600.0])
        for t in np.linspace(0.0, 1.0, 11):
            np.testing.assert_allclose(
                rwa_hamiltonian(qo, t),
                total_hamiltonian(couplings(t), ph, t),
                atol=1e-10,
            )

    def test_rabi_reads_the_engineered_hamiltonian(self, rng):
        # one coupling route: the amplitudes are twice total_hamiltonian's
        # entries on the four transitions, bit for bit
        _, ph, couplings = diamond_setup(eps_prime=(0.4, math.pi / 2, -0.3))
        qo = engineered_to_qo(couplings, ph, [1000.0, 1350.0, 2600.0])
        t = np.sort(rng.uniform(0.0, 1.0, 64))
        expected = 2 * total_hamiltonian(couplings(t), ph, t)[..., _ROWS, _COLS]
        assert np.array_equal(qo.rabi(t), expected)

    def test_closed_loop_phase_zero(self):
        _, ph, couplings = diamond_setup()
        qo = engineered_to_qo(couplings, ph, [1000.0, 1350.0, 2600.0])
        assert qo.closed_loop_phase == 0.0

    def test_rejects_wrong_levels(self):
        _, ph, couplings = diamond_setup()
        with pytest.raises(ValueError, match="omega_levels must hold"):
            engineered_to_qo(couplings, ph, [1000.0, 1350.0])

    def test_rejects_non_diamond_couplings(self):
        ph = PhaseSchedule(eps=np.zeros(3), eps_prime=np.zeros(3), T=1.0)

        def tripod_like(t):
            return CouplingSet(1.0, 1.0, 1.0, 0.5, 0.0, 0.0)  # omega23 != 0

        with pytest.raises(UnsupportedConfigurationError):
            engineered_to_qo(tripod_like, ph, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [None, *range(6)], ids=["all", *CouplingSet._fields])
    def test_rejects_non_finite_couplings(self, bad, index):
        # a NaN fails every ordered comparison, so it must not pass the
        # forbidden-coupling probe as "not above the tolerance"
        ph = PhaseSchedule(eps=np.zeros(3), eps_prime=np.zeros(3), T=1.0)
        values = [bad] * 6 if index is None else [bad if i == index else 0.0 for i in range(6)]

        def couplings(t):
            return CouplingSet(*(v + 0.0 * t for v in values))

        with pytest.raises(UnsupportedConfigurationError):
            engineered_to_qo(couplings, ph, [1000.0, 1350.0, 2600.0])

    def test_warns_on_large_detuning_spread(self):
        _, ph, couplings = diamond_setup(eps_prime=(0.0, math.pi / 2, 0.0))
        with pytest.warns(UserWarning):
            engineered_to_qo(couplings, ph, [10.0, 13.5, 26.0])

    def test_closure_with_topology_waveforms(self):
        # the per-topology closed-form couplings agree with the generator
        # read-off for the diamond, so the mapping closes for them too
        solved, ph, _ = diamond_setup()

        def couplings(t):
            return topology_couplings(LevelConfig.DIAMOND, solved, t)

        qo = engineered_to_qo(couplings, ph, [1000.0, 1350.0, 2600.0])
        for t in (0.2, 0.8):
            np.testing.assert_allclose(
                rwa_hamiltonian(qo, t),
                total_hamiltonian(couplings(t), ph, t),
                atol=1e-10,
            )


class TestInteractionPicture:
    def test_rwa_is_time_average_limit(self):
        # averaging the interaction-picture Hamiltonian over a fixed window
        # suppresses the counter-rotating terms ~1/omega, so the gap to the
        # (equally averaged) RWA matrix must shrink as the carrier grows
        _, ph, couplings = diamond_setup()
        t0, window = 0.45, 0.05
        gaps = []
        for scale, samples in ((1e3, 4001), (1e4, 40001)):
            qo = engineered_to_qo(couplings, ph, np.array([1.0, 1.35, 2.6]) * scale)
            grid = np.linspace(t0, t0 + window, samples)
            avg_full = interaction_hamiltonian(qo, grid).mean(axis=0)
            avg_rwa = rwa_hamiltonian(qo, grid).mean(axis=0)
            gaps.append(np.max(np.abs(avg_full - avg_rwa)))
        assert gaps[1] < gaps[0] / 3.0
        assert gaps[0] < 0.5

import math

import numpy as np
import pytest

from fourlevel.hamiltonian import (
    PhaseSchedule,
    analytic_evolution,
    coupling_entries,
    phase_operator,
    total_hamiltonian,
)
from fourlevel.rotation import _UPPER, CouplingSet, hr_analytic
from fourlevel.solvers import TargetSpec, solve_tripod

from conftest import full_matrix_total_hamiltonian

SQRT3 = math.sqrt(3.0)
ZERO_COUPLINGS = CouplingSet(0, 0, 0, 0, 0, 0)


def flat_phases(T=1.0):
    return PhaseSchedule(eps=np.zeros(3), eps_prime=np.zeros(3), T=T)


def tripod_phases(T=1.0):
    return PhaseSchedule(eps=np.zeros(3), eps_prime=np.full(3, math.pi / 3), T=T)


class TestPhaseSchedule:
    def test_boundary_values_exact(self):
        ph = PhaseSchedule(
            eps=np.array([0.1, 0.2, 0.3]), eps_prime=np.array([1.1, -0.4, 0.0]), T=2.0
        )
        np.testing.assert_array_equal(ph.phases(0.0), ph.eps)
        np.testing.assert_allclose(ph.phases(2.0), ph.eps_prime, atol=1e-15)

    def test_detunings(self):
        ph = tripod_phases(T=1.0)
        np.testing.assert_allclose(ph.detunings, math.pi / 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PhaseSchedule(eps=np.zeros(2), eps_prime=np.zeros(3), T=1.0)
        with pytest.raises(ValueError):
            PhaseSchedule(eps=np.zeros(3), eps_prime=np.zeros(3), T=0.0)

    @pytest.mark.parametrize(
        "eps, eps_prime, T",
        [
            (np.zeros(3), np.ones(3), math.nan),
            (np.zeros(3), np.ones(3), math.inf),
            (np.array([0.0, math.nan, 0.0]), np.ones(3), 1.0),
            (np.zeros(3), np.array([0.0, 0.0, math.inf]), 1.0),
        ],
    )
    def test_rejects_non_finite(self, eps, eps_prime, T):
        with pytest.raises(ValueError, match="finite"):
            PhaseSchedule(eps=eps, eps_prime=eps_prime, T=T)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-320])
    def test_rejects_bad_horizon(self, T):
        # T = 1e-320 gave detunings (inf, 0, 0) and a NaN frame at T/2
        with pytest.raises(ValueError, match="horizon T"):
            PhaseSchedule(eps=np.zeros(3), eps_prime=np.array([1.0, 0.0, 0.0]), T=T)

    @pytest.mark.parametrize(
        "eps, eps_prime, T",
        [
            ([-1e308, 0.0, 0.0], [1e308, 0.0, 0.0], 1.0),  # eps' - eps overflows
            ([0.0, 0.0, 0.0], [0.0, 0.0, 1e308], 0.5),  # (eps' - eps) / T overflows
        ],
    )
    def test_rejects_overflowing_detunings(self, eps, eps_prime, T):
        # a RuntimeWarning on the way would fail here too (pytest turns it
        # into an error)
        with pytest.raises(ValueError, match=r"detunings .* not finite: \[.*inf"):
            PhaseSchedule(eps=eps, eps_prime=eps_prime, T=T)


class TestPhaseOperator:
    def test_identity_for_zero_phases(self):
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(
                phase_operator(flat_phases(), t), np.eye(4), atol=1e-15
            )

    def test_final_phase_values(self):
        k = phase_operator(tripod_phases(), 1.0)
        expected = np.diag([1.0] + [np.exp(1j * math.pi / 3)] * 3)
        np.testing.assert_allclose(k, expected, atol=1e-15)

    def test_unitary(self, rng):
        ph = PhaseSchedule(
            eps=rng.normal(size=3), eps_prime=rng.normal(size=3), T=1.0
        )
        k = phase_operator(ph, 0.7)
        np.testing.assert_allclose(k @ k.conj().T, np.eye(4), atol=1e-12)


class TestTotalHamiltonian:
    def test_zero_couplings_zero_detunings(self):
        h = total_hamiltonian(ZERO_COUPLINGS, flat_phases(), 0.5)
        np.testing.assert_allclose(h, 0, atol=1e-15)

    def test_zero_phases_reduce_to_imaginary_couplings(self, rng):
        cs = CouplingSet(*rng.normal(size=6))
        h = total_hamiltonian(cs, flat_phases(), 0.4)
        np.testing.assert_allclose(h, 1j * cs.to_matrix(), atol=1e-15)

    def test_diagonal_is_negative_detunings(self):
        h = total_hamiltonian(ZERO_COUPLINGS, tripod_phases(), 0.2)
        np.testing.assert_allclose(
            np.diag(h).real, [0.0, -math.pi / 3, -math.pi / 3, -math.pi / 3]
        )
        assert h[1, 1].real == pytest.approx(-math.pi / 3)

    def test_hermitian(self, rng):
        cs = CouplingSet(*rng.normal(size=6))
        ph = PhaseSchedule(eps=rng.normal(size=3), eps_prime=rng.normal(size=3), T=1.0)
        h = total_hamiltonian(cs, ph, 0.6)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_matches_full_matrix_oracle(self, rng):
        # upper triangle and diagonal bit for bit; the lower triangle is the
        # exact conjugate, which the oracle's separately rounded lower
        # triangle meets to rounding
        t = rng.uniform(0.0, 1.0, size=(40, 3))
        cs = CouplingSet(*rng.normal(size=(6, 40, 3)))
        ph = PhaseSchedule(eps=rng.normal(size=3), eps_prime=rng.normal(size=3), T=1.0)
        h = total_hamiltonian(cs, ph, t)
        oracle = full_matrix_total_hamiltonian(cs, ph, t)
        rows, cols = _UPPER
        diagonal = (..., range(4), range(4))
        assert h.shape == oracle.shape == (40, 3, 4, 4)
        assert np.array_equal(h[..., rows, cols], oracle[..., rows, cols])
        assert np.array_equal(h[diagonal], oracle[diagonal])
        assert np.array_equal(h[..., cols, rows], h[..., rows, cols].conj())
        assert np.max(np.abs(h[..., cols, rows] - oracle[..., cols, rows])) < 1e-14

    @pytest.mark.parametrize("field", CouplingSet._fields)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [total_hamiltonian, coupling_entries])
    def test_rejects_non_finite_coupling(self, rng, field, bad, build):
        # a NaN coupling once gave a NaN H (row 1 [0, nan+nanj, 0, 0] for
        # omega12); one bad sample among 2048 is named by its field
        values = dict(zip(CouplingSet._fields, rng.normal(size=(6, 2048))))
        values[field][1000] = bad
        with pytest.raises(ValueError, match=rf"couplings not finite: {field}$"):
            build(CouplingSet(**values), tripod_phases(), np.linspace(0.0, 1.0, 2048))
        with pytest.raises(ValueError, match=rf"couplings not finite: {field}$"):
            build(CouplingSet(*[bad if f == field else 0.5 for f in CouplingSet._fields]), tripod_phases(), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda ph, t: total_hamiltonian(CouplingSet(*[0.5] * 6), ph, t),
            lambda ph, t: coupling_entries(CouplingSet(*[0.5] * 6), ph, t),
            phase_operator,
        ],
        ids=["total_hamiltonian", "coupling_entries", "phase_operator"],
    )
    def test_rejects_non_finite_time(self, bad, build):
        # phase_operator(ph, nan) once gave a NaN K; one bad time among 2048
        # is rejected too, and so is a bad time with zero detunings
        t = np.linspace(0.0, 1.0, 2048)
        t[7] = bad
        for ph, times in ((tripod_phases(), bad), (tripod_phases(), t), (flat_phases(), bad)):
            with pytest.raises(ValueError, match="time t not finite"):
                build(ph, times)

    @pytest.mark.parametrize(
        "build",
        [
            lambda ph, t: ph.frame(t),
            phase_operator,
            lambda ph, t: total_hamiltonian(CouplingSet(*[0.5] * 6), ph, t),
        ],
        ids=["frame", "phase_operator", "total_hamiltonian"],
    )
    def test_rejects_a_time_whose_phase_overflows(self, build):
        # eps_k + Delta_k t overflows at a finite t: frame(10.0) of this
        # schedule was [1, nan+nanj, 1, 1]; that t, the largest |t| alone or
        # among 2048, is named, and the times in [0, 1], where phi_2 reaches
        # 1e308, pass; so does t = 1 where the largest eps_k and the largest
        # Delta_k belong to different levels, each phi_k finite, though
        # their sum is not
        ph = PhaseSchedule(np.zeros(3), [1e308, 0.0, 0.0], 1.0)
        t = np.linspace(0.0, 1.0, 2048)
        t[7] = -10.0
        for times, named in ((10.0, "10.0"), (t, "-10.0")):
            with pytest.raises(ValueError, match=f"overflows there: {named}$"):
                build(ph, times)
        assert np.isfinite(build(ph, np.linspace(0.0, 1.0, 5))).all()
        assert build(ph, np.empty(0)).shape[0] == 0
        assert np.isfinite(build(PhaseSchedule([1e308, 0.0, 0.0], [1e308, 1e308, 0.0], 1.0), 1.0)).all()

    def test_phase_factors_on_couplings(self):
        cs = CouplingSet(1.0, 0, 0, 0, 0, 0)
        ph = PhaseSchedule(
            eps=np.array([0.3, 0.0, 0.0]), eps_prime=np.array([0.3, 0.0, 0.0]), T=1.0
        )
        h = total_hamiltonian(cs, ph, 0.0)
        # off-diagonal (1,2) carries i * e^{i(phi_1 - phi_2)} = i e^{-0.3i}
        assert h[0, 1] == pytest.approx(1j * np.exp(-0.3j))


class TestAnalyticEvolution:
    @pytest.fixture
    def tripod(self):
        return solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))

    def test_identity_at_t0(self, tripod):
        np.testing.assert_allclose(
            analytic_evolution(tripod, tripod_phases(), 0.0), np.eye(4), atol=1e-12
        )

    def test_final_state_with_phases(self, tripod):
        u = analytic_evolution(tripod, tripod_phases(), 1.0)
        psi = u @ np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array(
            [0.0] + [np.exp(1j * math.pi / 3) / SQRT3] * 3, dtype=complex
        )
        np.testing.assert_allclose(psi, expected, atol=1e-12)

    def test_rejects_a_time_whose_ramp_phase_overflows(self, tripod):
        # pi t/T overflows at t = 1e308: the ramp names that t, where the
        # angle map once blamed "angles not finite: gamma1, ..." and H(t)
        # the couplings; the phases of flat_phases() stay finite there
        for build in (
            lambda t: analytic_evolution(tripod, flat_phases(), t),
            lambda t: total_hamiltonian(tripod.schedule.couplings(t), flat_phases(), t),
        ):
            with pytest.raises(ValueError, match=r"pi t/T overflows there: 1e\+308$"):
                build(1e308)

    def test_unitary_along_path(self, tripod, rng):
        ph = PhaseSchedule(eps=rng.normal(size=3), eps_prime=rng.normal(size=3), T=1.0)
        for t in rng.uniform(0, 1, size=10):
            u = analytic_evolution(tripod, ph, t)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)

    def test_generator_identity(self, tripod):
        # i dU/dt U^dag must equal the assembled Hamiltonian
        ph = tripod_phases()
        t, h = 0.37, 1e-6
        du = (analytic_evolution(tripod, ph, t + h) - analytic_evolution(tripod, ph, t - h)) / (2 * h)
        gen = 1j * du @ analytic_evolution(tripod, ph, t).conj().T
        cs = hr_analytic(tripod.schedule.value(t), tripod.schedule.rate(t))
        np.testing.assert_allclose(gen, total_hamiltonian(cs, ph, t), atol=1e-6)

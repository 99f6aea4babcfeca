import math

import numpy as np
import pytest
import scipy.linalg

from fourlevel.hamiltonian import PhaseSchedule, total_hamiltonian
from fourlevel.propagator import (
    _CHUNK,
    AccuracyError,
    InvalidHamiltonianError,
    _scan,
    _step_exponentials,
    _taylor_degree,
    compare_with_analytic,
    fidelity,
    propagate,
)
from fourlevel.rotation import hr_analytic
from fourlevel.solvers import TargetSpec, solve_diamond, solve_ntype, solve_tripod

SQRT3 = math.sqrt(3.0)
PSI0 = np.array([1.0, 0, 0, 0], dtype=complex)


def hamiltonian_of(solved, ph):
    def h(t):
        cs = hr_analytic(solved.schedule.value(t), solved.schedule.rate(t))
        return total_hamiltonian(cs, ph, t)

    return h


def phases(eps_prime, T=1.0):
    return PhaseSchedule(eps=np.zeros(3), eps_prime=np.asarray(eps_prime, float), T=T)


class TestPropagate:
    def test_zero_hamiltonian(self):
        traj = propagate(lambda t: np.zeros((4, 4), complex), PSI0, 1.0, steps=100)
        np.testing.assert_allclose(traj.final_state, PSI0, atol=1e-14)
        assert traj.norm_drift < 1e-14

    def test_constant_hamiltonian_matches_exponential(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h0 = a + a.conj().T
        traj = propagate(lambda t: h0, PSI0, 1.0, steps=400)
        expected = scipy.linalg.expm(-1j * h0) @ PSI0
        np.testing.assert_allclose(traj.final_state, expected, atol=1e-10)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            propagate(lambda t: np.zeros((4, 4), complex), PSI0, 1.0, steps=10)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_bad_horizon(self, T):
        with pytest.raises(ValueError, match="T must be"):
            propagate(lambda t: np.zeros((4, 4), complex), PSI0, T, steps=100)

    def test_rejects_unnormalized_initial_state(self):
        with pytest.raises(ValueError):
            propagate(lambda t: np.zeros((4, 4), complex), 2 * PSI0, 1.0)

    def test_rejects_non_hermitian_sample(self):
        bad = np.zeros((4, 4), complex)
        bad[0, 1] = 1.0  # no conjugate partner
        with pytest.raises(InvalidHamiltonianError):
            propagate(lambda t: bad, PSI0, 1.0, steps=100)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_sample(self, value):
        # one bad node among finite ones names its time, and no exponential
        # of a non-finite stack is attempted
        def h(t):
            out = np.zeros(np.shape(t) + (4, 4), complex)
            out[7, 1, 1] = value
            return out

        with pytest.raises(InvalidHamiltonianError, match="not finite"):
            propagate(h, PSI0, 1.0, steps=100)

    def test_rejects_hamiltonian_too_large_to_exponentiate(self):
        huge = np.diag([1e200, 0, 0, 0]).astype(complex)
        with pytest.raises(InvalidHamiltonianError, match="too large"):
            propagate(lambda t: huge, PSI0, 1.0, steps=100)

    @pytest.mark.parametrize("norm", [1e9, 1e200])
    def test_rejects_step_norm_past_the_squaring_range(self, norm):
        # a finite dt |H| too large for the step map to stay unitary; each
        # Magnus factor takes half of H
        h = np.diag([2.0, 0, 0, 0]).astype(complex)
        with pytest.raises(AccuracyError, match=r"dt \* \|H\| = .* increase the step"):
            propagate(lambda t: h, PSI0, 100 * norm, steps=100)

    def test_fourth_order_convergence(self):
        solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        h = hamiltonian_of(solved, phases([math.pi / 3] * 3))
        ref = propagate(h, PSI0, 1.0, steps=4000).final_state
        err = [
            np.linalg.norm(propagate(h, PSI0, 1.0, steps=n).final_state - ref)
            for n in (125, 250)
        ]
        ratio = err[0] / err[1]
        assert 10.0 < ratio < 22.0  # ~16x per halving

    def test_norm_conserved(self):
        solved = solve_diamond(
            TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
        )
        traj = propagate(hamiltonian_of(solved, phases([0, math.pi / 2, 0])), PSI0, 1.0)
        assert traj.norm_drift < 1e-8


def random_hermitian(rng, n):
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return a + np.swapaxes(a.conj(), -1, -2)


def random_unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))[0]


def soa(stack):
    """(n, 4, 4) -> the (4, 4, n) layout of the propagator's kernels."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


# dt |H| (Frobenius) of the stacks below: every Taylor degree 1..12 without
# squaring, and the squaring path above 0.33
STEP_NORMS = [0, 1e-9, 1e-6, 1e-4, 1e-3, 4e-3, 0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.3, 3, 50]


class TestStepExponentials:
    def test_norms_cover_every_degree_and_squaring(self):
        degrees = [_taylor_degree(norm) for norm in STEP_NORMS]
        assert {m for m, s in degrees if s == 0} == set(range(1, 13))
        assert degrees[-1][1] > 0

    @pytest.mark.parametrize("norm", STEP_NORMS)
    def test_matches_expm_and_is_unitary(self, rng, norm):
        h = random_hermitian(rng, 50)
        h /= np.linalg.norm(h, axis=(-2, -1))[:, None, None]
        dt = float(norm)
        got = np.moveaxis(_step_exponentials(soa(h), dt), -1, 0)
        expected = scipy.linalg.expm(-1j * dt * h)
        assert np.max(np.abs(got - expected)) <= 1e-13
        unitarity = np.swapaxes(got.conj(), -1, -2) @ got - np.eye(4)
        assert np.max(np.abs(unitarity)) <= 1e-13


    @pytest.mark.parametrize("norm", [700, 1e3, 1e6])
    def test_large_step_norms_match_expm(self, rng, norm):
        # rounding in the s squarings grows linearly with dt |H|, and so
        # does expm's own error
        h = random_hermitian(rng, 50)
        h /= np.linalg.norm(h, axis=(-2, -1))[:, None, None]
        got = np.moveaxis(_step_exponentials(soa(h), float(norm)), -1, 0)
        expected = scipy.linalg.expm(-1j * norm * h)
        assert np.max(np.abs(got - expected)) <= 5e-15 * norm
        unitarity = np.swapaxes(got.conj(), -1, -2) @ got - np.eye(4)
        assert np.max(np.abs(unitarity)) <= 5e-15 * norm


class TestBlockedScan:
    @pytest.mark.parametrize("steps", [1, 2, 100, 101, 4097])
    def test_matches_sequential_product(self, rng, steps):
        maps = random_unitary(rng, steps)
        psi0 = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
        psi, expected = psi0, []
        for m in maps:
            psi = m @ psi
            expected.append(psi)
        got = _scan(soa(maps), psi0)
        assert got.shape == (steps, 4)
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_propagate_across_chunks_matches_sequential_magnus(self, rng):
        # every state of a run longer than two chunks against a plain
        # step-by-step CF4 Magnus product with scipy's expm
        steps, T = 2 * _CHUNK + 37, 1.3
        a, b = random_hermitian(rng, 2)

        def h(t):
            t = np.asarray(t)[..., None, None]
            return np.cos(3 * t) * a + t**2 * b

        traj = propagate(h, PSI0, T, steps)
        dt = T / steps
        c = math.sqrt(3.0) / 6
        early = h((np.arange(steps) + 0.5 - c) * dt)
        late = h((np.arange(steps) + 0.5 + c) * dt)
        right = scipy.linalg.expm(-1j * dt * ((0.25 + c) * early + (0.25 - c) * late))
        left = scipy.linalg.expm(-1j * dt * ((0.25 - c) * early + (0.25 + c) * late))
        psi, expected = PSI0, [PSI0]
        for n in range(steps):
            psi = left[n] @ (right[n] @ psi)
            expected.append(psi)
        assert np.max(np.abs(traj.states - expected)) <= 1e-13


class TestScenarios:
    def test_tripod_populations_and_phases(self):
        solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        ph = phases([math.pi / 3] * 3)
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        np.testing.assert_allclose(
            traj.populations[-1], [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-6
        )
        # level 1 empties, so the read-out falls back to raw arg(c_k)
        assert not traj.phase_relative_to_ground[-1]
        np.testing.assert_allclose(traj.phases[-1], math.pi / 3, atol=1e-5)

    def test_diamond_final_state(self):
        solved = solve_diamond(
            TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
        )
        ph = phases([0, math.pi / 2, 0])
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        target = np.array([0, 1, 1j, 0], dtype=complex) / math.sqrt(2)
        assert fidelity(traj.final_state, target) > 1 - 1e-6

    def test_ntype_final_state(self):
        solved = solve_ntype(
            TargetSpec(np.array([0.0, 0, 0, 1])),
            initial_guess=(math.pi / 6, math.pi / 2, -math.pi / 2),
        )
        ph = phases([0, 0, math.pi / 6])
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        target = np.array([0, 0, 0, np.exp(1j * math.pi / 6)], dtype=complex)
        assert fidelity(traj.final_state, target) > 1 - 1e-6
        # fidelity including the global phase must also be near 1 here
        assert fidelity(traj.final_state, target, mod_global_phase=False) > 1 - 1e-5

    def test_phase_readout_relative_while_ground_populated(self):
        solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        ph = phases([math.pi / 3] * 3)
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=500)
        mid = len(traj.times) // 2
        assert traj.phase_relative_to_ground[mid]


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(PSI0, PSI0) == 1.0

    def test_orthogonal_states(self):
        e2 = np.array([0, 1.0, 0, 0], dtype=complex)
        assert fidelity(PSI0, e2) == 0.0

    def test_global_phase_handling(self):
        psi = np.exp(1j * 0.9) * PSI0
        assert fidelity(psi, PSI0) == pytest.approx(1.0)
        assert fidelity(psi, PSI0, mod_global_phase=False) == pytest.approx(
            math.cos(0.9) ** 2
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            fidelity(2 * PSI0, PSI0)


class TestCompareWithAnalytic:
    @pytest.mark.parametrize(
        "solver_args, eps_prime",
        [
            (("tripod", None), [math.pi / 3] * 3),
            (("diamond", None), [0, math.pi / 2, 0]),
        ],
    )
    def test_worked_scenarios_agree(self, solver_args, eps_prime):
        kind, _ = solver_args
        if kind == "tripod":
            solved = solve_tripod(TargetSpec(np.array([0, 1, 1, 1]) / SQRT3))
        else:
            solved = solve_diamond(
                TargetSpec(np.array([0, 1, 1, 0]) / math.sqrt(2), {"theta1": math.pi / 2})
            )
        ph = phases(eps_prime)
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        assert compare_with_analytic(traj, solved, ph) < 1e-6

    def test_random_scenario_agrees(self, rng):
        b = rng.normal(size=4)
        solved = solve_tripod(TargetSpec(b / np.linalg.norm(b)))
        ph = PhaseSchedule(eps=rng.normal(size=3), eps_prime=rng.normal(size=3), T=1.0)
        traj = propagate(hamiltonian_of(solved, ph), PSI0, 1.0, steps=2000)
        assert compare_with_analytic(traj, solved, ph) < 1e-6
